"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload landscape --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` under the current directory, so one copy of the benchmark can
measure several checkouts (see perfbench/suite.py --base). The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the end-to-end
ones, measured untraced; with ``--trace 1`` they are the per-layer ones of a
separate traced run (see perfbench/README.md). The lines before it record
the machine and environment and the details behind the metrics (tail
percentile, failure and verdict counts).

Op and set-up times are CPU seconds (user + system) of the process doing
the work. The ops are single-threaded, so on an idle machine this equals
wall time; on a shared virtual machine it leaves out the time the
hypervisor gives to other guests. Wall time and the share of CPU time
stolen during the run are in the detail line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 16
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
PROBE_REPEATS = 3
INTERPRETER_REPEATS = 5
MAX_REPORTED_PROBLEMS = 5
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
MAX_SPANS = 2_000_000  # about 50 MB of span arrays; a traced run stops early past it


@dataclass
class Loop:
    """What one closed loop of ops produced."""

    samples: list[float] = field(default_factory=list)  # CPU seconds per passed op
    busy_s: float = 0.0  # CPU time inside ops, passed or failed
    attempted: int = 0
    failed: int = 0
    verdicts: int = 0
    fail_verdicts: int = 0
    pulse_evals: int = 0


def run_op(workload, inp, loop: Loop, tracer=None) -> None:
    loop.attempted += 1
    t0 = time.process_time()
    try:
        if tracer is None:
            out = workload.run(inp)
        else:
            with tracer.span("op"):
                out = workload.run(inp)
    except Exception:
        # one failed op must not end the run; it is counted and shown
        loop.busy_s += time.process_time() - t0
        loop.failed += 1
        if loop.failed <= MAX_REPORTED_PROBLEMS:
            traceback.print_exc(file=sys.stderr)
        return
    elapsed = time.process_time() - t0
    loop.busy_s += elapsed
    loop.pulse_evals += workload.pulse_evals(inp)
    problem = workload.check(inp, out)
    if problem is not None:
        loop.failed += 1
        if loop.failed <= MAX_REPORTED_PROBLEMS:
            print(f"perfbench: {workload.name}: {problem}", file=sys.stderr)
        return
    loop.samples.append(elapsed)
    verdict = workload.verdict(inp, out)
    if verdict is not None:
        loop.verdicts += 1
        loop.fail_verdicts += not verdict


def run_paired(workload, seconds: float, tracer, modules: dict) -> tuple[Loop, Loop]:
    """Run every block twice, untraced and traced, alternating which goes
    first, until ``seconds`` have passed or MAX_SPANS spans are recorded.
    Both loops see the same inputs, so their ratio is the tracing overhead."""
    plain, traced = Loop(), Loop()
    deadline = time.perf_counter() + seconds
    block = 0
    while True:
        first = block * workload.block
        inputs = [workload.make_input(first + j) for j in range(workload.block)]
        for loop in (plain, traced) if block % 2 == 0 else (traced, plain):
            with tracer.installed(modules) if loop is traced else contextlib.nullcontext():
                for inp in inputs:
                    run_op(workload, inp, loop, tracer if loop is traced else None)
        block += 1
        if time.perf_counter() >= deadline or len(tracer.start) >= MAX_SPANS:
            return plain, traced


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples above it; the maximum if there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n


def run_child(cmd: list[str], **kwargs) -> tuple[float, subprocess.CompletedProcess]:
    """Run a child interpreter to completion; return the CPU seconds it used
    and its result."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          stdin=subprocess.DEVNULL, **kwargs)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    return cpu, proc


def setup_probe(workload: str, seed: int) -> tuple[float, bool]:
    """CPU time of a fresh interpreter that imports the package, makes the
    inputs and runs one warm-up op, and whether that op passed."""
    cpu, proc = run_child(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.DEVNULL,
    )
    return cpu, proc.returncode == 0


def cpu_jiffies() -> tuple[int, int]:
    """(stolen, total) CPU time since boot from /proc/stat; (0, 0) where
    that file does not exist."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_share(start: tuple[int, int], end: tuple[int, int]) -> float:
    total = end[1] - start[1]
    return (end[0] - start[0]) / total if total else 0.0


def run_measured(workload, seconds: float, seed: int) -> tuple[Loop, Loop, list[float]]:
    """The untraced closed loop for ``seconds`` of op time, ending on a whole
    block, with SETUP_REPEATS set-up probes spread evenly over it, so that
    set-up times and op times both sample the whole run. Returns the op
    loop, the probes as ops, and the set-up times."""
    loop, probes, setup = Loop(), Loop(), []
    i = 0
    while loop.busy_s < seconds or i % workload.block:
        if len(setup) < SETUP_REPEATS and loop.busy_s >= seconds * len(setup) / SETUP_REPEATS:
            elapsed, ok = setup_probe(workload.name, seed)
            setup.append(elapsed)
            probes.attempted += 1
            probes.failed += not ok
        run_op(workload, workload.make_input(i), loop)
        i += 1
    return loop, probes, setup


def warm_up(workload) -> Loop:
    loop = Loop()
    run_op(workload, workload.make_input(0), loop)
    return loop


def environment(args) -> dict:
    import numpy

    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_start": list(os.getloadavg()),
        "steal_share_since_boot": steal_share((0, 0), cpu_jiffies()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads_env": SINGLE_THREAD,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(loop: Loop, setup: list[float], wall_s: float, steal: float) -> dict:
    samples = loop.samples or [0.0]  # no op passed: the result is not correct anyway
    tail_s, tail_pct = tail(samples)
    detail = {
        "samples": len(loop.samples),
        "op_s.tail_percentile": tail_pct,
        "failed_ratio": loop.failed / loop.attempted,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "verify_fail_verdicts": loop.fail_verdicts,
        "verify_verdicts": loop.verdicts,
        "setup_s.runs": setup,
        "wall_s": wall_s,
        "cpu_s": loop.busy_s,
        "steal_share": steal,
    }
    print(json.dumps({"detail": detail}))
    return {
        "ops_per_s": (len(loop.samples) / loop.busy_s, "1/s"),
        "op_s.p50": (statistics.median(samples), "s"),
        "op_s.tail": (tail_s, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def import_times() -> tuple[float, float]:
    """Seconds spent importing pulsesmith.cli and, within that, numpy,
    from ``-X importtime``."""
    _, proc = run_child(
        [sys.executable, "-X", "importtime", "-c", "import pulsesmith.cli"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=True,
    )
    package_us = numpy_us = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        if name.strip() == "numpy":
            numpy_us = int(cumulative)
        if name.startswith(" pulsesmith"):  # top level: one space, no indent
            package_us += int(cumulative)
    return package_us * 1e-6, numpy_us * 1e-6


def cli_probes(workdir: str) -> tuple[dict, Loop]:
    """Start-up floor (CPU time of ``python -c pass``), import cost and the
    CPU time of each subcommand's in-process ``main([...])``, each the
    median of a few repeats. The ``main`` calls are checked (exit code,
    repeat determinism, content) and returned as a loop."""
    floor = [run_child([sys.executable, "-c", "pass"], check=True)[0]
             for _ in range(INTERPRETER_REPEATS)]
    imports = [import_times() for _ in range(PROBE_REPEATS)]
    out = {
        "cli.interpreter_s": (statistics.median(floor), "s"),
        "cli.import_s": (statistics.median(t[0] for t in imports), "s"),
        "cli.import_numpy_s": (statistics.median(t[1] for t in imports), "s"),
    }
    cli = workloads.Cli(workdir)
    probes = Loop()
    for name, *_ in workloads.CLI_INVOCATIONS:
        inp = cli.invocation(name)
        first = len(probes.samples)
        for _ in range(PROBE_REPEATS):
            run_op(cli, inp, probes)
        times = probes.samples[first:]
        out[f"cli.{name}_s"] = (statistics.median(times) if times else 0.0, "s")
    return out, probes


def per_layer(args, workload, workdir: str) -> tuple[dict, Loop]:
    import pulsesmith
    from pulsesmith import analysis, bloch, cli, sequences, su2
    from spans import Tracer

    tracer = Tracer()
    modules = {"su2": su2, "sequences": sequences, "analysis": analysis,
               "bloch": bloch, "cli": cli, "pulsesmith": pulsesmith}
    plain, traced = run_paired(workload, args.seconds, tracer, modules)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{args.workload}.npz")

    summary = tracer.summary()
    ops = traced.attempted

    def per_op(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0) / ops

    metrics = {}
    for name, unit in (
        ("su2.rotation_with_error", "calls"),
        ("sequences.compose_with_errors", "calls"),
        ("sequences.synthesize", "calls"),
        ("bloch.apply_to_state", "calls"),
    ):
        metrics[f"{name}.calls"] = (per_op(name, "count"), "calls/op")
    for name in (
        "su2.rotation_with_error", "su2.compose", "su2.gate_fidelity", "su2.unitarity_defect",
        "sequences.compose_with_errors", "sequences.synthesize", "sequences.arcsinc",
        "analysis.fidelity_grid", "analysis.slope_report", "analysis.fit_loglog_slope",
        "analysis.symmetric_ore_residual", "bloch.trajectory", "bloch.apply_to_state",
    ):
        metrics[f"{name}.self_s"] = (per_op(name, "self_s"), "s/op")
    metrics["su2.pulse_evals"] = (traced.pulse_evals / ops, "evals/op")
    metrics["sequences.serialize_s"] = (
        per_op("sequences.sequence_to_dict", "total_s")
        + per_op("sequences.sequence_from_dict", "total_s"), "s/op")
    metrics["analysis.grid_to_csv_s"] = (per_op("analysis.grid_to_csv", "total_s"), "s/op")
    metrics["bloch.trajectory_to_csv_s"] = (per_op("bloch.trajectory_to_csv", "total_s"), "s/op")
    evaluated = tracer.fit_points_evaluated
    metrics["analysis.fit_points_kept_ratio"] = (
        tracer.fit_points_kept / evaluated if evaluated else 0.0, "ratio")
    metrics["analysis.fit_points_evaluated"] = (evaluated, "count")
    metrics["analysis.verify_fail_verdicts"] = (traced.fail_verdicts, "count")
    metrics["analysis.verify_verdicts"] = (traced.verdicts, "count")
    op_time = summary["op"]["total_s"]
    layer_self = sum(v["self_s"] for k, v in summary.items() if k != "op")
    metrics["trace.accounted_ratio"] = (layer_self / op_time, "ratio")
    metrics["trace_overhead_ratio"] = (traced.busy_s / plain.busy_s, "ratio")
    probe_metrics, probes = cli_probes(workdir)
    metrics.update(probe_metrics)

    total = Loop(attempted=plain.attempted + traced.attempted + probes.attempted,
                 failed=plain.failed + traced.failed + probes.failed)
    print(json.dumps({"detail": {
        "traced_ops": ops, "untraced_ops": plain.attempted, "spans": len(tracer.start),
        "traced_op_s": traced.busy_s / ops, "untraced_op_s": plain.busy_s / plain.attempted,
        "fail_verdicts": traced.fail_verdicts, "verdicts": traced.verdicts,
    }}))
    return metrics, total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "pulsesmith" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'pulsesmith'}; "
              "run from the root of a pulsesmith checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One thread everywhere, in this process and its children: the package's
    # own pool is off by default, and BLAS threads would only spin (2x2
    # matrices), adding CPU time that is not work.
    os.environ.pop("PULSESMITH_THREADS", None)
    os.environ.update(SINGLE_THREAD)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        return 1 if warm_up(workload).failed else 0
    print(json.dumps({"env": environment(args)}))
    if args.trace:
        warm = warm_up(workload)
        OUT_DIR.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
        try:
            metrics, loop = per_layer(args, workload, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    else:
        own = warm_up(workload)  # this process's own, untimed
        wall0, jiffies0 = time.perf_counter(), cpu_jiffies()
        loop, warm, setup = run_measured(workload, args.seconds, args.seed)
        wall_s = time.perf_counter() - wall0
        warm.attempted += own.attempted
        warm.failed += own.failed
        metrics = end_to_end(loop, setup, wall_s, steal_share(jiffies0, cpu_jiffies()))
    attempted = warm.attempted + loop.attempted
    failed = warm.failed + loop.failed
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
