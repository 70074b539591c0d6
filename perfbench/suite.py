"""Run the benchmark over several seeds and collect the results in one file.

    python3 perfbench/suite.py --seeds 1-10 --out new.json
    python3 perfbench/suite.py --base ../parent --seeds 1-10 --trace 0 1 --out pair.json

Each run is a separate ``perfbench/run.py`` process, as a harness would
start it, with the run length from BENCHMARK.json unless ``--seconds`` is
given. ``run.py`` measures the package under its working directory, so with
``--base DIR`` this copy of the benchmark measures the checkout at DIR (the
parent commit, say) and this checkout in turn: for each seed one run of
each, the side that goes first alternating from seed to seed, so that a
change in the machine's speed reaches both sides alike. Judge such a file
with perfbench/compare.py.

For every end-to-end metric the summary gives each side's median and
quartile spread (q3 - q1) / median, next to the metric's bound, and flags a
spread above a third of the bound. The file keeps every run's side,
environment, details and result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    record = {"workload": workload, "seed": seed, "trace": trace}
    for line in proc.stdout.splitlines():
        data = json.loads(line)
        if "env" in data:
            record["env"] = data["env"]
        elif "detail" in data:
            record["detail"] = data["detail"]
        else:
            record["result"] = data
    return record


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def summarize(runs: list[dict], benchmark: dict) -> list[str]:
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    lines = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        for side in dict.fromkeys(r["side"] for r in runs):
            selected = [r for r in runs
                        if r["workload"] == workload and r["side"] == side and r["trace"] == 0]
            if len(selected) < 2:
                continue
            failed = sum(r["result"]["failed"] for r in selected)
            attempted = sum(r["result"]["attempted"] for r in selected)
            lines.append(f"{workload} ({side}): {len(selected)} runs, failed {failed} of {attempted} ops")
            for name, bound in bounds.items():
                median, rel = spread([r["result"]["metrics"][name]["value"] for r in selected])
                flag = "" if rel < bound / 3 else "  <-- spread above bound/3"
                lines.append(f"  {name:12s} median {median:.6g}  spread {rel:.4f}  bound {bound}{flag}")
    return lines


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="+", choices=[0, 1], default=[0],
                        help="0 for end-to-end runs, 1 for traced runs, or both")
    parser.add_argument("--base", type=Path,
                        help="another checkout to measure alternately with this one")
    parser.add_argument("--out", help="write every run's record to this JSON file")
    args = parser.parse_args(argv)

    sides = [("new", ROOT)]
    if args.base:
        sides.insert(0, ("base", args.base.resolve()))
    runs = []
    for trace in args.trace:
        for workload in args.workloads:
            for k, seed in enumerate(parse_seeds(args.seeds)):
                for side, checkout in sides if k % 2 == 0 else reversed(sides):
                    record = {"side": side, **run_once(checkout, workload, seed, args.seconds, trace)}
                    runs.append(record)
                    print(f"{side} {workload} seed {seed} trace {trace}: "
                          + json.dumps(record["result"]["metrics"]), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps({"benchmark": benchmark, "runs": runs}, indent=1) + "\n")
    print("\n".join(summarize(runs, benchmark)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
