"""The benchmark's workloads, and the in-process CLI probes of the traced run.

Each is a closed loop with one client: the next op starts when the previous
one has returned. Inputs are a pure function of (seed, op index), so a run
can be replayed, and the package only ever sees the generated values. Ops
come in balanced blocks of one op per family, and a run always ends on a
whole block, so every run has the same mix.

* ``landscape`` - one fidelity landscape per op on the CLI's default
  101 x 101 grid, then its CSV. Nearly all time is per error point in
  ``su2`` under ``sequences.compose_with_errors``; synthesis, certification
  and start-up are negligible, so this workload bypasses them.
* ``survey`` - one seeded target per op: synthesis, a JSON round trip, slope
  certification on the CLI's three rays, the palindromic residual and a
  trajectory. Many small calls, so per-call overhead dominates.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random

import reference

FAMILIES = ("elementary", "scrofulous", "scorbutus", "skinsc")
FAMILY_PULSES = {"elementary": 1, "scrofulous": 3, "scorbutus": 5, "skinsc": 6}

GRID_MIN, GRID_MAX, GRID_COUNT = -0.25, 0.25, 101
GRID_CHECK_POINTS = 32
SURVEY_SAMPLES = 16
SURVEY_MAX_ERROR = 0.25
REFERENCE_TOL = 1e-12
NORM_TOL = 1e-10



def _draw_target(rng: random.Random) -> tuple[float, float]:
    theta = math.pi - math.pi * rng.random()  # uniform over (0, pi]
    return theta, 2.0 * math.pi * rng.random()


def _axis_value(k: int) -> float:
    # np.linspace(GRID_MIN, GRID_MAX, GRID_COUNT)[k], evaluated the same way
    if k == GRID_COUNT - 1:
        return GRID_MAX
    return k * ((GRID_MAX - GRID_MIN) / (GRID_COUNT - 1)) + GRID_MIN


def _pulse_list(seq) -> list[tuple[float, float]]:
    return [(p.theta, p.phi) for p in seq.pulses]


class Workload:
    """A workload provides ``make_input(i)``, ``run(inp)`` (the timed op,
    package calls only), ``check(inp, out)`` (a problem string or None) and
    ``pulse_evals(inp)`` (deformed-pulse evaluations the op asks for)."""

    name: str
    block: int  # ops per balanced block; a run ends on a whole block

    def verdict(self, inp, out) -> bool | None:
        """PASS/FAIL of a certification inside the op, None if it has none."""
        return None


class Landscape(Workload):
    name = "landscape"
    block = len(FAMILIES)

    def __init__(self, seed: int):
        import pulsesmith
        from pulsesmith import analysis

        # package functions are looked up at call time so the traced run's
        # wrappers see every call
        self.ps = pulsesmith
        self.analysis = analysis
        self.seed = seed
        self.axis = pulsesmith.AxisSpec(GRID_MIN, GRID_MAX, GRID_COUNT)

    def make_input(self, i: int) -> dict:
        rng = random.Random(f"landscape:{self.seed}:{i}")
        theta, phi = _draw_target(rng)
        points = [
            (rng.randrange(GRID_COUNT), rng.randrange(GRID_COUNT))
            for _ in range(GRID_CHECK_POINTS)
        ]
        return {"family": FAMILIES[i % len(FAMILIES)], "theta": theta, "phi": phi, "points": points}

    def run(self, inp: dict):
        seq = self.ps.synthesize(inp["family"], inp["theta"], inp["phi"])
        grid = self.ps.fidelity_grid(seq, self.axis, self.axis)
        return seq, grid, self.analysis.grid_to_csv(grid)

    def check(self, inp: dict, out) -> str | None:
        seq, grid, csv = out
        pulses = _pulse_list(seq)
        target = (seq.target.theta, seq.target.phi)
        rows = csv.splitlines()
        if len(rows) != 1 + GRID_COUNT * GRID_COUNT or rows[0] != "epsilon,f,fidelity":
            return f"grid CSV has {len(rows)} lines"
        centre = GRID_COUNT // 2
        if abs(grid.values[centre, centre] - 1.0) > REFERENCE_TOL:
            return f"zero-error fidelity {grid.values[centre, centre]!r}"
        for i, j in inp["points"]:
            eps, f = _axis_value(j), _axis_value(i)
            got = float(grid.values[i, j])
            want = reference.fidelity(pulses, target, eps, f)
            if abs(got - want) > REFERENCE_TOL:
                return f"fidelity at eps={eps!r} f={f!r}: {got!r}, reference {want!r}"
            e_txt, f_txt, v_txt = rows[1 + i * GRID_COUNT + j].split(",")
            if float(v_txt) != got or abs(float(e_txt) - eps) > 1e-15 or abs(float(f_txt) - f) > 1e-15:
                return f"CSV row {1 + i * GRID_COUNT + j} does not match the grid"
        return None

    def pulse_evals(self, inp: dict) -> int:
        return GRID_COUNT * GRID_COUNT * FAMILY_PULSES[inp["family"]]


class Survey(Workload):
    name = "survey"
    block = len(FAMILIES)

    def __init__(self, seed: int):
        import pulsesmith
        from pulsesmith import bloch, cli

        self.ps = pulsesmith
        self.bloch = bloch
        self.cli = cli
        self.seed = seed

    def make_input(self, i: int) -> dict:
        order = list(FAMILIES)
        random.Random(f"survey:{self.seed}:block:{i // len(FAMILIES)}").shuffle(order)
        rng = random.Random(f"survey:{self.seed}:{i}")
        theta, phi = _draw_target(rng)
        eps = rng.uniform(-SURVEY_MAX_ERROR, SURVEY_MAX_ERROR)
        f = rng.uniform(-SURVEY_MAX_ERROR, SURVEY_MAX_ERROR)
        return {"family": order[i % len(FAMILIES)], "theta": theta, "phi": phi, "eps": eps, "f": f}

    def run(self, inp: dict):
        ps, cli = self.ps, self.cli
        seq = ps.synthesize(inp["family"], inp["theta"], inp["phi"])
        back = ps.sequence_from_dict(json.loads(json.dumps(ps.sequence_to_dict(seq))))
        try:
            reports = {
                name: ps.slope_report(seq, ray, cli.T_VALUES)
                for name, ray in cli.RAY_DIRECTIONS.items()
            }
        except ValueError as exc:
            # the documented outcome when too few ray points clear the
            # infidelity floor (tiny targets); `verify` exits 2 on it
            if "dynamic range" not in str(exc):
                raise
            reports = None
        palindromic = len(seq.pulses) % 2 == 1 and seq.pulses == tuple(reversed(seq.pulses))
        residual = ps.symmetric_ore_residual(seq) if palindromic else None
        traj = ps.trajectory(
            seq, ps.ErrorPair(inp["eps"], inp["f"]), samples_per_pulse=SURVEY_SAMPLES
        )
        return seq, back, reports, residual, traj, self.bloch.trajectory_to_csv(traj)

    def verdict(self, inp: dict, out) -> bool:
        """The CLI's `verify` PASS rule; a missing certificate is a FAIL."""
        cli = self.cli
        seq, _, reports, residual, _, _ = out
        if reports is None:
            return False
        expected = cli.SLOPE_EXPECTATIONS[seq.family]
        ok = all(
            abs(r.fitted_slope - expected[name]) <= cli.SLOPE_TOLERANCE
            for name, r in reports.items()
        )
        limit = cli.RESIDUAL_LIMITS.get(seq.family)
        if residual is not None and limit is not None:
            ok = ok and abs(residual.residual) <= limit
        return ok

    def check(self, inp: dict, out) -> str | None:
        seq, back, reports, residual, traj, csv = out
        if back != seq:
            return "sequence JSON round trip changed the sequence"
        k = len(seq.pulses)
        if len(traj.points) != k * SURVEY_SAMPLES + 1 or len(csv.splitlines()) != len(traj.points) + 1:
            return f"trajectory has {len(traj.points)} points for {k} pulses"
        for p in traj.points:
            s = p.state
            if abs(math.sqrt(s.x * s.x + s.y * s.y + s.z * s.z) - 1.0) > NORM_TOL:
                return f"trajectory point {p} is off the unit sphere"
        a, bx, by, bz = reference.sequence_quaternion(_pulse_list(seq), inp["eps"], inp["f"])
        # north pole rotated by a I - i b.sigma: (a^2 - |b|^2) z + 2a (b x z) + 2 bz b
        want = (
            2.0 * (a * by + bz * bx),
            2.0 * (bz * by - a * bx),
            a * a - bx * bx - by * by + bz * bz,
        )
        end = traj.points[-1].state
        if max(abs(end.x - want[0]), abs(end.y - want[1]), abs(end.z - want[2])) > NORM_TOL:
            return f"final state {end} differs from reference {want}"
        return None

    def pulse_evals(self, inp: dict) -> int:
        k = FAMILY_PULSES[inp["family"]]
        return len(self.cli.T_VALUES) * len(self.cli.RAY_DIRECTIONS) * k + SURVEY_SAMPLES * k


# name, arguments, output file; each must exit 0
CLI_INVOCATIONS = (
    ("synth", ["synth", "--family", "scorbutus", "--theta", "pi", "--phi", "0"], None),
    (
        "verify",
        ["verify", "--family", "scorbutus", "--theta", "pi", "--out", "report.json"],
        "report.json",
    ),
    (
        "grid",
        ["grid", "--family", "elementary", "--theta", "pi", "--eps", "-0.25:0.25:101",
         "--f", "-0.25:0.25:101", "--out", "grid.csv"],
        "grid.csv",
    ),
    ("timecompare", ["timecompare", "--out", "times.csv"], "times.csv"),
    (
        "trajectory",
        ["trajectory", "--family", "scorbutus", "--theta", "pi", "--eps", "0.1", "--f", "0.1",
         "--samples", "64", "--out", "path.csv"],
        "path.csv",
    ),
)


class Cli(Workload):
    """README command-line invocations through ``cli.main`` in this process,
    for the traced run's CLI probes. Outputs go to ``workdir``; repeats of
    one invocation must give identical bytes (the determinism contract)."""

    name = "cli"

    def __init__(self, workdir: str):
        from pulsesmith import cli

        self.cli = cli
        self.workdir = workdir
        self.outputs: dict[str, bytes] = {}

    def invocation(self, name: str) -> tuple:
        _, args, out = next(inv for inv in CLI_INVOCATIONS if inv[0] == name)
        args = [os.path.join(self.workdir, a) if k and args[k - 1] == "--out" else a
                for k, a in enumerate(args)]
        return name, args, out and os.path.join(self.workdir, out)

    def run(self, inp: tuple):
        _, args, out = inp
        if out:
            with contextlib.suppress(FileNotFoundError):
                os.remove(out)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = self.cli.main(args)
        return rc, stdout.getvalue().encode(), stderr.getvalue().encode(), _read(out)

    def check(self, inp: tuple, out) -> str | None:
        name = inp[0]
        rc, stdout, stderr, written = out
        if rc != 0:
            return f"{name}: exit code {rc}, documented 0: {stderr[-300:]!r}"
        payload = b"\0".join((stdout, stderr, written or b""))
        if payload != self.outputs.setdefault(name, payload):
            return f"{name}: output differs from an earlier identical invocation"
        return _check_cli_content(name, stdout, written)

    def pulse_evals(self, inp: tuple) -> int:
        return 0  # not counted for the CLI probes


WORKLOADS = {w.name: w for w in (Landscape, Survey)}


def _read(path: str | None) -> bytes | None:
    if path is None:
        return None
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def _check_cli_content(name: str, stdout: bytes, written: bytes | None) -> str | None:
    text = stdout.decode()
    rows = (written or b"").decode().splitlines()
    if name == "synth":
        data = json.loads(text)
        if data["family"] != "scorbutus" or len(data["pulses"]) != 5:
            return f"synth: unexpected sequence {data}"
    elif name == "verify":
        if not any(line.startswith("PASS ") for line in text.splitlines()):
            return f"verify: no PASS line in {text!r}"
        if json.loads(written)["pass"] is not True:
            return "verify: report does not pass"
    elif name == "grid" and len(rows) != 1 + 101 * 101:
        return f"grid: {len(rows)} lines"
    elif name == "timecompare" and len(rows) != 1 + 256:
        return f"timecompare: {len(rows)} lines"
    elif name == "trajectory" and len(rows) != 1 + 5 * 64 + 1:
        return f"trajectory: {len(rows)} lines"
    return None
