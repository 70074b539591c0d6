"""The benchmark in perfbench/ binds package names and reads package
results; these checks keep a rename or a changed result shape from surfacing
only as failed benchmark ops. The benchmark files are imported by path and
left as they are."""

import dataclasses
import importlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    # workloads.py imports its sibling reference.py by plain name
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield _load("spans"), _load("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.modules.pop("reference", None)


def test_layer_functions_resolve(perfbench):
    spans, _ = perfbench
    for layer, names in spans.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"pulsesmith.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


@pytest.mark.parametrize("workload", ["landscape", "survey"])
def test_one_block_runs_and_checks(perfbench, workload):
    # two blocks of each of seeds 1-3, so that an op a benchmark run would
    # count as failed fails here first
    _, workloads = perfbench
    for seed in (1, 2, 3):
        w = workloads.WORKLOADS[workload](seed=seed)
        for i in range(2 * w.block):
            inp = w.make_input(i)
            assert w.check(inp, w.run(inp)) is None, (seed, i)


def test_survey_verdict_and_palindrome_rule_match_the_package(perfbench):
    # Survey.verdict reads cli.SLOPE_EXPECTATIONS / cli.RESIDUAL_LIMITS, and
    # Survey.run decides palindromicity inline; it must run the residual
    # exactly when the package's own rule says the sequence is a palindrome
    from pulsesmith.analysis import _is_palindromic

    _, workloads = perfbench
    w = workloads.Survey(seed=1)
    for i in range(w.block):
        inp = w.make_input(i)
        out = w.run(inp)
        seq, residual = out[0], out[3]
        assert isinstance(w.verdict(inp, out), bool)
        assert (residual is not None) == _is_palindromic(seq), seq.family


def _landscape_op(perfbench):
    _, workloads = perfbench
    w = workloads.Landscape(seed=1)
    inp = w.make_input(2)
    seq, grid, csv = w.run(inp)
    count = workloads.GRID_COUNT
    # a checked row whose fidelity text has a digit after the point
    row = next(
        1 + i * count + j
        for i, j in inp["points"]
        if "." in f"{grid.values[i, j]:.17g}"
    )
    return w, inp, seq, grid, csv.splitlines(keepends=True), row


def _alter_a_digit(line):
    eps, f, fidelity = line.split(",")
    k = fidelity.index(".") + 1
    digit = str((int(fidelity[k]) + 1) % 10)
    return ",".join((eps, f, fidelity[:k] + digit + fidelity[k + 1:]))


def _swap(lines, row):
    other = row + 1 if row + 1 < len(lines) else row - 1
    lines[row], lines[other] = lines[other], lines[row]
    return lines


@pytest.mark.parametrize("breakage", ["digit", "last-line", "swap"])
def test_landscape_check_catches_a_broken_csv_writer(perfbench, breakage):
    w, inp, seq, grid, lines, row = _landscape_op(perfbench)
    assert w.check(inp, (seq, grid, "".join(lines))) is None
    if breakage == "digit":
        lines[row] = _alter_a_digit(lines[row])
    elif breakage == "last-line":
        lines.pop()
    else:
        lines = _swap(lines, row)
    assert w.check(inp, (seq, grid, "".join(lines))) is not None


def test_landscape_check_catches_a_grid_mirrored_without_its_symmetry(perfbench):
    # input 3 is a skinsc grid, no palindrome: its upper f rows replaced by
    # the lower rows in reverse, the copy that is right for a sequence equal
    # to its reverse only, fail the 32-point reference check
    from pulsesmith.analysis import grid_to_csv

    _, workloads = perfbench
    w = workloads.Landscape(seed=1)
    inp = w.make_input(3)
    assert inp["family"] == "skinsc"
    seq, grid, csv = w.run(inp)
    assert w.check(inp, (seq, grid, csv)) is None
    n = grid.f_axis.count
    values = grid.values.copy()
    values[(n + 1) // 2:] = values[: n // 2][::-1]
    broken = dataclasses.replace(grid, values=values)
    problem = w.check(inp, (seq, broken, grid_to_csv(broken)))
    assert problem is not None and problem.startswith("fidelity at"), problem


def _survey_op_with_a_tilted_end(perfbench):
    # an op whose final state is well off the z axis, so that a turn about
    # z moves it
    _, workloads = perfbench
    w = workloads.Survey(seed=1)
    for i in range(w.block):
        inp = w.make_input(i)
        out = w.run(inp)
        traj = out[4]
        if math.hypot(traj.x[-1], traj.y[-1]) > 0.1:
            return w, inp, out
    raise AssertionError("no survey op ends away from the poles")


@pytest.mark.parametrize("breakage", ["final-state", "dropped-sample"])
def test_survey_check_catches_a_broken_trajectory(perfbench, breakage):
    # Survey.check reads traj.points, which Trajectory derives from its columns
    w, inp, out = _survey_op_with_a_tilted_end(perfbench)
    assert w.check(inp, out) is None
    traj = out[4]
    if breakage == "final-state":
        # turned about z by 1e-6: still a unit vector, but not the reference
        x, y = traj.x.copy(), traj.y.copy()
        c, s = math.cos(1e-6), math.sin(1e-6)
        x[-1], y[-1] = c * x[-1] - s * y[-1], s * x[-1] + c * y[-1]
        broken = dataclasses.replace(traj, x=x, y=y)
    else:
        broken = dataclasses.replace(traj, x=traj.x[:-1], y=traj.y[:-1], z=traj.z[:-1])
    problem = w.check(inp, out[:4] + (broken,) + out[5:])
    assert problem is not None
    assert ("final state" if breakage == "final-state" else "points for") in problem
