"""The benchmark in perfbench/ binds package names and reads package
results; these checks keep a rename or a changed result shape from surfacing
only as failed benchmark ops. The benchmark files are imported by path and
left as they are."""

import importlib
import importlib.util
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
    _, workloads = perfbench
    w = workloads.WORKLOADS[workload](seed=1)
    for i in range(w.block):
        inp = w.make_input(i)
        assert w.check(inp, w.run(inp)) is None


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
