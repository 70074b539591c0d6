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
