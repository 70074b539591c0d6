"""End-to-end acceptance checks with tolerances and budgets fixed up front.

Runs every desk-scale claim the package makes: exact zero-error synthesis,
the exact pulse-length-error identity of the switchback triple, the
robustness orders of all four families, the scalar off-resonance condition
and its equivalence to the switchback tuning angle, operation-time and
fidelity-landscape reproduction, Bloch trajectories, and byte-level
determinism of the CLI. One PASS line is printed per criterion; a pytest
failure is the FAIL line.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracles
from pulsesmith.analysis import (
    AxisSpec,
    fidelity_grid,
    first_order_coefficient,
    slope_report,
    symmetric_ore_residual,
)
from pulsesmith.bloch import NORTH_POLE, BlochVector, trajectory
from pulsesmith.sequences import (
    FAMILIES,
    PulseSequence,
    compose_with_errors,
    elementary,
    scorbutus,
    scrofulous,
    skinsc,
    switchback_replace,
    synthesize,
    theta_r_from_condition,
    total_time,
)
from pulsesmith.su2 import (
    TWO_PI,
    ErrorPair,
    Pulse,
    compose,
    gate_fidelity,
    rotation,
    rotation_with_error,
)

PI = math.pi
SOUTH_POLE = BlochVector(0.0, 0.0, -1.0)
T_VALUES = [float(t) for t in np.logspace(-3.0, -1.5, 13)]
SLOPE_TOL = 0.3

# closed-form oracle values fixed before the build (Brent arcsinc chain)
ORACLE_L_SCORBUTUS_HALF = 13.67320991643539
ORACLE_L_SKINSC_HALF = 18.974883752706823


def _slope(seq, ray):
    return slope_report(seq, ray, T_VALUES).fitted_slope


def test_acceptance_1_zero_error_exactness():
    start = time.perf_counter()
    checked = 0
    for family in FAMILIES:
        for theta in (0.3, PI / 2, 1.8, PI, 3.5):
            for phi in (0.0, 1.0, PI):
                try:
                    seq = synthesize(family, theta, phi)
                except ValueError:
                    continue  # outside this family's domain
                fid = gate_fidelity(
                    compose_with_errors(seq, ErrorPair(0.0, 0.0)), rotation(seq.target)
                )
                assert fid >= 1.0 - 1e-10, (family, theta, phi, fid)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: zero-error fidelity >= 1-1e-10 at {checked} "
          f"(family, theta, phi) points [{elapsed:.2f}s]")


def test_acceptance_2_switchback_ple_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        theta_r = rng.uniform(0.0, PI)
        phi2 = rng.uniform(0.0, TWO_PI)
        err = ErrorPair(rng.uniform(-0.3, 0.3), 0.0)
        triple = switchback_replace(Pulse(PI, phi2), theta_r)
        together = compose([rotation_with_error(p, err) for p in triple])
        single = rotation_with_error(Pulse(PI, phi2), err)
        worst = max(worst, np.linalg.norm(together - single))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 PASS: switchback triple = erroneous pi pulse exactly, "
          f"worst Frobenius {worst:.2e} over 100 draws [{elapsed:.2f}s]")


def test_acceptance_3_robustness_orders():
    start = time.perf_counter()
    expectations = {
        "elementary": {"eps": 2.0, "f": 2.0, "mixed": 2.0},
        "scrofulous": {"eps": 4.0, "f": 2.0},
        "scorbutus": {"eps": 4.0, "f": 4.0, "mixed": 4.0},
        "skinsc": {"eps": 4.0, "f": 4.0, "mixed": 4.0},
    }
    rays = {"eps": (1.0, 0.0), "f": (0.0, 1.0), "mixed": (1.0, 1.0)}
    measured = {}
    for family, wanted in expectations.items():
        for theta in (PI / 2, PI):
            seq = synthesize(family, theta, 0.0)
            for ray_name, expected in wanted.items():
                slope = _slope(seq, rays[ray_name])
                measured[(family, theta, ray_name)] = slope
                assert abs(slope - expected) <= SLOPE_TOL, (
                    f"{family} theta={theta} {ray_name}: {slope}"
                )
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    summary = ", ".join(
        f"{family}:{measured[(family, PI, ray)]:.2f}"
        for family, wanted in expectations.items()
        for ray in wanted
    )
    print(f"\nACCEPTANCE 3 PASS: log-log slopes within +-0.3 of expected "
          f"(at theta=pi: {summary}) [{elapsed:.2f}s]")


def test_acceptance_4_residual_and_tuning_equivalence():
    start = time.perf_counter()
    for theta in (PI / 2, PI, 2.0):
        residual = symmetric_ore_residual(scorbutus(theta, 0.0)).residual
        assert abs(residual) <= 1e-10, (theta, residual)
        seed = scrofulous(theta, 0.0)
        side, center, _ = seed.pulses
        theta_r = theta_r_from_condition(side.theta)
        for delta in (0.05, -0.05):
            pulses = (side, *switchback_replace(center, theta_r + delta), side)
            detuned = PulseSequence(pulses, seed.target, "custom")
            off_residual = symmetric_ore_residual(detuned).residual
            assert abs(off_residual) >= 1e-3, (theta, delta, off_residual)
            slope = _slope(detuned, (0.0, 1.0))
            assert abs(slope - 2.0) <= SLOPE_TOL, (theta, delta, slope)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    print(f"\nACCEPTANCE 4 PASS: residual <= 1e-10 at the tuned angle and "
          f">= 1e-3 with slope ~2 when detuned by +-0.05 [{elapsed:.2f}s]")


def test_acceptance_5_residual_derivative_consistency():
    ratios = []
    for theta in (PI / 2, PI, 2.0):
        seq = scrofulous(theta, 0.0)
        residual = symmetric_ore_residual(seq).residual
        norm = float(np.linalg.norm(first_order_coefficient(seq, "f")))
        ratios.append(norm / abs(residual))
    spread = max(ratios) / min(ratios) - 1.0
    assert spread <= 0.01
    for theta in (PI / 2, PI, 2.0):
        seq = scorbutus(theta, 0.0)
        assert abs(symmetric_ore_residual(seq).residual) <= 1e-8
        assert float(np.linalg.norm(first_order_coefficient(seq, "f"))) <= 1e-8
    print(f"\nACCEPTANCE 5 PASS: |dU/df| proportional to |residual| "
          f"(ratio spread {spread:.2e}), both vanish for the five-pulse family")


def test_acceptance_6_operation_times():
    start = time.perf_counter()
    assert abs(total_time(scorbutus(PI, 0.0)) - 5 * PI) <= 1e-12
    assert abs(total_time(skinsc(PI, 0.0)) - 19 * PI / 3) <= 1e-12
    l_sc = total_time(scorbutus(PI / 2, 0.0))
    l_sk = total_time(skinsc(PI / 2, 0.0))
    assert abs(l_sc - 13.67321) <= 1e-4
    assert abs(l_sk - 18.97488) <= 1e-4
    assert abs(l_sc - ORACLE_L_SCORBUTUS_HALF) <= 1e-10
    assert abs(l_sk - ORACLE_L_SKINSC_HALF) <= 1e-10
    for theta in np.linspace(0.0, PI, 257)[1:]:
        theta = float(theta)
        assert total_time(scorbutus(theta, 0.0)) < total_time(skinsc(theta, 0.0))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 6 PASS: L(pi) = 5pi vs 19pi/3, L(pi/2) = {l_sc:.5f} vs "
          f"{l_sk:.5f}, five-pulse shorter at all 256 grid angles [{elapsed:.2f}s]")


def test_acceptance_7_fidelity_landscapes():
    axis = AxisSpec(-0.25, 0.25, 101)
    budgets = []

    def build_grid(seq):
        start = time.perf_counter()
        grid = fidelity_grid(seq, axis, axis)
        budgets.append(time.perf_counter() - start)
        return grid

    grids = {}
    for theta in (PI, PI / 2):
        grids[("elementary", theta)] = build_grid(elementary(theta, 0.0))
        grids[("scorbutus", theta)] = build_grid(scorbutus(theta, 0.0))
    grids[("skinsc", PI)] = build_grid(skinsc(PI, 0.0))
    assert max(budgets) < 10.0

    points = axis.points()
    i = int(np.argmin(np.abs(points - 0.1)))
    f_el = grids[("elementary", PI)].values[i, i]
    f_sc = grids[("scorbutus", PI)].values[i, i]
    f_sk = grids[("skinsc", PI)].values[i, i]
    assert abs(f_el - 0.98135) <= 1e-4
    assert f_sc > f_el
    assert f_sc > f_sk  # recorded ordering: the five-pulse family leads
    for theta in (PI, PI / 2):
        mean_sc = float(grids[("scorbutus", theta)].values.mean())
        mean_el = float(grids[("elementary", theta)].values.mean())
        assert mean_sc > mean_el, (theta, mean_sc, mean_el)
    print(f"\nACCEPTANCE 7 PASS: at (0.1, 0.1) F_el={f_el:.5f}, F_sk={f_sk:.5f}, "
          f"F_sc={f_sc:.5f} (sc > sk > el); scorbutus grid mean beats elementary "
          f"at theta=pi and pi/2 [max grid {max(budgets):.2f}s]")


def test_acceptance_8_bloch_trajectory():
    start = time.perf_counter()
    err = ErrorPair(0.1, 0.1)
    traj_sc = trajectory(scorbutus(PI, 0.0), err, NORTH_POLE, 64)
    traj_el = trajectory(elementary(PI, 0.0), err, NORTH_POLE, 64)
    for point in traj_sc.points:
        assert abs(point.state.norm() - 1.0) <= 1e-10
    d_sc = oracles.bloch_distance(traj_sc.points[-1].state, SOUTH_POLE)
    d_el = oracles.bloch_distance(traj_el.points[-1].state, SOUTH_POLE)
    assert d_sc < d_el
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 8 PASS: endpoint {d_sc:.4f} from the south pole vs "
          f"{d_el:.4f} for the bare pulse; all 321 points unit norm [{elapsed:.2f}s]")


def test_acceptance_9_cli_determinism(tmp_path):
    # separate processes, as a shell runs them, with different hash seeds;
    # PULSESMITH_THREADS is read by nothing, so even a bad value changes
    # nothing. The last process writes to stdout instead of --out.
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    env.pop("PULSESMITH_THREADS", None)
    argv = [sys.executable, "-m", "pulsesmith.cli", "grid", "--family", "scorbutus", "--theta", "pi"]
    outputs = []
    for seed, extra, to_file in (("0", {}, True), ("1", {}, True),
                                 ("2", {"PULSESMITH_THREADS": "lots"}, False)):
        path = tmp_path / f"{seed}.csv"
        run = subprocess.run(
            argv + (["--out", str(path)] if to_file else []),
            capture_output=True, env=dict(env, PYTHONHASHSEED=seed, **extra),
            cwd=tmp_path, timeout=120,
        )
        assert run.returncode == 0 and run.stderr == b"", run.stderr
        if to_file:
            assert run.stdout == b""
            outputs.append(path.read_bytes())
        else:
            outputs.append(run.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
    rows = outputs[0].decode().strip().split("\n")
    assert len(rows) == 1 + 101 * 101
    print("\nACCEPTANCE 9 PASS: default 101x101 grid byte-identical across "
          "separate processes, hash seeds and PULSESMITH_THREADS settings")
