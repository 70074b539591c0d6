import dataclasses
import json
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from pulsesmith import analysis, cli, sequences, su2
from pulsesmith.analysis import (
    GRID_BLOCK_POINTS,
    INFIDELITY_FLOOR,
    AxisSpec,
    FidelityGrid,
    fidelity_grid,
    first_order_coefficient,
    fit_loglog_slope,
    grid_to_csv,
    infidelity_ray,
    slope_report,
    symmetric_ore_residual,
    time_compare,
    time_compare_to_csv,
    time_compare_to_dict,
)
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
from pulsesmith.su2 import ErrorPair, Pulse, gate_fidelity, rotation

PI = math.pi
T_VALUES = [float(t) for t in np.logspace(-3.0, -1.5, 13)]
SLOPE_TOL = 0.3
COEFF_TOL = 1e-8
EXACT_TOL = 1e-13

SCORBUTUS_HALF_TIME = 13.67320991643539
SKINSC_HALF_TIME = 18.974883752706823


def perturbed_scorbutus(theta, delta_theta_r):
    seed = scrofulous(theta, 0.0)
    side, center, _ = seed.pulses
    theta_r = theta_r_from_condition(side.theta) + delta_theta_r
    pulses = (side, *switchback_replace(center, theta_r), side)
    return PulseSequence(pulses, seed.target, "custom")


# ------------------------------------------------------------ infidelity_ray


def test_infidelity_ray_elementary_closed_form():
    values = infidelity_ray(elementary(PI, 0.0), (1.0, 0.0), [0.1])
    assert values[0] == pytest.approx(1.0 - math.cos(0.05 * PI), abs=1e-12)


def test_infidelity_ray_zero_scale_is_zero():
    values = infidelity_ray(scorbutus(PI, 0.0), (1.0, 1.0), [0.0, 0.1])
    assert values[0] <= 1e-12


def test_infidelity_ray_normalizes_direction():
    seq = elementary(PI, 0.0)
    assert infidelity_ray(seq, (2.0, 0.0), [0.1]) == infidelity_ray(seq, (1.0, 0.0), [0.1])


def test_infidelity_ray_fourth_order_for_scorbutus():
    values = infidelity_ray(scorbutus(PI, 0.0), (1.0, 0.0), [0.01, 0.1])
    ratio = values[0] / values[1]
    assert 0.5e-4 < ratio < 2e-4


def test_overflowing_angle_raises_value_error_without_warnings():
    # theta (1 + eps) overflows to inf and sin, cos give NaN; the suite
    # turns warnings into errors, so a warning would fail this test
    seq = PulseSequence((Pulse(1.5e308, 0.0),), Pulse(1.5e308, 0.0), "custom")
    with pytest.raises(ValueError, match="non-unitary"):
        fidelity_grid(seq, AxisSpec(1.0, 1.0, 2), AxisSpec(0.0, 0.0, 2))
    with pytest.raises(ValueError, match="non-unitary"):
        infidelity_ray(seq, (1.0, 0.0), [0.5])


@pytest.mark.parametrize("ray", [
    (1.7e308, 1.7e308), (math.nan, 1.0), (0.0, math.inf), (-math.inf, math.nan),
    ("a", 1.0), (None, 1.0), (1.0, 1j), (True, 0.0), ([1.0], 0.0), (np.array(["a"]), 1.0),
    (np.array([1.0, 2.0]), 0.0),
])
def test_a_ray_without_a_finite_direction_is_rejected(ray):
    # the overflowing norm of the first ray once turned it into (0, 0), and
    # so into zero infidelity at every scale; a non-number component raised
    # TypeError (an array one too), and a bool was taken as 0 or 1
    seq = scorbutus(PI, 0.0)
    for call in (infidelity_ray, slope_report):
        with pytest.raises(ValueError, match="must have finite components and a finite norm"):
            call(seq, ray, T_VALUES)


def test_infidelity_ray_input_validation():
    seq = elementary(PI, 0.0)
    with pytest.raises(ValueError, match="nonzero"):
        infidelity_ray(seq, (0.0, 0.0), [0.1])
    with pytest.raises(ValueError, match="outside"):
        infidelity_ray(seq, (1.0, 0.0), [0.6])
    with pytest.raises(ValueError, match="outside"):
        infidelity_ray(seq, (1.0, 0.0), [-0.1])
    # a scale that is not a number raised TypeError from the comparison, and
    # False and np.False_ passed as the scale 0
    for t in ["0.1", None, 1j, [0.1], np.array(["a"]), False, np.False_]:
        for call in (infidelity_ray, slope_report):
            with pytest.raises(ValueError, match=r"ray scale .* outside \[0, 0\.5\]"):
                call(seq, (1.0, 0.0), T_VALUES[:6] + [t] + T_VALUES[6:])


@pytest.mark.parametrize("family", FAMILIES)
def test_slope_report_points_lie_on_its_ray(family):
    # the reported unit ray is the one evaluated: each infidelity is 1 - F
    # at exactly t * report.ray, with no second normalisation in between
    rng = np.random.default_rng(11)
    rays = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    rays += [tuple(float(c) for c in rng.normal(size=2)) for _ in range(12)]
    t = np.asarray(T_VALUES)
    for theta in (0.3, PI / 2, 2.0, PI):
        seq = synthesize(family, theta, 0.4)
        for ray in rays:
            report = slope_report(seq, ray, T_VALUES)
            d_eps, d_f = report.ray
            a, b = su2._sequence_pair(seq, t * d_eps, t * d_f)
            c, d = su2._rotation_pair(seq.target, su2.NO_ERROR)
            w_a, w_b = np.conj(c) * a + np.conj(d) * b, c * b - d * a
            want = (w_a.imag**2 + (w_b.real**2 + w_b.imag**2)) / (1.0 + np.abs(w_a.real))
            assert report.infidelities == tuple(want.tolist()), (theta, ray)
            # and they are infidelity_ray's, the one ray evaluator
            assert report.infidelities == tuple(infidelity_ray(seq, ray, T_VALUES)), (theta, ray)


@pytest.mark.parametrize("theta, phi", [(1.0, 0.3), (PI / 2, 0.0), (3.0, 1.3)])
@pytest.mark.parametrize("family", FAMILIES)
def test_the_grid_and_the_ray_read_one_overlap(family, theta, phi):
    # both take the overlap with the target from su2._overlap, so along f = 0
    # the grid's 1 - F is the ray's infidelity at t = |eps| to a few units of
    # 2^-53 (at most 6.1 seen); a wrong b of T^dagger U or a wrong target
    # moves the gap by orders of magnitude
    axis = AxisSpec(-0.25, 0.25, 101)
    seq = synthesize(family, theta, phi)
    points = axis.points()
    assert points[50] == 0.0
    row = fidelity_grid(seq, axis, axis).values[50]
    for sign in (1.0, -1.0):
        side = np.flatnonzero(sign * points >= 0.0)
        ray = infidelity_ray(seq, (sign, 0.0), (sign * points[side]).tolist())
        assert np.max(np.abs((1.0 - row[side]) - ray)) <= 16 * 2.0**-53, sign


@pytest.mark.parametrize("family", FAMILIES)
def test_report_and_grid_json_keep_their_layout(family):
    # the mappings to_dict gave when it listed every field by hand
    seq = synthesize(family, 1.0, 0.3)
    for ray in cli.RAY_DIRECTIONS.values():
        report = slope_report(seq, ray, cli.T_VALUES)
        assert json.dumps(report.to_dict()) == json.dumps({
            "ray": {"d_eps": report.ray[0], "d_f": report.ray[1]},
            "t_values": list(report.t_values),
            "infidelities": list(report.infidelities),
            "fitted_slope": report.fitted_slope,
            "fit_residual": report.fit_residual,
        }), ray
    eps_axis, f_axis = AxisSpec(-0.25, 0.25, 5), AxisSpec(-0.2, 0.1, 4)
    grid = fidelity_grid(seq, eps_axis, f_axis)
    data = grid.to_dict()
    assert list(data) == ["family", "target", "eps_axis", "f_axis", "values"]
    assert json.dumps(data) == json.dumps({
        "family": family,
        "target": {"theta": seq.target.theta, "phi": seq.target.phi},
        "eps_axis": {"start": -0.25, "stop": 0.25, "count": 5},
        "f_axis": {"start": -0.2, "stop": 0.1, "count": 4},
        "values": grid.values.tolist(),
    })


@pytest.mark.parametrize("family", FAMILIES)
def test_infidelity_ray_stays_within_1e_15_of_the_50_digit_oracle(family):
    # 4 angles x 3 verify rays x 13 scales per family; the largest
    # deviation over the four families is 1.3e-17
    for theta in (0.3, 1.0, PI / 2, PI):
        seq = synthesize(family, theta, 0.3)
        pulses = [(p.theta, p.phi) for p in seq.pulses]
        target = (seq.target.theta, seq.target.phi)
        for ray in RAYS.values():
            got = infidelity_ray(seq, ray, T_VALUES)
            for t, value in zip(T_VALUES, got):
                assert abs(value - oracles.mp_ray_infidelity(pulses, target, ray, t)) <= 1e-15, (theta, ray, t)


@pytest.mark.parametrize("family", FAMILIES)
def test_infidelity_ray_keeps_its_relative_accuracy_near_fidelity_one(family):
    # 1 - F without cancellation: what is left is the few-ulp error of the
    # pair (w_a, w_b) of T^dagger U, so the error goes with |w_b|, about
    # sqrt(1 - F), instead of the ulp of 1 that 1 - F once lost (SCORBUTUS
    # at theta = 1, phi = 0.3 on the f ray read 5.029e-14 at t = 1e-3, where
    # the oracle gives 5.0012e-14). Over 4 families x 7 angles x 2 phases x
    # 3 rays x these 15 scales the largest |error| / sqrt(1 - F) was 7.9e-16.
    ts = [1e-5, 1e-4] + T_VALUES
    for theta in (0.05, 1.0, 3.5):
        for phi in (0.0, 0.3):
            try:
                seq = synthesize(family, theta, phi)
            except ValueError:
                continue  # 3.5 is outside SCROFULOUS's and SCORBUTUS's domain
            pulses = [(p.theta, p.phi) for p in seq.pulses]
            target = (seq.target.theta, seq.target.phi)
            for ray in RAYS.values():
                for t, value in zip(ts, infidelity_ray(seq, ray, ts)):
                    want = oracles.mp_ray_infidelity(pulses, target, ray, t)
                    assert abs(value - want) <= 2e-15 * math.sqrt(want), (theta, phi, ray, t, value, want)


# ------------------------------------------------------------ slope fitting


def test_fit_loglog_slope_pure_powers():
    ts = list(np.logspace(-3, -1.5, 13))
    slope, residual = fit_loglog_slope(ts, [t**2 for t in ts])
    assert slope == pytest.approx(2.0, abs=1e-6)
    assert residual < 1e-9
    slope, _ = fit_loglog_slope(ts, [t**4 for t in ts])
    assert slope == pytest.approx(4.0, abs=1e-6)


def test_fit_loglog_slope_small_angle_cosine():
    ts = list(np.logspace(-3, -1.5, 13))
    slope, _ = fit_loglog_slope(ts, [1.0 - math.cos(PI * t / 2) for t in ts])
    assert slope == pytest.approx(2.0, abs=0.02)


def test_fit_loglog_slope_drops_floor_points():
    ts = [1e-3, 2e-3, 4e-3, 8e-3, 1.6e-2, 3.2e-2]
    values = [0.0, 1e-15, 4e-8, 1.6e-7, 6.4e-7, 2.56e-6]
    slope, _ = fit_loglog_slope(ts, values)
    assert slope == pytest.approx(2.0, abs=1e-6)
    # only the kept points' t must be positive
    assert fit_loglog_slope([0.0, -1.0] + ts[2:], values) == fit_loglog_slope(ts, values)


@pytest.mark.parametrize("t_values, values, reason", [
    ([0.0, 1e-3, 2e-3, 4e-3], [1e-6, 1e-6, 4e-6, 1.6e-5], "finite and positive"),
    ([-1e-3, 1e-3, 2e-3, 4e-3], [1e-6, 1e-6, 4e-6, 1.6e-5], "finite and positive"),
    ([math.nan, 1e-3, 2e-3, 4e-3], [1e-6, 1e-6, 4e-6, 1.6e-5], "finite and positive"),
    ([math.inf, 1e-3, 2e-3, 4e-3], [1e-6, 1e-6, 4e-6, 1.6e-5], "finite and positive"),
    ([1e-3, 2e-3, 4e-3, 8e-3], [1e-6, 4e-6, math.inf, 6.4e-5], "values must be finite"),
    ([1e-3, 2e-3, 4e-3, 8e-3, 1.6e-2], [1e-6, 4e-6, math.nan, 6.4e-5, 2.56e-4], "values must be finite"),
    ([1e-2] * 4, [1e-6, 2e-6, 3e-6, 4e-6], "two distinct t"),
    # a value or a kept t that is not a number raised TypeError, and a bool
    # was taken as 1
    *(([1e-3, 2e-3, 4e-3, 8e-3], [1e-6, 4e-6, bad, 6.4e-5], "values must be finite")
      for bad in ["1.0", None, 1j, True, [1.0], np.array(["a"])]),
    *(([1e-3, 2e-3, bad, 8e-3], [1e-6, 4e-6, 1.6e-5, 6.4e-5], "finite and positive")
      for bad in ["1.0", None, 1j, True, [1.0], np.array(["a"])]),
    # nor is an array, 0-d included: a real one was taken, or failed on
    # numpy's ambiguous truth value
    *(([1e-3, 2e-3, 4e-3, 8e-3], [1e-6, 4e-6, bad, 6.4e-5], "values must be finite")
      for bad in [np.array([1.6e-5, 2e-5]), np.array(1.6e-5)]),
    *(([1e-3, 2e-3, bad, 8e-3], [1e-6, 4e-6, 1.6e-5, 6.4e-5], "finite and positive")
      for bad in [np.array([4e-3, 5e-3]), np.array(4e-3)]),
])
def test_fit_loglog_slope_rejects_bad_points(t_values, values, reason, capfd):
    # each used to warn, print LAPACK's complaints, return NaN or drop the
    # point silently; now one ValueError, and nothing on stdout
    with pytest.raises(ValueError, match=reason):
        fit_loglog_slope(t_values, values)
    assert capfd.readouterr().out == ""


# the closed form against np.polyfit: over 154k random fits of this kind
# they differed by at most 1.3e-13 in the slope and 5e-14 in the residual
FIT_REFERENCE_TOL = 1e-12


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    data=st.data(),
    count=st.integers(4, 20),
    top=st.floats(-6.0, -0.31),
    span=st.floats(0.5, 4.0),
    power=st.floats(1.0, 8.0),
    scale=st.floats(-2.0, 2.0),
)
def test_fit_loglog_slope_matches_the_polyfit_reference(data, count, top, span, power, scale):
    # count log-spaced t up to 10**top <= 0.5 over span decades, values
    # 10**scale * t**power * e**noise, and some values at or below the floor
    t_values = np.logspace(top - span, top, count).tolist()
    noise = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=count, max_size=count))
    values = [10.0**scale * t**power * math.exp(e) for t, e in zip(t_values, noise)]
    floored = data.draw(st.dictionaries(
        st.integers(0, count - 1), st.sampled_from([0.0, INFIDELITY_FLOOR / 2, INFIDELITY_FLOOR]),
        max_size=count - 4,
    ))
    for i, value in floored.items():
        values[i] = value
    assume(sum(v > INFIDELITY_FLOOR for v in values) >= 4)
    slope, residual = fit_loglog_slope(t_values, values)
    want_slope, want_residual = oracles.polyfit_loglog_slope(t_values, values, INFIDELITY_FLOOR)
    assert abs(slope - want_slope) <= FIT_REFERENCE_TOL
    assert abs(residual - want_residual) <= FIT_REFERENCE_TOL


@pytest.mark.parametrize("window", [
    T_VALUES,
    np.logspace(-1.0, math.log10(0.4), 6).tolist(),
    [0.01, 0.02, 0.04, 0.08],
])
@pytest.mark.parametrize("power", [2, 4, 6])
def test_fit_loglog_slope_recovers_exact_power_laws(window, power):
    slope, residual = fit_loglog_slope(window, [t**power for t in window])
    assert abs(slope - power) <= 1e-12
    assert residual <= 1e-12


def test_fit_loglog_slope_insufficient_points():
    with pytest.raises(ValueError, match="insufficient dynamic range"):
        fit_loglog_slope([1e-3, 1e-2, 1e-1], [1e-16, 1e-15, 1e-4])
    with pytest.raises(ValueError, match="equal length"):
        fit_loglog_slope([1e-3], [1e-4, 1e-3])


EXPECTED_SLOPES = {
    "elementary": {"eps": 2.0, "f": 2.0, "mixed": 2.0},
    "scrofulous": {"eps": 4.0, "f": 2.0, "mixed": 2.0},
    "scorbutus": {"eps": 4.0, "f": 4.0, "mixed": 4.0},
    "skinsc": {"eps": 4.0, "f": 4.0, "mixed": 4.0},
}
RAYS = {"eps": (1.0, 0.0), "f": (0.0, 1.0), "mixed": (1.0, 1.0)}
BUILDERS = {
    "elementary": elementary,
    "scrofulous": scrofulous,
    "scorbutus": scorbutus,
    "skinsc": skinsc,
}


@pytest.mark.parametrize("family", list(EXPECTED_SLOPES))
@pytest.mark.parametrize("theta", [PI / 2, PI, 2.0])
def test_robustness_order_certificates(family, theta):
    seq = BUILDERS[family](theta, 0.0)
    for ray_name, expected in EXPECTED_SLOPES[family].items():
        report = slope_report(seq, RAYS[ray_name], T_VALUES)
        assert abs(report.fitted_slope - expected) <= SLOPE_TOL, (
            f"{family} theta={theta} ray={ray_name}: slope {report.fitted_slope}"
        )


# ------------------------------------------------- first-order coefficients


def test_first_order_coefficient_elementary_eps():
    # analytic derivative: -i theta (n . sigma / 2) (theta)_phi
    for theta, phi in ((PI, 0.0), (1.3, 0.8)):
        seq = elementary(theta, phi)
        generator = 0.5 * (math.cos(phi) * oracles.SX + math.sin(phi) * oracles.SY)
        expected = -1j * theta * generator @ rotation(Pulse(theta, phi))
        measured = first_order_coefficient(seq, "eps")
        assert np.max(np.abs(measured - expected)) < COEFF_TOL
    norm = np.linalg.norm(first_order_coefficient(elementary(PI, 0.0), "eps"))
    assert norm == pytest.approx(PI * math.sqrt(2) / 2, abs=1e-6)


def test_first_order_coefficient_elementary_f():
    # the exact derivative at zero is -i sin(theta/2) sigma_z, standalone
    for theta in (PI, 1.3, 2.4):
        seq = elementary(theta, 0.4)
        expected = -1j * math.sin(theta / 2) * oracles.SZ
        measured = first_order_coefficient(seq, "f")
        assert np.max(np.abs(measured - expected)) < COEFF_TOL
    norm = np.linalg.norm(first_order_coefficient(elementary(PI, 0.0), "f"))
    assert norm == pytest.approx(math.sqrt(2), abs=1e-6)


def test_first_order_coefficients_vanish_for_scorbutus():
    for theta in (PI / 2, PI, 2.0):
        seq = scorbutus(theta, 0.0)
        assert np.linalg.norm(first_order_coefficient(seq, "eps")) <= COEFF_TOL
        assert np.linalg.norm(first_order_coefficient(seq, "f")) <= COEFF_TOL


def test_first_order_coefficient_rejects_unknown_parameter():
    with pytest.raises(ValueError, match="unknown error parameter"):
        first_order_coefficient(elementary(PI, 0.0), "gamma")


def test_first_order_coefficient_matches_the_finite_difference_oracle():
    # random sequences of up to six pulses, no structure assumed
    rng = np.random.default_rng(23)
    for _ in range(40):
        k = int(rng.integers(1, 7))
        pulses = list(zip(rng.uniform(0.0, 2 * PI, k).tolist(), rng.uniform(-PI, 3 * PI, k).tolist()))
        seq = PulseSequence(tuple(Pulse(t, p) for t, p in pulses), Pulse(1.0, 0.0), "custom")
        for which in ("eps", "f"):
            exact = first_order_coefficient(seq, which)
            assert exact.shape == (2, 2) and exact.dtype == complex
            assert np.max(np.abs(exact - oracles.fd_first_order(pulses, which))) < COEFF_TOL


def test_scorbutus_first_order_terms_vanish_exactly_across_its_domain():
    checked = 0
    for theta in np.linspace(0.0, 2 * PI, 257)[1:-1].tolist():
        try:
            seq = scorbutus(theta, 0.7)
        except ValueError:
            continue  # outside the family's domain
        checked += 1
        for which in ("eps", "f"):
            assert np.linalg.norm(first_order_coefficient(seq, which)) <= EXACT_TOL, (theta, which)
    assert checked >= 128


# --------------------------------------------------- alpha and the residual


def test_alpha_scrofulous_pi_closed_form():
    # -2 cos(phi2 - phi1) sin(theta1/2) with cos(phi2 - phi1) = -1/2
    assert symmetric_ore_residual(scrofulous(PI, 0.0)).alpha_values[0] == pytest.approx(1.0, abs=1e-10)


def test_alpha_scorbutus_pi_closed_form():
    # -2 sin(theta_r / 2) at theta_r = pi/2
    assert symmetric_ore_residual(scorbutus(PI, 0.0)).alpha_values[1] == pytest.approx(
        -math.sqrt(2), abs=1e-10
    )


def test_alpha_identity_flanks():
    center = Pulse(PI, 0.0)
    blank = Pulse(0.0, 0.0)
    seq = PulseSequence((blank, center, blank), center, "custom")
    assert symmetric_ore_residual(seq).alpha_values[0] == pytest.approx(0.0, abs=1e-12)


def test_alpha_input_validation():
    crooked = PulseSequence((Pulse(1.0, 0.0), Pulse(2.0, 0.0)), Pulse(1.0, 0.0), "custom")
    # a mirror image of even length has no central pulse
    even = PulseSequence((Pulse(1.0, 0.0), Pulse(1.0, 0.0)), Pulse(2.0, 0.0), "custom")
    for seq in (crooked, even):
        with pytest.raises(ValueError, match="not palindromic"):
            symmetric_ore_residual(seq)


def test_alpha_assembly_against_derivative_oracle():
    # the full f-derivative of a palindromic sequence must reconstruct as
    # -i * residual * sigma_z; this pins the assembly order of alpha_i
    for seq in (scrofulous(PI / 2, 0.0), scrofulous(2.0, 0.0), scorbutus(PI, 0.0)):
        residual = symmetric_ore_residual(seq).residual
        derivative = first_order_coefficient(seq, "f")
        assert np.max(np.abs(derivative - (-1j * residual * oracles.SZ))) < COEFF_TOL


@settings(max_examples=100, deadline=None, derandomize=True)
@given(half=st.lists(st.tuples(st.floats(0.0, 2 * PI), st.floats(0.0, 2 * PI)), min_size=1, max_size=4))
def test_exact_off_resonance_term_of_a_palindrome_is_the_residual(half):
    # the scalar formula and the exact derivative are computed independently
    pulses = [Pulse(t, p) for t, p in half]
    seq = PulseSequence(tuple(pulses + pulses[-2::-1]), pulses[-1], "custom")
    residual = symmetric_ore_residual(seq).residual
    derivative = first_order_coefficient(seq, "f")
    assert np.max(np.abs(derivative - (-1j * residual * oracles.SZ))) <= EXACT_TOL


def test_residual_zero_for_scorbutus():
    for theta in (PI / 2, PI, 2.0):
        report = symmetric_ore_residual(scorbutus(theta, 0.0))
        assert abs(report.residual) <= 1e-10
        assert len(report.s_values) == 3
        assert len(report.alpha_values) == 2


def test_residual_scrofulous_pi_equals_two():
    report = symmetric_ore_residual(scrofulous(PI, 0.0))
    assert report.residual == pytest.approx(2.0, abs=1e-10)
    assert report.alpha_values[0] == pytest.approx(1.0, abs=1e-10)


def test_residual_single_pulse():
    report = symmetric_ore_residual(elementary(PI, 0.0))
    assert report.residual == pytest.approx(1.0, abs=1e-12)
    assert report.alpha_values == ()


def test_residual_tracks_derivative_norm():
    # ||dU/df|| / |residual| is the same constant (sqrt 2) for every
    # palindromic sequence with a nonzero residual
    ratios = []
    for theta in (PI / 2, PI, 2.0):
        seq = scrofulous(theta, 0.0)
        residual = symmetric_ore_residual(seq).residual
        norm = np.linalg.norm(first_order_coefficient(seq, "f"))
        ratios.append(norm / abs(residual))
    assert max(ratios) / min(ratios) - 1.0 <= 0.01
    assert ratios[0] == pytest.approx(math.sqrt(2), rel=1e-6)


def test_residual_root_is_the_tuning_condition():
    for delta in (0.05, -0.05):
        seq = perturbed_scorbutus(PI, delta)
        assert abs(symmetric_ore_residual(seq).residual) >= 1e-3
        report = slope_report(seq, RAYS["f"], T_VALUES)
        assert abs(report.fitted_slope - 2.0) <= SLOPE_TOL


# ---------------------------------------------------------------- grids


def test_fidelity_grid_center_and_frozen_value():
    axis = AxisSpec(-0.25, 0.25, 101)
    grid = fidelity_grid(elementary(PI, 0.0), axis, axis)
    eps_points = axis.points()
    i0 = int(np.argmin(np.abs(eps_points)))
    i1 = int(np.argmin(np.abs(eps_points - 0.1)))
    assert grid.values[i0, i0] == pytest.approx(1.0, abs=1e-12)
    assert grid.values[i1, i1] == pytest.approx(0.9814087089906285, abs=1e-9)
    assert grid.values.shape == (101, 101)
    assert np.all(grid.values >= 0.0) and np.all(grid.values <= 1.0)


def test_fidelity_grid_symmetric_in_f_for_elementary():
    axis = AxisSpec(-0.2, 0.2, 21)
    grid = fidelity_grid(elementary(PI, 0.0), axis, axis)
    assert np.max(np.abs(grid.values - grid.values[::-1, :])) < 1e-12


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 6])
def test_fidelity_of_a_reverse_equal_sequence_is_even_in_f_by_the_50_digit_oracle(length):
    # what fidelity_grid's filled rows rest on: F_S(eps, -f) = F_{rev S}(eps, f),
    # since U_S(eps, f)^dagger = Z U_{rev S}(eps, -f) Z and T = Z T^dagger Z;
    # a sequence equal to its reverse is the case rev S = S, even in f. The
    # two sides take different operation orders, so they agree to the
    # oracle's 50 digits, not bit for bit
    rng = np.random.default_rng(length)
    half = [tuple(p) for p in rng.uniform([0.0, 0.0], [2 * PI, 2 * PI], size=((length + 1) // 2, 2))]
    palindrome = half + half[: length // 2][::-1]
    assert palindrome == palindrome[::-1] and len(palindrome) == length
    target = tuple(rng.uniform([0.0, 0.0], [PI, 2 * PI]))
    points = rng.uniform(-0.25, 0.25, size=(5, 2))
    pulses = [tuple(p) for p in rng.uniform([0.0, 0.0], [2 * PI, 2 * PI], size=(length, 2))]
    # one pulse is its own reverse; longer random lists are not
    assert length == 1 or pulses != pulses[::-1]
    for sequence in (palindrome, pulses):
        for eps, f in points:
            t = math.hypot(eps, f)
            below = oracles.mp_ray_overlap(sequence, target, (eps, -f), t)
            above = oracles.mp_ray_overlap(sequence[::-1], target, (eps, f), t)
            with mpmath.workdps(50):
                assert abs(below - above) <= 1e-40, (sequence, eps, f)
    # a sequence that is not its own reverse is not even in f
    seq = skinsc(1.0, 0.3)
    pulses, target = [(p.theta, p.phi) for p in seq.pulses], (seq.target.theta, seq.target.phi)
    t = math.hypot(0.25, 0.25)
    above, below = (oracles.mp_ray_infidelity(pulses, target, (0.25, f), t) for f in (0.25, -0.25))
    assert abs(above - below) > 0.1


def _phase_reflection(pulses, target):
    # the pulses with each phase reflected about the target's, 2 phi_T - phi,
    # exactly: the 50-digit oracle takes them as mpmath numbers
    with mpmath.workdps(50):
        return [(theta, 2 * mpmath.mpf(target[1]) - phi) for theta, phi in pulses]


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 6])
def test_fidelity_of_a_sequence_is_that_of_its_phase_reflection_at_minus_f_by_the_50_digit_oracle(length):
    # a second exact symmetry in f, besides the reversal: the pi rotation about the
    # target axis maps (theta)_phi at (eps, f) to (theta)_{2 phi_T - phi} at
    # (eps, -f) and leaves the target fixed, so F_S(eps, f) = F_S'(eps, -f)
    rng = np.random.default_rng(100 + length)
    pulses = [tuple(p) for p in rng.uniform([0.0, 0.0], [2 * PI, 2 * PI], size=(length, 2))]
    # one pulse is its own reverse; longer random lists are not
    assert length == 1 or pulses != pulses[::-1]
    target = tuple(rng.uniform([0.0, 0.0], [PI, 2 * PI]))
    reflected = _phase_reflection(pulses, target)
    for eps, f in rng.uniform(-0.25, 0.25, size=(5, 2)):
        t = math.hypot(eps, f)
        value = oracles.mp_ray_infidelity(pulses, target, (eps, f), t)
        assert oracles.mp_ray_infidelity(reflected, target, (eps, -f), t) == value, (eps, f)
    # skinsc at (0.25, 0.25), whose value at (0.25, -0.25) differs by more
    # than 0.1 (the reverse-equal test above), is its reflection's there
    seq = skinsc(1.0, 0.3)
    pulses, target = [(p.theta, p.phi) for p in seq.pulses], (seq.target.theta, seq.target.phi)
    t = math.hypot(0.25, 0.25)
    above = oracles.mp_ray_infidelity(pulses, target, (0.25, 0.25), t)
    assert oracles.mp_ray_infidelity(_phase_reflection(pulses, target), target, (0.25, -0.25), t) == above


def test_fidelity_grid_deterministic_across_workers():
    axis = AxisSpec(-0.25, 0.25, 21)
    seq = scorbutus(PI, 0.0)
    reference = fidelity_grid(seq, axis, axis)
    again = fidelity_grid(seq, axis, axis)
    assert reference.values.tobytes() == again.values.tobytes()


def _row_loop_grid(seq, eps_axis, f_axis):
    target = rotation(seq.target)
    eps_points = eps_axis.points()
    return np.array(
        [gate_fidelity(compose_with_errors(seq, ErrorPair(eps_points, f)), target) for f in f_axis.points()]
    )


@pytest.mark.parametrize(
    "eps_count, f_count, block_points, f_bounds",
    [
        (3, 37, GRID_BLOCK_POINTS, (-0.2, 0.25)),  # 111 points: one block
        (101, 37, GRID_BLOCK_POINTS, (-0.2, 0.25)),  # 3737 points: 2 blocks, of 19 and 18 rows
        (3, 37, 8, (-0.2, 0.25)),  # 111 points: 14 blocks, nine of 3 rows and five of 2
        (GRID_BLOCK_POINTS + 5, 3, GRID_BLOCK_POINTS, (-0.2, 0.25)),  # above the budget: 4 blocks, capped at one per row
        # symmetric f axes, where both evaluate ceil(n/2) rows: scorbutus
        # mirrors them, skinsc fills the rest from its reversed fold
        (101, 37, GRID_BLOCK_POINTS, (-0.25, 0.25)),  # 19 rows evaluated
        (101, 36, GRID_BLOCK_POINTS, (-0.25, 0.25)),  # 18 rows evaluated, no middle row
        (3, 37, 8, (0.25, -0.25)),  # descending: 19 rows in 8 blocks
        (5, 2, GRID_BLOCK_POINTS, (-0.25, 0.25)),  # 1 row evaluated
    ],
    ids=["3-37-2048", "101-37-2048", "3-37-8", "2053-3-2048",
         "101-37-2048-symmetric", "101-36-2048-symmetric", "3-37-8-descending", "5-2-2048-symmetric"],
)
def test_fidelity_grid_blocks_match_a_row_loop_bit_for_bit(eps_count, f_count, block_points, f_bounds, monkeypatch):
    monkeypatch.setattr(analysis, "GRID_BLOCK_POINTS", block_points)
    eps_axis = AxisSpec(-0.25, 0.2, eps_count)
    f_axis = AxisSpec(*f_bounds, f_count)
    symmetric = f_bounds[0] == -f_bounds[1]
    evaluated = (f_count + 1) // 2 if symmetric else f_count
    for seq in (scorbutus(1.1, 0.3), skinsc(2.0, 5.0)):
        values = fidelity_grid(seq, eps_axis, f_axis).values
        assert values.shape == (f_count, eps_count)
        loop = _row_loop_grid(seq, eps_axis, f_axis)
        assert values[:evaluated].tobytes() == loop[:evaluated].tobytes()
        if symmetric and seq.family == "scorbutus":
            # a palindrome's filled rows are copies of the evaluated ones
            assert values.tobytes() == values[::-1].tobytes()
        else:
            # skinsc's filled rows come from a reversed fold of the same
            # pulse pairs: they read at most 6 units of 2**-53 off the row loop
            assert np.max(np.abs(values - loop)) <= 8 * 2.0**-53
        # the filled rows are no views: writing row k leaves row n-1-k alone
        tail = values[evaluated:].copy()
        values[: f_count // 2] = -1.0
        assert values[evaluated:].tobytes() == tail.tobytes()


def _grid_sequences():
    # every family at one target, and custom sequences of 2 to 6 pulses,
    # none of them its own reverse
    rng = np.random.default_rng(30)
    seqs = [synthesize(family, 1.0, 0.3) for family in FAMILIES]
    for length in range(2, 7):
        pulses = tuple(Pulse(*p) for p in rng.uniform([0.0, 0.0], [2 * PI, 2 * PI], size=(length, 2)))
        assert pulses != pulses[::-1]
        seqs.append(PulseSequence(pulses, Pulse(*rng.uniform([0.0, 0.0], [PI, 2 * PI])), "custom"))
    return seqs


@pytest.mark.parametrize(
    "f_bounds, f_count",
    [((-0.25, 0.25), 101), ((-0.25, 0.25), 100), ((0.25, -0.25), 10), ((-0.25, 0.25), 2)],
    ids=["default", "even", "descending", "two"],
)
def test_the_filled_rows_of_a_grid_are_the_evaluated_rows_of_its_reversed_sequence(f_bounds, f_count):
    # on a symmetric f axis row n-1-k of S's grid is row k of rev S's, bit
    # for bit: the same pulse pairs folded in the reverse order (S itself,
    # where S equals its reverse)
    eps_axis, f_axis = AxisSpec(-0.25, 0.25, 101), AxisSpec(*f_bounds, f_count)
    evaluated = (f_count + 1) // 2
    for seq in _grid_sequences():
        values = fidelity_grid(seq, eps_axis, f_axis).values
        reverse = PulseSequence(seq.pulses[::-1], seq.target, seq.family)
        evaluated_reverse = fidelity_grid(reverse, eps_axis, f_axis).values[: f_count // 2]
        assert values[evaluated:].tobytes() == evaluated_reverse[::-1].tobytes(), seq


def test_a_skinsc_grid_on_a_symmetric_f_axis_evaluates_half_its_rows(monkeypatch):
    # every pulse-pair stack is built by su2._axis_pair from an array of
    # angles (the target's pair from a float one); count its error points
    points = []
    axis_pair = su2._axis_pair

    def counting(theta, cos_phi, sin_phi, eps, f, angle_rows=None):
        if np.ndim(theta):
            points.append(np.broadcast(eps, f).size)
        return axis_pair(theta, cos_phi, sin_phi, eps, f, angle_rows)

    monkeypatch.setattr(su2, "_axis_pair", counting)
    eps_axis = AxisSpec(-0.25, 0.25, 101)
    for f_count, rows in ((101, 51), (100, 50), (2, 1)):
        points.clear()
        fidelity_grid(skinsc(1.0, 0.3), eps_axis, AxisSpec(-0.25, 0.25, f_count))
        assert sum(points) == rows * 101, f_count
    # an asymmetric axis evaluates every row
    points.clear()
    fidelity_grid(skinsc(1.0, 0.3), eps_axis, AxisSpec(-0.25, 0.2, 101))
    assert sum(points) == 101 * 101


@pytest.mark.parametrize("family", FAMILIES)
def test_default_grid_stays_within_1e_15_of_the_quaternion_oracle(family):
    # the numerics gate of the pair kernel: the largest deviation over the
    # whole default grid at theta = pi/2 is 7.8e-16 (scorbutus, skinsc)
    axis = AxisSpec(-0.25, 0.25, 101)
    seq = synthesize(family, PI / 2, 0.0)
    grid = fidelity_grid(seq, axis, axis)
    points = np.linspace(-0.25, 0.25, 101)
    pulses = [(p.theta, p.phi) for p in seq.pulses]
    target = oracles.quat_of_pulse(PI / 2, 0.0)
    rng = np.random.default_rng(61)
    for i, j in rng.integers(0, 101, size=(1000, 2)):
        expected = oracles.quat_fidelity(oracles.quat_compose(pulses, points[j], points[i]), target)
        assert abs(grid.values[i, j] - expected) <= 1e-15


def test_non_square_grid_serialises_f_slowest_as_before():
    eps_axis = AxisSpec(-0.1, 0.2, 5)
    f_axis = AxisSpec(-0.25, 0.05, 7)
    grid = fidelity_grid(scrofulous(1.7, 0.9), eps_axis, f_axis)
    assert grid.values.shape == (7, 5)
    lines = ["epsilon,f,fidelity"]
    for i, f in enumerate(f_axis.points()):
        for j, e in enumerate(eps_axis.points()):
            lines.append(f"{e:.17g},{f:.17g},{grid.values[i, j]:.17g}")
    assert grid_to_csv(grid) == "\n".join(lines) + "\n"
    values = [[float(v) for v in row] for row in grid.values]
    assert json.dumps(grid.to_dict()["values"]) == json.dumps(values)


# 0.0 and -0.0, the smallest subnormal, a tiny normal, an inexact decimal,
# an exact one and a NaN: each prints differently under %.17g
CSV_VALUES = [0.0, -0.0, 5e-324, 1e-300, 0.1, 1.0, math.nan]


@pytest.mark.parametrize("eps_axis, f_axis", [
    (AxisSpec(0.25, -0.0, 2), AxisSpec(-0.1, 0.1, 2)),
    (AxisSpec(0.0, 1e-300, 2), AxisSpec(0.3, -0.0, 5)),
    (AxisSpec(-0.1, 0.2, 4), AxisSpec(-0.25, -0.0, 3)),
])
def test_grid_csv_bytes_equal_the_per_line_reference(eps_axis, f_axis):
    shape = (f_axis.count, eps_axis.count)
    values = np.resize(np.array(CSV_VALUES), shape)
    grid = FidelityGrid(Pulse(PI, 0.0), "custom", eps_axis, f_axis, values)
    reference = "\n".join([
        "epsilon,f,fidelity",
        *(
            f"{e:.17g},{f:.17g},{v:.17g}"
            for f, row in zip(f_axis.points().tolist(), values.tolist())
            for e, v in zip(eps_axis.points().tolist(), row)
        ),
    ]) + "\n"
    assert grid_to_csv(grid) == reference
    # linspace keeps the sign of a zero stop, so an axis holds -0.0
    assert "-0," in reference


def _csv_reference(grid):
    return "epsilon,f,fidelity\n" + "".join(
        f"{e:.17g},{f:.17g},{v:.17g}\n"
        for f, row in zip(grid.f_axis.points().tolist(), grid.values.tolist())
        for e, v in zip(grid.eps_axis.points().tolist(), row)
    )


@pytest.mark.parametrize("zero_axis", ["f", "eps"])
def test_grid_csv_row_templates_are_keyed_on_the_axis_texts(zero_axis):
    # the two axes are equal, with one hash, but their last points print as
    # -0 and 0: each grid gets its own bytes, in either order and repeated
    negative, positive = AxisSpec(-1.0, -0.0, 3), AxisSpec(-1.0, 0.0, 3)
    assert negative == positive and hash(negative) == hash(positive)
    other = AxisSpec(0.2, 0.3, 3)
    # in-range rows print through the memo's 0.%d templates; the middle row
    # holds the zero-error 1.0, which keeps the %.17g template
    values = np.array([[0.5, 0.25, 0.125], [0.75, 1.0, 0.5], [0.3, 0.7, 0.9]])
    texts = set()
    for axis in (negative, positive, negative, negative, positive, positive):
        eps_axis, f_axis = (other, axis) if zero_axis == "f" else (axis, other)
        grid = FidelityGrid(Pulse(PI, 0.0), "custom", eps_axis, f_axis, values)
        text = grid_to_csv(grid)
        assert text == _csv_reference(grid)
        assert ",1\n" in text
        texts.add(text)
        # the memo holds the last axis pair only
        assert analysis._fraction_row_templates.cache_info().currsize == 1
    assert len(texts) == 2


def test_grid_csv_of_swapped_axes_gets_its_own_bytes():
    a, b = AxisSpec(-0.25, 0.25, 4), AxisSpec(0.1, 0.2, 4)
    values = np.linspace(0.2, 0.9, 16).reshape(4, 4)
    texts = []
    for eps_axis, f_axis in ((a, b), (b, a), (a, b)):
        grid = FidelityGrid(Pulse(PI, 0.0), "custom", eps_axis, f_axis, values)
        texts.append(grid_to_csv(grid))
        assert texts[-1] == _csv_reference(grid)
    assert texts[0] != texts[1] and texts[0] == texts[2]


def _odd_over(power):
    # odd / 2**power in [0.1, 1) has `power` decimals, the last a 5: at
    # power 18 rounding to 17 digits is an exact tie, at power 22 the part
    # cut off is a multiple of 1/32 of the last digit
    low = math.ceil(0.1 * 2**power) // 2
    return st.integers(low, 2 ** (power - 1) - 1).map(lambda k: (2 * k + 1) / 2**power)


IN_RANGE_VALUES = st.one_of(
    st.floats(0.1, 1.0, exclude_max=True),
    st.sampled_from([0.1, math.nextafter(0.1, 1.0), math.nextafter(1.0, 0.0), 0.5, 0.125]),
    _odd_over(18),
    _odd_over(22),
)
# outside [0.1, 1): a row holding one keeps the %.17g template
OUT_OF_RANGE_VALUES = st.sampled_from(
    [1.0, math.nextafter(0.1, 0.0), 0.0, -0.0, 5e-324, math.nan]
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), rows=st.integers(2, 6), cols=st.integers(2, 6))
def test_grid_csv_matches_the_per_value_reference(data, rows, cols):
    values = np.array(
        data.draw(st.lists(IN_RANGE_VALUES, min_size=rows * cols, max_size=rows * cols))
    )
    cells = st.tuples(st.integers(0, rows * cols - 1), OUT_OF_RANGE_VALUES)
    for cell, value in data.draw(st.lists(cells, max_size=3)):
        values[cell] = value
    eps_axis, f_axis = AxisSpec(-0.25, 0.25, cols), AxisSpec(-0.1, 0.3, rows)
    grid = FidelityGrid(Pulse(PI, 0.0), "custom", eps_axis, f_axis, values.reshape(rows, cols))
    reference = "".join(
        f"{e:.17g},{f:.17g},{v:.17g}\n"
        for f, row in zip(f_axis.points().tolist(), grid.values.tolist())
        for e, v in zip(eps_axis.points().tolist(), row)
    )
    assert grid_to_csv(grid) == "epsilon,f,fidelity\n" + reference


def test_fraction_digits_match_17g_on_a_million_values():
    rng = np.random.default_rng(1017)
    tie_18 = (2 * rng.integers(13108, 2**17, 50_000) + 1) / 2**18
    tie_22 = (2 * rng.integers(209716, 2**21, 50_000) + 1) / 2**22
    values = np.concatenate([
        rng.uniform(0.1, 1.0, 900_000),
        tie_18,
        tie_22,
        1.0 - rng.integers(1, 2**20, 20_000) * 2.0**-53,
        0.1 + rng.integers(0, 2**20, 20_000) * 2.0**-56,
        [0.1, math.nextafter(0.1, 1.0), math.nextafter(1.0, 0.0), 0.5, 0.125, 0.25],
    ])
    digits, in_range = analysis._fraction_digits(values)
    assert in_range.all()
    texts = ["0.%d" % d for d in digits.tolist()]
    mismatches = [v for v, t in zip(values.tolist(), texts) if t != f"{v:.17g}"]
    assert values.size > 10**6 and mismatches == []
    outside = np.array([1.0, math.nextafter(0.1, 0.0), 0.0, -0.0, 5e-324, math.nan, math.inf, -0.5])
    assert not analysis._fraction_digits(outside)[1].any()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_axis_spec_rejects_non_finite_bounds(bad):
    with pytest.raises(ValueError, match="finite"):
        AxisSpec(0.0, bad, 3)
    with pytest.raises(ValueError, match="finite"):
        AxisSpec(bad, 0.0, 3)
    # finite bounds whose difference overflows: linspace would warn and
    # return NaN and inf points
    with pytest.raises(ValueError, match="overflows"):
        AxisSpec(-1e308, 1e308, 3)


@pytest.mark.parametrize("start, stop, reason", [
    (10**400, 1.0, "bounds must be finite"),
    (0.0, -10**400, "bounds must be finite"),
    # ints inside the double range whose difference is not
    (-10**308, 10**308, "overflows"),
    # bounds that are not numbers raised TypeError, and a bool was taken as
    # 0 or 1
    ("a", 1.0, "bounds must be finite"),
    (None, 1.0, "bounds must be finite"),
    (0.0, 1j, "bounds must be finite"),
    (True, 2.0, "bounds must be finite"),
    ([0.0], 1.0, "bounds must be finite"),
    (0.0, np.array(["a"]), "bounds must be finite"),
    # an array bound built a 2-D axis
    (np.array([0.0, 1.0]), 2.0, "bounds must be finite"),
    (0.0, np.array(2.0), "bounds must be finite"),
], ids=["start", "stop", "span", "str", "none", "complex", "bool", "list", "str-array", "array", "0-d"])
def test_axis_spec_rejects_ints_beyond_the_double_range(start, stop, reason):
    # math.isfinite raised OverflowError for the ints
    with pytest.raises(ValueError, match=reason):
        AxisSpec(start, stop, 3)


@pytest.mark.parametrize(
    "count",
    [2.5, 3.0, np.float64(3.0), True, np.True_, "3", None],
    ids=["float", "whole-float", "numpy-float", "bool", "numpy-bool", "str", "none"],
)
def test_axis_spec_rejects_a_count_that_is_not_an_int(count):
    # 2.5 once constructed, and points() then raised numpy's TypeError
    with pytest.raises(ValueError, match=r"axis count must be an int, got"):
        AxisSpec(0.0, 1.0, count)


def test_axis_spec_takes_numpy_integer_counts():
    axis = AxisSpec(0.0, 1.0, np.int64(3))
    assert type(axis.count) is int and axis == AxisSpec(0.0, 1.0, 3)
    assert dataclasses.asdict(axis) == {"start": 0.0, "stop": 1.0, "count": 3}
    assert np.array_equal(axis.points(), [0.0, 0.5, 1.0])


def test_fit_rejects_a_kept_t_that_is_an_int_beyond_the_double_range():
    # 0.0 < 10**400 < math.inf holds for a Python int, and math.log takes it
    with pytest.raises(ValueError, match="t of the kept points must be finite and positive"):
        fit_loglog_slope([1e-3, 2e-3, 4e-3, 10**400], [1e-6, 4e-6, 1.6e-5, 6.4e-5])
    # ints inside the double range are numbers like any other
    assert fit_loglog_slope([1, 2, 4, 8], [1e-6, 4e-6, 1.6e-5, 6.4e-5]) == fit_loglog_slope(
        [1.0, 2.0, 4.0, 8.0], [1e-6, 4e-6, 1.6e-5, 6.4e-5]
    )


def test_ints_beyond_the_double_range_raise_the_fit_and_ray_value_errors():
    # both escaped as OverflowError ("int too large to convert to float")
    with pytest.raises(ValueError, match="values must be finite"):
        fit_loglog_slope([1e-3, 2e-3, 4e-3, 8e-3], [1e-6, 4e-6, 10**400, 6.4e-5])
    for ray in [(10**400, 1.0), (0.0, -10**400)]:
        for call in (infidelity_ray, slope_report):
            with pytest.raises(ValueError, match="must have finite components and a finite norm"):
                call(elementary(1.0, 0.0), ray, [0.1, 0.2])
    # ints inside the double range are numbers like any other
    assert infidelity_ray(elementary(1.0, 0.0), (1, 0), [0.1]) == infidelity_ray(
        elementary(1.0, 0.0), (1.0, 0.0), [0.1]
    )


@pytest.mark.parametrize("count", [1, 0, -3])
def test_axis_spec_rejects_fewer_than_two_points(count):
    with pytest.raises(ValueError, match="two points"):
        AxisSpec(0.0, 0.1, count)


def test_fidelity_grid_rejects_degenerate_axes():
    with pytest.raises(ValueError, match="two points"):
        fidelity_grid(elementary(PI, 0.0), AxisSpec(0.0, 0.1, 1), AxisSpec(0.0, 0.1, 5))


def test_grid_csv_shape_and_round_trip():
    axis = AxisSpec(-0.1, 0.1, 3)
    grid = fidelity_grid(elementary(PI, 0.0), axis, axis)
    text = grid_to_csv(grid)
    lines = text.strip().split("\n")
    assert lines[0] == "epsilon,f,fidelity"
    assert len(lines) == 1 + 9
    eps, f, fid = lines[1].split(",")
    assert float(eps) == -0.1 and float(f) == -0.1
    assert float(fid) == grid.values[0, 0]


@pytest.mark.parametrize("shape, eps_count, f_count", [
    ((2, 3), 3, 3),  # too few rows: the CSV wrote 6 of 9 lines
    ((3, 3), 3, 2),  # a row too many: the CSV dropped the last
    ((3, 3), 2, 3),  # a column too many: the CSV leaked a TypeError
    ((3, 2), 3, 2),  # the axes' shape transposed
    ((6,), 3, 2),  # the right number of values, flat
])
def test_fidelity_grid_values_must_have_the_axes_shape(shape, eps_count, f_count):
    eps_axis, f_axis = AxisSpec(-0.1, 0.1, eps_count), AxisSpec(-0.2, 0.2, f_count)
    values = np.full(shape, 0.5)
    with pytest.raises(ValueError, match=re.escape(f"shape {shape}") + ".*" + re.escape(f"{(f_count, eps_count)}")):
        FidelityGrid(Pulse(PI, 0.0), "custom", eps_axis, f_axis, values)
    grid = FidelityGrid(Pulse(PI, 0.0), "custom", eps_axis, f_axis, np.full((f_count, eps_count), 0.5))
    assert len(grid_to_csv(grid).splitlines()) == 1 + f_count * eps_count


# ---------------------------------------------------------------- times


def test_time_compare_frozen_rows():
    rows = time_compare([PI, PI / 2])
    assert rows[0].times["scorbutus"] == pytest.approx(5 * PI, abs=1e-12)
    assert rows[0].times["skinsc"] == pytest.approx(19 * PI / 3, abs=1e-12)
    assert rows[1].times["scorbutus"] == pytest.approx(SCORBUTUS_HALF_TIME, abs=1e-10)
    assert rows[1].times["skinsc"] == pytest.approx(SKINSC_HALF_TIME, abs=1e-10)
    assert all(r.note == "" for r in rows)


def test_time_compare_independent_of_phase():
    # time_compare synthesizes at phase 0 only: no bi-robust family's total
    # time, nor its domain failure, depends on the target phase
    def time_or_reason(family, theta, phi):
        try:
            return total_time(synthesize(family, theta, phi))
        except ValueError as exc:
            return str(exc)

    for family in analysis._compared_families():
        for theta in (1e-3, 0.5, 1.5, PI / 2, 3.0, PI, 3.9, 6.2, 6.9):
            outcomes = {time_or_reason(family, theta, phi) for phi in (0.0, 1.3, PI, -2.0, 1e308, -1e308)}
            assert len(outcomes) == 1, (family, theta, outcomes)


def test_time_compare_annotates_domain_failures():
    rows = time_compare([3.9])
    assert rows[0].times["scorbutus"] is None
    assert rows[0].times["skinsc"] is not None
    assert "arcsinc" in rows[0].note
    rows = time_compare([6.9])
    assert rows[0].times["scorbutus"] is None and rows[0].times["skinsc"] is None


def test_time_compare_reads_its_families_from_the_table(monkeypatch):
    # every row whose slopes are all 4 is compared, in table order, and a
    # row added to the table shows up in the rows, the CSV and the JSON
    assert list(time_compare([PI])[0].times) == ["scorbutus", "skinsc"]
    monkeypatch.setitem(sequences.FAMILY_SPECS, "twin", sequences.FAMILY_SPECS["scorbutus"])
    monkeypatch.setitem(sequences.FAMILY_SPECS, "half", sequences.FAMILY_SPECS["scrofulous"])
    rows = time_compare([PI, 3.9])
    assert [list(r.times) for r in rows] == [["scorbutus", "skinsc", "twin"]] * 2
    assert rows[0].times["twin"] == rows[0].times["scorbutus"]
    assert rows[1].times["twin"] is None and "twin: " in rows[1].note
    assert time_compare_to_csv(rows).split("\n")[0] == "theta,L_scorbutus,L_skinsc,L_twin,note"
    for row in time_compare_to_dict(rows)["rows"]:
        assert list(row) == ["theta", "L_scorbutus", "L_skinsc", "L_twin", "note"]


def test_time_compare_csv():
    text = time_compare_to_csv(time_compare([PI, 3.9]))
    lines = text.strip().split("\n")
    assert lines[0] == "theta,L_scorbutus,L_skinsc,note"
    assert len(lines) == 3
    assert lines[1].endswith(",")  # empty note column
    assert "nan" in lines[2]
