import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import oracles
from pulsesmith.sequences import (
    FAMILIES,
    SINC_BRANCH_END,
    SINC_BRANCH_FLOOR,
    PulseSequence,
    arcsinc,
    compose_with_errors,
    elementary,
    scorbutus,
    scrofulous,
    sequence_from_dict,
    sequence_to_dict,
    sinc,
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
    _pair_product,
    _rotation_pair,
    _sequence_pair,
    compose,
    gate_fidelity,
    rotation,
    rotation_with_error,
)

PI = math.pi
SEQ_FID_TOL = 1e-10
EXACT_TOL = 1e-12

# closed-form chain frozen via the Brent-method arcsinc oracle
SCROFULOUS_HALF_THETA1 = 2.010311433466438
SCROFULOUS_HALF_PHI1 = 1.081292205671836
SCROFULOUS_HALF_PHI2 = 4.8968236746298075  # -1.3863616325497787 mod 2 pi
THETA_R_HALF = 1.6277485989781801
SCORBUTUS_HALF_TIME = 13.67320991643539
SKINSC_HALF_THETA1 = 0.4240310394907405
SKINSC_HALF_THETA2 = 5.13642001987543
SKINSC_HALF_TIME = 18.974883752706823

ZERO = ErrorPair(0.0, 0.0)


def zero_error_fidelity(seq):
    return gate_fidelity(compose_with_errors(seq, ZERO), rotation(seq.target))


# ---------------------------------------------------------------- arcsinc


def test_arcsinc_endpoints():
    assert arcsinc(1.0) == 0.0
    assert abs(arcsinc(0.0) - PI) < 1e-13
    assert abs(arcsinc(2.0 / PI) - PI / 2) < 1e-13


def test_arcsinc_frozen_value():
    assert abs(arcsinc(math.sqrt(2) / PI) - SCROFULOUS_HALF_THETA1) < EXACT_TOL


def test_arcsinc_branch_constants():
    assert abs(SINC_BRANCH_END - 4.493409457909064) < 1e-9
    assert abs(SINC_BRANCH_FLOOR - (-0.21723362821122166)) < 1e-9


def test_arcsinc_residual_and_brentq_agreement():
    rng = np.random.default_rng(31)
    for y in rng.uniform(SINC_BRANCH_FLOOR + 1e-6, 1.0, size=300):
        x = arcsinc(float(y))
        assert abs(sinc(x) - y) <= 1e-13
        assert abs(x - oracles.arcsinc_brentq(float(y))) < 1e-12


def test_arcsinc_monotone():
    ys = np.linspace(SINC_BRANCH_FLOOR + 1e-6, 1.0, 200)
    xs = [arcsinc(float(y)) for y in ys]
    assert all(a > b for a, b in zip(xs, xs[1:]))


@pytest.mark.parametrize("y", [1.0 + 1e-12, 1.5, -0.22, -1.0])
def test_arcsinc_out_of_branch(y):
    with pytest.raises(ValueError, match="arcsinc argument out of branch range"):
        arcsinc(y)


# ---------------------------------------------------------------- scrofulous


def test_scrofulous_pi_closed_form():
    seq = scrofulous(PI, 0.0)
    th = [p.theta for p in seq.pulses]
    ph = [p.phi for p in seq.pulses]
    assert th == pytest.approx([PI, PI, PI], abs=EXACT_TOL)
    assert ph[0] == pytest.approx(PI / 3, abs=EXACT_TOL)
    assert ph[1] == pytest.approx(5 * PI / 3, abs=EXACT_TOL)
    assert seq.target == Pulse(PI, 0.0)
    assert seq.family == "scrofulous"


def test_scrofulous_half_pi_frozen_values():
    seq = scrofulous(PI / 2, 0.0)
    assert seq.pulses[0].theta == pytest.approx(SCROFULOUS_HALF_THETA1, abs=EXACT_TOL)
    assert seq.pulses[0].phi == pytest.approx(SCROFULOUS_HALF_PHI1, abs=EXACT_TOL)
    assert seq.pulses[1].theta == pytest.approx(PI, abs=0)
    assert seq.pulses[1].phi == pytest.approx(SCROFULOUS_HALF_PHI2, abs=EXACT_TOL)
    assert zero_error_fidelity(seq) >= 1.0 - SEQ_FID_TOL


def test_scrofulous_is_ple_robust_at_finite_error():
    err = ErrorPair(0.2, 0.0)
    target = rotation(Pulse(PI, 0.0))
    f_comp = gate_fidelity(compose_with_errors(scrofulous(PI, 0.0), err), target)
    f_elem = gate_fidelity(compose_with_errors(elementary(PI, 0.0), err), target)
    assert f_comp >= f_elem


def test_scrofulous_domain_errors():
    # the branch floor sinc(4.4934) ~ -0.2172 is crossed once cos(theta/2)
    # drops below ~ -0.3412, i.e. for theta beyond ~3.838
    for theta in (3.9, 6.2):
        with pytest.raises(ValueError, match="arcsinc argument out of branch range"):
            scrofulous(theta, 0.0)
    for theta in (0.0, -1.0, TWO_PI, 7.0):
        with pytest.raises(ValueError):
            scrofulous(theta, 0.0)


@pytest.mark.parametrize("family", ["scrofulous", "scorbutus"])
def test_subnormal_target_angle_is_a_domain_error(family):
    # sin(theta/2) rounds to 0 here; the phase's arccos argument diverges
    with pytest.raises(ValueError, match="outside"):
        synthesize(family, 5e-324, 0.0)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("theta, phi", [(math.nan, 0.0), (1.0, math.inf), (1.0, math.nan)])
def test_non_finite_target_is_rejected(family, theta, phi):
    # elementary once returned a NaN sequence for a NaN angle
    with pytest.raises(ValueError, match="must be finite|outside"):
        synthesize(family, theta, phi)


# ---------------------------------------------------------------- theta_r


def test_theta_r_forced_cases():
    assert theta_r_from_condition(PI) == pytest.approx(PI / 2, abs=EXACT_TOL)
    # sin^2(theta1/2)/theta1 -> 0, so cos(theta_r) -> 1/2
    assert theta_r_from_condition(1e-9) == pytest.approx(PI / 3, abs=1e-8)
    assert theta_r_from_condition(SCROFULOUS_HALF_THETA1) == pytest.approx(
        THETA_R_HALF, abs=EXACT_TOL
    )


@pytest.mark.parametrize("theta1", [0.0, -0.0])
def test_theta_r_at_zero_is_its_limit(theta1):
    # the condition's sin^2(theta1/2) / theta1 has a removable singularity
    # at 0, filled with its limit like sinc(0) = 1; it divided by zero
    assert theta_r_from_condition(theta1) == math.acos(0.5) == theta_r_from_condition(5e-324)


def test_theta_r_unsatisfiable():
    # sin^2(x/2)/x < 0 and large in magnitude pushes the cosine above 1
    with pytest.raises(ValueError, match="theta_r condition unsatisfiable"):
        theta_r_from_condition(-2.33)


@pytest.mark.parametrize("theta1", [10**400, math.inf, math.nan, "1.0", True],
                         ids=["huge-int", "inf", "nan", "str", "bool"])
def test_theta_r_rejects_a_theta1_that_is_not_finite(theta1):
    # the package's finiteness rule: these raised OverflowError, "math domain
    # error", "unsatisfiable" and TypeError, and True was taken as 1
    with pytest.raises(ValueError, match=r"theta1 must be finite, got"):
        theta_r_from_condition(theta1)


# ---------------------------------------------------------------- switchback


def test_switchback_degenerate_zero_angle():
    triple = switchback_replace(Pulse(PI, 1.0), 0.0)
    assert [p.theta for p in triple] == [0.0, PI, 0.0]
    assert triple[1].phi == pytest.approx(1.0)


def test_switchback_pi_halves_example():
    triple = switchback_replace(Pulse(PI, 0.0), PI / 2)
    assert [(p.theta, p.phi) for p in triple] == pytest.approx(
        [(PI / 2, PI), (TWO_PI, 0.0), (PI / 2, PI)]
    )
    # with a 30% pulse length error the triple is exactly the single pulse
    err = ErrorPair(0.3, 0.0)
    together = compose([rotation_with_error(p, err) for p in triple])
    single = rotation_with_error(Pulse(PI, 0.0), err)
    assert np.linalg.norm(together - single) < EXACT_TOL


def test_switchback_preserves_ple_exactly():
    rng = np.random.default_rng(17)
    for _ in range(100):
        theta_r = rng.uniform(0.0, PI)
        phi = rng.uniform(0.0, TWO_PI)
        eps = rng.uniform(-0.3, 0.3)
        err = ErrorPair(eps, 0.0)
        triple = switchback_replace(Pulse(PI, phi), theta_r)
        together = compose([rotation_with_error(p, err) for p in triple])
        assert np.linalg.norm(together - rotation_with_error(Pulse(PI, phi), err)) < EXACT_TOL


def test_switchback_changes_ore_dependence():
    err = ErrorPair(0.0, 0.1)
    single = rotation_with_error(Pulse(PI, 0.0), err)
    for theta_r in (PI / 2, theta_r_from_condition(PI)):
        triple = switchback_replace(Pulse(PI, 0.0), theta_r)
        together = compose([rotation_with_error(p, err) for p in triple])
        assert np.linalg.norm(together - single) > 1e-3


def test_switchback_zero_error_identity_including_phase():
    rng = np.random.default_rng(18)
    for _ in range(50):
        pulse = Pulse(rng.uniform(0.1, TWO_PI), rng.uniform(0.0, TWO_PI))
        triple = switchback_replace(pulse, rng.uniform(0.0, PI))
        together = compose([rotation(p) for p in triple])
        assert np.linalg.norm(together - rotation(pulse)) < EXACT_TOL


def test_switchback_rejects_negative_angle():
    with pytest.raises(ValueError, match="nonnegative"):
        switchback_replace(Pulse(PI, 0.0), -0.1)


# ---------------------------------------------------------------- scorbutus


def test_scorbutus_pi_structure():
    seq = scorbutus(PI, 0.0)
    th = [p.theta for p in seq.pulses]
    ph = [p.phi for p in seq.pulses]
    assert th == pytest.approx([PI, PI / 2, TWO_PI, PI / 2, PI], abs=EXACT_TOL)
    assert ph == pytest.approx(
        [PI / 3, 2 * PI / 3, 5 * PI / 3, 2 * PI / 3, PI / 3], abs=EXACT_TOL
    )
    assert total_time(seq) == pytest.approx(5 * PI, abs=EXACT_TOL)


def test_scorbutus_half_pi_frozen_values():
    seq = scorbutus(PI / 2, 0.0)
    th = [p.theta for p in seq.pulses]
    expected = [
        SCROFULOUS_HALF_THETA1,
        THETA_R_HALF,
        PI + 2 * THETA_R_HALF,
        THETA_R_HALF,
        SCROFULOUS_HALF_THETA1,
    ]
    assert th == pytest.approx(expected, abs=EXACT_TOL)
    assert total_time(seq) == pytest.approx(SCORBUTUS_HALF_TIME, abs=1e-10)
    assert zero_error_fidelity(seq) >= 1.0 - SEQ_FID_TOL


# ---------------------------------------------------------------- skinsc


def test_skinsc_pi_closed_form():
    seq = skinsc(PI, 0.0)
    chi = math.acos(-0.25)
    th = [p.theta for p in seq.pulses]
    ph = [p.phi for p in seq.pulses]
    assert th == pytest.approx(
        [PI / 3, 4 * PI / 3, TWO_PI, TWO_PI, PI / 3, PI / 3], abs=EXACT_TOL
    )
    assert ph == pytest.approx(
        [0.0, PI, PI - chi, PI + chi, PI, 0.0], abs=EXACT_TOL
    )
    assert chi == pytest.approx(1.8234765819369754, abs=EXACT_TOL)


def test_skinsc_pi_product_is_minus_target():
    seq = skinsc(PI, 0.0)
    product = compose_with_errors(seq, ZERO)
    assert np.linalg.norm(product + rotation(seq.target)) < 1e-10
    assert zero_error_fidelity(seq) >= 1.0 - SEQ_FID_TOL


def test_skinsc_half_pi_frozen_values():
    seq = skinsc(PI / 2, 0.0)
    assert seq.pulses[0].theta == pytest.approx(SKINSC_HALF_THETA1, abs=EXACT_TOL)
    assert seq.pulses[1].theta == pytest.approx(SKINSC_HALF_THETA2, abs=EXACT_TOL)
    assert total_time(seq) == pytest.approx(SKINSC_HALF_TIME, abs=1e-10)


def test_skinsc_domain():
    for theta in (0.0, -0.3, TWO_PI):
        with pytest.raises(ValueError):
            skinsc(theta, 0.0)


# ---------------------------------------------------------------- elementary


def test_elementary_is_its_own_target():
    seq = elementary(PI, 0.0)
    assert len(seq.pulses) == 1
    assert seq.pulses[0] == seq.target
    assert total_time(seq) == PI
    assert total_time(elementary(PI / 2, PI)) == PI / 2


# ---------------------------------------------------------------- properties


@pytest.mark.parametrize("family", FAMILIES)
def test_zero_error_exactness_over_grid(family):
    for theta in (0.1, 0.5, 1.0, PI / 2, 2.0, PI, 3.5):
        for phi in (0.0, 1.0, PI):
            seq = synthesize(family, theta, phi)
            assert zero_error_fidelity(seq) >= 1.0 - SEQ_FID_TOL


@pytest.mark.parametrize("family", ["scrofulous", "scorbutus"])
def test_palindrome_is_exact(family):
    for theta in (0.4, PI / 2, PI, 3.0):
        seq = synthesize(family, theta, 0.7)
        assert seq.pulses == tuple(reversed(seq.pulses))


def test_expected_lengths():
    assert len(elementary(1.0, 0.0).pulses) == 1
    assert len(scrofulous(1.0, 0.0).pulses) == 3
    assert len(scorbutus(1.0, 0.0).pulses) == 5
    assert len(skinsc(1.0, 0.0).pulses) == 6


@pytest.mark.parametrize("family", FAMILIES)
def test_phase_covariance(family):
    delta = 0.7
    for theta in (PI / 2, 2.0):
        base = synthesize(family, theta, 0.3)
        shifted = synthesize(family, theta, 0.3 + delta)
        for p_base, p_shift in zip(base.pulses, shifted.pulses):
            assert p_shift.theta == p_base.theta
            gap = (p_shift.phi - p_base.phi - delta) % TWO_PI
            assert min(gap, TWO_PI - gap) < 1e-12


def test_operation_time_ordering():
    for theta in np.linspace(0.0, PI, 257)[1:]:
        theta = float(theta)
        assert total_time(scorbutus(theta, 0.0)) < total_time(skinsc(theta, 0.0))


def test_compose_with_errors_comparisons():
    target = rotation(Pulse(PI, 0.0))
    err = ErrorPair(0.1, 0.1)
    f_sc = gate_fidelity(compose_with_errors(scorbutus(PI, 0.0), err), target)
    f_el = gate_fidelity(compose_with_errors(elementary(PI, 0.0), err), target)
    assert f_sc > f_el


def test_compose_with_errors_against_quaternion_oracle():
    # zero-error products must agree with scalar quaternion composition
    for family in FAMILIES:
        seq = synthesize(family, 2.0, 1.1)
        reference = oracles.quat_to_matrix(
            oracles.quat_compose([(p.theta, p.phi) for p in seq.pulses])
        )
        assert np.linalg.norm(compose_with_errors(seq, ZERO) - reference) < 1e-10


def test_batched_fidelity_matches_scalar_calls_and_quaternion_oracle():
    # one broadcast call over an (eps, f) array against per-point calls
    rng = np.random.default_rng(12)
    eps = rng.uniform(-0.25, 0.25, size=(7, 9))
    f = rng.uniform(-0.25, 0.25, size=(7, 9))
    for family in FAMILIES:
        seq = synthesize(family, 2.0, 1.1)
        pulses = [(p.theta, p.phi) for p in seq.pulses]
        target = rotation(seq.target)
        stack = compose_with_errors(seq, ErrorPair(eps, f))
        fidelities = gate_fidelity(stack, target)
        assert stack.shape == (7, 9, 2, 2) and fidelities.shape == (7, 9)
        for idx in np.ndindex(eps.shape):
            e, g = float(eps[idx]), float(f[idx])
            single = compose_with_errors(seq, ErrorPair(e, g))
            assert np.linalg.norm(stack[idx] - single) <= 1e-15
            assert abs(fidelities[idx] - gate_fidelity(single, target)) <= 1e-15
            reference = oracles.quat_to_matrix(oracles.quat_compose(pulses, e, g))
            assert np.linalg.norm(stack[idx] - reference) < EXACT_TOL


# ---------------------------------------------------------------- repeated pulses
# _sequence_pair rotates each distinct pulse once per call; the result must
# keep every bit of a plain fold that rotates every pulse, signed zeros too.


def plain_fold(pulses, err):
    acc = _rotation_pair(pulses[0], err)
    for p in pulses[1:]:
        acc = _pair_product(_rotation_pair(p, err), acc)
    return acc


REPEATED_PULSES = {
    "scrofulous": scrofulous(PI, 0.3).pulses,
    "scorbutus": scorbutus(PI / 2, 1.1).pulses,
    "skinsc": skinsc(1.0, 2.0).pulses,
    # Pulse(0.0, phi) == Pulse(-0.0, phi), but their pairs differ in the
    # sign of a zero
    "signed-zero": (Pulse(-0.0, 3.0), Pulse(0.0, 3.0), Pulse(0.0, 1.0), Pulse(-0.0, 1.0), Pulse(-0.0, 3.0)),
    "int-and-float": (Pulse(1, 0.5), Pulse(1.0, 0.5), Pulse(2, 4), Pulse(1, 0.5), Pulse(2.0, 4.0)),
    # an int beyond int64 (not equal to the double 1e300) must still give a
    # float stack, not an object one
    "big-int": (Pulse(10**300, 0.5), Pulse(1e300, 0.5), Pulse(3, 1.0), Pulse(10**300, 0.5)),
}
REPEAT_ERRORS = {
    "zero": ErrorPair(0.0, 0.0),
    "negative-zero": ErrorPair(-0.0, -0.0),
    "scalar": ErrorPair(0.1, -0.2),
    "stacked": ErrorPair(
        np.array([-0.2, -0.0, 0.0, 0.15]), np.array([-0.1, -0.0, 0.0, 0.25])[:, np.newaxis]
    ),
}


@pytest.mark.parametrize("err", REPEAT_ERRORS.values(), ids=REPEAT_ERRORS)
@pytest.mark.parametrize("pulses", REPEATED_PULSES.values(), ids=REPEATED_PULSES)
def test_sequence_pair_keeps_the_bits_of_a_plain_fold(pulses, err):
    got = _sequence_pair(PulseSequence(pulses, Pulse(PI, 0.0), "custom"), err.epsilon, err.f)
    want = plain_fold(pulses, err)
    for x, y in zip(got, want):
        assert np.shape(x) == np.shape(y)
        assert np.array_equal(x, y)
        assert np.array_equal(np.signbit(x.real), np.signbit(y.real))
        assert np.array_equal(np.signbit(x.imag), np.signbit(y.imag))


DISTINCT_PULSES = {
    "scrofulous": 2, "scorbutus": 3, "skinsc": 5, "signed-zero": 4, "int-and-float": 2, "big-int": 3,
}
# the distinct (theta, sign of theta) of each case: SKinsC's 5 distinct
# pulses share 3 angles, and 0.0 and -0.0 stay apart
DISTINCT_ANGLES = {
    "scrofulous": 2, "scorbutus": 3, "skinsc": 3, "signed-zero": 2, "int-and-float": 2, "big-int": 3,
}


@pytest.mark.parametrize("name", REPEATED_PULSES)
def test_sequence_pair_rotates_each_distinct_pulse_once(name, monkeypatch):
    # one rotation call per product, over a stack of the distinct pulses,
    # whose sines and cosines are taken over the stack of distinct angles
    from pulsesmith import su2

    axis_pair = su2._axis_pair
    calls = []

    def counting(theta, cos_phi, sin_phi, eps, f, angle_rows=None):
        pair = axis_pair(theta, cos_phi, sin_phi, eps, f, angle_rows)
        calls.append((np.array(theta), pair))
        return pair

    monkeypatch.setattr(su2, "_axis_pair", counting)
    pulses = REPEATED_PULSES[name]
    seq = PulseSequence(pulses, Pulse(PI, 0.0), "custom")
    _sequence_pair(seq, 0.1, -0.2)
    assert len(calls) == 1
    theta, (a, b) = calls[0]
    assert a.shape[0] == b.shape[0] == DISTINCT_PULSES[name]
    assert theta.shape[0] == DISTINCT_ANGLES[name]
    # in order of first appearance, each with its sign
    angles = list(dict.fromkeys((p.theta, math.copysign(1.0, p.theta)) for p in pulses))
    assert theta.ravel().tolist() == [float(angle) for angle, _ in angles]
    assert np.signbit(theta.ravel()).tolist() == [sign < 0.0 for _, sign in angles]


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@PROPERTY_SETTINGS
@given(
    theta=st.floats(0.1, TWO_PI),
    phi=st.floats(0.0, TWO_PI),
    theta_r=st.floats(0.0, PI),
    eps=st.floats(-0.3, 0.3),
)
def test_switchback_sequence_is_the_single_pulse_under_pulse_length_error(theta, phi, theta_r, eps):
    # both back pulses of the triple are one repeated pulse
    pulse = Pulse(theta, phi)
    err = ErrorPair(eps, 0.0)
    triple = PulseSequence(switchback_replace(pulse, theta_r), pulse, "custom")
    together = compose_with_errors(triple, err)
    assert np.linalg.norm(together - rotation_with_error(pulse, err)) < EXACT_TOL


@pytest.mark.parametrize("family", FAMILIES)
@PROPERTY_SETTINGS
@given(theta=st.floats(0.0, TWO_PI, exclude_min=True, exclude_max=True), phi=st.floats(0.0, TWO_PI))
def test_zero_error_synthesis_is_exact_over_the_domain(family, theta, phi):
    try:
        seq = synthesize(family, theta, phi)
    except ValueError:
        reject()  # outside the family's domain
    assert zero_error_fidelity(seq) >= 1.0 - SEQ_FID_TOL


# ---------------------------------------------------------------- serialization


def test_unknown_family_names_the_known_ones():
    with pytest.raises(ValueError) as info:
        synthesize("custom", 1.0, 0.0)
    message = str(info.value)
    assert "'custom'" in message
    assert all(family in message for family in FAMILIES)


def test_sequence_json_round_trip_is_exact():
    for family in FAMILIES:
        seq = synthesize(family, 2.2, 0.9)
        data = sequence_to_dict(seq)
        back = sequence_from_dict(data)
        assert back == seq
        assert data["total_time"] == total_time(seq)


def test_sequence_dict_shape():
    data = sequence_to_dict(scorbutus(PI, 0.0))
    assert set(data) == {"family", "target", "pulses", "total_time"}
    assert len(data["pulses"]) == 5
    assert set(data["pulses"][0]) == {"theta", "phi"}
