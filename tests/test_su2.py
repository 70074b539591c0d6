import math

import numpy as np
import pytest

import oracles
from pulsesmith.su2 import (
    SIGMA_0,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    ErrorPair,
    Pulse,
    TWO_PI,
    compose,
    frobenius_distance,
    gate_fidelity,
    matrix_from_dict,
    matrix_to_dict,
    normalize_phase,
    rotation,
    rotation_with_error,
)

ALGEBRA_TOL = 1e-12
N_RANDOM = 1000

# frozen from the closed form cos(0.55 pi), sin(0.55 pi), cross-checked
# against the matrix exponential oracle
PLE_DIAG = -0.15643446504023104
PLE_OFFDIAG_IM = -0.9876883405951377
# frozen from expm of the f = 0.1 deformation of (pi)_0
ORE_U00 = -0.0078343641011488 - 0.09950066534128167j
ORE_U01 = -0.9950066534128167j


def random_pulses_and_errors(rng, n):
    for _ in range(n):
        pulse = Pulse(rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI))
        err = ErrorPair(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        yield pulse, err


def test_rotation_pi_about_x():
    U = rotation(Pulse(math.pi, 0.0))
    assert np.allclose(U, -1j * SIGMA_X, atol=ALGEBRA_TOL)


@pytest.mark.parametrize("phi", [0.0, 1.0, math.pi, 5.5])
def test_rotation_zero_angle_is_identity(phi):
    assert np.allclose(rotation(Pulse(0.0, phi)), SIGMA_0, atol=ALGEBRA_TOL)


def test_rotation_quarter_turn_about_y():
    U = rotation(Pulse(math.pi / 2, math.pi / 2))
    r = math.sqrt(2) / 2
    assert np.allclose(U, [[r, -r], [r, r]], atol=ALGEBRA_TOL)


def test_phase_normalization_range_and_idempotence():
    rng = np.random.default_rng(11)
    for phi in list(rng.uniform(-50.0, 50.0, size=200)) + [-1e-18, TWO_PI, -TWO_PI, 0.0]:
        p = normalize_phase(phi)
        assert 0.0 <= p < TWO_PI
        assert normalize_phase(p) == p


def test_pulse_stores_normalized_phase():
    p = Pulse(1.0, -math.pi / 3)
    assert abs(p.phi - 5 * math.pi / 3) < ALGEBRA_TOL


def test_zero_error_reproduces_rotation_bit_for_bit():
    for theta, phi in ((math.pi, 0.0), (math.pi / 2, 1.3), (2.0, 4.9), (0.1, 0.0)):
        p = Pulse(theta, phi)
        exact = rotation_with_error(p, ErrorPair(0.0, 0.0))
        assert exact.tobytes() == rotation(p).tobytes()


def test_pulse_length_error_frozen_matrix():
    U = rotation_with_error(Pulse(math.pi, 0.0), ErrorPair(0.1, 0.0))
    expected = np.array(
        [[PLE_DIAG, 1j * PLE_OFFDIAG_IM], [1j * PLE_OFFDIAG_IM, PLE_DIAG]]
    )
    assert np.max(np.abs(U - expected)) < ALGEBRA_TOL


def test_off_resonance_frozen_matrix():
    U = rotation_with_error(Pulse(math.pi, 0.0), ErrorPair(0.0, 0.1))
    assert abs(U[0, 0] - ORE_U00) < ALGEBRA_TOL
    assert abs(U[0, 1] - ORE_U01) < ALGEBRA_TOL
    assert abs(U[1, 1] - ORE_U00.conjugate()) < ALGEBRA_TOL


def test_rotation_with_error_matches_matrix_exponential():
    rng = np.random.default_rng(23)
    for pulse, err in random_pulses_and_errors(rng, 300):
        U = rotation_with_error(pulse, err)
        V = oracles.expm_rotation(pulse.theta, pulse.phi, err.epsilon, err.f)
        assert frobenius_distance(U, V) < ALGEBRA_TOL


def test_unitarity_and_determinant():
    rng = np.random.default_rng(5)
    for pulse, err in random_pulses_and_errors(rng, N_RANDOM):
        U = rotation_with_error(pulse, err)
        assert np.linalg.norm(U.conj().T @ U - SIGMA_0) <= 1e-12
        assert abs(np.linalg.det(U) - 1.0) <= 1e-12


def test_inverse_law():
    rng = np.random.default_rng(6)
    for _ in range(200):
        theta, phi = rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI)
        prod = rotation(Pulse(theta, phi)) @ rotation(Pulse(-theta, phi))
        assert np.linalg.norm(prod - SIGMA_0) <= 1e-12


def test_conjugation_relation():
    # sz (theta)_phi = (-theta)_phi sz
    rng = np.random.default_rng(7)
    for _ in range(200):
        theta, phi = rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI)
        lhs = SIGMA_Z @ rotation(Pulse(theta, phi))
        rhs = rotation(Pulse(-theta, phi)) @ SIGMA_Z
        assert np.linalg.norm(lhs - rhs) <= 1e-12


def test_trace_collapse():
    # U + U† is proportional to the identity for any SU(2) element
    rng = np.random.default_rng(8)
    for pulse, err in random_pulses_and_errors(rng, N_RANDOM):
        U = rotation_with_error(pulse, err)
        assert np.linalg.norm((U + U.conj().T) - np.trace(U) * SIGMA_0) <= 1e-12


def first_order_expansion(pulse: Pulse, err: ErrorPair):
    """Series for the deformed rotation truncated after the linear error terms:

        (theta)_phi - i eps (theta n_phi . sigma/2) (theta)_phi
                    - i f sin(theta/2) sigma_z

    Not unitary in general; a cross-check oracle for rotation_with_error.
    """
    ideal = rotation(pulse)
    nx, ny = math.cos(pulse.phi), math.sin(pulse.phi)
    generator = 0.5 * pulse.theta * (nx * SIGMA_X + ny * SIGMA_Y)
    return (
        ideal
        - 1j * err.epsilon * (generator @ ideal)
        - 1j * err.f * math.sin(0.5 * pulse.theta) * SIGMA_Z
    )


def test_expansion_equals_rotation_at_zero_error():
    for theta, phi in ((math.pi, 0.0), (1.1, 2.2)):
        p = Pulse(theta, phi)
        assert np.array_equal(first_order_expansion(p, ErrorPair(0.0, 0.0)), rotation(p))


@pytest.mark.parametrize("which", ["eps", "f"])
def test_expansion_truncation_is_second_order(which):
    # shrinking the error by 10 shrinks the truncation gap by ~100
    p = Pulse(math.pi, 0.0)
    gaps = []
    for t in (1e-2, 1e-3):
        err = ErrorPair(t, 0.0) if which == "eps" else ErrorPair(0.0, t)
        gaps.append(frobenius_distance(rotation_with_error(p, err), first_order_expansion(p, err)))
    assert 80.0 < gaps[0] / gaps[1] < 120.0


def test_expansion_consistency_bounded():
    # ||exact - expansion|| / (eps^2 + f^2 + |eps f|) stays below a fixed
    # constant; measured maximum over these pulses is ~1.58
    for theta, phi in ((math.pi, 0.0), (math.pi / 2, 1.0), (2.0, 4.0), (0.5, 2.0)):
        p = Pulse(theta, phi)
        for e in (1e-2, -1e-2, 1e-3, -1e-3):
            for f in (1e-2, -1e-2, 1e-3, -1e-3):
                err = ErrorPair(e, f)
                gap = frobenius_distance(rotation_with_error(p, err), first_order_expansion(p, err))
                assert gap / (e * e + f * f + abs(e * f)) < 5.0


def test_compose_empty_raises():
    with pytest.raises(ValueError, match="empty sequence"):
        compose([])


def test_compose_singleton_returns_it_unchanged():
    U = rotation(Pulse(1.0, 2.0))
    assert compose([U]) is U


def test_compose_same_axis_adds_angles():
    half = rotation(Pulse(math.pi / 2, 0.0))
    assert frobenius_distance(compose([half, half]), rotation(Pulse(math.pi, 0.0))) < ALGEBRA_TOL


def test_compose_order_and_scrofulous_triple():
    # (pi)_{pi/3} then (pi)_{-pi/3} then (pi)_{pi/3} equals (pi)_0 exactly
    pulses = [(math.pi, math.pi / 3), (math.pi, -math.pi / 3), (math.pi, math.pi / 3)]
    product = compose([rotation(Pulse(t, p)) for t, p in pulses])
    reference = oracles.quat_to_matrix(oracles.quat_compose(pulses))
    assert frobenius_distance(product, reference) < ALGEBRA_TOL
    assert frobenius_distance(product, rotation(Pulse(math.pi, 0.0))) < ALGEBRA_TOL


def test_gate_fidelity_identity_and_traceless():
    rng = np.random.default_rng(9)
    for pulse, err in random_pulses_and_errors(rng, 50):
        U = rotation_with_error(pulse, err)
        assert gate_fidelity(U, U) >= 1.0 - 1e-14
    assert gate_fidelity(rotation(Pulse(math.pi, 0.0)), SIGMA_0) < ALGEBRA_TOL


def test_gate_fidelity_same_axis_ple_closed_form():
    U = rotation(Pulse(math.pi, 0.0))
    V = rotation_with_error(Pulse(math.pi, 0.0), ErrorPair(0.1, 0.0))
    assert abs(gate_fidelity(U, V) - math.cos(0.05 * math.pi)) < ALGEBRA_TOL


def test_gate_fidelity_phase_invariance():
    rng = np.random.default_rng(10)
    for pulse, err in random_pulses_and_errors(rng, 100):
        U = rotation(pulse)
        V = rotation_with_error(pulse, err)
        alpha = rng.uniform(0, TWO_PI)
        assert abs(gate_fidelity(U, np.exp(1j * alpha) * V) - gate_fidelity(U, V)) < 1e-14


def test_gate_fidelity_rejects_non_unitary():
    with pytest.raises(ValueError, match="non-unitary operand"):
        gate_fidelity(2.0 * SIGMA_0, SIGMA_0)
    with pytest.raises(ValueError, match="non-unitary operand"):
        gate_fidelity(SIGMA_0, np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))


def test_gate_fidelity_rejects_one_non_unitary_matrix_in_a_stack():
    stack = rotation_with_error(Pulse(1.0, 0.3), ErrorPair(np.linspace(-0.2, 0.2, 5), 0.1))
    target = rotation(Pulse(1.0, 0.3))
    assert gate_fidelity(stack, target).shape == (5,)
    for bad in (1.5 * stack[2], np.full((2, 2), np.nan)):
        broken = stack.copy()
        broken[2] = bad
        with pytest.raises(ValueError, match="non-unitary operand"):
            gate_fidelity(broken, target)
        with pytest.raises(ValueError, match="non-unitary operand"):
            gate_fidelity(target, broken)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_error_pair_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="epsilon must be finite"):
        ErrorPair(bad, 0.0)
    with pytest.raises(ValueError, match="f must be finite"):
        ErrorPair(0.0, np.array([0.1, bad]))


def test_frobenius_distance_cases():
    U = rotation(Pulse(1.0, 2.0))
    assert frobenius_distance(U, U) == 0.0
    assert abs(frobenius_distance(SIGMA_0, -SIGMA_0) - 2 * math.sqrt(2)) < ALGEBRA_TOL
    d = frobenius_distance(rotation(Pulse(math.pi, 0.0)), rotation(Pulse(math.pi, math.pi)))
    assert abs(d - 2 * math.sqrt(2)) < ALGEBRA_TOL


def test_matrix_json_round_trip():
    U = rotation_with_error(Pulse(2.2, 0.4), ErrorPair(0.02, -0.3))
    V = matrix_from_dict(matrix_to_dict(U))
    assert np.array_equal(U, V)
