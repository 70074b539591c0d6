import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from pulsesmith.analysis import AxisSpec, fidelity_grid, infidelity_ray
from pulsesmith.bloch import NORTH_POLE, apply_to_state, trajectory
from pulsesmith.sequences import PulseSequence
from pulsesmith.su2 import (
    NO_ERROR,
    UNITARITY_TOL,
    ErrorPair,
    Pulse,
    TWO_PI,
    _axis_pair,
    _pair_fidelity,
    _pair_matrix,
    _pair_product,
    _pulse_pairs,
    _rotation_pair,
    _sequence_pair,
    compose,
    gate_fidelity,
    matrix_to_dict,
    normalize_phase,
    rotation,
    rotation_with_error,
    unitarity_defect,
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


def random_su2(rng, shape):
    """Haar-uniform SU(2) matrices [[a, -conj(b)], [b, conj(a)]] over a shape."""
    q = rng.normal(size=shape + (4,))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    a = q[..., 0] + 1j * q[..., 1]
    b = q[..., 2] + 1j * q[..., 3]
    return np.stack([np.stack([a, -b.conj()], -1), np.stack([b, a.conj()], -1)], -2)


def random_pulses_and_errors(rng, n):
    for _ in range(n):
        pulse = Pulse(rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI))
        err = ErrorPair(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        yield pulse, err


def test_rotation_pi_about_x():
    U = rotation(Pulse(math.pi, 0.0))
    assert np.allclose(U, -1j * oracles.SX, atol=ALGEBRA_TOL)


@pytest.mark.parametrize("phi", [0.0, 1.0, math.pi, 5.5])
def test_rotation_zero_angle_is_identity(phi):
    assert np.allclose(rotation(Pulse(0.0, phi)), oracles.ID, atol=ALGEBRA_TOL)


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


SIGNED_ANGLES = (0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, math.pi, 2 * math.pi, 3 * math.pi, -4.5)
SIGNED_PHASES = (0.0, math.pi / 2, math.pi, 1.3, 4.0)


def _complex_form(theta, phi, eps, f):
    # the pair through complex temporaries, c - 1j (s mz) and s my - 1j (s mx)
    nrm = np.sqrt(1.0 + f * f)
    half = 0.5 * (theta * (1.0 + eps) * nrm)
    s = np.sin(half)
    mx, my, mz = math.cos(phi) / nrm, math.sin(phi) / nrm, f / nrm
    return np.cos(half) - 1j * (s * mz), s * my - 1j * (s * mx)


@pytest.mark.parametrize("eps, f", [(0.0, 0.0), (-0.0, -0.0), (0.1, -0.2), (-1.0, 0.0), (0.3, 0.0)])
def test_rotation_pair_keeps_the_bits_of_the_complex_form_signed_zeros_too(eps, f):
    # the kernel builds a and b from their parts; a zero part must keep the sign
    # that the complex arithmetic gives it, on a scalar and on a stack
    stack = np.array(SIGNED_ANGLES)[:, np.newaxis]
    for theta in (*SIGNED_ANGLES, stack):
        for phi in SIGNED_PHASES:
            phase = normalize_phase(phi)
            if np.ndim(theta):
                # a Pulse holds one angle: the stack goes to the kernel itself
                got = _axis_pair(theta, math.cos(phase), math.sin(phase), eps, f)
            else:
                got = _rotation_pair(Pulse(theta, phi), ErrorPair(eps, f))
            for x, y in zip(got, _complex_form(theta, phase, eps, f)):
                assert type(x) is type(y)
                assert np.array_equal(np.atleast_1d(x).view(np.uint64), np.atleast_1d(y).view(np.uint64))


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
        assert np.linalg.norm(U - V) < ALGEBRA_TOL


def test_unitarity_and_determinant():
    rng = np.random.default_rng(5)
    for pulse, err in random_pulses_and_errors(rng, N_RANDOM):
        U = rotation_with_error(pulse, err)
        assert np.linalg.norm(U.conj().T @ U - oracles.ID) <= 1e-12
        assert abs(np.linalg.det(U) - 1.0) <= 1e-12


def test_inverse_law():
    rng = np.random.default_rng(6)
    for _ in range(200):
        theta, phi = rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI)
        prod = rotation(Pulse(theta, phi)) @ rotation(Pulse(-theta, phi))
        assert np.linalg.norm(prod - oracles.ID) <= 1e-12


def test_conjugation_relation():
    # sz (theta)_phi = (-theta)_phi sz
    rng = np.random.default_rng(7)
    for _ in range(200):
        theta, phi = rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI)
        lhs = oracles.SZ @ rotation(Pulse(theta, phi))
        rhs = rotation(Pulse(-theta, phi)) @ oracles.SZ
        assert np.linalg.norm(lhs - rhs) <= 1e-12


def test_trace_collapse():
    # U + U† is proportional to the identity for any SU(2) element
    rng = np.random.default_rng(8)
    for pulse, err in random_pulses_and_errors(rng, N_RANDOM):
        U = rotation_with_error(pulse, err)
        assert np.linalg.norm((U + U.conj().T) - np.trace(U) * oracles.ID) <= 1e-12


def first_order_expansion(pulse: Pulse, err: ErrorPair):
    """Series for the deformed rotation truncated after the linear error terms:

        (theta)_phi - i eps (theta n_phi . sigma/2) (theta)_phi
                    - i f sin(theta/2) sigma_z

    Not unitary in general; a cross-check oracle for rotation_with_error.
    """
    ideal = rotation(pulse)
    nx, ny = math.cos(pulse.phi), math.sin(pulse.phi)
    generator = 0.5 * pulse.theta * (nx * oracles.SX + ny * oracles.SY)
    return (
        ideal
        - 1j * err.epsilon * (generator @ ideal)
        - 1j * err.f * math.sin(0.5 * pulse.theta) * oracles.SZ
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
        gaps.append(np.linalg.norm(rotation_with_error(p, err) - first_order_expansion(p, err)))
    assert 80.0 < gaps[0] / gaps[1] < 120.0


def test_expansion_consistency_bounded():
    # ||exact - expansion|| / (eps^2 + f^2 + |eps f|) stays below a fixed
    # constant; measured maximum over these pulses is ~1.58
    for theta, phi in ((math.pi, 0.0), (math.pi / 2, 1.0), (2.0, 4.0), (0.5, 2.0)):
        p = Pulse(theta, phi)
        for e in (1e-2, -1e-2, 1e-3, -1e-3):
            for f in (1e-2, -1e-2, 1e-3, -1e-3):
                err = ErrorPair(e, f)
                gap = np.linalg.norm(rotation_with_error(p, err) - first_order_expansion(p, err))
                assert gap / (e * e + f * f + abs(e * f)) < 5.0


def test_compose_empty_raises():
    with pytest.raises(ValueError, match="empty sequence"):
        compose([])


def test_compose_singleton_returns_it_unchanged():
    U = rotation(Pulse(1.0, 2.0))
    assert compose([U]) is U


def test_compose_same_axis_adds_angles():
    half = rotation(Pulse(math.pi / 2, 0.0))
    assert np.linalg.norm(compose([half, half]) - rotation(Pulse(math.pi, 0.0))) < ALGEBRA_TOL


def test_compose_order_and_scrofulous_triple():
    # (pi)_{pi/3} then (pi)_{-pi/3} then (pi)_{pi/3} equals (pi)_0 exactly
    pulses = [(math.pi, math.pi / 3), (math.pi, -math.pi / 3), (math.pi, math.pi / 3)]
    product = compose([rotation(Pulse(t, p)) for t, p in pulses])
    reference = oracles.quat_to_matrix(oracles.quat_compose(pulses))
    assert np.linalg.norm(product - reference) < ALGEBRA_TOL
    assert np.linalg.norm(product - rotation(Pulse(math.pi, 0.0))) < ALGEBRA_TOL


def test_gate_fidelity_identity_and_traceless():
    rng = np.random.default_rng(9)
    for pulse, err in random_pulses_and_errors(rng, 50):
        U = rotation_with_error(pulse, err)
        assert gate_fidelity(U, U) >= 1.0 - 1e-14
    assert gate_fidelity(rotation(Pulse(math.pi, 0.0)), oracles.ID) < ALGEBRA_TOL


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
        gate_fidelity(2.0 * oracles.ID, oracles.ID)
    with pytest.raises(ValueError, match="non-unitary operand"):
        gate_fidelity(oracles.ID, np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))


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


@pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
def test_matmul_kernel_matches_numpy_matmul(shape):
    rng = np.random.default_rng(11)
    a = random_su2(rng, shape)
    b = random_su2(rng, shape)
    single = random_su2(rng, ())
    for left, right in ((a, b), (a, single), (single, a)):
        product = compose([right, left])
        assert product.shape == (left @ right).shape
        assert np.max(np.abs(product - left @ right)) <= 1e-15


def test_unitarity_defect_closed_form_matches_frobenius_norm():
    rng = np.random.default_rng(12)
    unitary = random_su2(rng, (4, 25))
    scaled = rng.uniform(0.5, 1.5, (4, 25))[..., np.newaxis, np.newaxis] * unitary
    # non-orthogonal columns, so the off-diagonal term counts
    skewed = unitary + 1e-3 * random_su2(rng, (4, 25)) @ np.array([[1.0, 1.0], [0.0, 1.0]])
    for U in (unitary, scaled, skewed, unitary[0, 0], scaled[0, 0], skewed[0, 0]):
        brute = np.linalg.norm(np.swapaxes(U.conj(), -1, -2) @ U - oracles.ID, axis=(-2, -1))
        assert np.max(np.abs(unitarity_defect(U) - brute)) <= 1e-15
    assert isinstance(unitarity_defect(unitary[0, 0]), float)


def test_gate_fidelity_rejects_a_non_finite_entry_anywhere_in_a_stack():
    stack = rotation_with_error(
        Pulse(1.3, 0.4), ErrorPair(np.linspace(-0.2, 0.2, 4), np.linspace(-0.1, 0.1, 3)[:, np.newaxis])
    )
    target = rotation(Pulse(1.3, 0.4))
    for bad in (math.nan, math.inf, -math.inf, complex(0.0, math.inf), complex(math.nan, 0.0)):
        for index in np.ndindex(stack.shape):
            broken = stack.copy()
            broken[index] = bad
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


@pytest.mark.parametrize(
    "theta, phi, field",
    [
        (1.0, math.inf, "phi"),
        (1.0, math.nan, "phi"),
        (math.inf, 0.0, "theta"),
        (-math.inf, 0.0, "theta"),
        (math.nan, 0.0, "theta"),
        (np.array([1.0, math.inf]), 0.0, "theta"),
        ("1.0", 0.0, "theta"),
        (None, 0.0, "theta"),
        (1.0, 1j, "phi"),
        (True, 0.0, "theta"),
        (np.True_, 0.0, "theta"),
        ([1.0], 0.0, "theta"),
        (np.array(["a"]), 0.0, "theta"),
        (np.array([1j]), 0.0, "theta"),
        # a pulse holds one angle: an array phase failed on numpy's
        # ambiguous truth value, and an array or 0-d theta was taken
        (1.0, np.array([0.1, 0.2]), "phi"),
        (np.array([0.5, 1.0]), 0.3, "theta"),
        (np.array(1.0), 0.0, "theta"),
    ],
)
def test_pulse_rejects_non_finite_fields(theta, phi, field):
    # rotation once turned such a pulse into a NaN matrix, or warned; a
    # non-number raised TypeError and a bool was taken as 0 or 1
    with pytest.raises(ValueError, match=f"pulse {field} must be finite"):
        Pulse(theta, phi)


@pytest.mark.parametrize("build, args, reason", [
    (Pulse, (10**400, 0.0), "pulse theta must be finite"),
    (Pulse, (1.0, -10**400), "pulse phi must be finite"),
    (ErrorPair, (10**400, 0.0), "epsilon must be finite"),
    (ErrorPair, (0.0, -10**400), "f must be finite"),
    # nor is a non-number (TypeError once), a bool or a complex number
    (ErrorPair, ("x", 0.0), "epsilon must be finite"),
    (ErrorPair, (None, 0.0), "epsilon must be finite"),
    (ErrorPair, (0.0, 1j), "f must be finite"),
    (ErrorPair, (0.0, np.complex128(0.1)), "f must be finite"),
    (ErrorPair, (True, 0.0), "epsilon must be finite"),
    (ErrorPair, ([1.0], 0.0), "epsilon must be finite"),
    (ErrorPair, (0.0, np.array(["a"])), "f must be finite"),
    (ErrorPair, (np.array([True, False]), 0.0), "epsilon must be finite"),
    (ErrorPair, (0.0, np.array([0.1, 1j])), "f must be finite"),
])
def test_ints_beyond_the_double_range_are_not_finite(build, args, reason):
    # math.isfinite raised OverflowError for the ints, numpy's test TypeError
    with pytest.raises(ValueError, match=reason):
        build(*args)


def test_error_pair_takes_arrays_of_finite_reals():
    # the one input that takes arrays, for error sweeps: 1-D, broadcast 2-D,
    # 0-d and integer arrays are kept as they are
    column = np.linspace(-0.1, 0.1, 3)[:, np.newaxis]
    for eps, f in [(np.linspace(-0.2, 0.2, 5), 0.1), (np.linspace(-0.2, 0.2, 4), column),
                   (np.array(0.1), 0.0), (0.0, np.arange(3))]:
        err = ErrorPair(eps, f)
        assert err.epsilon is eps and err.f is f


NOT_2X2 = {
    "3x3": np.eye(3),
    "2x3": np.ones((2, 3)),
    "stack of 3x3": np.zeros((4, 3, 3)),
    "vector": np.ones(2),
    "scalar": np.array(1.0),
}
MATRIX_CALLS = {
    "unitarity_defect": unitarity_defect,
    "gate_fidelity": lambda U: gate_fidelity(U, U),
    "gate_fidelity right": lambda U: gate_fidelity(oracles.ID, U),
    "compose": lambda U: compose([U]),
    "compose second": lambda U: compose([oracles.ID, U]),
    "apply_to_state": lambda U: apply_to_state(U, NORTH_POLE),
}


@pytest.mark.parametrize("call", MATRIX_CALLS.values(), ids=MATRIX_CALLS)
@pytest.mark.parametrize("operand", NOT_2X2.values(), ids=NOT_2X2)
def test_matrix_functions_reject_operands_that_are_not_2x2(call, operand):
    # a 3x3 identity once passed as unitary with fidelity 1; a vector raised
    # IndexError
    with pytest.raises(ValueError, match=rf"2x2.*got shape {re.escape(str(operand.shape))}"):
        call(operand)


def test_matrix_functions_take_nested_lists():
    # gate_fidelity once raised AttributeError on lists, compose TypeError
    X = [[0, 1], [1, 0]]
    assert unitarity_defect(X) == 0.0
    assert gate_fidelity(X, oracles.SX) == 1.0
    assert np.array_equal(compose([X, X]), oracles.ID)


def test_matrix_json_round_trip():
    U = rotation_with_error(Pulse(2.2, 0.4), ErrorPair(0.02, -0.3))
    data = matrix_to_dict(U)
    assert np.array_equal(U, np.array(data["re"]) + 1j * np.array(data["im"]))


# ------------------------------------------------------------ pair kernel
# Inside the package a gate is its Cayley-Klein pair (a, b), the first column
# of [[a, -b*], [b, a*]]; these properties tie the pair arithmetic to the
# quaternion oracle and the pair guard to the matrix guard.

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
STACK_SHAPES = st.sampled_from([(), (1,), (7,), (3, 4)])
ANGLES = st.floats(0.0, TWO_PI)
PULSE_LISTS = st.lists(st.tuples(ANGLES, st.floats(-TWO_PI, 2 * TWO_PI)), min_size=1, max_size=6)


def error_stacks(shape):
    errors = hnp.arrays(np.float64, shape, elements=st.floats(-0.5, 0.5))
    return st.tuples(errors, errors)


def pair_as_matrix(a, b):
    return np.array([[a, -np.conj(b)], [b, np.conj(a)]])


@PROPERTY_SETTINGS
@given(
    pulses=PULSE_LISTS,
    target=st.tuples(ANGLES, ANGLES, st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
    data=st.data(),
    shape=STACK_SHAPES,
)
def test_pair_compose_and_fidelity_match_the_quaternion_oracle(pulses, target, data, shape):
    eps, f = data.draw(error_stacks(shape))
    theta, phi, target_eps, target_f = target
    seq = PulseSequence(tuple(Pulse(t, p) for t, p in pulses), Pulse(theta, phi), "custom")
    a, b = _sequence_pair(seq, eps, f)
    # a deformed target, so that neither of its components is real
    fidelity = _pair_fidelity((a, b), _rotation_pair(seq.target, ErrorPair(target_eps, target_f)))
    assert np.shape(a) == np.shape(b) == np.shape(fidelity) == shape
    reference_target = oracles.quat_of_pulse(*target)
    for index in np.ndindex(shape):
        q = oracles.quat_compose(pulses, float(eps[index]), float(f[index]))
        got = pair_as_matrix(a[index], b[index])
        assert np.linalg.norm(got - oracles.quat_to_matrix(q)) < ALGEBRA_TOL
        assert abs(fidelity[index] - oracles.quat_fidelity(q, reference_target)) < ALGEBRA_TOL


@PROPERTY_SETTINGS
@given(
    q=hnp.arrays(np.float64, (5, 4), elements=st.floats(-1.0, 1.0)).filter(
        lambda q: np.all(np.linalg.norm(q, axis=-1) > 1e-3)
    ),
    scale=hnp.arrays(np.float64, (5,), elements=st.floats(0.5, 1.5)),
)
def test_pair_guard_equals_the_defect_of_the_pair_matrix(q, scale):
    q = scale[:, np.newaxis] * q / np.linalg.norm(q, axis=-1, keepdims=True)
    a = q[:, 0] + 1j * q[:, 1]
    b = q[:, 2] + 1j * q[:, 3]
    matrices = np.moveaxis(pair_as_matrix(a, b), -1, 0)
    assert np.max(np.abs(oracles.pair_defect((a, b)) - unitarity_defect(matrices))) <= 1e-15
    for k in range(5):
        assert abs(oracles.pair_defect((a[k], b[k])) - unitarity_defect(matrices[k])) <= 1e-15


FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


# The kernel's only guard is one finiteness test, which rests on two facts:
# a pair built from a finite half angle is unitary to rounding, and an angle
# too large for the closed form makes the whole pair NaN, which reaches a of
# every product. Angles up to the double range and errors far beyond any
# physical one probe both sides of the overflow; a ray's errors stay within
# 0.5, so only angles above about 1.1e308 overflow there.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    pulses=st.lists(st.tuples(FINITE_FLOATS, FINITE_FLOATS), min_size=1, max_size=6),
    eps=hnp.arrays(np.float64, (3,), elements=st.floats(-1e200, 1e200)),
    f=hnp.arrays(np.float64, (3,), elements=st.floats(-1e200, 1e200)),
)
def test_kernel_pairs_are_unitary_or_all_nan_and_every_path_says_which(pulses, eps, f):
    seq = PulseSequence(tuple(Pulse(t, p) for t, p in pulses), Pulse(1.0, 0.0), "custom")
    ray = (eps[2], f[2]) if math.hypot(eps[2], f[2]) > 0.0 else (1.0, 0.0)
    t_values = [1e-3, 0.1, 0.5]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (a, b), _ = _pulse_pairs(seq.pulses, eps[:, np.newaxis], f)
        finite = np.isfinite(a)
        assert np.array_equal(np.isnan(a) & np.isnan(b), ~finite)
        assert np.array_equal(np.isfinite(b), finite)
        assert np.all(unitarity_defect(_pair_matrix((a[finite], b[finite]))) <= UNITARITY_TOL)
        composed, _ = _sequence_pair(seq, eps[:, np.newaxis], f)
        assert np.array_equal(np.isfinite(composed), finite.all(axis=0))
        # each path raises its documented error exactly when a pair at one of
        # its own error points overflowed, and is finite otherwise
        unit = np.array(ray) / math.hypot(*ray)
        t = np.array(t_values)
        ray_pairs, _ = _pulse_pairs(seq.pulses, t * unit[0], t * unit[1])
        calls = [
            (finite[:, :2, :2], "non-unitary operand",
             lambda: fidelity_grid(seq, AxisSpec(eps[0], eps[1], 2), AxisSpec(f[0], f[1], 2)).values),
            (np.isfinite(ray_pairs[0]), "non-unitary operand",
             lambda: np.array(infidelity_ray(seq, ray, t_values))),
            (finite[:, 2, 2], "non-unitary partial rotation",
             lambda: np.array(trajectory(seq, ErrorPair(eps[2], f[2]), NORTH_POLE, 3).x)),
        ]
        for pair_finite, message, call in calls:
            if pair_finite.all():
                assert np.all(np.isfinite(call()))
            else:
                with pytest.raises(ValueError, match=message):
                    call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("part", range(4))
def test_pair_guard_fails_for_a_non_finite_component(bad, part):
    # the kernel's guard tests the a of the sequence pair only: a non-finite
    # component of a pulse's pair reaches a of its product with a finite
    # pair in either order, and the fidelity rejects exactly that element
    pair = _rotation_pair(Pulse(1.3, 0.4), ErrorPair(np.linspace(-0.2, 0.2, 5), 0.1))
    broken = np.stack(pair)
    view = broken.view(float).reshape(2, 5, 2)  # (a or b, stack, real or imag)
    view[part // 2, 3, part % 2] = bad
    broken_pair = (broken[0], broken[1])
    assert not oracles.pair_defect(broken_pair)[3] <= UNITARITY_TOL
    assert np.all(oracles.pair_defect(broken_pair)[[0, 1, 2, 4]] <= UNITARITY_TOL)
    # every component nonzero, so that an infinite one makes no inf * 0
    other = _rotation_pair(Pulse(2.1, 1.1), ErrorPair(0.05, -0.1))
    target = _rotation_pair(Pulse(1.3, 0.4), NO_ERROR)
    intact = [0, 1, 2, 4]
    for a, b in (_pair_product(broken_pair, other), _pair_product(other, broken_pair)):
        assert not np.isfinite(a[3])
        with pytest.raises(ValueError, match="non-unitary operand"):
            _pair_fidelity((a, b), target)
        assert np.all(_pair_fidelity((a[intact], b[intact]), target) <= 1.0)
