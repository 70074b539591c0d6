"""Exact SU(2) arithmetic for one-qubit pulse simulation.

Rotations about axes in the xy plane, their error-deformed counterparts,
products over pulse sequences, and the fidelity used to compare them.

Every gate the package builds is special unitary, U = [[a, -b*], [b, a*]],
so inside the package a gate travels as its Cayley-Klein pair (a, b) of
complex values or arrays: the pair product and the pair fidelity below are
closed forms on two arrays instead of four matrix entries, and the pair
guard is one finiteness test. Matrices, plain (..., 2, 2) complex numpy arrays, appear only at
the public boundary: :func:`rotation` and :func:`rotation_with_error` build
theirs once from the pair, and :func:`compose`, :func:`gate_fidelity`,
:func:`unitarity_defect` (and ``bloch.apply_to_state``) accept any 2x2
unitary, global phase included, and reject an operand of any other shape.
Everything broadcasts: given error fields that are arrays, it works on a
stack, one gate per element, so that a sweep over errors is one call
instead of a loop.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

Unitary2 = np.ndarray
"""A 2x2 complex matrix, or a (..., 2, 2) stack of them: what the public
rotation, product and fidelity functions below produce and consume."""

TWO_PI = 2.0 * math.pi

UNITARITY_TOL = 1e-10


def normalize_phase(phi: float) -> float:
    """Reduce a phase to [0, 2*pi). Idempotent, also at the wrap boundary
    (tiny negative inputs can round onto 2*pi itself)."""
    p = phi % TWO_PI
    if p >= TWO_PI:
        p -= TWO_PI
    return p


def _is_finite(value) -> bool:
    # The package's one test of a finite real number: a finite int or float
    # (numpy's too). NaN, +-inf, an int beyond the double range, a bool, a
    # complex number, an ndarray and a non-number fail it. math.isfinite costs
    # 0.1 us against numpy's 6 us, and a float skips the rarer tests.
    if isinstance(value, float):
        return math.isfinite(value)
    try:
        return not isinstance(value, (bool, np.bool_, np.complexfloating, np.ndarray)) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _count(value, name: str) -> int:
    # a count as a Python int: ints and numpy integers pass, a bool, a float
    # or anything else is a ValueError naming the count
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must be an int, got {value!r}")


@dataclass(frozen=True)
class Pulse:
    """One elementary rotation: angle ``theta`` about the in-plane axis
    (cos phi, sin phi, 0). The phase is stored normalized to [0, 2*pi).
    Both must be finite numbers; an array is not one."""

    theta: float
    phi: float

    def __post_init__(self):
        for name in ("theta", "phi"):
            value = getattr(self, name)
            if not _is_finite(value):
                raise ValueError(f"pulse {name} must be finite, got {value!r}")
        object.__setattr__(self, "phi", normalize_phase(self.phi))


@dataclass(frozen=True)
class ErrorPair:
    """Dimensionless systematic error magnitudes.

    ``epsilon`` scales the rotation angle (pulse length error); ``f`` tilts
    the rotation axis toward z (off-resonance error). Either may be an array
    (of a shape that broadcasts against the other, or against a float) to
    describe a batch of error points; every value must be finite.
    """

    epsilon: float | np.ndarray
    f: float | np.ndarray

    def __post_init__(self):
        for name in ("epsilon", "f"):
            value = getattr(self, name)
            if isinstance(value, np.ndarray):
                finite = value.dtype.kind in "iuf" and bool(np.isfinite(value).all())
            else:
                finite = _is_finite(value)
            if not finite:
                raise ValueError(f"{name} must be finite, got {value!r}")


NO_ERROR = ErrorPair(0.0, 0.0)


def _axis_pair(theta, cos_phi, sin_phi, eps, f, angle_rows=None):
    # Cayley-Klein pair of cos(h) I - i sin(h) m.sigma for the deformed
    # rotation's half angle h and unit axis m, elementwise over broadcast
    # arguments; the in-plane axis comes as its (cos phi, sin phi), so a
    # stack of pulses with different phases is one call. Given angle_rows,
    # theta is a stack of distinct angles and row i of the phases takes the
    # sines and cosines of angle row angle_rows[i], so each angle goes
    # through libm once. At zero error nrm is exactly 1, so the ideal
    # rotation gets the same bits through this one path.
    nrm = np.sqrt(1.0 + f * f)
    half = 0.5 * (theta * (1.0 + eps) * nrm)
    s, c = np.sin(half), np.cos(half)
    if angle_rows is not None:
        s, c = s.take(angle_rows, axis=0), c.take(angle_rows, axis=0)
    mx, my, mz = cos_phi / nrm, sin_phi / nrm, f / nrm
    # a = cos(h) - i s mz and b = s my - i s mx, built from their real and
    # imaginary parts instead of through complex temporaries, with the bits
    # of those: the negated parts are 0 - x (a zero comes out as +0), and
    # b's real part is s my - 0 x, the real part of s my - 1j x for every
    # sign of zero; a's real part is cos(h) itself, since libm's cos never
    # returns a zero
    x = s * mx
    a, b = np.array(c, dtype=complex), np.array(s * my - 0.0 * x, dtype=complex)
    a.imag = 0.0 - s * mz
    b.imag = 0.0 - x
    # [()] turns a 0-d result back into a numpy scalar, as the complex
    # temporaries gave: numpy's scalar arithmetic, unlike its array loops,
    # does not fuse multiply-adds, so the scalar callers keep their bits
    return a[()], b[()]


def _rotation_pair(pulse: Pulse, err: ErrorPair):
    return _axis_pair(pulse.theta, math.cos(pulse.phi), math.sin(pulse.phi), err.epsilon, err.f)


def _pair_matrix(pair) -> Unitary2:
    # [[a, -b*], [b, a*]] over the broadcast shape of the pair; the negated
    # parts are written as 0 - x, so that a zero comes out as +0 (a -0 would
    # print as "-0.0" in matrix JSON)
    a, b = pair
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)) + (2, 2), dtype=complex)
    out[..., 0, 0] = a
    out[..., 1, 0] = b
    out.real[..., 0, 1] = 0.0 - b.real
    out.imag[..., 0, 1] = b.imag
    out.real[..., 1, 1] = a.real
    out.imag[..., 1, 1] = 0.0 - a.imag
    return out


def _pair_product(left, right):
    # pair of the matrix product L R: 4 complex products instead of 8
    a1, b1 = left
    a2, b2 = right
    return a1 * a2 - b1.conj() * b2, b1 * a2 + a1.conj() * b2


def _require_unitary(*defects):
    # the unitarity test of the public matrix functions, which accept any
    # matrix: ValueError unless every defect of every stack is within
    # UNITARITY_TOL; a NaN compares false, so it fails
    for defect in defects:
        if not np.all(defect <= UNITARITY_TOL):
            raise ValueError("non-unitary operand")


def _pair_fidelity(pair, target):
    # gate_fidelity of the two pairs' matrices: tr(U^dagger V) = 2 Re(a* c +
    # b* d) is real for special unitaries. Taken through numpy's complex
    # products, which round like gate_fidelity's entrywise ones, so both give
    # the same bits. The overflow guard: a kernel pair is unitary to a few
    # ulps per pulse unless its angle overflowed, which makes the whole pair
    # NaN, and a NaN reaches a of every product; so the sequence pair's a is
    # all there is to test (the target comes from a finite Pulse).
    (a, b), (c, d) = pair, target
    if not np.isfinite(a).all():
        raise ValueError("non-unitary operand")
    return np.minimum(1.0, np.abs((c.conj() * a + d.conj() * b).real))


def _pulse_pairs(pulses, eps, f, fractions=None):
    # Pairs of the distinct pulses as a (distinct pulses, *error shape) stack
    # from one _axis_pair call, and the stack row of each pulse in
    # application order; given fractions, and scalar errors, the stack is
    # (distinct pulses, fractions) of each pulse after each fraction of its
    # angle. The sines and cosines are taken once per distinct angle (SKinsC
    # has 5 distinct pulses but 3 angles), then each distinct pulse applies
    # its phase. The keys carry the sign of theta, because Pulse(0.0, phi)
    # == Pulse(-0.0, phi) but their pairs can differ in the sign of a zero.
    # An angle too large for the closed form overflows to a NaN pair:
    # reported by the callers' guards instead of by numpy warnings.
    keys, angles = {}, {}
    rows = [keys.setdefault((p.theta, math.copysign(1.0, p.theta), p.phi), len(keys)) for p in pulses]
    angle_rows = [angles.setdefault((theta, sign), len(angles)) for theta, sign, _ in keys]
    shape = (-1,) + (1,) * (1 if fractions is not None else max(np.ndim(eps), np.ndim(f)))
    theta = np.array([theta for theta, _ in angles], dtype=float).reshape(shape)
    cos_phi = np.array([math.cos(phi) for _, _, phi in keys], dtype=float).reshape(shape)
    sin_phi = np.array([math.sin(phi) for _, _, phi in keys], dtype=float).reshape(shape)
    if fractions is not None:
        theta = theta * fractions
    with np.errstate(over="ignore", invalid="ignore"):
        # without a repeated angle the angle rows are the pulse rows
        pairs = _axis_pair(theta, cos_phi, sin_phi, eps, f, angle_rows if len(angles) < len(keys) else None)
    return pairs, rows


def _sequence_pair(seq, eps, f):
    # pair of the whole sequence, every pulse deformed by the error fields
    # eps and f; the product runs in application order, later pulses on the
    # left
    if not seq.pulses:
        raise ValueError("empty sequence")
    (a, b), rows = _pulse_pairs(seq.pulses, eps, f)
    acc = a[rows[0]], b[rows[0]]
    for r in rows[1:]:
        acc = _pair_product((a[r], b[r]), acc)
    return acc


def _matrix_operand(U) -> np.ndarray:
    # the public matrix functions' operand check: a 2x2 matrix or a
    # (..., 2, 2) stack, nested lists included, as an array (an ndarray is
    # returned as itself); any other shape is a ValueError naming it
    U = np.asarray(U)
    if U.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 matrix or a (..., 2, 2) stack, got shape {U.shape}")
    return U


def rotation(pulse: Pulse) -> Unitary2:
    """Ideal rotation cos(theta/2) I - i sin(theta/2) (cos phi sx + sin phi sy)."""
    return _pair_matrix(_rotation_pair(pulse, NO_ERROR))


def rotation_with_error(pulse: Pulse, err: ErrorPair) -> Unitary2:
    """Deformed rotation exp(-i theta (1+eps) (n_phi . sigma/2 + f sigma_z/2)).

    Evaluated in closed form: the generator axis n_phi + f z has length
    sqrt(1 + f^2), so this is a rotation by theta (1+eps) sqrt(1+f^2) about
    the normalized tilted axis. Reduces exactly to :func:`rotation` at zero
    error. Array error fields give the stack of rotations over their
    broadcast shape.
    """
    return _pair_matrix(_rotation_pair(pulse, err))


def compose(matrices: list[Unitary2]) -> Unitary2:
    """Product of unitaries given in application order (index 0 acts first),
    i.e. U_k ... U_1 as a matrix product; stacks multiply elementwise.

    Each step sums two broadcast outer products, column j of u times row j
    of acc, which round like the entrywise formula. On one matrix that takes
    half the time of assigning the four entries one by one; on a stack of
    2020 it takes twice as long (185 against 90 us, 2-core Xeon VM).
    """
    if len(matrices) == 0:
        raise ValueError("empty sequence")
    acc, *rest = map(_matrix_operand, matrices)
    for u in rest:
        acc = u[..., :, :1] * acc[..., :1, :] + u[..., :, 1:] * acc[..., 1:, :]
    return acc


def unitarity_defect(U: Unitary2) -> float | np.ndarray:
    """Frobenius norm of U†U - I; an array of them for a stack.

    U†U holds the squared column norms on its diagonal and the inner product
    of the two columns (and its conjugate) off it, so the norm is taken from
    those. A NaN or infinite entry gives a NaN or infinite defect, without a
    warning.
    """
    U = _matrix_operand(U)
    squares = U.real * U.real + U.imag * U.imag
    norms = squares[..., 0, :] + squares[..., 1, :]
    # an infinite entry makes the overlap inf * 0 or inf - inf, a NaN that
    # only joins the infinite norm already in the defect
    with np.errstate(invalid="ignore"):
        overlap = U[..., 0, 0].conj() * U[..., 0, 1] + U[..., 1, 0].conj() * U[..., 1, 1]
    diagonal = (norms - 1.0) ** 2
    defect = np.sqrt(
        diagonal[..., 0] + diagonal[..., 1]
        + 2.0 * (overlap.real * overlap.real + overlap.imag * overlap.imag)
    )
    return float(defect) if defect.ndim == 0 else defect


def gate_fidelity(U: Unitary2, V: Unitary2) -> float | np.ndarray:
    """|tr(U† V)| / 2, clamped to [0, 1]; an array of them for stacks.

    Equals 1 exactly when the two gates agree up to a global phase, which is
    the right notion of equality here: composed sequences can reproduce their
    target only up to an overall sign. Raises if any matrix of either operand
    is not unitary, NaN entries included.
    """
    U, V = _matrix_operand(U), _matrix_operand(V)
    _require_unitary(unitarity_defect(U), unitarity_defect(V))
    trace = (U.conj() * V).sum(axis=(-2, -1))
    # hypot rounds like Python's complex abs, which numpy's abs does not
    fidelity = np.minimum(1.0, np.hypot(trace.real, trace.imag) / 2.0)
    return float(fidelity) if fidelity.ndim == 0 else fidelity


def matrix_to_dict(U: Unitary2) -> dict:
    """Row-major split into real and imaginary parts for JSON output."""
    return {
        "re": [[float(U[i, j].real) for j in range(2)] for i in range(2)],
        "im": [[float(U[i, j].imag) for j in range(2)] for i in range(2)],
    }
