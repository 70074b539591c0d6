"""Exact SU(2) arithmetic for one-qubit pulse simulation.

Rotations about axes in the xy plane, their error-deformed counterparts,
products over pulse sequences, and the fidelity used to compare them.

Every gate the package builds is special unitary, U = [[a, -b*], [b, a*]],
so inside the package a gate travels as its Cayley-Klein pair (a, b) of
complex values or arrays: the pair product, the pair fidelity and the pair
unitarity guard below are closed forms on two arrays instead of four matrix
entries. Matrices, plain (..., 2, 2) complex numpy arrays, appear only at
the public boundary: :func:`rotation` and :func:`rotation_with_error` build
theirs once from the pair, and :func:`compose`, :func:`gate_fidelity`,
:func:`unitarity_defect` (and ``bloch.apply_to_state``) accept any 2x2
unitary, global phase included. Everything broadcasts: given a pulse angle
or error fields that are arrays, it works on a stack, one gate per element,
so that a sweep over errors is one call instead of a loop.
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class Pulse:
    """One elementary rotation: angle ``theta`` about the in-plane axis
    (cos phi, sin phi, 0). The phase is stored normalized to [0, 2*pi).
    Both must be finite; ``theta`` may be an array, for a stack."""

    theta: float
    phi: float

    def __post_init__(self):
        # math.isfinite for a scalar: a numpy test costs 6 us against 0.1 us,
        # and synthesis builds a pulse at a time
        for name in ("theta", "phi"):
            value = getattr(self, name)
            if not (np.all(np.isfinite(value)) if isinstance(value, np.ndarray) else math.isfinite(value)):
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
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value!r}")


NO_ERROR = ErrorPair(0.0, 0.0)


def _axis_pair(theta, cos_phi, sin_phi, err: ErrorPair):
    # Cayley-Klein pair of cos(h) I - i sin(h) m.sigma for the deformed
    # rotation's half angle h and unit axis m, elementwise over broadcast
    # arguments; the in-plane axis comes as its (cos phi, sin phi), so a
    # stack of pulses with different phases is one call. At zero error nrm
    # is exactly 1, so the ideal rotation gets the same bits through this
    # one path.
    nrm = np.sqrt(1.0 + err.f * err.f)
    half = 0.5 * (theta * (1.0 + err.epsilon) * nrm)
    s = np.sin(half)
    mx, my, mz = cos_phi / nrm, sin_phi / nrm, err.f / nrm
    return np.cos(half) - 1j * (s * mz), s * my - 1j * (s * mx)


def _rotation_pair(pulse: Pulse, err: ErrorPair):
    return _axis_pair(pulse.theta, math.cos(pulse.phi), math.sin(pulse.phi), err)


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


def _pair_defect(pair):
    # unitarity_defect of the pair's matrix: its columns are orthogonal by
    # construction and both have squared norm |a|^2 + |b|^2. Squares and
    # sums only, so a NaN or infinite component gives a NaN or infinite
    # defect without an invalid-value warning.
    a, b = pair
    norm = a.real * a.real + a.imag * a.imag + (b.real * b.real + b.imag * b.imag)
    return math.sqrt(2.0) * np.abs(norm - 1.0)


def _require_unitary(*defects, message="non-unitary operand"):
    # the one unitarity test: ValueError(message) unless every defect of
    # every stack is within UNITARITY_TOL; a NaN compares false, so it fails
    for defect in defects:
        if not np.all(defect <= UNITARITY_TOL):
            raise ValueError(message)


def _pair_fidelity(pair, target):
    # gate_fidelity of the two pairs' matrices, with the pair guard:
    # tr(U^dagger V) = 2 Re(a* c + b* d) is real for special unitaries. Taken
    # through numpy's complex products, which round like gate_fidelity's
    # entrywise ones, so both give the same bits.
    _require_unitary(_pair_defect(pair), _pair_defect(target))
    (a, b), (c, d) = pair, target
    return np.minimum(1.0, np.abs((c.conj() * a + d.conj() * b).real))


def _pulse_pairs(pulses, fractions, err: ErrorPair):
    # Pairs of the distinct pulses after each fraction of their angle, as a
    # (distinct pulses, fractions, *error shape) stack from one _axis_pair
    # call, and the stack row of each pulse in application order. The key
    # carries the sign of theta, because Pulse(0.0, phi) == Pulse(-0.0, phi)
    # but their pairs can differ in the sign of a zero. An angle too large
    # for the closed form overflows to a NaN pair: reported by the pair
    # guards instead of by numpy warnings.
    keys = {}
    rows = [keys.setdefault((p, math.copysign(1.0, p.theta)), len(keys)) for p in pulses]
    trailing = (1,) * np.broadcast(err.epsilon, err.f).ndim
    columns = np.array([(p.theta, math.cos(p.phi), math.sin(p.phi)) for p, _ in keys], dtype=float)
    theta, cos_phi, sin_phi = columns.T.reshape((3, -1, 1) + trailing)
    theta = theta * np.array(fractions, dtype=float).reshape((-1,) + trailing)
    with np.errstate(over="ignore", invalid="ignore"):
        return _axis_pair(theta, cos_phi, sin_phi, err), rows


def _sequence_pair(seq, err: ErrorPair):
    # pair of the whole sequence, every pulse deformed by err; the product
    # runs in application order, later pulses on the left
    if not seq.pulses:
        raise ValueError("empty sequence")
    (a, b), rows = _pulse_pairs(seq.pulses, (1.0,), err)
    acc = a[rows[0], 0], b[rows[0], 0]
    for r in rows[1:]:
        acc = _pair_product((a[r, 0], b[r, 0]), acc)
    return acc


def _target_fidelity(seq, err: ErrorPair):
    # fidelity of the sequence under err against its ideal target; the pair
    # guard raises ValueError for an angle that overflowed
    return _pair_fidelity(_sequence_pair(seq, err), _rotation_pair(seq.target, NO_ERROR))


def rotation(pulse: Pulse) -> Unitary2:
    """Ideal rotation cos(theta/2) I - i sin(theta/2) (cos phi sx + sin phi sy)."""
    return _pair_matrix(_rotation_pair(pulse, NO_ERROR))


def rotation_with_error(pulse: Pulse, err: ErrorPair) -> Unitary2:
    """Deformed rotation exp(-i theta (1+eps) (n_phi . sigma/2 + f sigma_z/2)).

    Evaluated in closed form: the generator axis n_phi + f z has length
    sqrt(1 + f^2), so this is a rotation by theta (1+eps) sqrt(1+f^2) about
    the normalized tilted axis. Reduces exactly to :func:`rotation` at zero
    error. An array ``pulse.theta`` or array error fields give the stack of
    rotations over their broadcast shape.
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
    acc = matrices[0]
    for u in matrices[1:]:
        acc = u[..., :, :1] * acc[..., :1, :] + u[..., :, 1:] * acc[..., 1:, :]
    return acc


def unitarity_defect(U: Unitary2) -> float | np.ndarray:
    """Frobenius norm of U†U - I; an array of them for a stack.

    U†U holds the squared column norms on its diagonal and the inner product
    of the two columns (and its conjugate) off it, so the norm is taken from
    those. A NaN or infinite entry gives a NaN or infinite defect, without a
    warning.
    """
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
