"""Exact SU(2) arithmetic for one-qubit pulse simulation.

Rotations about axes in the xy plane, their error-deformed counterparts,
products over pulse sequences, and the fidelity/distance metrics used to
compare them. Matrices are plain 2x2 complex numpy arrays. The rotation,
product and fidelity functions broadcast: given a pulse angle or error
fields that are arrays, they work on (..., 2, 2) stacks, one matrix per
element, so that a sweep over errors is one call instead of a loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Unitary2 = np.ndarray
"""A 2x2 complex matrix, or a (..., 2, 2) stack of them; everything below
produces and consumes these."""

TWO_PI = 2.0 * math.pi

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_0 = np.eye(2, dtype=complex)

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
    (cos phi, sin phi, 0). The phase is stored normalized to [0, 2*pi)."""

    theta: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "phi", normalize_phase(self.phi))


@dataclass(frozen=True)
class ErrorPair:
    """Dimensionless systematic error magnitudes.

    ``epsilon`` scales the rotation angle (pulse length error); ``f`` tilts
    the rotation axis toward z (off-resonance error). Either may be an array
    (same shape as the other, or broadcast against a float) to describe a
    batch of error points; every value must be finite.
    """

    epsilon: float | np.ndarray
    f: float | np.ndarray

    def __post_init__(self):
        for name in ("epsilon", "f"):
            value = getattr(self, name)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value!r}")


NO_ERROR = ErrorPair(0.0, 0.0)


def _axis_angle(half_angle, mx, my, mz) -> Unitary2:
    # cos(a) I - i sin(a) m.sigma for a unit axis m, elementwise over
    # broadcast arguments; shared by the exact and error-free paths so that
    # zero error reproduces the same bits.
    c = np.cos(half_angle)
    s = np.sin(half_angle)
    return np.stack(
        [
            np.stack([c - 1j * s * mz, -1j * s * (mx - 1j * my)], axis=-1),
            np.stack([-1j * s * (mx + 1j * my), c + 1j * s * mz], axis=-1),
        ],
        axis=-2,
    )


def rotation(pulse: Pulse) -> Unitary2:
    """Ideal rotation cos(theta/2) I - i sin(theta/2) (cos phi sx + sin phi sy)."""
    return _axis_angle(0.5 * pulse.theta, math.cos(pulse.phi), math.sin(pulse.phi), 0.0)


def rotation_with_error(pulse: Pulse, err: ErrorPair) -> Unitary2:
    """Deformed rotation exp(-i theta (1+eps) (n_phi . sigma/2 + f sigma_z/2)).

    Evaluated in closed form: the generator axis n_phi + f z has length
    sqrt(1 + f^2), so this is a rotation by theta (1+eps) sqrt(1+f^2) about
    the normalized tilted axis. Reduces exactly to :func:`rotation` at zero
    error. An array ``pulse.theta`` or array error fields give the stack of
    rotations over their broadcast shape.
    """
    nx, ny = math.cos(pulse.phi), math.sin(pulse.phi)
    nrm = np.sqrt(1.0 + err.f * err.f)
    angle = pulse.theta * (1.0 + err.epsilon) * nrm
    return _axis_angle(0.5 * angle, nx / nrm, ny / nrm, err.f / nrm)


def compose(matrices: list[Unitary2]) -> Unitary2:
    """Product of unitaries given in application order (index 0 acts first),
    i.e. U_k ... U_1 as a matrix product; stacks multiply elementwise."""
    if len(matrices) == 0:
        raise ValueError("empty sequence")
    acc = matrices[0]
    for u in matrices[1:]:
        acc = u @ acc
    return acc


def _dagger(U: Unitary2) -> Unitary2:
    return np.swapaxes(U.conj(), -1, -2)


def unitarity_defect(U: Unitary2) -> float | np.ndarray:
    """Frobenius norm of U†U - I; an array of them for a stack."""
    defect = np.linalg.norm(_dagger(U) @ U - SIGMA_0, axis=(-2, -1))
    return float(defect) if defect.ndim == 0 else defect


def gate_fidelity(U: Unitary2, V: Unitary2) -> float | np.ndarray:
    """|tr(U† V)| / 2, clamped to [0, 1]; an array of them for stacks.

    Equals 1 exactly when the two gates agree up to a global phase, which is
    the right notion of equality here: composed sequences can reproduce their
    target only up to an overall sign. Raises if any matrix of either operand
    is not unitary, NaN entries included.
    """
    for operand in (U, V):
        if not np.all(unitarity_defect(operand) <= UNITARITY_TOL):
            raise ValueError("non-unitary operand")
    trace = np.trace(_dagger(U) @ V, axis1=-2, axis2=-1)
    # hypot rounds like Python's complex abs, which numpy's abs does not
    fidelity = np.minimum(1.0, np.hypot(trace.real, trace.imag) / 2.0)
    return float(fidelity) if fidelity.ndim == 0 else fidelity


def frobenius_distance(U: Unitary2, V: Unitary2) -> float:
    """Entrywise distance sqrt(sum |u_ij - v_ij|^2)."""
    return float(np.linalg.norm(U - V))


def matrix_to_dict(U: Unitary2) -> dict:
    """Row-major split into real and imaginary parts for JSON output."""
    return {
        "re": [[float(U[i, j].real) for j in range(2)] for i in range(2)],
        "im": [[float(U[i, j].imag) for j in range(2)] for i in range(2)],
    }


def matrix_from_dict(data: dict) -> Unitary2:
    re = np.asarray(data["re"], dtype=float)
    im = np.asarray(data["im"], dtype=float)
    if re.shape != (2, 2) or im.shape != (2, 2):
        raise ValueError("matrix payload must be 2x2")
    return re + 1j * im
