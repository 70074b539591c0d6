"""Pure-state evolution on the Bloch sphere under erroneous pulse sequences.

A square pulse evolves the state at constant angular velocity, so sampling a
pulse at fraction s means rotating by s * theta with the error model
unchanged. Trajectories exported here are the raw data behind the usual
sphere plots; no rendering is done.

A trajectory of k pulses sampled m times each is one (k, m) stack, built
from one rotation call over its distinct pulses: each row after the first
is multiplied by the whole of the pulses before it, and the state is
turned once over the flattened stack. The result keeps the states as float
columns; per-sample point objects are built only when asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .sequences import PulseSequence
from .su2 import (
    ErrorPair,
    Pulse,
    Unitary2,
    _count,
    _is_finite,
    _pair_product,
    _pulse_pairs,
    _unitary_operand,
)

NORM_TOL = 1e-10


@dataclass(frozen=True)
class BlochVector:
    """Expectation values (<sx>, <sy>, <sz>) of a pure state; unit norm. Each
    field is a finite real number, or all three are float arrays of finite
    entries (a stack's states, as :func:`apply_to_state` returns them)."""

    x: float | np.ndarray
    y: float | np.ndarray
    z: float | np.ndarray

    def __post_init__(self):
        fields = {"x": self.x, "y": self.y, "z": self.z}
        arrays = all(isinstance(v, np.ndarray) and v.dtype.kind == "f" for v in fields.values())
        for name, value in fields.items():
            if not (np.isfinite(value).all() if arrays else _is_finite(value)):
                raise ValueError(f"Bloch vector {name} must be finite, got {value!r}")

    def norm(self) -> float | np.ndarray:
        # a Python float for one state (messages quote it), an array for a stack
        square = self.x * self.x + self.y * self.y + self.z * self.z
        return np.sqrt(square) if isinstance(square, np.ndarray) else math.sqrt(square)


NORTH_POLE = BlochVector(0.0, 0.0, 1.0)


def apply_to_state(U: Unitary2, r: BlochVector) -> BlochVector:
    """Bloch vector of U rho U† for the pure state rho = (I + r.sigma)/2; for a
    (..., 2, 2) stack U its fields are arrays over the stack shape, not floats.

    A unitary is e^{i gamma} [[a, -b*], [b, a*]] with det U = e^{2 i gamma},
    so dividing its first column by a square root of the determinant leaves
    the pair (a, b) up to a sign, which the turn does not see. Raises if any
    matrix of U is not unitary, NaN entries included, like gate_fidelity.
    """
    if not abs(r.norm() - 1.0) <= NORM_TOL:
        raise ValueError(f"Bloch vector norm {r.norm()!r} is not 1")
    U = _unitary_operand(np.asarray(U, dtype=complex))
    root = np.sqrt(U[..., 0, 0] * U[..., 1, 1] - U[..., 0, 1] * U[..., 1, 0])
    x, y, z = _turn((U[..., 0, 0] / root, U[..., 1, 0] / root), r)
    if x.ndim == 0:
        return BlochVector(float(x), float(y), float(z))
    return BlochVector(x, y, z)


def _turn(pair, r: BlochVector):
    # r turned by the Cayley-Klein pair (a, b) = (w - i qz, qy - i qx) of
    # w I - i q.sigma: (w^2 - |q|^2) r + 2 w (q x r) + 2 (q . r) q
    a, b = pair
    w, qx, qy, qz = a.real, -b.imag, b.real, -a.imag
    dot = qx * r.x + qy * r.y + qz * r.z
    scale = w * w - (qx * qx + qy * qy + qz * qz)
    return (
        scale * r.x + 2.0 * (w * (qy * r.z - qz * r.y) + dot * qx),
        scale * r.y + 2.0 * (w * (qz * r.x - qx * r.z) + dot * qy),
        scale * r.z + 2.0 * (w * (qx * r.y - qy * r.x) + dot * qz),
    )


@dataclass(frozen=True)
class TrajectoryPoint:
    pulse_index: int  # 1-based; index 0 marks the initial state
    fraction: float   # completed share of that pulse
    state: BlochVector


def _fractions(samples_per_pulse: int) -> list[float]:
    # the completed shares j/m, j = 1..m, at which every pulse is sampled, in
    # one allocation, which fails at once with a MemoryError if it is too large
    return (np.arange(1, samples_per_pulse + 1) / samples_per_pulse).tolist()


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A sampled Bloch-sphere path, stored as columns.

    ``initial`` is the starting state. The float columns ``x``, ``y`` and
    ``z`` hold the k * samples_per_pulse states after it, pulse by pulse:
    row (i - 1) * m + j - 1 is pulse i after the completed fraction j / m
    (i, j from 1, m = samples_per_pulse). ``points`` is the same path as
    :class:`TrajectoryPoint` values, the initial state first; it is built
    on first use and then kept. Compared by identity, since it holds arrays.
    """

    family: str
    target: Pulse
    err: ErrorPair
    samples_per_pulse: int
    initial: BlochVector
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def _rows(self):
        # (pulse_index, fraction, x, y, z) of every point, the initial one first
        r = self.initial
        yield 0, 0.0, r.x, r.y, r.z
        fractions = _fractions(self.samples_per_pulse)
        states = zip(self.x.tolist(), self.y.tolist(), self.z.tolist())
        for index in range(1, len(self.x) // len(fractions) + 1):
            for t, (x, y, z) in zip(fractions, states):
                yield index, t, x, y, z

    @cached_property
    def points(self) -> tuple[TrajectoryPoint, ...]:
        return tuple(TrajectoryPoint(i, t, BlochVector(x, y, z)) for i, t, x, y, z in self._rows())


def trajectory(
    seq: PulseSequence,
    err: ErrorPair,
    initial: BlochVector = NORTH_POLE,
    samples_per_pulse: int = 1,
) -> Trajectory:
    """Sample the state after each fraction j/m of every pulse.

    Produces k * samples_per_pulse + 1 points starting from the initial
    state; within a pulse all samples lie on the circle around that pulse's
    effective (error-tilted) rotation axis. ``err`` is one error point: its
    fields must be scalars, not arrays. Raises ValueError if a partial
    rotation comes out non-unitary, as when theta (1 + epsilon) overflows.
    """
    samples_per_pulse = _count(samples_per_pulse, "samples_per_pulse")
    if samples_per_pulse < 1:
        raise ValueError("samples_per_pulse must be at least 1")
    for name in ("epsilon", "f"):
        # a number has no shape; np.shape would build an array to find ()
        shape = getattr(getattr(err, name), "shape", ())
        if shape:
            raise ValueError(f"trajectory needs a scalar err.{name}, got an array of shape {shape}")
    if not abs(initial.norm() - 1.0) <= NORM_TOL:
        raise ValueError(f"initial Bloch vector norm {initial.norm()!r} is not 1")
    (a, b), rows = _pulse_pairs(seq.pulses, err.epsilon, err.f, np.array(_fractions(samples_per_pulse)))
    # the kernel's overflow guard, as in su2._pair_fidelity: a pair is NaN,
    # its a included, exactly when its angle overflowed
    if not np.isfinite(a).all():
        raise ValueError("non-unitary partial rotation: pulse angles or errors too large")
    # row i - 1 of the path holds pulse i's partial rotations; a pulse acts
    # after every earlier one, whose product is the last column of the row
    # before, already updated
    a, b = a.take(rows, axis=0), b.take(rows, axis=0)
    for i in range(1, len(rows)):
        a[i], b[i] = _pair_product((a[i], b[i]), (a[i - 1, -1], b[i - 1, -1]))
    x, y, z = _turn((a.ravel(), b.ravel()), initial)
    for column in (x, y, z):
        column.flags.writeable = False
    return Trajectory(seq.family, seq.target, err, samples_per_pulse, initial, x, y, z)


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV with header pulse_index,fraction,x,y,z, one row per point, the
    initial state first. Floats are written as their repr, the shortest
    text that round-trips.

    Formatting the states is nearly all of the cost, so each fraction is
    formatted once, into the "pulse_index,fraction," prefixes of its rows,
    and a row formats only its x, y and z. (One ``%r`` template, as
    ``grid_to_csv`` uses for ``%.17g``, measured a few percent slower:
    ``%r`` has no fast path and calls repr just as ``!r`` does.)
    """
    fractions = [repr(t) for t in _fractions(traj.samples_per_pulse)]
    prefixes = [f"{i},{t}," for i in range(1, len(traj.x) // len(fractions) + 1) for t in fractions]
    rows = [
        f"{p}{x!r},{y!r},{z!r}\n"
        for p, x, y, z in zip(prefixes, traj.x.tolist(), traj.y.tolist(), traj.z.tolist())
    ]
    # a numpy scalar field as the Python scalar it holds, not its numpy repr;
    # an int stays an int
    r = traj.initial
    initial = ",".join(repr(np.asarray(v).tolist()) for v in (r.x, r.y, r.z))
    return f"pulse_index,fraction,x,y,z\n0,0.0,{initial}\n" + "".join(rows)


def trajectory_to_dict(traj: Trajectory) -> dict:
    return {
        "family": traj.family,
        "target": {"theta": traj.target.theta, "phi": traj.target.phi},
        "err": {"epsilon": traj.err.epsilon, "f": traj.err.f},
        "samples_per_pulse": traj.samples_per_pulse,
        "points": [
            {"pulse_index": i, "fraction": t, "x": x, "y": y, "z": z}
            for i, t, x, y, z in traj._rows()
        ],
    }
