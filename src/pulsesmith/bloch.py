"""Pure-state evolution on the Bloch sphere under erroneous pulse sequences.

A square pulse evolves the state at constant angular velocity, so sampling a
pulse at fraction s means rotating by s * theta with the error model
unchanged. Trajectories exported here are the raw data behind the usual
sphere plots; no rendering is done.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sequences import PulseSequence
from .su2 import SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z, ErrorPair, Pulse, Unitary2, rotation_with_error

NORM_TOL = 1e-10


def _sqrt(value):
    # a Python float for scalar fields, so messages quoting a norm read as
    # before; an array over the stack shape for array fields
    return np.sqrt(value) if isinstance(value, np.ndarray) else math.sqrt(value)


@dataclass(frozen=True)
class BlochVector:
    """Expectation values (<sx>, <sy>, <sz>) of a pure state; unit norm."""

    x: float | np.ndarray
    y: float | np.ndarray
    z: float | np.ndarray

    def norm(self) -> float | np.ndarray:
        return _sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def distance(self, other: "BlochVector") -> float | np.ndarray:
        return _sqrt((self.x - other.x) ** 2 + (self.y - other.y) ** 2 + (self.z - other.z) ** 2)


NORTH_POLE = BlochVector(0.0, 0.0, 1.0)
SOUTH_POLE = BlochVector(0.0, 0.0, -1.0)


def apply_to_state(U: Unitary2, r: BlochVector) -> BlochVector:
    """Bloch vector of U rho U† for the pure state rho = (I + r.sigma)/2; for a
    (..., 2, 2) stack U its fields are arrays over the stack shape, not floats."""
    if not abs(r.norm() - 1.0) <= NORM_TOL:
        raise ValueError(f"Bloch vector norm {r.norm()!r} is not 1")
    rho = 0.5 * (SIGMA_0 + r.x * SIGMA_X + r.y * SIGMA_Y + r.z * SIGMA_Z)
    rho = U @ rho @ np.swapaxes(U.conj(), -1, -2)
    x, y, z = (np.trace(rho @ s, axis1=-2, axis2=-1).real for s in (SIGMA_X, SIGMA_Y, SIGMA_Z))
    if x.ndim == 0:
        return BlochVector(float(x), float(y), float(z))
    return BlochVector(x, y, z)


@dataclass(frozen=True)
class TrajectoryPoint:
    pulse_index: int  # 1-based; index 0 marks the initial state
    fraction: float   # completed share of that pulse
    state: BlochVector


@dataclass(frozen=True)
class Trajectory:
    family: str
    target: Pulse
    err: ErrorPair
    samples_per_pulse: int
    points: tuple[TrajectoryPoint, ...]


def trajectory(
    seq: PulseSequence,
    err: ErrorPair,
    initial: BlochVector = NORTH_POLE,
    samples_per_pulse: int = 1,
) -> Trajectory:
    """Sample the state after each fraction j/m of every pulse.

    Produces k * samples_per_pulse + 1 points starting from the initial
    state; within a pulse all samples lie on the circle around that pulse's
    effective (error-tilted) rotation axis.
    """
    if samples_per_pulse < 1:
        raise ValueError("samples_per_pulse must be at least 1")
    if not abs(initial.norm() - 1.0) <= NORM_TOL:
        raise ValueError(f"initial Bloch vector norm {initial.norm()!r} is not 1")
    m = samples_per_pulse
    fractions = np.arange(1, m + 1) / m
    points = [TrajectoryPoint(0, 0.0, initial)]
    prefix = SIGMA_0
    for index, pulse in enumerate(seq.pulses, start=1):
        partials = rotation_with_error(Pulse(pulse.theta * fractions, pulse.phi), err) @ prefix
        s = apply_to_state(partials, initial)
        samples = zip(fractions.tolist(), s.x.tolist(), s.y.tolist(), s.z.tolist())
        points.extend(TrajectoryPoint(index, t, BlochVector(x, y, z)) for t, x, y, z in samples)
        prefix = partials[-1]
    return Trajectory(seq.family, seq.target, err, m, tuple(points))


def trajectory_to_csv(traj: Trajectory) -> str:
    lines = ["pulse_index,fraction,x,y,z"]
    for p in traj.points:
        lines.append(
            f"{p.pulse_index},{p.fraction!r},{p.state.x!r},{p.state.y!r},{p.state.z!r}"
        )
    return "\n".join(lines) + "\n"


def trajectory_to_dict(traj: Trajectory) -> dict:
    return {
        "family": traj.family,
        "target": {"theta": traj.target.theta, "phi": traj.target.phi},
        "err": {"epsilon": traj.err.epsilon, "f": traj.err.f},
        "samples_per_pulse": traj.samples_per_pulse,
        "points": [
            {
                "pulse_index": p.pulse_index,
                "fraction": p.fraction,
                "x": p.state.x,
                "y": p.state.y,
                "z": p.state.z,
            }
            for p in traj.points
        ],
    }
