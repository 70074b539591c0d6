"""Composite pulse families and the closed forms that parametrize them.

Generators return pulses in application order together with the target
rotation (theta)_phi they implement:

* ``elementary``  - the bare single pulse, k = 1.
* ``scrofulous``  - k = 3, cancels first-order pulse length error.
* ``scorbutus``   - k = 5, cancels both first-order errors; built from
  SCROFULOUS by replacing its central pi pulse with a forward-backward
  "switchback" triple whose free angle is fixed by the off-resonance
  condition.
* ``skinsc``      - k = 6, the previously shortest sequence robust against
  both errors, used as the comparison baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .su2 import TWO_PI, ErrorPair, Pulse, Unitary2, _is_finite, _pair_matrix, _sequence_pair

BISECT_MAX_ITER = 200
BISECT_X_TOL = 1e-15


def _bisect(below, lo: float, hi: float) -> float:
    # Bisection for the point in [lo, hi] where the monotone predicate
    # below(x) turns false; bounded iteration count, deterministic.
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= BISECT_X_TOL:
            break
    return 0.5 * (lo + hi)


# First positive root of x cos x - sin x, bracketed in (pi, 3pi/2); this is
# where sinc has its first local minimum (~4.493409).
SINC_BRANCH_END = _bisect(
    lambda x: x * math.cos(x) - math.sin(x) < 0.0, math.pi, 1.5 * math.pi
)
SINC_BRANCH_FLOOR = math.sin(SINC_BRANCH_END) / SINC_BRANCH_END  # ~ -0.217234


def sinc(x: float) -> float:
    """sin(x)/x with the removable singularity filled in: sinc(0) = 1."""
    return 1.0 if x == 0.0 else math.sin(x) / x


def arcsinc(y: float) -> float:
    """Inverse of sinc on its first monotone branch [0, SINC_BRANCH_END].

    On that branch sinc falls strictly from 1 to SINC_BRANCH_FLOOR, so the
    solution is unique; it is found by bisection (derivative-free, bounded
    iteration count, deterministic).
    """
    if not SINC_BRANCH_FLOOR < y <= 1.0:
        raise ValueError("arcsinc argument out of branch range")
    if y == 1.0:
        return 0.0
    return _bisect(lambda x: sinc(x) > y, 0.0, SINC_BRANCH_END)


@dataclass(frozen=True)
class PulseSequence:
    """Ordered pulses (index 0 acts first) implementing a target rotation."""

    pulses: tuple[Pulse, ...]
    target: Pulse
    family: str


def _require_target_angle(theta: float) -> None:
    if not 0.0 < theta < TWO_PI:
        raise ValueError(f"target angle {theta!r} outside (0, 2*pi)")


def elementary(theta: float, phi: float) -> PulseSequence:
    """Single-pulse baseline: the target rotation itself."""
    target = Pulse(theta, phi)
    return PulseSequence((target,), target, "elementary")


def _scrofulous_acos(x: float, phase: str) -> float:
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"arccos argument {x!r} for {phase} outside [-1, 1]")
    return math.acos(x)


def scrofulous(theta: float, phi: float) -> PulseSequence:
    """Three-pulse sequence cancelling first-order pulse length error.

    theta1 = theta3 = arcsinc(2 cos(theta/2) / pi), theta2 = pi,
    phi1 = phi3 = phi + arccos(-pi cos(theta1) / (2 theta1 sin(theta/2))),
    phi2 = phi1 - arccos(-pi / (2 theta1)).
    """
    _require_target_angle(theta)
    theta1 = arcsinc(2.0 * math.cos(0.5 * theta) / math.pi)
    s = math.sin(0.5 * theta)
    # a target angle of a few subnormals has s == 0: the argument diverges
    a1 = -math.pi * math.cos(theta1) / (2.0 * theta1 * s) if s else -math.inf
    phi1 = phi + _scrofulous_acos(a1, "phi_1")
    phi2 = phi1 - _scrofulous_acos(-math.pi / (2.0 * theta1), "phi_2")
    side = Pulse(theta1, phi1)
    return PulseSequence((side, Pulse(math.pi, phi2), side), Pulse(theta, phi), "scrofulous")


def theta_r_from_condition(theta1: float) -> float:
    """Switchback angle that zeroes the first-order off-resonance term of the
    five-pulse sequence: cos(theta_r) = (1 - pi sin^2(theta1/2) / theta1) / 2,
    taken on the principal branch [0, pi]; at theta1 = 0 its limit, pi/3.
    theta1 must be a finite number."""
    if not _is_finite(theta1):
        raise ValueError(f"theta1 must be finite, got {theta1!r}")
    if theta1 == 0.0:
        return math.acos(0.5)
    s = math.sin(0.5 * theta1)
    rhs = 0.5 * (1.0 - math.pi * s * s / theta1)
    if not -1.0 <= rhs <= 1.0:
        raise ValueError("theta_r condition unsatisfiable")
    return math.acos(rhs)


def switchback_replace(pulse: Pulse, theta_r: float) -> tuple[Pulse, Pulse, Pulse]:
    """Replace (theta)_phi with (theta_r)_{phi+pi} (theta+2 theta_r)_phi
    (theta_r)_{phi+pi}, a forward-backward motion about the same axis.

    All three rotations share the axis n_phi (up to sign), so under a pure
    pulse length error the exponents add and the triple composes to exactly
    the single erroneous pulse, for every error magnitude. Off-resonance
    breaks the cancellation, which is what frees theta_r as a tuning knob.
    """
    if theta_r < 0.0:
        raise ValueError(f"switchback angle must be nonnegative, got {theta_r!r}")
    back = Pulse(theta_r, pulse.phi + math.pi)
    forward = Pulse(pulse.theta + 2.0 * theta_r, pulse.phi)
    return (back, forward, back)


def scorbutus(theta: float, phi: float) -> PulseSequence:
    """Five-pulse sequence robust to first order against both the pulse
    length and the off-resonance error: SCROFULOUS with its central pi pulse
    switchback-replaced, theta_r fixed by :func:`theta_r_from_condition`."""
    seed = scrofulous(theta, phi)
    side, center, _ = seed.pulses
    theta_r = theta_r_from_condition(side.theta)
    pulses = (side, *switchback_replace(center, theta_r), side)
    return PulseSequence(pulses, seed.target, "scorbutus")


def skinsc(theta: float, phi: float) -> PulseSequence:
    """Six-pulse sequence robust against both errors (comparison baseline).

    theta1 = theta5 = theta6 = theta/2 - arcsin(sin(theta/2)/2),
    theta2 = 2 pi - theta/2 - arcsin(sin(theta/2)/2), theta3 = theta4 = 2 pi,
    phases phi, phi+pi, phi+pi-+arccos(-(2 pi - theta)/(4 pi)), phi+pi, phi.
    """
    _require_target_angle(theta)
    a = math.asin(0.5 * math.sin(0.5 * theta))
    theta1 = 0.5 * theta - a
    theta2 = TWO_PI - 0.5 * theta - a
    # in [-1/2, 0) for every admitted theta, so always in arccos's domain
    chi = math.acos(-(TWO_PI - theta) / (4.0 * math.pi))
    pulses = (
        Pulse(theta1, phi),
        Pulse(theta2, phi + math.pi),
        Pulse(TWO_PI, phi + math.pi - chi),
        Pulse(TWO_PI, phi + math.pi + chi),
        Pulse(theta1, phi + math.pi),
        Pulse(theta1, phi),
    )
    return PulseSequence(pulses, Pulse(theta, phi), "skinsc")


@dataclass(frozen=True)
class FamilySpec:
    """Everything known about one family: how to build it, and what its
    robustness certificate must show.

    ``slopes`` maps each certificate ray ("eps", "f", "mixed") to the
    expected log-log slope of infidelity against error scale: 2 where the
    family leaves that error at first order, 4 where it cancels it.
    ``residual_limit`` bounds the palindromic off-resonance residual for
    families built to zero it, and is None for the others.
    """

    generator: Callable[[float, float], PulseSequence]
    slopes: dict[str, float]
    residual_limit: float | None = None


FAMILY_SPECS = {
    "elementary": FamilySpec(elementary, {"eps": 2.0, "f": 2.0, "mixed": 2.0}),
    "scrofulous": FamilySpec(scrofulous, {"eps": 4.0, "f": 2.0, "mixed": 2.0}),
    "scorbutus": FamilySpec(scorbutus, {"eps": 4.0, "f": 4.0, "mixed": 4.0}, residual_limit=1e-10),
    "skinsc": FamilySpec(skinsc, {"eps": 4.0, "f": 4.0, "mixed": 4.0}),
}
FAMILIES = tuple(FAMILY_SPECS)


def family_spec(family: str) -> FamilySpec:
    """The table entry of a family; ValueError for a name not in the table."""
    try:
        return FAMILY_SPECS[family]
    except KeyError:
        raise ValueError(
            f"unknown family {family!r}; known families: {', '.join(FAMILIES)}"
        ) from None


def synthesize(family: str, theta: float, phi: float) -> PulseSequence:
    """Build a sequence by family name; a ValueError of the generator, such
    as an angle outside the family's domain, is raised with the name."""
    generator = family_spec(family).generator
    try:
        return generator(theta, phi)
    except ValueError as exc:
        raise ValueError(f"{family}: {exc}") from exc


def total_time(seq: PulseSequence) -> float:
    """Sum of pulse angles: the dimensionless duration of the sequence.
    Phases do not enter."""
    return math.fsum(p.theta for p in seq.pulses)


def compose_with_errors(seq: PulseSequence, err: ErrorPair) -> Unitary2:
    """Matrix of the whole sequence with every pulse deformed by the same
    error pair."""
    return _pair_matrix(_sequence_pair(seq, err.epsilon, err.f))


def sequence_to_dict(seq: PulseSequence) -> dict:
    return {
        "family": seq.family,
        "target": {"theta": seq.target.theta, "phi": seq.target.phi},
        "pulses": [{"theta": p.theta, "phi": p.phi} for p in seq.pulses],
        "total_time": total_time(seq),
    }


def _member(data, key: str, path: str):
    if not isinstance(data, dict):
        raise ValueError(f"{path or 'sequence'} must be an object, got {type(data).__name__}")
    if key not in data:
        raise ValueError(f"{path + '.' if path else ''}{key} is missing")
    return data[key]


def _pulse(data, path: str) -> Pulse:
    angles = []
    for key in ("theta", "phi"):
        value = _member(data, key, path)
        if not _is_finite(value):
            raise ValueError(f"{path}.{key} must be a finite number, got {value!r}")
        angles.append(value)
    return Pulse(*angles)


def sequence_from_dict(data: dict) -> PulseSequence:
    """Inverse of :func:`sequence_to_dict` for data read from a file.

    Malformed data raises ValueError naming the offending path, e.g.
    ``pulses[2].theta``: a missing key, an empty pulse list, or an angle
    that is not a finite number (booleans included).
    """
    family = _member(data, "family", "")
    if not isinstance(family, str):
        raise ValueError(f"family must be a string, got {family!r}")
    target = _pulse(_member(data, "target", ""), "target")
    pulses = _member(data, "pulses", "")
    if not isinstance(pulses, list) or not pulses:
        raise ValueError(f"pulses must be a non-empty list, got {pulses!r}")
    return PulseSequence(
        tuple(_pulse(p, f"pulses[{i}]") for i, p in enumerate(pulses)), target, family
    )
