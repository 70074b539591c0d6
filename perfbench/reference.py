"""Independent scalar references for the benchmark's correctness checks.

Nothing here imports pulsesmith: a gate a I - i b.sigma is kept as the
quaternion (a, bx, by, bz) and products are written out by hand, so a bug
in the package's 2x2 matrix arithmetic cannot hide itself.
"""

from __future__ import annotations

import math


def deformed_pulse(theta: float, phi: float, eps: float, f: float) -> tuple:
    """Quaternion of exp(-i theta (1+eps) (n_phi.sigma + f sigma_z) / 2)."""
    nrm = math.sqrt(1.0 + f * f)
    half = 0.5 * theta * (1.0 + eps) * nrm
    s = math.sin(half) / nrm
    return (math.cos(half), s * math.cos(phi), s * math.sin(phi), s * f)


def product(p: tuple, q: tuple) -> tuple:
    """Quaternion of the matrix product P Q."""
    a1, x1, y1, z1 = p
    a2, x2, y2, z2 = q
    return (
        a1 * a2 - x1 * x2 - y1 * y2 - z1 * z2,
        a1 * x2 + a2 * x1 + y1 * z2 - z1 * y2,
        a1 * y2 + a2 * y1 + z1 * x2 - x1 * z2,
        a1 * z2 + a2 * z1 + x1 * y2 - y1 * x2,
    )


def sequence_quaternion(pulses: list[tuple[float, float]], eps: float, f: float) -> tuple:
    """Pulses (theta, phi) in application order, all deformed by (eps, f)."""
    acc = (1.0, 0.0, 0.0, 0.0)
    for theta, phi in pulses:
        acc = product(deformed_pulse(theta, phi, eps, f), acc)
    return acc


def fidelity(
    pulses: list[tuple[float, float]], target: tuple[float, float], eps: float, f: float
) -> float:
    """|tr(T^dagger U)| / 2 of the erroneous sequence U against the ideal
    target T, clamped to 1 like the package."""
    a, x, y, z = sequence_quaternion(pulses, eps, f)
    ta, tx, ty, tz = deformed_pulse(target[0], target[1], 0.0, 0.0)
    return min(1.0, abs(ta * a + tx * x + ty * y + tz * z))
