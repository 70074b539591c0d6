"""Independent reference implementations used to derive expected values.

Nothing here shares code with the package under test: rotations go through a
generic matrix exponential, products through scalar quaternion algebra,
first-order error terms through finite differences of those products, the
sinc inverse through Brent's method, the log-log line fit through numpy's
polyfit, the unitarity defect of a Cayley-Klein pair through its squared
norm, and infidelities along an error ray through quaternion products in
mpmath at 50 digits.
"""

import math

import mpmath
import numpy as np
from scipy.linalg import expm
from scipy.optimize import brentq

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ID = np.eye(2, dtype=complex)


def expm_rotation(theta, phi, eps=0.0, f=0.0):
    """exp(-i theta (1+eps) (n_phi . sigma/2 + f sigma_z/2)) via scipy expm."""
    generator = math.cos(phi) * SX / 2 + math.sin(phi) * SY / 2 + f * SZ / 2
    return expm(-1j * theta * (1.0 + eps) * generator)


def quat_of_pulse(theta, phi, eps=0.0, f=0.0):
    """(scalar, vector) parts of exp(-i theta (1+eps) (n_phi . sigma + f sigma_z) / 2),
    a rotation by theta (1+eps) sqrt(1+f^2) about (n_phi + f z) / sqrt(1+f^2)."""
    nrm = math.sqrt(1.0 + f * f)
    half = 0.5 * theta * (1.0 + eps) * nrm
    s = math.sin(half) / nrm
    return (math.cos(half), (s * math.cos(phi), s * math.sin(phi), s * f))


def quat_multiply(left, right):
    """Product of (a I - i b.sigma) factors, left factor applied second."""
    a1, b1 = left
    a2, b2 = right
    dot = b1[0] * b2[0] + b1[1] * b2[1] + b1[2] * b2[2]
    cross = (
        b1[1] * b2[2] - b1[2] * b2[1],
        b1[2] * b2[0] - b1[0] * b2[2],
        b1[0] * b2[1] - b1[1] * b2[0],
    )
    a = a1 * a2 - dot
    b = tuple(a1 * b2[i] + a2 * b1[i] + cross[i] for i in range(3))
    return (a, b)


def quat_compose(pulses, eps=0.0, f=0.0):
    """Compose (theta, phi) pulses in application order, index 0 first, each
    deformed by the same error pair."""
    q = (1.0, (0.0, 0.0, 0.0))
    for theta, phi in pulses:
        q = quat_multiply(quat_of_pulse(theta, phi, eps, f), q)
    return q


def quat_rotate(q, r):
    """Bloch vector r turned by the SU(2) element q = a I - i b.sigma:
    (a^2 - |b|^2) r + 2 a (b x r) + 2 (b . r) b."""
    a, b = q
    dot = b[0] * r[0] + b[1] * r[1] + b[2] * r[2]
    cross = (
        b[1] * r[2] - b[2] * r[1],
        b[2] * r[0] - b[0] * r[2],
        b[0] * r[1] - b[1] * r[0],
    )
    scale = a * a - (b[0] * b[0] + b[1] * b[1] + b[2] * b[2])
    return tuple(scale * r[i] + 2.0 * a * cross[i] + 2.0 * dot * b[i] for i in range(3))


def quat_fidelity(q, target):
    """|tr(T^dagger U)| / 2 of the gates a I - i b.sigma, which is the
    quaternion dot product |a ta + b . tb|, clamped to 1."""
    a, b = q
    ta, tb = target
    return min(1.0, abs(a * ta + b[0] * tb[0] + b[1] * tb[1] + b[2] * tb[2]))


def mp_ray_infidelity(pulses, target, ray, t, digits=50):
    """1 - |tr(T^dagger U)| / 2 for the (theta, phi) pulses in application
    order against the (theta, phi) target, every pulse deformed by the
    errors t * ray / |ray|: :func:`mp_ray_overlap`, rounded to a float once
    at the end."""
    with mpmath.workdps(digits):
        return float(1 - min(1, mp_ray_overlap(pulses, target, ray, t, digits)))


def mp_ray_overlap(pulses, target, ray, t, digits=50):
    """|tr(T^dagger U)| / 2 as in :func:`mp_ray_infidelity`, as an mpmath
    number: quaternion products at ``digits`` significant digits."""
    with mpmath.workdps(digits):
        d_eps, d_f = (mpmath.mpf(c) for c in ray)
        nrm = mpmath.hypot(d_eps, d_f)
        eps, f = mpmath.mpf(t) * d_eps / nrm, mpmath.mpf(t) * d_f / nrm

        def quat(theta, phi, eps, f):
            scale = mpmath.sqrt(1 + f * f)
            half = mpmath.mpf(theta) * (1 + eps) * scale / 2
            s = mpmath.sin(half) / scale
            phi = mpmath.mpf(phi)
            return (mpmath.cos(half), (s * mpmath.cos(phi), s * mpmath.sin(phi), s * f))

        q = (mpmath.mpf(1), (mpmath.mpf(0),) * 3)
        for theta, phi in pulses:
            q = quat_multiply(quat(theta, phi, eps, f), q)
        (a, b), (ta, tb) = q, quat(*target, 0, 0)
        return abs(a * ta + b[0] * tb[0] + b[1] * tb[1] + b[2] * tb[2])


def quat_to_matrix(q):
    a, (bx, by, bz) = q
    return a * ID - 1j * (bx * SX + by * SY + bz * SZ)


def pair_defect(pair):
    """Frobenius norm of U^dagger U - I for the special-unitary form
    U = [[a, -b*], [b, a*]] of a Cayley-Klein pair (a, b), elementwise: the
    columns are orthogonal by construction and both have squared norm
    |a|^2 + |b|^2. Squares and sums only, so a NaN or infinite component
    gives a NaN or infinite defect without a warning."""
    a, b = pair
    norm = a.real * a.real + a.imag * a.imag + (b.real * b.real + b.imag * b.imag)
    return math.sqrt(2.0) * np.abs(norm - 1.0)


def bloch_distance(r, s):
    """Euclidean distance of two Bloch vectors, each given by its x, y and z
    attributes."""
    return math.dist((r.x, r.y, r.z), (s.x, s.y, s.z))


def fd_first_order(pulses, which, step=1e-5):
    """Derivative of the composed (theta, phi) pulses at zero error along
    ``which`` ("eps" or "f"), as a 2x2 matrix: central differences of
    :func:`quat_compose` with steps h and h/2, combined by one Richardson
    step. Its error is of order 1e-11."""
    def at(x):
        errors = (x, 0.0) if which == "eps" else (0.0, x)
        return quat_to_matrix(quat_compose(pulses, *errors))

    coarse = (at(step) - at(-step)) / (2.0 * step)
    fine = (at(0.5 * step) - at(-0.5 * step)) / step
    return (4.0 * fine - coarse) / 3.0


def polyfit_loglog_slope(t_values, values, floor):
    """(slope, max abs log-deviation from the line) of the least-squares line
    through (log t, log value) over the points whose value exceeds floor, by
    np.polyfit: a Vandermonde matrix solved by SVD. No input checks."""
    v = np.asarray(values, dtype=float)
    kept = v > floor
    log_t = np.log(np.asarray(t_values, dtype=float)[kept])
    log_v = np.log(v[kept])
    slope, intercept = np.polyfit(log_t, log_v, 1)
    return float(slope), float(np.max(np.abs(log_v - (slope * log_t + intercept))))


FIRST_SINC_MINIMUM = brentq(
    lambda x: x * math.cos(x) - math.sin(x), math.pi, 1.5 * math.pi, xtol=1e-15
)


def arcsinc_brentq(y):
    """Inverse sinc on [0, first minimum] via Brent's method."""
    if y == 1.0:
        return 0.0
    return brentq(
        lambda x: math.sin(x) / x - y, 1e-300, FIRST_SINC_MINIMUM, xtol=1e-15
    )
