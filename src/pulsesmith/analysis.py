"""Robustness certification and figure-style datasets.

The cancellation order of a family is certified numerically: infidelity
1 - F along a ray in the (epsilon, f) plane scales as t^2 for an
uncompensated sequence and as t^4 once the first-order term vanishes, so a
log-log slope fit distinguishes the two. For palindromic sequences the
first-order off-resonance term collapses to a single scalar
s1 a1 + ... + s_{k-1} a_{k-1} + s_k (s_i = sin(theta_i/2)), whose root is
exactly the switchback tuning condition; the residual is evaluated here,
next to the exact first-order derivative of the composed matrix that it
must reproduce.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .sequences import FAMILY_SPECS, PulseSequence, synthesize, total_time
from .su2 import (
    NO_ERROR,
    Pulse,
    Unitary2,
    _count,
    _is_finite,
    _pair_fidelity,
    _pair_matrix,
    _pair_product,
    _rotation_pair,
    _sequence_pair,
)

INFIDELITY_FLOOR = 1e-14
GRID_BLOCK_POINTS = 2048
"""About the error points :func:`fidelity_grid` evaluates per batched call:
the grid's f rows are split into ceil(points / GRID_BLOCK_POINTS) blocks of
near-equal size (at most one per row), so that no block is a remainder of a
few rows that pays a whole call's overhead. Enough to amortise numpy's
per-call cost, few enough that the intermediate stacks stay small."""

# Veltkamp split of 1e17 = 2**17 * 5**17 (an exact double) into two halves
# of at most 26 significant bits, for Dekker's product in _fraction_digits
_VELTKAMP = 2.0**27 + 1.0
_E17_HI = _VELTKAMP * 1e17 - (_VELTKAMP * 1e17 - 1e17)
_E17_LO = 1e17 - _E17_HI


@dataclass(frozen=True)
class SlopeReport:
    """Log-log slope of infidelity along one error ray."""

    ray: tuple[float, float]
    t_values: tuple[float, ...]
    infidelities: tuple[float, ...]
    fitted_slope: float
    fit_residual: float

    def to_dict(self) -> dict:
        return {
            "ray": {"d_eps": self.ray[0], "d_f": self.ray[1]},
            "t_values": list(self.t_values),
            "infidelities": list(self.infidelities),
            "fitted_slope": self.fitted_slope,
            "fit_residual": self.fit_residual,
        }


@dataclass(frozen=True)
class OreResidualReport:
    """Scalar first-order off-resonance condition for a palindromic sequence."""

    s_values: tuple[float, ...]
    alpha_values: tuple[float, ...]
    residual: float


@dataclass(frozen=True)
class AxisSpec:
    """Inclusive linspace: count points from start to stop."""

    start: float
    stop: float
    count: int

    def __post_init__(self):
        if not (_is_finite(self.start) and _is_finite(self.stop)):
            raise ValueError(f"axis bounds must be finite, got {self.start!r}:{self.stop!r}")
        if not _is_finite(self.stop - self.start):
            raise ValueError(f"axis span {self.start!r}:{self.stop!r} overflows")
        object.__setattr__(self, "count", _count(self.count, "axis count"))
        if self.count < 2:
            raise ValueError(f"axis needs at least two points, got count {self.count!r}")

    def points(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)

    @functools.cached_property
    def _texts(self) -> tuple[str, ...]:
        # the %.17g texts of the points, for grid_to_csv; cached per
        # instance (cached_property writes the instance dict, which the
        # frozen dataclass leaves open)
        return tuple(f"{x:.17g}" for x in self.points().tolist())


@dataclass(frozen=True, eq=False)
class FidelityGrid:
    """Gate fidelity over an error grid; rows follow f, columns epsilon."""

    target: Pulse
    family: str
    eps_axis: AxisSpec
    f_axis: AxisSpec
    values: np.ndarray

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "target": {"theta": self.target.theta, "phi": self.target.phi},
            "eps_axis": asdict(self.eps_axis),
            "f_axis": asdict(self.f_axis),
            "values": self.values.tolist(),
        }


def _unit_ray(ray: tuple[float, float]) -> tuple[float, float]:
    d_eps, d_f = ray
    # a component that is not a finite number, or a norm that overflows,
    # would give a NaN or a (0, 0) direction
    if not (_is_finite(d_eps) and _is_finite(d_f) and _is_finite(nrm := math.hypot(d_eps, d_f))):
        raise ValueError(f"ray direction {ray!r} must have finite components and a finite norm")
    if nrm == 0.0:
        raise ValueError("ray direction must be nonzero")
    return (d_eps / nrm, d_f / nrm)


def infidelity_ray(
    seq: PulseSequence, ray: tuple[float, float], t_values: list[float]
) -> list[float]:
    """1 - F between the erroneous sequence and its target at errors
    t * (d_eps, d_f) for each scale t, with the ray normalized to unit length;
    without cancellation, as (Im^2 w_a + |w_b|^2) / (1 + |Re w_a|) for the
    pair (w_a, w_b) of T^dagger U, since F = |Re w_a| and |w_a|^2 + |w_b|^2 = 1."""
    d_eps, d_f = _unit_ray(ray)
    for t in t_values:
        if not (_is_finite(t) and 0.0 <= t <= 0.5):
            raise ValueError(f"ray scale {t!r} outside [0, 0.5]")
    # error fields built from checked t need no ErrorPair
    t = np.asarray(t_values, dtype=float)
    a, b = _sequence_pair(seq, t * d_eps, t * d_f)
    if not np.isfinite(a).all():  # the overflow guard of su2._pair_fidelity
        raise ValueError("non-unitary operand")
    c, d = _rotation_pair(seq.target, NO_ERROR)
    w_a, w_b = _pair_product((np.conj(c), -d), (a, b))  # (c*, -d) is T^dagger
    return ((w_a.imag**2 + (w_b.real**2 + w_b.imag**2)) / (1.0 + np.abs(w_a.real))).tolist()


def fit_loglog_slope(t_values: list[float], values: list[float]) -> tuple[float, float]:
    """Least-squares slope of log(value) against log(t).

    Points at or below the double-precision infidelity floor are dropped; at
    least 4 points must survive. Returns (slope, max abs log-deviation from
    the fit line). Raises ValueError for a non-finite value, and for kept
    points whose t are not all finite and positive or whose log t are all
    equal.
    """
    if len(t_values) != len(values):
        raise ValueError("t_values and values must have equal length")
    if not all(map(_is_finite, values)):
        raise ValueError("values must be finite")
    kept = [(t, v) for t, v in zip(t_values, values) if v > INFIDELITY_FLOOR]
    if len(kept) < 4:
        raise ValueError("insufficient dynamic range")
    if not all(_is_finite(t) and t > 0.0 for t, _ in kept):
        raise ValueError("t of the kept points must be finite and positive")
    log_t = [math.log(t) for t, _ in kept]
    if len(set(log_t)) < 2:
        raise ValueError("the kept points need at least two distinct t")
    log_v = [math.log(v) for _, v in kept]
    t_mean, v_mean = math.fsum(log_t) / len(kept), math.fsum(log_v) / len(kept)
    dt = [x - t_mean for x in log_t]
    # fsum rounds exactly, so lists give the bits of generators, sooner
    slope = math.fsum([d * (y - v_mean) for d, y in zip(dt, log_v)]) / math.fsum([d * d for d in dt])
    intercept = v_mean - slope * t_mean
    return slope, max(abs(y - (slope * x + intercept)) for x, y in zip(log_t, log_v))


def slope_report(
    seq: PulseSequence, ray: tuple[float, float], t_values: list[float]
) -> SlopeReport:
    """Run :func:`infidelity_ray` and fit its log-log slope; reports the unit ray."""
    infidelities = infidelity_ray(seq, ray, t_values)
    slope, residual = fit_loglog_slope(t_values, infidelities)
    return SlopeReport(_unit_ray(ray), tuple(t_values), tuple(infidelities), slope, residual)


def first_order_coefficient(seq: PulseSequence, which: str) -> Unitary2:
    """Exact derivative of the composed matrix along one error parameter at zero.

    One pass of the product rule over the pulses: with u the product so far
    and d its derivative, pulse r turns them into r u and r d + r' u. At
    zero error r' = g r with g = -i (theta/2) n.sigma for the pulse length
    error, and r' = -i sin(theta/2) sigma_z for the off-resonance error.
    Derivatives of special unitaries keep the form [[a, -b*], [b, a*]], so
    u, d and the factors of r' all travel as pairs.
    """
    if which not in ("eps", "f"):
        raise ValueError(f"unknown error parameter {which!r}, expected 'eps' or 'f'")
    u, d = (1 + 0j, 0j), (0j, 0j)
    for p in seq.pulses:
        r = _rotation_pair(p, NO_ERROR)
        ru = _pair_product(r, u)
        if which == "eps":
            # g is the pair (0, -i (theta/2) e^{i phi})
            half = 0.5 * p.theta
            g = (0j, complex(half * math.sin(p.phi), -half * math.cos(p.phi)))
            step = _pair_product(g, ru)
        else:
            step = _pair_product((-1j * math.sin(0.5 * p.theta), 0j), u)
        rd = _pair_product(r, d)
        d = (rd[0] + step[0], rd[1] + step[1])
        u = ru
    return _pair_matrix(d)


def _is_palindromic(seq: PulseSequence) -> bool:
    """An odd number of pulses reading the same in both orders; the sequences
    :func:`symmetric_ore_residual` accepts."""
    return len(seq.pulses) % 2 == 1 and seq.pulses == tuple(reversed(seq.pulses))


def _alpha(rotations: list, i: int) -> float:
    # alpha_i, the weight of the i-th mirrored pulse pair (1..k-1 from the
    # outside) in the first-order off-resonance term, from the ideal pairs of
    # the k pulses of the half-sequence: the trace, real in SU(2), of the
    # inverses of pulses 1..i-1 followed by pulses i+1 up to k and back down
    # to 1. (a*, -b) is the inverse U^dagger of a special unitary.
    inverses = [(np.conj(a), -b) for a, b in rotations[: i - 1]]
    factors = inverses + rotations[i:] + rotations[-2::-1]
    v = factors[0]
    for factor in factors[1:]:
        v = _pair_product(v, factor)
    # tr [[a, -b*], [b, a*]] = 2 Re a
    return 2.0 * float(v[0].real)


def symmetric_ore_residual(seq: PulseSequence) -> OreResidualReport:
    """Evaluate s1 a1 + ... + s_{k-1} a_{k-1} + s_k for a palindromic
    sequence. Zero residual means the first-order off-resonance term of the
    composed sequence vanishes; the full derivative matrix equals
    -i * residual * sigma_z."""
    if not _is_palindromic(seq):
        raise ValueError("sequence is not palindromic")
    half = seq.pulses[: (len(seq.pulses) + 1) // 2]
    rotations = [_rotation_pair(p, NO_ERROR) for p in half]
    s_values = [math.sin(0.5 * p.theta) for p in half]
    alpha_values = [_alpha(rotations, i) for i in range(1, len(half))]
    residual = math.fsum(s * a for s, a in zip(s_values, alpha_values)) + s_values[-1]
    return OreResidualReport(tuple(s_values), tuple(alpha_values), residual)


def fidelity_grid(seq: PulseSequence, eps_axis: AxisSpec, f_axis: AxisSpec) -> FidelityGrid:
    """Gate fidelity of the erroneous sequence against its target over an
    inclusive (epsilon, f) grid.

    Whole f rows are evaluated in batched blocks of near-equal size, about
    GRID_BLOCK_POINTS points each, which keeps the intermediate matrix
    stacks small; every point gets the same bits as a row-at-a-time
    evaluation.
    """
    eps_points = eps_axis.points()
    f_points = f_axis.points()[:, np.newaxis]
    block_count = min(f_axis.count, -(-eps_axis.count * f_axis.count // GRID_BLOCK_POINTS))
    # the axes are checked finite, so their points go to the kernel as they are
    target = _rotation_pair(seq.target, NO_ERROR)
    blocks = [
        _pair_fidelity(_sequence_pair(seq, eps_points, f_block), target)
        for f_block in np.array_split(f_points, block_count)
    ]
    return FidelityGrid(seq.target, seq.family, eps_axis, f_axis, np.concatenate(blocks))


def _fraction_digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The digits of ``%.17g`` as integers, for values in [0.1, 1).

    Returns ``(digits, in_range)``, both of the shape of ``values``: where
    ``in_range`` holds, ``"0.%d" % digits`` is the text of ``"%.17g" %
    value``; elsewhere ``digits`` is meaningless. The 17 significant digits
    are round_half_even(value * 10**17) with the trailing zeros stripped.
    Dekker's two-product gives value * 1e17 exactly as hi + lo: hi is a
    double in [1e16, 1e17], where doubles are even integers, and |lo| <= 8,
    so rounding lo half to even rounds the sum half to even. Ties occur
    (odd / 2**18, for one).
    """
    # Dekker's product is exact in binary64 only
    values = np.asarray(values, dtype=np.float64)
    # NaN compares false, so NaN, +-0, 1.0 and anything below 0.1 are out
    in_range = (values >= 0.1) & (values < 1.0)
    # 0.3 prints as 0.29999999999999999: the placeholder costs no strip step
    x = np.where(in_range, values, 0.3)
    hi = x * 1e17
    # Veltkamp split x = xh + xl into halves of at most 26 bits; then
    # lo = ((xh yh - hi) + xh yl + xl yh) + xl yl with 1e17 = yh + yl,
    # every product and sum exact. The whole-grid temporaries are reused
    # in place and dropped early, which keeps the CSV's peak memory down.
    xh = x * _VELTKAMP
    xh -= xh - x
    xl = np.subtract(x, xh, out=x)
    lo = xh * _E17_HI
    lo -= hi
    lo += np.multiply(xh, _E17_LO, out=xh)
    lo += np.multiply(xl, _E17_HI, out=xh)
    lo += np.multiply(xl, _E17_LO, out=xl)
    del x, xh, xl
    digits = hi.astype(np.int64)
    del hi
    digits += np.rint(lo, out=lo).astype(np.int64)
    flat = digits.reshape(-1)
    ends_in_zero = np.flatnonzero(flat % 10 == 0)
    while ends_in_zero.size:
        flat[ends_in_zero] //= 10
        ends_in_zero = ends_in_zero[flat[ends_in_zero] % 10 == 0]
    return digits, in_range


@functools.lru_cache(maxsize=1)
def _fraction_row_templates(eps_texts: tuple[str, ...], f_texts: tuple[str, ...]) -> tuple[str, ...]:
    # grid_to_csv's 0.%d template of each f row. Keyed on the axis texts, not
    # on the AxisSpecs: AxisSpec(-1.0, -0.0, 3) == AxisSpec(-1.0, 0.0, 3),
    # with the same hash, but their last points print as -0 and 0. Only the
    # last axis pair is kept (about 0.3 MB for the default grid), so the
    # memo never holds a copy of every large CSV it has seen.
    return tuple(sep.join(eps_texts) + sep for sep in (f",{f},0.%d\n" for f in f_texts))


def grid_to_csv(grid: FidelityGrid) -> str:
    """CSV with header epsilon,f,fidelity; f varies slowest. Floats carry 17
    significant digits so the values round-trip.

    Formatting the fidelities is nearly all of the cost, so each f row is
    one ``%`` call: a row template holds the row's epsilon and f texts
    around one conversion per fidelity. The texts are formatted once per
    axis (each :class:`AxisSpec` caches its own). A row whose fidelities
    all lie in [0.1, 1), which is nearly every row of a landscape, prints
    them as ``0.%d`` from the integers of :func:`_fraction_digits`, through
    a template taken from a memo of the last axis pair's templates; any
    other row prints them with ``%.17g``, through a template built for the
    call. Both give the same bytes as ``:.17g``.
    """
    eps_texts, f_texts = grid.eps_axis._texts, grid.f_axis._texts
    templates = _fraction_row_templates(eps_texts, f_texts)
    digits, in_range = _fraction_digits(grid.values)
    parts = ["epsilon,f,fidelity\n"]
    for f, template, row, row_digits, exact in zip(
        f_texts, templates, grid.values, digits, in_range.all(axis=1)
    ):
        if exact:
            parts.append(template % tuple(row_digits.tolist()))
        else:
            sep = f",{f},%.17g\n"
            parts.append((sep.join(eps_texts) + sep) % tuple(row.tolist()))
    return "".join(parts)


@dataclass(frozen=True)
class TimeComparisonRow:
    """Total time of each compared family at one target angle, None where
    the angle is outside the family's domain (the note says why)."""

    theta: float
    times: dict[str, float | None]
    note: str = ""


def _compared_families() -> list[str]:
    # the FAMILY_SPECS rows that cancel both errors on every ray, in table
    # order; read on every call, so that a row added to the table is compared
    return [name for name, spec in FAMILY_SPECS.items() if min(spec.slopes.values()) >= 4.0]


def time_compare(theta_values: list[float]) -> list[TimeComparisonRow]:
    """Total operation time of every bi-robust family per target angle,
    synthesized at phase 0 since the phase never changes a total; domain
    failures are annotated per row."""
    families = _compared_families()
    rows = []
    for theta in theta_values:
        theta = float(theta)
        times, notes = {}, []
        for family in families:
            try:
                times[family] = total_time(synthesize(family, theta, 0.0))
            except ValueError as exc:
                times[family] = None
                notes.append(f"{family}: {exc}")
        rows.append(TimeComparisonRow(theta, times, "; ".join(notes)))
    return rows


def time_compare_to_csv(rows: list[TimeComparisonRow]) -> str:
    families = _compared_families()
    lines = [",".join(["theta", *(f"L_{family}" for family in families), "note"])]
    for r in rows:
        times = ("nan" if r.times[family] is None else repr(r.times[family]) for family in families)
        note = '"%s"' % r.note.replace('"', '""') if r.note else ""
        lines.append(",".join([repr(r.theta), *times, note]))
    return "\n".join(lines) + "\n"


def time_compare_to_dict(rows: list[TimeComparisonRow]) -> dict:
    families = _compared_families()
    return {
        "rows": [
            {"theta": r.theta, **{f"L_{family}": r.times[family] for family in families}, "note": r.note}
            for r in rows
        ]
    }
