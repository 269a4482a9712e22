"""Observability from measurable sets built as finite box unions.

Everything set-theoretic here is exact: measures, time slices, and the
thresholded time set come from interval arithmetic on box edges, with no
Monte Carlo estimation anywhere. The solution-side quantities ride on the
discrete eigenbasis, so time evolution, time derivatives, and the
analytic extension in the auxiliary variable are all evaluated in closed
form; the only quadrature left is the time integral of observed L1 norms,
done by composite midpoint inside pieces where the slice is constant.

The pipeline mirrors a fixed chain of reductions: slice the set in time,
keep the times where the slice is thick, pick a density point of that
set, build the geometric approach sequence to it, and report the
end-to-end ratio of terminal energy to the observed L1 mass.
"""

from dataclasses import dataclass, field, replace
import math

import numpy as np

from .errors import ConfigError, InvariantError, NonConvergenceError
from .model import Model, ModeCoeffs, TWO_PI, _frozen, check_index_range


def _merge_intervals(pieces):
    """Union of half-open-ish intervals as a sorted disjoint tuple."""
    pieces = sorted((float(u), float(v)) for u, v in pieces if v > u)
    out = []
    for u, v in pieces:
        if out and u <= out[-1][1] + 1e-15:
            out[-1] = (out[-1][0], max(out[-1][1], v))
        else:
            out.append((u, v))
    return tuple(out)


def _intersect_measure(intervals, lo: float, hi: float) -> float:
    total = 0.0
    for u, v in intervals:
        total += max(0.0, min(v, hi) - max(u, lo))
    return total


def _is_box(box) -> bool:
    """True for three (lo, hi) pairs of real numbers."""
    def is_pair(edge):
        return (isinstance(edge, (list, tuple)) and len(edge) == 2
                and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                        for x in edge))
    return (isinstance(box, (list, tuple)) and len(box) == 3
            and all(is_pair(edge) for edge in box))


@dataclass(frozen=True)
class BoxUnionSet:
    """Finite union of boxes inside the torus x radial band x time slab.

    Boxes are ((theta0, theta1), (r0, r1), (t0, t1)) triples inside
    bounds (0, 2pi) x (band_a, band_b) x (0, horizon). cells is the time
    partition: one (t0, t1, slice measure) triple between each pair of
    consecutive time edges (0, the horizon and every box time edge), on
    which the slice is constant. The total measure is exact: it sums the
    slice measures, each exact by coordinate compression, over the cells,
    so overlapping boxes are never double counted. It is the one region
    type: cylinder(a, b, horizon) is the full torus times a radial band.
    """

    boxes: tuple
    band_a: float
    band_b: float
    horizon: float
    cells: tuple = field(init=False)
    measure: float = field(init=False)

    def __post_init__(self):
        if not self.boxes:
            raise ConfigError("box union must contain at least one box")
        if not (0.0 <= self.band_a < self.band_b <= 1.0):
            raise ConfigError("radial band must satisfy 0 <= a < b <= 1")
        if self.horizon <= 0:
            raise ConfigError("horizon must be positive")
        clean = []
        for box in self.boxes:
            if not _is_box(box):
                raise ConfigError(
                    f"box must be [[theta0, theta1], [r0, r1], [t0, t1]] "
                    f"with numbers, got {box!r}")
            (h0, h1), (r0, r1), (t0, t1) = box
            if not (-1e-12 <= h0 < h1 <= TWO_PI + 1e-12):
                raise ConfigError(f"theta interval out of range: ({h0}, {h1})")
            if not (self.band_a - 1e-12 <= r0 < r1 <= self.band_b + 1e-12):
                raise ConfigError(f"radial interval outside the band: ({r0}, {r1})")
            if not (-1e-12 <= t0 < t1 <= self.horizon + 1e-12):
                raise ConfigError(f"time interval out of range: ({t0}, {t1})")
            clean.append(((float(h0), float(h1)), (float(r0), float(r1)),
                          (float(t0), float(t1))))
        object.__setattr__(self, "boxes", tuple(clean))
        edges = sorted({0.0, self.horizon}.union(
            *(times for _, _, times in clean)))
        cells = tuple((lo, hi, self.slice_measure(0.5 * (lo + hi)))
                      for lo, hi in zip(edges[:-1], edges[1:]))
        # a plain loop, since sum() rounds differently across Pythons
        total = 0.0
        for lo, hi, area in cells:
            total += area * (hi - lo)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "measure", total)
        if self.measure <= 0:
            raise ConfigError("box union has zero measure")

    @classmethod
    def cylinder(cls, a: float, b: float, horizon: float) -> "BoxUnionSet":
        """One box: the full torus times the band (a, b), for all time."""
        return cls(boxes=(((0.0, TWO_PI), (a, b), (0.0, horizon)),),
                   band_a=a, band_b=b, horizon=horizon)

    def contains(self, theta: float, r: float, t: float) -> bool:
        """Membership by the grid_masks rule: open in r, half-open else."""
        for (h0, h1), (r0, r1), (t0, t1) in self.boxes:
            if h0 <= theta < h1 and r0 < r < r1 and t0 <= t < t1:
                return True
        return False

    def patch_measure(self) -> float:
        """Measure of the bounding patch: torus times the radial band."""
        return TWO_PI * (self.band_b - self.band_a)

    def slice_measure(self, t: float) -> float:
        """2D measure of the time slice D_t, exact by compression."""
        active = [((h0, h1), (r0, r1)) for (h0, h1), (r0, r1), (t0, t1)
                  in self.boxes if t0 <= t < t1]
        if not active:
            return 0.0
        th = sorted({e for (h0, h1), _ in active for e in (h0, h1)})
        rr = sorted({e for _, (r0, r1) in active for e in (r0, r1)})
        total = 0.0
        for i in range(len(th) - 1):
            hm = 0.5 * (th[i] + th[i + 1])
            for j in range(len(rr) - 1):
                rm = 0.5 * (rr[j] + rr[j + 1])
                if any(h0 <= hm < h1 and r0 <= rm < r1
                       for (h0, h1), (r0, r1) in active):
                    total += (th[i + 1] - th[i]) * (rr[j + 1] - rr[j])
        return total

    def grid_masks(self, model: Model, times) -> np.ndarray:
        """Indicators of D_t on the (theta node, radial node) grid.

        Returns an array of shape (len(times), theta_quad_points, n_r - 1).
        A grid point belongs to a box when t0 <= t < t1, h0 <= theta < h1
        and r0 < r < r1. The region's horizon must equal the model's, so a
        set built for one time slab is never read on another.
        """
        if self.horizon != model.config.T_horizon:
            raise ConfigError(
                f"region horizon {self.horizon} differs from the model "
                f"horizon {model.config.T_horizon}")
        times = np.asarray(times, dtype=float)
        theta = model.theta_nodes
        masks = np.zeros((times.size, theta.size, model.n_radial))
        for (h0, h1), (r0, r1), (t0, t1) in self.boxes:
            sel_t = (times >= t0) & (times < t1)
            sel_q = (theta >= h0) & (theta < h1)
            sel_r = model.grid.band(r0, r1)
            masks[np.ix_(sel_t, sel_q, sel_r)] = 1.0
        return masks

    def slice_mask(self, model: Model, t: float) -> np.ndarray:
        """Indicator of D_t on the (theta node, radial node) grid."""
        return self.grid_masks(model, [t])[0]


@dataclass(frozen=True)
class TimeSliceSet:
    """Times where the slice of a box union is at least half its average.

    intervals are stored merged and sorted, measure is their total length.
    """

    threshold: float
    intervals: tuple
    horizon: float
    measure: float = field(init=False)

    def __post_init__(self):
        intervals = _merge_intervals(self.intervals)
        object.__setattr__(self, "intervals", intervals)
        # a plain loop, since sum() rounds differently across Pythons
        total = 0.0
        for u, v in intervals:
            total += v - u
        object.__setattr__(self, "measure", total)
        for u, v in intervals:
            if not (-1e-12 <= u < v <= self.horizon + 1e-12):
                raise InvariantError("slice-set interval escapes (0, T)")

    def measure_within(self, lo: float, hi: float) -> float:
        return _intersect_measure(self.intervals, lo, hi)

    def contains(self, t: float) -> bool:
        return any(u <= t < v for u, v in self.intervals)


def build_time_slices(region: BoxUnionSet) -> TimeSliceSet:
    """The set E of times whose slice measure clears |D| / (2T).

    The slice is constant on each of the region's cells, so E is the exact
    finite union of the cells whose slice measure reaches the threshold.
    """
    threshold = region.measure / (2.0 * region.horizon)
    kept = [(lo, hi) for lo, hi, area in region.cells
            if area >= threshold - 1e-15]
    slices = TimeSliceSet(threshold=threshold, intervals=kept,
                          horizon=region.horizon)
    floor = region.measure / (2.0 * region.patch_measure())
    if slices.measure < floor - 1e-12:
        raise InvariantError(
            f"slice set measure {slices.measure:.6e} under the floor "
            f"{floor:.6e}")
    return slices


@dataclass(frozen=True)
class DensitySequence:
    """Geometric approach sequence to a density point of a time set.

    Consecutive gaps shrink by the exact factor q and every gap holds at
    least a third of its length inside the target set.
    """

    ell: float
    q: float
    values: tuple            # ell_1 > ell_2 > ... > ell_m_max > ell
    gap_fractions: tuple     # |E  cap  (ell_{m+1}, ell_m)| / gap, per gap

    def __post_init__(self):
        v = self.values
        if len(v) < 3:
            raise ConfigError("sequence needs at least three terms")
        scale = v[0] - self.ell
        for m in range(len(v) - 2):
            lhs = v[m + 1] - v[m + 2]
            rhs = self.q * (v[m] - v[m + 1])
            if abs(lhs - rhs) > 1e-12 * scale:
                raise InvariantError("geometric gap identity violated")
        for frac in self.gap_fractions:
            if frac < 1.0 / 3.0 - 1e-12:
                raise InvariantError("a gap holds less than a third of the set")


def density_sequence(slices: TimeSliceSet, ell: float, q: float,
                     m_max: int = 32) -> DensitySequence:
    """Largest geometric sequence toward ell whose gaps all meet the set.

    The first term is ell + A/(1-q); bisection finds the largest gap
    scale A, capped at 0.8 (T - ell)(1 - q), for which every consecutive
    gap keeps at least a third of its length inside the set. Failure to
    find any feasible A means ell is not a density point at this
    resolution. So does a sequence whose last two terms round to ell even
    at the capped scale; that is decided before any array is built.
    """
    if not (0.0 < ell < slices.horizon):
        raise ConfigError("target point must be interior to the horizon")
    if not (0.0 < q < 1.0):
        raise ConfigError("ratio q must lie in (0, 1)")
    if m_max < 3:
        raise ConfigError("need at least three terms")

    def build(a_gap):
        return ell + (a_gap / (1.0 - q)) * q ** np.arange(m_max)

    def feasible(a_gap):
        # no slack here: a tolerance would pass rounding-level gaps
        # vacuously once gap/3 drops below it, turning targets far from
        # the set into spurious successes; the returned sequence is a
        # point where this exact criterion held, so downstream checks
        # with any cushion hold a fortiori
        vals = build(a_gap)
        if not np.all(np.diff(vals) < 0):
            return False
        for m in range(m_max - 1):
            gap = vals[m] - vals[m + 1]
            if slices.measure_within(vals[m + 1], vals[m]) < gap / 3.0:
                return False
        return True

    a_cap = 0.8 * (slices.horizon - ell) * (1.0 - q)
    # a_cap/(1-q) q^(m_max-2) < spacing(ell)/4, in logs so that q^(m_max-2)
    # cannot underflow; past 1e300 the clamped exponent changes nothing
    log_tail = (math.log(a_cap / (1.0 - q))
                + min(m_max - 2, 1e300) * math.log(q))
    if log_tail < math.log(np.spacing(ell) / 4.0):
        raise NonConvergenceError(
            f"no feasible gap scale: with m_max = {m_max} the last terms "
            "round to the target even at the capped gap scale")
    a_feas = None
    a_bad = None
    scale = 1.0
    for _ in range(200):
        trial = a_cap * scale
        if feasible(trial):
            a_feas = trial
            break
        a_bad = trial
        scale *= 0.5
    if a_feas is None:
        raise NonConvergenceError(
            "no feasible gap scale: the target is not a density point of "
            "the set at this resolution")
    if a_bad is not None:
        for _ in range(60):
            mid = 0.5 * (a_feas + a_bad)
            if feasible(mid):
                a_feas = mid
            else:
                a_bad = mid
    vals = build(a_feas)
    fracs = []
    for m in range(m_max - 1):
        gap = vals[m] - vals[m + 1]
        fracs.append(slices.measure_within(vals[m + 1], vals[m]) / gap)
    return DensitySequence(ell=float(ell), q=float(q),
                           values=tuple(float(x) for x in vals),
                           gap_fractions=tuple(fracs))


def choose_q(c_const: float, h_exp: float) -> float:
    """Contraction ratio ((C + 1 - h)/(C + 1))^(1/8) of the telescoping step."""
    if c_const < 1.0:
        raise ConfigError("calibration constant must be >= 1")
    if not (0.0 < h_exp < 1.0):
        raise ConfigError("interpolation exponent must lie in (0, 1)")
    return ((c_const + 1.0 - h_exp) / (c_const + 1.0)) ** 0.125


def density_point_of(slices: TimeSliceSet) -> float:
    """Midpoint of the largest maximal interval of the set."""
    best = max(slices.intervals, key=lambda iv: iv[1] - iv[0])
    return 0.5 * (best[0] + best[1])


# times per product in _observed_l1; one product holds this many
# (modes, n_r - 1) coefficient blocks and (theta_quad_points, n_r - 1)
# fields, so its memory does not grow with n_quad
_FIELD_CHUNK = 64
_TINY = np.finfo(float).tiny


def _eigen_fields(model: Model, coeffs) -> np.ndarray:
    """Grid fields of (n_modes, k) eigen-coefficient blocks, or a stack of
    them; ConfigError when a field is not finite."""
    fields = model.basis_matrix @ (coeffs @ model.spectrum.vectors.T)
    if not np.all(np.isfinite(fields)):
        raise ConfigError("field contains non-finite entries")
    return fields


class SpectralPropagator:
    """Exact-in-time free evolution of one datum on the discrete eigenbasis.

    Expands the datum mode by mode in Model.spectrum, the complete radial
    eigenbasis; snapshots, norms, and time derivatives then come from
    scalar exponentials with the rates Model.mu, with no marching error.

    Coefficients of magnitude below the smallest normal float are set to
    zero. A flushed term c_k v_jk is under half an ulp of any partial sum
    above 2^53 tiny |v_jk| (about 2e-292 |v_jk|), and the low modes, of
    size about e^(-lam_1 t), come first in every sum, so sums and norms
    keep every bit; the products just never run on subnormal operands,
    which cost several times the normal rate.
    """

    def __init__(self, phi0: ModeCoeffs):
        model = phi0.model
        self.model = model
        weighted = model.grid.mass[None, :] * phi0.data
        self.coeffs = weighted @ model.spectrum.vectors    # (modes, k)
        self.norm0 = float(np.sqrt(np.sum(self.coeffs ** 2)))

    def coeff_at(self, t, order: int = 0) -> np.ndarray:
        """Eigen-coefficients at time t, or stacked over a 1-D array of times."""
        t = np.asarray(t, dtype=float)
        mu = self.model.mu
        damp = self.coeffs * np.exp(-mu * t[..., None, None])
        if order:
            damp = damp * (-mu) ** order
        damp[np.abs(damp) < _TINY] = 0.0
        return damp

    def data_at(self, t, order: int = 0) -> np.ndarray:
        return self.coeff_at(t, order) @ self.model.spectrum.vectors.T

    def norm_at(self, t: float, order: int = 0) -> float:
        return float(np.sqrt(np.sum(self.coeff_at(t, order) ** 2)))

    def field_at(self, t) -> np.ndarray:
        """Grid field at time t, or the stacked fields at a 1-D array of times.

        The fields come from coeff_at, so sub-normal coefficients are
        already zero and the products run at the normal rate. All times
        go through one product: a call with n times holds coefficients,
        nodal data and fields, about n (2 modes + theta_quad_points)
        (n_r - 1) floats, 2 MB for the 64 times of one _observed_l1 chunk
        at n_theta_max 4, n_r 96. Raises ConfigError when a field is not
        finite.
        """
        return _eigen_fields(self.model, self.coeff_at(t))


@dataclass(frozen=True)
class ExtendedField:
    """Analytic extension of a snapshot in the auxiliary variable.

    Keeps the cap lowest 2D eigenmodes; each carries the closed-form
    factor exp(-mu t + sqrt(mu) tau). The construction validates that the
    tau = 0 slice reproduces the untruncated snapshot and that the
    extension satisfies the defining elliptic identity under a centered
    difference in tau.
    """

    t: float
    samples: np.ndarray          # (n_tau, theta_quad, n_r - 1)
    mu: np.ndarray               # kept 2D eigenvalues, flat
    amplitudes: np.ndarray       # kept coefficients of the datum, flat
    snapshot_gap: float
    elliptic_residual: float

    def norm_at_tau(self, tau: float) -> float:
        vals = self.amplitudes * np.exp(-self.mu * self.t
                                        + np.sqrt(self.mu) * tau)
        return float(np.sqrt(np.sum(vals ** 2)))

    def residual_ratio(self, d_tau: float, tau: float) -> float:
        """Relative elliptic defect of a width-d_tau centered tau stencil.

        The stencil applied to exp(sqrt(mu) tau) multiplies it by
        4 sinh^2(sqrt(mu) d_tau / 2) / d_tau^2; writing the defect as
        mu ((sinh y / y)^2 - 1) avoids the cancellation that the raw
        cosh form suffers at small widths.
        """
        root = np.sqrt(self.mu)
        vals = self.amplitudes * np.exp(-self.mu * self.t + root * tau)
        y = 0.5 * root * d_tau     # positive: mu >= lam_1 > 0 and d_tau > 0
        sinc = np.sinh(y) / y
        defect = self.mu * (sinc ** 2 - 1.0)
        num = math.sqrt(float(np.sum((vals * defect) ** 2)))
        den = math.sqrt(float(np.sum(vals ** 2)))
        return num / den if den > 0 else 0.0


def extended_field(phi0: ModeCoeffs, t: float, tau_grid,
                   cap: int) -> ExtendedField:
    """Evaluate the auxiliary-variable extension on the lowest cap modes."""
    if t <= 0:
        raise ConfigError("extension requires a positive time")
    model = phi0.model
    prop = SpectralPropagator(phi0)
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid.ndim != 1 or tau_grid.size == 0:
        raise ConfigError("tau grid must be a non-empty 1D array")
    n_modes, n_rad = model.mu.shape
    total = model.mu.size
    if not (1 <= cap <= total):
        raise ConfigError(f"cap must lie in 1..{total}")
    keep = model.mu_order[:cap]
    mu = model.mu.ravel()[keep]
    amps = prop.coeffs.ravel()[keep]
    tau_max = float(np.max(np.abs(tau_grid)))
    if math.sqrt(float(np.max(mu))) * tau_max > 700.0:
        raise ConfigError(
            "tau range too large: sqrt(mu_max) * tau_max must stay <= 700")

    # all tau in one product
    coeffs = np.zeros((tau_grid.size, total))
    coeffs[:, keep] = amps * np.exp(-mu * t + np.sqrt(mu) * tau_grid[:, None])
    samples = _eigen_fields(model, coeffs.reshape(-1, n_modes, n_rad))

    full = prop.coeff_at(t)
    capped = np.zeros(total)
    capped[keep] = amps * np.exp(-mu * t)
    gap_vec = full.ravel() - capped
    denom = math.sqrt(float(np.sum(full ** 2)))
    snapshot_gap = (math.sqrt(float(np.sum(gap_vec ** 2))) / denom
                    if denom > 0 else 0.0)
    if snapshot_gap > 1e-9:
        raise InvariantError(
            f"tau=0 slice misses the snapshot by {snapshot_gap:.3e}; "
            "raise the cap or the time")

    mu_max = float(np.max(mu))
    d_tau = math.sqrt(1.2e-7) / max(mu_max, 1.0)
    ext = ExtendedField(t=float(t), samples=_frozen(samples), mu=_frozen(mu),
                        amplitudes=_frozen(amps), snapshot_gap=snapshot_gap,
                        elliptic_residual=0.0)
    worst = 0.0
    for tau in tau_grid:
        worst = max(worst, ext.residual_ratio(d_tau, float(tau)))
    if worst > 1e-6:
        raise InvariantError(
            f"elliptic residual {worst:.3e} exceeds 1e-6 at stencil "
            f"width {d_tau:.3e}")
    return replace(ext, elliptic_residual=worst)


@dataclass(frozen=True)
class DerivativeBoundReport:
    """Time-derivative growth of one trajectory against the calculus bound."""

    t: float
    orders: tuple
    discrete_max: tuple      # max_n mu_n^(2l) exp(-mu_n t) over the spectrum
    calculus_bound: tuple    # (2/t)^(2l) (l/e)^(2l), and 1.0 at l = 0
    factorial_ratio: tuple   # ||d_t^l phi|| (t/2)^l / (l! ||phi0||)
    capped: bool


def derivative_bound_report(phi0: ModeCoeffs, t: float,
                            l_max: int) -> DerivativeBoundReport:
    """Check max mu^(2l) e^(-mu t) against its calculus envelope.

    All spectral sums run in log space, so large orders degrade to zeros
    rather than overflow; l_max is clipped at 200 when asked for more.
    """
    if t <= 0:
        raise ConfigError("derivative bounds need a positive time")
    if l_max < 0:
        raise ConfigError("l_max must be >= 0")
    capped = l_max > 200
    l_max = min(l_max, 200)
    prop = SpectralPropagator(phi0)
    mu = phi0.model.mu.ravel()
    log_mu = np.log(mu)
    coeffs2 = prop.coeffs.ravel() ** 2
    norm0 = prop.norm0

    orders, d_max, bound, ratios = [], [], [], []
    for l in range(l_max + 1):
        orders.append(l)
        log_dmax = float(np.max(2 * l * log_mu - mu * t))
        if l == 0:
            log_bound = 0.0
        else:
            log_bound = 2 * l * (math.log(2.0 / t) + math.log(l) - 1.0)
        # compare before exponentiating; past order ~70 both sides leave
        # float range and the stored fields saturate to inf
        if log_dmax > log_bound + math.log1p(1e-12):
            raise InvariantError(
                f"discrete spectrum beats the calculus bound at order {l}")
        d_max.append(math.exp(log_dmax) if log_dmax < 709.0 else math.inf)
        bound.append(math.exp(log_bound) if log_bound < 709.0 else math.inf)
        if norm0 == 0.0:
            ratios.append(0.0)
            continue
        # ||d_t^l phi||^2 = sum c^2 mu^(2l) e^(-2 mu t), in log space
        log_terms = np.where(coeffs2 > 0,
                             np.log(np.where(coeffs2 > 0, coeffs2, 1.0))
                             + 2 * l * log_mu - 2 * mu * t, -np.inf)
        peak = float(np.max(log_terms))
        if peak == -math.inf:
            ratios.append(0.0)
            continue
        log_norm = 0.5 * (peak + math.log(float(np.sum(
            np.exp(log_terms - peak)))))
        log_ratio = (log_norm + l * math.log(t / 2.0)
                     - math.lgamma(l + 1) - math.log(norm0))
        ratios.append(float(math.exp(log_ratio)))
    return DerivativeBoundReport(
        t=float(t), orders=tuple(orders), discrete_max=tuple(d_max),
        calculus_bound=tuple(bound), factorial_ratio=tuple(ratios),
        capped=capped)


@dataclass(frozen=True)
class SlabReport:
    """Two-time interpolation data: the observed L1 mass and the exponent."""

    observed: float
    h_emp: float
    degenerate: bool


def _check_n_quad(n_quad: int):
    if n_quad < 1:
        raise ConfigError(f"n_quad must be >= 1, got {n_quad}")
    check_index_range("n_quad", (n_quad,))


def _slice_weights(model: Model, region: BoxUnionSet, pieces,
                   n_quad: int) -> list:
    """(times, width, weight) of every piece whose slice meets the grid.

    The times are the piece's n_quad midpoint nodes, width their spacing,
    and weight the slice indicator times the quadrature cell; none of them
    depends on the datum, so a family builds them once.
    """
    cell = model.theta_weight * model.grid.mass[None, :]
    out = []
    for lo, hi in pieces:
        mask = region.slice_mask(model, 0.5 * (lo + hi))
        if not mask.any():
            continue
        width = (hi - lo) / n_quad
        out.append((lo + (np.arange(n_quad) + 0.5) * width, width,
                    mask * cell))
    return out


def _observed_l1(prop: SpectralPropagator, weights) -> float:
    """Integral over time pieces of the L1 norm of the field on D_t.

    Up to _FIELD_CHUNK nodes share one field product; the per-node values
    are added in node order, as a node-by-node loop would add them.
    """
    total = 0.0
    for times, width, weight in weights:
        for start in range(0, times.size, _FIELD_CHUNK):
            fields = prop.field_at(times[start:start + _FIELD_CHUNK])
            for value in np.sum(np.abs(fields) * weight, axis=(1, 2)):
                total += width * float(value)
    return total


def _pieces_within(region: BoxUnionSet, intervals):
    """Split intervals at the region's cell edges so slices are constant."""
    edges = [lo for lo, _, _ in region.cells] + [region.cells[-1][1]]
    pieces = []
    for u, v in intervals:
        cuts = [u] + [e for e in edges if u < e < v] + [v]
        pieces.extend((a, b) for a, b in zip(cuts[:-1], cuts[1:]) if b > a)
    return pieces


def slab_interpolation_report(phi0: ModeCoeffs, t1: float, t2: float,
                              slices: TimeSliceSet, region: BoxUnionSet,
                              k_calib: float = 1.0, eta: float = 0.05,
                              n_quad: int = 32) -> SlabReport:
    """Empirical interpolation exponent between two time levels.

    Solves N2 = Obs^h * (e^(K/(t2-t1)^8) N1)^(1-h) for h, where Obs is
    the time integral over the kept set of the L1 norm of the solution on
    the slices. Vanishing Obs or N1 yields a degenerate report instead of
    an exponent.
    """
    if not (0.0 <= t1 < t2 <= region.horizon + 1e-12):
        raise ConfigError("need 0 <= t1 < t2 <= horizon")
    _check_n_quad(n_quad)
    for u, v in slices.intervals:
        if u < t1 - 1e-12 or v > t2 + 1e-12:
            raise ConfigError("kept time set must sit inside (t1, t2)")
    if slices.measure < eta * (t2 - t1) - 1e-12:
        raise ConfigError(
            f"kept set too thin: measure {slices.measure:.3e} under "
            f"eta (t2 - t1) = {eta * (t2 - t1):.3e}")
    prop = SpectralPropagator(phi0)
    n1 = prop.norm_at(t1)
    n2 = prop.norm_at(t2)
    observed = _observed_l1(prop, _slice_weights(
        phi0.model, region, _pieces_within(region, slices.intervals), n_quad))
    if observed <= 0.0 or n1 <= 0.0:
        return SlabReport(observed=observed, h_emp=float("nan"),
                          degenerate=True)
    log_b = k_calib / (t2 - t1) ** 8 + math.log(n1)
    h_emp = (math.log(n2) - log_b) / (math.log(observed) - log_b)
    return SlabReport(observed=observed, h_emp=float(h_emp), degenerate=False)


@dataclass(frozen=True)
class DatumRecord:
    """One family member's end-to-end observability ratio."""

    index: int
    rho: float
    terminal_norm: float
    observed_l1: float
    excluded: bool


@dataclass(frozen=True)
class MeasurableReport:
    """Executable shadow of the measurable-set observability argument."""

    region_measure: float
    slice_threshold: float
    e_intervals: tuple
    e_measure: float
    ell: float
    q: float
    sequence: tuple          # approach values, empty when the search failed
    sequence_note: str
    rho_max: float
    per_datum: tuple


def datum_family(model: Model, count: int, seed: int) -> tuple:
    """Unit-norm data: the lowest pure eigenmodes, then seeded noise."""
    if count < 1:
        raise ConfigError("family needs at least one datum")
    check_index_range("family_size", (count, model.n_modes, model.n_radial))
    rng = np.random.default_rng(seed)
    out = []
    n_low = min(count // 2 + 1, 6)
    spectrum = model.spectrum
    for idx in model.mu_order[:n_low]:
        data = np.zeros((model.n_modes, model.n_radial))
        data[idx // model.n_radial] = spectrum.vectors[:, idx % model.n_radial]
        out.append(ModeCoeffs(model, data))
    mass = model.grid.mass
    while len(out) < count:
        data = rng.standard_normal((model.n_modes, model.n_radial))
        nrm = math.sqrt(float(np.sum(mass[None, :] * data ** 2)))
        out.append(ModeCoeffs(model, data / nrm))
    return tuple(out)


def measurable_observability_ratio(family, region: BoxUnionSet,
                                   c_calib: float = 1.0, h_calib: float = 0.5,
                                   m_max: int = 32,
                                   n_quad: int = 16) -> MeasurableReport:
    """Worst terminal-energy to observed-L1 ratio over a datum family.

    Runs the full reduction chain for the record: thresholded time set,
    density point at the midpoint of its largest interval, contraction
    ratio from the calibration constants, geometric approach sequence.
    Data whose observed mass underflows are excluded and logged, never
    silently divided. The data must share one Model object.
    """
    if not family:
        raise ConfigError("family needs at least one datum")
    model = family[0].model
    if any(phi0.model is not model for phi0 in family):
        raise ConfigError("family data belong to different models")
    _check_n_quad(n_quad)
    slices = build_time_slices(region)
    ell = density_point_of(slices)
    q = choose_q(c_calib, h_calib)
    try:
        seq = density_sequence(slices, ell, q, m_max)
        seq_values = seq.values
        note = "ok"
    except NonConvergenceError as exc:
        seq_values = ()
        note = str(exc)
    weights = _slice_weights(
        model, region, _pieces_within(region, [(0.0, region.horizon)]), n_quad)
    horizon = region.horizon

    def run(idx, phi0):
        prop = SpectralPropagator(phi0)
        terminal = prop.norm_at(horizon)
        observed = _observed_l1(prop, weights)
        if observed < 1e-300:
            return DatumRecord(index=idx, rho=float("nan"),
                               terminal_norm=terminal, observed_l1=observed,
                               excluded=True)
        return DatumRecord(index=idx, rho=terminal / observed,
                           terminal_norm=terminal, observed_l1=observed,
                           excluded=False)

    records = [run(idx, phi0) for idx, phi0 in enumerate(family)]
    usable = [r.rho for r in records if not r.excluded]
    rho_max = max(usable) if usable else float("nan")
    return MeasurableReport(
        region_measure=region.measure, slice_threshold=slices.threshold,
        e_intervals=slices.intervals, e_measure=slices.measure,
        ell=ell, q=q, sequence=seq_values, sequence_note=note,
        rho_max=rho_max, per_datum=tuple(records))
