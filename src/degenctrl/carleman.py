"""Carleman weight system and empirical evaluation of the weighted estimate.

The spatial weight eta is glued from three branches: r^(2-alpha) near the
degenerate end, (1-r) r^(-alpha) near the outer end, and a degree-7
Hermite bridge over the middle third of the observation window that
matches value and three derivatives at both junctions, giving a C^3 weight
positive on the interior. The singular-in-time factor is

    Theta(t) = 1 / (t (T - t))^4,

whose first two derivatives obey the closed-form bounds checked by
verify_theta_bounds. The full weight is xi(r,t) = Theta(t) (gamma - eta(r))
with gamma = max eta + 1, so gamma - eta >= 1 everywhere and xi blows up
at both time endpoints.

Reports integrate the two sides of the weighted energy estimate for a
computed trajectory. The factor exp(-2 s xi) underflows double precision
for any realistic s, so every integral is evaluated against the shifted
weight exp(-2 s (xi - xi_min)) and the common shift is recorded as
log_scale = 2 s xi_min per row; ratios of the reported quantities equal
ratios of the true ones exactly.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import ConfigError, InvariantError
from .evolution import TimeGrid
from .model import ModeIndex, RadialGrid


def _left_eta(alpha, r):
    return r ** (2.0 - alpha)


def _left_eta_derivs(alpha, r):
    one = (2.0 - alpha) * r ** (1.0 - alpha)
    two = (2.0 - alpha) * (1.0 - alpha) * r ** (-alpha)
    three = -alpha * (2.0 - alpha) * (1.0 - alpha) * r ** (-alpha - 1.0)
    return one, two, three


def _right_eta(alpha, r):
    return (1.0 - r) * r ** (-alpha)


def _right_eta_derivs(alpha, r):
    one = -alpha * r ** (-alpha - 1.0) - (1.0 - alpha) * r ** (-alpha)
    two = alpha * (alpha + 1.0) * r ** (-alpha - 2.0) \
        + alpha * (1.0 - alpha) * r ** (-alpha - 1.0)
    three = -alpha * (alpha + 1.0) * (alpha + 2.0) * r ** (-alpha - 3.0) \
        - alpha * (1.0 - alpha) * (alpha + 1.0) * r ** (-alpha - 2.0)
    return one, two, three


def _hermite_coeffs(values_left, values_right, extra_knot=None):
    """Polynomial matching value and three derivatives at x=0 and x=1.

    Rows impose P^(d)(0) and P^(d)(1) for d = 0..3 in the monomial basis;
    an optional extra interior value condition raises the degree by one.
    """
    degree = 7 if extra_knot is None else 8
    ncoef = degree + 1
    rows, rhs = [], []
    for d, v in enumerate(values_left):
        row = np.zeros(ncoef)
        row[d] = math.factorial(d)
        rows.append(row)
        rhs.append(v)
    for d, v in enumerate(values_right):
        row = np.zeros(ncoef)
        for pw in range(d, ncoef):
            row[pw] = math.perm(pw, d)
        rows.append(row)
        rhs.append(v)
    if extra_knot is not None:
        x0, v0 = extra_knot
        rows.append(np.array([x0 ** pw for pw in range(ncoef)]))
        rhs.append(v0)
    return np.linalg.solve(np.array(rows), np.array(rhs))


@dataclass(frozen=True)
class EtaWeight:
    """Piecewise spatial weight with C^3 junctions at p and q_hat."""

    alpha: float
    a: float
    b: float
    p: float
    q_hat: float
    middle_coeffs: np.ndarray   # monomials in x = (r - p)/(q_hat - p)
    sup_norm: float
    used_fallback_knot: bool

    @property
    def _scale(self) -> float:
        return self.q_hat - self.p

    def _middle(self, x, order=0):
        c = np.polynomial.polynomial.polyder(self.middle_coeffs, order) \
            if order else self.middle_coeffs
        return np.polynomial.polynomial.polyval(x, c) / self._scale ** order

    def _branches(self, r, order):
        """eta (order 0) or its order-th derivative, branch by branch."""
        r = np.asarray(r, dtype=float)
        out = np.empty_like(r)
        left = r <= self.p
        right = r >= self.q_hat
        mid = ~(left | right)
        if order:
            out[left] = _left_eta_derivs(self.alpha, r[left])[order - 1]
            out[right] = _right_eta_derivs(self.alpha, r[right])[order - 1]
        else:
            out[left] = _left_eta(self.alpha, r[left])
            out[right] = _right_eta(self.alpha, r[right])
        out[mid] = self._middle((r[mid] - self.p) / self._scale, order)
        return out

    def value(self, r):
        return self._branches(r, 0)

    def derivative(self, r, order):
        if order not in (1, 2, 3):
            raise ConfigError("derivative order must be 1, 2 or 3")
        return self._branches(r, order)


def _middle_extrema(coeffs, scale):
    """Values of the bridge polynomial at interior critical points."""
    der = np.polynomial.polynomial.polyder(coeffs)
    roots = np.polynomial.polynomial.polyroots(der)
    vals = []
    for root in roots:
        if abs(root.imag) < 1e-12 and 0.0 < root.real < 1.0:
            vals.append(float(np.polynomial.polynomial.polyval(root.real, coeffs)))
    return vals


def build_eta(alpha: float, a: float, b: float) -> EtaWeight:
    """Construct the three-branch weight for an observation window (a,b).

    Junctions sit at the thirds p = (2a+b)/3 and q_hat = (a+2b)/3.
    Positivity of the bridge is verified on 10^4 samples plus its exact
    critical points; if it fails, the bridge is re-interpolated with one
    extra mid-knot lifted to the larger junction value and re-verified.
    """
    if not (0.0 < a < b <= 1.0):
        raise ConfigError(f"need 0 < a < b <= 1, got a={a!r}, b={b!r}")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha out of range (0,1): {alpha!r}")
    p = (2.0 * a + b) / 3.0
    q_hat = (a + 2.0 * b) / 3.0
    scale = q_hat - p

    lv = _left_eta(alpha, p)
    l1, l2, l3 = _left_eta_derivs(alpha, p)
    rv = _right_eta(alpha, q_hat)
    r1, r2, r3 = _right_eta_derivs(alpha, q_hat)
    left_cond = (lv, scale * l1, scale ** 2 * l2, scale ** 3 * l3)
    right_cond = (rv, scale * r1, scale ** 2 * r2, scale ** 3 * r3)

    coeffs = _hermite_coeffs(left_cond, right_cond)
    used_fallback = False

    def bridge_min(c):
        xs = np.linspace(0.0, 1.0, 10001)
        sampled = float(np.min(np.polynomial.polynomial.polyval(xs, c)))
        crit = _middle_extrema(c, scale)
        return min([sampled] + crit) if crit else sampled

    if bridge_min(coeffs) <= 0.0:
        lift = max(lv, rv)
        coeffs = _hermite_coeffs(left_cond, right_cond, extra_knot=(0.5, lift))
        used_fallback = True
        if bridge_min(coeffs) <= 0.0:
            raise InvariantError(
                "bridge positivity unachievable for this (alpha, a, b)")

    crit_vals = _middle_extrema(coeffs, scale)
    ends = [lv, rv, float(np.polynomial.polynomial.polyval(0.0, coeffs)),
            float(np.polynomial.polynomial.polyval(1.0, coeffs))]
    sup = max(ends + crit_vals)

    sealed = np.ascontiguousarray(coeffs)
    sealed.flags.writeable = False
    return EtaWeight(alpha=alpha, a=a, b=b, p=p, q_hat=q_hat,
                     middle_coeffs=sealed, sup_norm=float(sup),
                     used_fallback_knot=used_fallback)


def theta_weight(t, T):
    """Quartic time singularity 1 / (t (T - t))^4 on the open interval."""
    t = np.asarray(t, dtype=float)
    return (t * (T - t)) ** -4.0


def theta_weight_d1(t, T):
    t = np.asarray(t, dtype=float)
    return -4.0 * theta_weight(t, T) ** 1.25 * (T - 2.0 * t)


def theta_weight_d2(t, T):
    t = np.asarray(t, dtype=float)
    th = theta_weight(t, T)
    return 20.0 * th ** 1.5 * (T - 2.0 * t) ** 2 + 8.0 * th ** 1.25


@dataclass(frozen=True)
class CarlemanWeights:
    """Time singularity Theta and the combined weight xi for one horizon."""

    eta: EtaWeight
    gamma: float
    T: float
    s: float

    def theta(self, t):
        return theta_weight(t, self.T)

    def xi(self, r, t):
        """Combined weight on a tensor of radii and times, shape (nt, nr)."""
        gap = self.gamma - self.eta.value(np.asarray(r, dtype=float))
        return np.multiply.outer(self.theta(t), gap)


def build_carleman_weights(eta: EtaWeight, T: float, s: float) -> CarlemanWeights:
    if s < 1.0:
        raise ConfigError(f"s must be at least 1, got {s!r}")
    if T <= 0.0:
        raise ConfigError(f"T must be positive, got {T!r}")
    gamma = eta.sup_norm + 1.0
    return CarlemanWeights(eta=eta, gamma=gamma, T=T, s=s)


def s0_default(T: float) -> float:
    """Default lower threshold for the weight strength parameter."""
    return 10.0 * max(1.0, T ** 16)


@dataclass(frozen=True)
class ThetaBoundReport:
    """Worst-case slack of the two derivative bounds over a time grid."""

    T: float
    max_first_ratio: float    # |Theta'| / (12 T Theta^(5/4))
    max_second_ratio: float   # |Theta''| / (196 T^2 Theta^(3/2))
    ok: bool


def verify_theta_bounds(T: float, times: np.ndarray) -> ThetaBoundReport:
    """Check both derivative bounds at interior time nodes."""
    times = np.asarray(times, dtype=float)
    interior = times[(times > 0.0) & (times < T)]
    if interior.size == 0:
        raise ConfigError("no interior time nodes supplied")
    th = theta_weight(interior, T)
    first = np.abs(theta_weight_d1(interior, T)) / (12.0 * T * th ** 1.25)
    second = np.abs(theta_weight_d2(interior, T)) / (196.0 * T ** 2 * th ** 1.5)
    ok = bool(np.max(first) <= 1.0 + 1e-12 and np.max(second) <= 1.0 + 1e-12)
    return ThetaBoundReport(T=T, max_first_ratio=float(np.max(first)),
                            max_second_ratio=float(np.max(second)), ok=ok)


@dataclass(frozen=True)
class CarlemanRow:
    """One (s, mode) evaluation of both sides of the weighted estimate.

    All integral fields carry the common factor exp(log_scale) relative to
    their true values; the ratio field is scale free.
    """

    s: float
    parity: str
    n: int
    lhs_grad: float
    lhs_zero: float
    rhs_f: float
    rhs_obs: float
    ratio: float
    log_scale: float
    below_s0: bool


@dataclass(frozen=True)
class CarlemanReport:
    rows: tuple
    a: float
    b: float
    T: float


def carleman_report(mode: ModeIndex, states: np.ndarray, tgrid: TimeGrid,
                    sources, eta: EtaWeight, grid: RadialGrid,
                    s_values) -> CarlemanReport:
    """Evaluate both sides of the weighted estimate for one mode's march.

    states holds the mode's radial vector at every node of tgrid, shape
    (n_time + 1, n_r - 1), as evolution.evolve_mode returns it; sources
    holds its half-step rows, shape (n_time, n_r - 1), or is None.

    The quadrature is the tensor of the radial midpoint rule with the
    trapezoid rule over interior time nodes; both time endpoints are
    excluded, where the weight vanishes to all orders anyway. The radial
    derivative uses centered differences with the Dirichlet end values.
    """
    T = tgrid.T
    nt = tgrid.n_time
    times = tgrid.nodes[1:-1]
    dt = tgrid.dt
    twt = np.full(times.size, dt)
    twt[0] *= 0.5
    twt[-1] *= 0.5

    r = grid.nodes
    mass = grid.mass
    if np.shape(states) != (nt + 1, r.size):
        raise ConfigError("states must hold one radial row per time node")
    states = states[1:-1]   # interior time rows

    if sources is None:
        node_sources = np.zeros_like(states)
    else:
        sources = np.asarray(sources, dtype=float)
        if sources.shape != (nt, r.size):
            raise ConfigError("source rows must match the half-step layout")
        node_sources = 0.5 * (sources[:-1] + sources[1:])

    padded = np.zeros((states.shape[0], r.size + 2))
    padded[:, 1:-1] = states
    full_nodes = np.concatenate(([0.0], r, [1.0]))
    span = full_nodes[2:] - full_nodes[:-2]
    dstates = (padded[:, 2:] - padded[:, :-2]) / span[None, :]

    s0 = s0_default(T)
    window = grid.band(eta.a, eta.b)
    w_nodes = r ** eta.alpha
    zero_weight = r ** (2.0 - eta.alpha)

    rows = []
    for s in s_values:
        s = float(s)
        weights = build_carleman_weights(eta, T, s)
        try:
            s_cubed = s ** 3
        except OverflowError:
            raise ConfigError(f"s = {s!r} is too large: s^3 overflows") from None
        xi = weights.xi(r, times)
        xi_min = float(np.min(xi))
        damp = np.exp(-2.0 * s * (xi - xi_min))
        theta = weights.theta(times)[:, None]

        def integrate(values):
            return float(np.sum(twt[:, None] * values * mass[None, :]))

        lhs_grad = s * integrate(theta * w_nodes[None, :] * dstates ** 2 * damp)
        lhs_zero = s_cubed * integrate(
            theta ** 3 * zero_weight[None, :] * states ** 2 * damp)
        rhs_f = integrate(node_sources ** 2 * damp)
        rhs_obs = s_cubed * integrate(
            theta ** 3 * np.where(window[None, :], states ** 2, 0.0) * damp)
        denom = rhs_f + rhs_obs
        ratio = (lhs_grad + lhs_zero) / denom if denom > 0.0 else float("inf")
        for quantity in (lhs_grad, lhs_zero, rhs_f, rhs_obs):
            if quantity == math.inf:
                raise ConfigError(
                    f"s = {s!r} is too large: a weighted integral overflows")
            if not (quantity >= 0.0 and np.isfinite(quantity)):
                raise InvariantError("weighted integral not finite and non-negative")
        rows.append(CarlemanRow(
            s=s, parity=mode.parity, n=mode.n,
            lhs_grad=lhs_grad, lhs_zero=lhs_zero, rhs_f=rhs_f, rhs_obs=rhs_obs,
            ratio=ratio, log_scale=2.0 * s * xi_min,
            below_s0=bool(s < s0)))
    return CarlemanReport(rows=tuple(rows), a=eta.a, b=eta.b, T=T)
