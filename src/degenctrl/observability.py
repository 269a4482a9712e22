"""Quantitative observability constants on truncated mode subspaces.

Three estimators live here.

* The smallest eigenvalue of the Gram matrix of the torus basis restricted
  to an angular interval. It decays like exp(-c K) in the frequency cap K,
  crossing below double precision around K = 5 for unit-length intervals,
  so entries and eigensolve run in adaptive arbitrary precision; the decay
  rate -log(lambda_min)/K is the quantity of interest and stays bounded.
  Re-centred on (-w, w), the interval's Gram splits into a cosine and a
  sine block with the same spectrum as a whole; each block is solved
  for eigenvalues only.

* Per-mode observability constants: the worst ratio of terminal energy to
  the space-time observation of the free flow over a radial band (a,b),
  computed exactly on the radial eigenbasis because the time integrals of
  products of decaying exponentials have closed forms. The result is the
  largest eigenvalue of a small generalized symmetric problem.

* Truncated-subspace constants with both angular parities up to a cap
  2^j. A full-torus patch decouples into per-mode blocks; a proper
  angular interval couples the blocks through the angular Gram and the
  assembled problem inherits its catastrophic conditioning, so that path
  escalates to arbitrary precision when double-precision Cholesky fails.
  There the constant is the largest eigenvalue of W W^T, W = L^-1
  diag(sqrt(a)), found without eigenvectors; the extremizer comes from
  inverse iteration on the shifted pencil.
"""

from dataclasses import dataclass
import math

import numpy as np
import mpmath as mp
from scipy.linalg import eigh

from .errors import ConfigError, InvariantError, NonConvergenceError
from .model import Model, mode_set
from .spectral import RadialSpectrum

TWO_PI = 2.0 * math.pi
_INVERSE_ITERATIONS = 8


def _trig_product_integral(kind1, n1, kind2, n2, c, d, lib):
    """Integral over (c,d) of the product of two raw trig basis factors."""
    sin, cos = lib.sin, lib.cos

    def s_diff(k):
        return sin(k * d) - sin(k * c)

    def c_diff(k):
        return cos(k * d) - cos(k * c)

    if kind1 == "sin" and kind2 == "cos":
        kind1, n1, kind2, n2 = kind2, n2, kind1, n1

    if kind1 == "cos" and kind2 == "cos":
        if n1 == 0 and n2 == 0:
            return d - c
        if n1 == n2:
            return (d - c) / 2 + s_diff(2 * n1) / (4 * n1)
        if n1 == 0:
            return s_diff(n2) / n2
        if n2 == 0:
            return s_diff(n1) / n1
        return (s_diff(n1 - n2) / (n1 - n2) + s_diff(n1 + n2) / (n1 + n2)) / 2
    if kind1 == "sin" and kind2 == "sin":
        if n1 == n2:
            return (d - c) / 2 - s_diff(2 * n1) / (4 * n1)
        return (s_diff(n1 - n2) / (n1 - n2) - s_diff(n1 + n2) / (n1 + n2)) / 2
    # cos(n1 t) sin(n2 t), n2 >= 1
    if n1 == n2:
        return -c_diff(2 * n1) / (4 * n1)
    if n1 == 0:
        return -c_diff(n2) / n2
    return -(c_diff(n1 + n2) / (n1 + n2) + c_diff(n2 - n1) / (n2 - n1)) / 2


def _angular_gram(modes, c, d, lib):
    """Gram matrix of the orthonormal angular basis restricted to (c,d)."""
    pi = lib.pi
    dim = len(modes)
    if lib is math:
        out = np.empty((dim, dim))
    else:
        out = mp.zeros(dim)
    norms = []
    for m in modes:
        if m.parity == "cos" and m.n == 0:
            norms.append(1 / lib.sqrt(2 * pi))
        else:
            norms.append(1 / lib.sqrt(pi))
    for i, mi in enumerate(modes):
        for j in range(i, dim):
            mj = modes[j]
            raw = _trig_product_integral(mi.parity, mi.n, mj.parity, mj.n, c, d, lib)
            val = norms[i] * norms[j] * raw
            out[i, j] = val
            out[j, i] = val
    return out


@dataclass(frozen=True)
class TorusGram:
    """Restricted-interval Gram of the angular basis up to frequency K."""

    K: int
    interval: tuple
    gram: np.ndarray       # double-precision mirror of the entries
    lambda_min: float
    c_emp: float           # -log(lambda_min) / max(K, 1)
    dps_used: int


def torus_smallest_gram_eigenvalue(K: int, interval) -> TorusGram:
    """Smallest restricted-Gram eigenvalue, resolved in adaptive precision.

    The matrix is assembled from closed-form trigonometric integrals on
    the re-centred interval (-w, w), where it is block diagonal by parity,
    and each block is diagonalized, eigenvalues only, by mpmath's
    Householder/QL solver. The float gram keeps the original interval's
    entries. Working precision starts a safe margin beyond the empirical
    decay rate of the smallest eigenvalue and doubles until the eigenvalue
    is resolved above the rounding floor, which also bounds the solver's
    absolute error at the matrix norm scale. Six doublings that leave it
    unresolved raise NonConvergenceError.
    """
    c, d = float(interval[0]), float(interval[1])
    if K < 0:
        raise ConfigError("frequency cap K must be >= 0")
    if not (0.0 <= c < d <= TWO_PI + 1e-12):
        raise ConfigError(f"angular interval out of range: ({c}, {d})")
    modes = mode_set(K)
    gram_float = _angular_gram(modes, c, d, math)
    # on (-w, w) the cos and sin blocks decouple; re-centring rotates each
    # (cos n, sin n) pair orthogonally, so the spectrum is unchanged
    parts = ([m for m in modes if m.parity == "cos"],
             [m for m in modes if m.parity == "sin"])

    dps = max(30, 20 + int(math.ceil(4.0 * K)))
    for _ in range(6):
        with mp.workdps(dps):
            w = (mp.mpf(d) - mp.mpf(c)) / 2
            vals = []
            for part in parts:
                if part:
                    vals.extend(mp.eigsy(_angular_gram(part, -w, w, mp),
                                         eigvals_only=True))
            lam_min, lam_max = min(vals), max(vals)
            floor = mp.mpf(10) ** (12 - dps)
            if lam_min > floor * lam_max:
                if not (0 < lam_min and lam_max <= 1 + mp.mpf(10) ** -12):
                    raise InvariantError("restricted Gram spectrum out of (0, 1]")
                cap = max(K, 1)
                c_emp = float(-mp.log(lam_min) / cap)
                return TorusGram(K=K, interval=(c, d), gram=gram_float,
                                 lambda_min=float(lam_min), c_emp=c_emp,
                                 dps_used=dps)
        dps *= 2
    raise NonConvergenceError(
        f"could not resolve the smallest Gram eigenvalue at K={K}")


@dataclass(frozen=True)
class ObservabilityEstimate:
    """Empirical observability constant on one truncated subspace."""

    label: str
    patch: str
    c_emp: float
    extremal: np.ndarray     # unit-norm coefficients in the assembled basis
    residual: float          # generalized eigen residual at the extremizer
    basis_dim: int
    precision: str           # arithmetic route: float64, mp(dps=..), exact-decoupled


def _time_factor_matrix(mu: np.ndarray, T: float) -> np.ndarray:
    s = mu[:, None] + mu[None, :]
    return -np.expm1(-s * T) / s


def _restricted_overlap(spectrum: RadialSpectrum, a: float, b: float,
                        k_max: int) -> np.ndarray:
    sel = spectrum.grid.band(a, b)
    if not np.any(sel):
        raise ConfigError(f"no radial nodes inside ({a}, {b})")
    phi = spectrum.vectors[sel, :k_max]
    w = spectrum.grid.mass[sel]
    upper = np.triu(phi.T @ (w[:, None] * phi))
    # mirror the upper triangle: the product is symmetric only to rounding
    return upper + np.triu(upper, 1).T


def _mode_matrices(spectrum: RadialSpectrum, n: int, a: float, b: float,
                   T: float, k_max: int):
    lam = spectrum.values[:k_max]
    mu = lam + float(n * n)
    a_mat = np.diag(np.exp(-2.0 * mu * T))
    b_mat = _time_factor_matrix(mu, T) * _restricted_overlap(spectrum, a, b, k_max)
    return a_mat, b_mat, mu


def mode_observability_constant(model: Model, spectrum: RadialSpectrum, n: int,
                                a: float, b: float,
                                k_max: int = 24) -> ObservabilityEstimate:
    """Worst terminal-to-observed energy ratio for one angular frequency.

    Assembled on the first k_max radial eigenmodes; the terminal form is
    diagonal and the observation form combines closed-form time integrals
    with eigenvector overlaps on the radial band.
    """
    if not (0.0 < a < b <= 1.0):
        raise ConfigError(f"need 0 < a < b <= 1, got ({a}, {b})")
    if n < 0:
        raise ConfigError("angular frequency must be >= 0")
    if k_max < 1:
        raise ConfigError(f"radial truncation k_max must be >= 1, got {k_max}")
    k_max = min(k_max, spectrum.values.size)
    T = model.config.T_horizon
    a_mat, b_mat, _ = _mode_matrices(spectrum, n, a, b, T, k_max)
    try:
        vals, vecs = eigh(a_mat, b_mat, subset_by_index=[k_max - 1, k_max - 1])
    except np.linalg.LinAlgError as exc:
        raise ConfigError(
            f"observation Gram numerically singular at k_max={k_max}; "
            "reduce the radial truncation for this horizon") from exc
    c_emp = vals[0]
    x = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    res = np.linalg.norm(a_mat @ x - c_emp * (b_mat @ x)) / np.linalg.norm(b_mat @ x)
    return ObservabilityEstimate(
        label=f"mode n={n}", patch=f"radial band ({a}, {b})",
        c_emp=float(c_emp), extremal=x, residual=float(res),
        basis_dim=k_max, precision="float64")


def _coupled_matrices_mp(modes, gram_ang, spectrum, a, b, T, k_max):
    """Assemble the coupled terminal and observation forms in mp precision.

    Basis index i = im * k_max + ik pairs angular mode im with radial
    eigenmode ik; the observation form is the Kronecker product of the
    angular Gram and the radial overlap, weighted by closed-form time
    integrals. The terminal form is diagonal and returned as its diagonal.
    """
    lam = [mp.mpf(float(v)) for v in spectrum.values[:k_max]]
    overlap = _restricted_overlap(spectrum, a, b, k_max)
    dim = len(modes) * k_max
    mu = [lam[k] + m.n * m.n for m in modes for k in range(k_max)]
    a_diag = [mp.e ** (-2 * v * T) for v in mu]
    b_mat = mp.zeros(dim)
    for i in range(dim):
        im, ik = divmod(i, k_max)
        for j in range(i, dim):
            jm, jk = divmod(j, k_max)
            g = gram_ang[im, jm]
            if g == 0:
                continue
            s = mu[i] + mu[j]
            val = g * mp.mpf(float(overlap[ik, jk])) * (1 - mp.e ** (-s * T)) / s
            b_mat[i, j] = val
            b_mat[j, i] = val
    return a_diag, b_mat


def _pencil_top_mp(a_diag, b_mat, low):
    """Largest eigenpair of the pencil (diag(a_diag), b_mat), b_mat = low low^T.

    L^-1 A L^-T = W W^T with W = L^-1 diag(sqrt(a)), built column by column
    by forward substitution; an eigenvalues-only mp.eigsy of W W^T gives
    the largest eigenvalue lam. The eigenvector comes from inverse
    iteration on the pencil, (A - sigma B) x' = B x with sigma just above
    lam, reusing one LU factorization. Returns lam and the unit-norm
    eigenvector as an mp column.
    """
    dim = len(a_diag)
    rows = low.tolist()
    cols = []                      # cols[k] holds W[k:, k]
    for k in range(dim):
        col = [mp.sqrt(a_diag[k]) / rows[k][k]]
        for i in range(k + 1, dim):
            col.append(-mp.fdot(rows[i][k:i], col) / rows[i][i])
        cols.append(col)
    w_rows = [[cols[k][i - k] for k in range(i + 1)] for i in range(dim)]
    wwt = mp.matrix(dim)
    for i in range(dim):
        for j in range(i + 1):
            val = mp.fdot(w_rows[i][:j + 1], w_rows[j])
            wwt[i, j] = val
            wwt[j, i] = val
    lam = max(mp.eigsy(wwt, eigvals_only=True))

    sigma = lam * (1 + mp.mpf(10) ** (-(mp.mp.dps // 2)))
    shifted = mp.diag(a_diag) - sigma * b_mat
    lu, perm = mp.mp.LU_decomp(shifted)
    x = mp.ones(dim, 1) / mp.sqrt(dim)
    for _ in range(_INVERSE_ITERATIONS):
        y = mp.mp.U_solve(lu, mp.mp.L_solve(lu, b_mat * x, perm))
        y /= mp.norm(y) if mp.fdot(y, x) > 0 else -mp.norm(y)
        step = mp.norm(y - x)
        x = y
        if step <= mp.mpf(10) ** (3 - mp.mp.dps):
            break
    return lam, x


def truncated_observability(model: Model, spectrum: RadialSpectrum, interval,
                            a: float, b: float, j: int,
                            k_max: int = 8) -> ObservabilityEstimate:
    """Observability constant over all modes with frequency up to 2^j.

    interval is the angular patch (c,d). A full-torus patch decouples by
    orthonormality: the constant is the maximum of per-mode constants and
    the extremizer is supported on the worst mode. A proper subinterval
    couples all modes through the restricted angular Gram; that dense
    problem is solved in double precision when its Cholesky factorization
    survives and in adaptive arbitrary precision otherwise.
    """
    if j < 0:
        raise ConfigError("subspace index j must be >= 0")
    cap = 2 ** j
    if cap > model.config.n_theta_max:
        raise ConfigError(
            f"angular cap 2^{j} exceeds the retained frequencies "
            f"({model.config.n_theta_max})")
    c, d = float(interval[0]), float(interval[1])
    if not (0.0 <= c < d <= TWO_PI + 1e-12):
        raise ConfigError(f"angular interval out of range: ({c}, {d})")
    if k_max < 1:
        raise ConfigError(f"radial truncation k_max must be >= 1, got {k_max}")
    k_max = min(k_max, spectrum.values.size)
    T = model.config.T_horizon
    modes = mode_set(cap)
    dim = len(modes) * k_max
    patch = f"theta ({c:.6g}, {d:.6g}) x radial band ({a}, {b})"

    if d - c >= TWO_PI - 1e-12:
        best = None
        for n in range(cap + 1):
            est = mode_observability_constant(model, spectrum, n, a, b, k_max)
            if best is None or est.c_emp > best[1].c_emp:
                best = (n, est)
        n_star, est = best
        extremal = np.zeros(dim)
        # cos modes occupy the first cap+1 blocks in frequency order
        extremal[n_star * k_max:(n_star + 1) * k_max] = est.extremal
        return ObservabilityEstimate(
            label=f"subspace j={j}", patch=patch, c_emp=est.c_emp,
            extremal=extremal, residual=est.residual,
            basis_dim=dim, precision="exact-decoupled")

    gram_ang = _angular_gram(modes, c, d, math)
    overlap = _restricted_overlap(spectrum, a, b, k_max)
    mu_f = np.concatenate([spectrum.values[:k_max] + m.n * m.n for m in modes])
    a_f = np.diag(np.exp(-2.0 * mu_f * T))
    tf = _time_factor_matrix(mu_f, T)
    b_f = np.kron(gram_ang, overlap) * tf
    try:
        vals, vecs = eigh(a_f, b_f, subset_by_index=[dim - 1, dim - 1])
        c_emp = vals[0]
        x = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
        res = np.linalg.norm(a_f @ x - c_emp * (b_f @ x)) / np.linalg.norm(b_f @ x)
        if res <= 1e-6:
            return ObservabilityEstimate(
                label=f"subspace j={j}", patch=patch, c_emp=float(c_emp),
                extremal=x, residual=float(res), basis_dim=dim,
                precision="float64")
        # factorization survived on a numerically singular form; fall through
    except np.linalg.LinAlgError:
        pass

    ang = torus_smallest_gram_eigenvalue(cap, (c, d))
    dps = ang.dps_used + 30
    for _ in range(3):
        with mp.workdps(dps):
            gm = _angular_gram(modes, mp.mpf(c), mp.mpf(d), mp)
            a_diag, b_mp = _coupled_matrices_mp(modes, gm, spectrum, a, b,
                                                mp.mpf(T), k_max)
            try:
                low = mp.cholesky(b_mp)
            except ValueError:
                dps = int(dps * 1.5)
                continue
            lam, x_mp = _pencil_top_mp(a_diag, b_mp, low)
            bx = b_mp * x_mp
            num = mp.norm(mp.matrix([a_diag[i] * x_mp[i] - lam * bx[i]
                                     for i in range(dim)]))
            x = np.array([float(v) for v in x_mp])
            return ObservabilityEstimate(
                label=f"subspace j={j}", patch=patch, c_emp=float(lam),
                extremal=x, residual=float(num / mp.norm(bx)), basis_dim=dim,
                precision=f"mp(dps={dps})")
    raise NonConvergenceError(
        "coupled observation Gram not positive definite at the attempted "
        "precisions; reduce j or k_max")
