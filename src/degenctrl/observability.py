"""Quantitative observability constants on truncated mode subspaces.

Three estimators live here.

* The smallest eigenvalue of the Gram matrix of the torus basis restricted
  to an angular interval. It decays like exp(-c K) in the frequency cap K,
  crossing below double precision around K = 5 for unit-length intervals,
  so it is resolved in adaptive arbitrary precision; the decay rate
  -log(lambda_min)/K is the quantity of interest and stays bounded. The
  Gram has the spectrum of Slepian's prolate matrix P, N = 2K + 1, whose
  eigenvectors are those of an explicit commuting tridiagonal T: inverse
  iteration on T, shifted by its float64 smallest eigenvalue, gives the
  vector, and its Rayleigh quotient of P, in O(N^2) from one table of
  entries, gives the eigenvalue. No Gram matrix is formed.

* Per-mode observability constants: the worst ratio of terminal energy to
  the space-time observation of the free flow over a radial band (a,b),
  computed exactly on the radial eigenbasis because the time integrals of
  products of decaying exponentials have closed forms.

* Truncated-subspace constants with both angular parities up to a cap
  2^j. A full-torus patch decouples into per-mode blocks; a proper
  angular interval couples the blocks through the angular Gram and the
  assembled problem inherits its catastrophic conditioning, so that path
  escalates to arbitrary precision when double-precision Cholesky fails.
  There the pencil is solved per parity block on the re-centred interval
  (-w, w), where the angular Gram splits into a cosine and a sine
  block, as P splits into its symmetric and antisymmetric vectors. Each
  block's constant is the largest eigenvalue of W W^T, W = L^-1
  diag(sqrt(a)) with B = L L^T; its float64 top eigenpair picks the
  winning block. On the winner only, inverse iteration on W W^T,
  shifted by the Rayleigh quotient of the float64 vector, gives the
  vector z in the working precision, its Rayleigh quotient the constant
  and L^-T z the extremizer, which is rotated back to the (c, d) basis.

Both constants are the top eigenvalue of one pencil from _observation_form,
in float64 or in mp: diag(e^{-2 mu T}) against the observed set's spatial
Gram weighted by the closed-form time integrals. Both mp routes climb
one precision ladder, _precision_ladder from _start_dps, and solve in one
pattern: a float64 eigen solve gives the shift of an inverse iteration in
the working precision, and the Rayleigh quotient of its vector is the
eigenvalue.
"""

from dataclasses import dataclass
import math

import numpy as np
import mpmath as mp
from scipy.linalg import eigh, eigh_tridiagonal
from scipy.linalg.lapack import dsyevr

from .errors import ConfigError, InvariantError, NonConvergenceError
from .model import TWO_PI, Model, check_index_range, mode_set
from .spectral import RadialSpectrum

# step budget of the coupled inverse iteration: from its float64 shift it
# took 3 steps at 66 digits, 5 at 132 and 10 at 264 (the ladder's top
# attempt at j = 2) on the desk model
_INVERSE_ITERATIONS = 16
# inverse iteration from the float64 shift gains about 15 digits a step,
# so 160 steps cover every attempt of the Gram's ladder up to K = 12
_PROLATE_STEPS = 160


def _angular_gram(modes, c, d, lib):
    """Gram matrix of the orthonormal angular basis restricted to (c,d).

    Product-to-sum makes every entry half the sum or difference of two
    moments over (c,d) at a signed k = n_i -+ n_j: sin_mom[k] is the
    integral of cos(k t) and cos_mom[k] the negated integral of sin(k t).
    Both tables are built once, so the trig calls grow with the cap, not
    with its square.
    """
    top = 2 * max(m.n for m in modes)
    ks = [k for k in range(-top, top + 1) if k]
    sin_mom = {k: (lib.sin(k * d) - lib.sin(k * c)) / k for k in ks}
    cos_mom = {k: (lib.cos(k * d) - lib.cos(k * c)) / k for k in ks}
    sin_mom[0], cos_mom[0] = d - c, 0
    pi = lib.pi
    dim = len(modes)
    out = np.empty((dim, dim), dtype=float if lib is math else object)
    norms = []
    for m in modes:
        if m.parity == "cos" and m.n == 0:
            norms.append(1 / lib.sqrt(2 * pi))
        else:
            norms.append(1 / lib.sqrt(pi))
    for i, mi in enumerate(modes):
        for j in range(i, dim):
            mj = modes[j]
            if mi.parity != mj.parity:
                p, q = (mi.n, mj.n) if mi.parity == "cos" else (mj.n, mi.n)
                raw = -(cos_mom[p + q] + cos_mom[q - p]) / 2
            elif mi.parity == "cos":
                raw = (sin_mom[mi.n - mj.n] + sin_mom[mi.n + mj.n]) / 2
            else:
                raw = (sin_mom[mi.n - mj.n] - sin_mom[mi.n + mj.n]) / 2
            val = norms[i] * norms[j] * raw
            out[i, j] = val
            out[j, i] = val
    return out


@dataclass(frozen=True)
class TorusGram:
    """Restricted-interval Gram of the angular basis up to frequency K."""

    lambda_min: float
    c_emp: float           # -log(lambda_min) / max(K, 1)
    dps_used: int


def _angular_interval(interval):
    c, d = float(interval[0]), float(interval[1])
    if not (0.0 <= c < d <= TWO_PI + 1e-12):
        raise ConfigError(f"angular interval out of range: ({c}, {d})")
    return c, d


def _recentred(modes, c, d):
    """Re-centre (c, d) on (-w, w), theta = mid + t, in the working precision.

    Returns w, mid and the modes split into their cos and sin parts. On
    (-w, w) cos against sin integrates an odd function, so the restricted
    Gram is block diagonal by parity; each (cos n, sin n) pair on (c, d) is
    the pair on (-w, w) turned by the angle n mid, an orthogonal change of
    basis that keeps the spectrum of the Gram and of any pencil whose other
    factors depend on n only.
    """
    w = (mp.mpf(d) - mp.mpf(c)) / 2
    mid = (mp.mpf(c) + mp.mpf(d)) / 2
    parts = ([m for m in modes if m.parity == "cos"],
             [m for m in modes if m.parity == "sin"])
    return w, mid, parts


def _rotate_back(modes, part, y, mid, k_max):
    """Block vector y of one parity part on (-w, w) as coefficients of modes
    on (c, d), basis index im * k_max + ik, in the working precision.

    With theta = mid + t, cos n t = cos(n mid) cos n theta + sin(n mid)
    sin n theta and sin n t = cos(n mid) sin n theta - sin(n mid) cos n theta.
    """
    where = {(m.parity, m.n): i for i, m in enumerate(modes)}
    x = [mp.mpf(0)] * (len(modes) * k_max)
    for p, m in enumerate(part):
        cos_n, sin_n = mp.cos(m.n * mid), mp.sin(m.n * mid)
        turns = ((("cos", cos_n), ("sin", sin_n)) if m.parity == "cos"
                 else (("sin", cos_n), ("cos", -sin_n)))
        for parity, factor in turns:
            if (parity, m.n) in where:      # there is no sin 0
                at = where[parity, m.n] * k_max
                for ik in range(k_max):
                    x[at + ik] = factor * y[p * k_max + ik]
    return x


def _start_dps(K) -> int:
    """First working precision at angular frequency cap K."""
    return max(30, 20 + math.ceil(4 * K))


def _precision_ladder(attempt, dps: int, tries: int, failure: str):
    """(attempt(), dps) at the first of dps, 2 dps, 4 dps, ... where attempt,
    run in mp.workdps, returns something other than None; after tries
    attempts NonConvergenceError(failure)."""
    for level in (dps * 2 ** i for i in range(tries)):
        with mp.workdps(level):
            result = attempt()
        if result is not None:
            return result, level
    raise NonConvergenceError(failure)


def _slepian_tridiagonal(n, cos_w):
    """Diagonal and off-diagonal of Slepian's tridiagonal T at N = n.

    T commutes with the prolate matrix of half-width w; its entries are
    exact binary fractions but for the factor cos w, a float or an mpf.
    """
    diag = [(n - 1 - 2 * i) ** 2 / 4 * cos_w for i in range(n)]
    off = [(i + 1) * (n - 1 - i) / 2 for i in range(n - 1)]
    return diag, off


def _prolate_table(n, w, lib):
    """p[k] = sin(k w) / (pi k), p[0] = w / pi: the prolate matrix is
    P[j, k] = p[|j - k|], in the number type of lib, math or mp."""
    return [w / lib.pi] + [lib.sin(k * w) / (lib.pi * k) for k in range(1, n)]


def _prolate_quotient(table, x, dot):
    """x^T P x for a unit vector x, by lags: O(N^2), no matrix formed."""
    n = len(x)
    return dot(table, [dot(x[:n - m], x[m:]) * (2 if m else 1)
                       for m in range(n)])


def _inverse_iteration(solve, x, steps, tol):
    """Unit vector of inverse iteration x <- solve(x) from the unit vector
    x, each iterate signed to follow the last, in the working precision;
    None when the step is still above tol after steps steps."""
    for _ in range(steps):
        y = solve(x)
        scale = mp.norm(y) if mp.fdot(y, x) > 0 else -mp.norm(y)
        y = [v / scale for v in y]
        step = mp.norm([a - b for a, b in zip(y, x)])
        x = y
        if step <= tol:
            return x
    return None


def _tridiagonal_solver_mp(diag, off, sigma):
    """Solver of (T - sigma) y = x for the tridiagonal T = (diag, off),
    on one LDL^T factorization in the working precision; an exactly zero
    pivot is replaced by the working epsilon."""
    n = len(diag)
    piv, mult = [diag[0] - sigma or mp.eps], []
    for i in range(1, n):
        mult.append(off[i - 1] / piv[-1])
        piv.append(diag[i] - sigma - mult[-1] * off[i - 1] or mp.eps)

    def solve(x):
        y = list(x)
        for i in range(1, n):
            y[i] -= mult[i - 1] * y[i - 1]
        y[-1] /= piv[-1]
        for i in range(n - 2, -1, -1):
            y[i] = (y[i] - off[i] * y[i + 1]) / piv[i]
        return y
    return solve


def torus_smallest_gram_eigenvalue(K: int, interval) -> TorusGram:
    """Smallest restricted-Gram eigenvalue, resolved in adaptive precision.

    The restricted Gram is a unitary image of Slepian's prolate matrix
    P[j, k] = sin(w (j - k)) / (pi (j - k)), N = 2K + 1, w = (d - c)/2,
    which commutes with Slepian's tridiagonal T and shares its
    eigenvectors, T's smallest eigenvalue going with P's. The float64
    smallest eigenvalue of T shifts an inverse iteration on T in the
    working precision; the Rayleigh quotient of its vector, computed from
    the table of P's entries, is lambda_min. lambda_max, P's quotient at
    T's other end, is taken in float64: it is at least w / pi. On the
    precision ladder from _start_dps(K) an attempt is accepted once the
    eigenvalue is resolved above the rounding floor, lambda_min >
    10^(12 - dps) lambda_max. Six attempts, five doublings (30 digits
    become 960 at small K), that leave it unresolved raise
    NonConvergenceError, as does an inverse iteration that runs out of
    steps at every attempt.
    """
    if K < 0:
        raise ConfigError("frequency cap K must be >= 0")
    c, d = _angular_interval(interval)
    check_index_range("frequency cap K", (2 * K + 1, 2 * K + 1))
    n = 2 * K + 1
    w = (d - c) / 2
    diag, off = _slepian_tridiagonal(n, math.cos(w))
    sigma = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                             select_range=(0, 0))[0]
    top = eigh_tridiagonal(diag, off, select="i",
                           select_range=(n - 1, n - 1))[1][:, 0]
    lam_max = float(_prolate_quotient(_prolate_table(n, w, math), top, np.dot))
    # an accepted lambda_min lies above 10^(12 - dps) lambda_max > 0
    if not 0 < lam_max <= 1 + 1e-12:
        raise InvariantError("restricted Gram spectrum out of (0, 1]")

    def attempt():
        w = (mp.mpf(d) - mp.mpf(c)) / 2
        solve = _tridiagonal_solver_mp(*_slepian_tridiagonal(n, mp.cos(w)),
                                       mp.mpf(sigma))
        x = _inverse_iteration(solve, [1 / mp.sqrt(n)] * n, _PROLATE_STEPS,
                               mp.mpf(10) ** (4 - mp.mp.dps))
        if x is None:
            return None
        lam_min = _prolate_quotient(_prolate_table(n, w, mp), x, mp.fdot)
        if not lam_min > mp.mpf(10) ** (12 - mp.mp.dps) * lam_max:
            return None
        # the log in the working precision, before the one rounding
        return float(lam_min), float(-mp.log(lam_min) / max(K, 1))

    (lam_min, c_emp), dps = _precision_ladder(
        attempt, _start_dps(K), 6,
        f"could not resolve the smallest Gram eigenvalue at K={K}")
    return TorusGram(lambda_min=lam_min, c_emp=c_emp, dps_used=dps)


@dataclass(frozen=True)
class ObservabilityEstimate:
    """Empirical observability constant on one truncated subspace."""

    c_emp: float
    extremal: np.ndarray     # unit-norm coefficients in the assembled basis
    residual: float          # generalized eigen residual at the extremizer
    basis_dim: int
    precision: str           # arithmetic route: float64, mp(dps=..), exact-decoupled


def _radial_cut(model: Model, spectrum: RadialSpectrum, k_max: int) -> int:
    """k_max clipped to a spectrum that must belong to model.op."""
    if spectrum.grid is not model.grid or spectrum.alpha != model.op.alpha:
        raise ConfigError("the radial spectrum belongs to another model")
    if k_max < 1:
        raise ConfigError(f"radial truncation k_max must be >= 1, got {k_max}")
    return min(k_max, spectrum.values.size)


def _restricted_overlap(spectrum: RadialSpectrum, a: float, b: float,
                        k_max: int) -> np.ndarray:
    if not (0.0 < a < b <= 1.0):
        raise ConfigError(f"need 0 < a < b <= 1, got ({a}, {b})")
    sel = spectrum.grid.observed_band(a, b)
    phi = spectrum.vectors[sel, :k_max]
    w = spectrum.grid.mass[sel]
    upper = np.triu(phi.T @ (w[:, None] * phi))
    # mirror the upper triangle: the product is symmetric only to rounding
    return upper + np.triu(upper, 1).T


def _observation_form(mu: np.ndarray, spatial: np.ndarray, T):
    """Terminal diagonal e^{-2 mu T} and observation form E(mu) o spatial.

    E[i, j] = (1 - e^{-(mu_i + mu_j) T}) / (mu_i + mu_j) holds the time
    integrals of the free flow, spatial the Gram of the observed set. A
    float64 mu gives float64 forms; an object array of mpf gives object
    arrays in the working precision, each entry rounded as
    spatial * (1 - e^{-sT}) / s.
    """
    s = mu[:, None] + mu[None, :]
    if mu.dtype == object:
        exp = np.frompyfunc(lambda x: mp.e ** x, 1, 1)
        return exp(-2 * mu * T), spatial * (1 - exp(-s * T)) / s
    return np.exp(-2.0 * mu * T), -np.expm1(-s * T) / s * spatial


def _coupled_form(modes, lam, overlap, c, d, T, lib):
    """_observation_form of basis index im * k_max + ik (angular mode im,
    radial eigenmode ik) in the number type of lib, math or mp."""
    mu = np.concatenate([lam + m.n * m.n for m in modes])
    return _observation_form(
        mu, np.kron(_angular_gram(modes, c, d, lib), overlap), T)


def _pencil_top(a_diag: np.ndarray, b: np.ndarray):
    """Top eigenpair of the float64 pencil (diag(a_diag), b).

    Returns the eigenvalue, the unit eigenvector and the relative residual;
    raises LinAlgError when b is not numerically positive definite.
    """
    dim = a_diag.size
    a = np.diag(a_diag)
    vals, vecs = eigh(a, b, subset_by_index=[dim - 1, dim - 1])
    x = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    res = np.linalg.norm(a @ x - vals[0] * (b @ x)) / np.linalg.norm(b @ x)
    return float(vals[0]), x, float(res)


def _mode_estimate(lam: np.ndarray, overlap: np.ndarray, n: int,
                   T: float) -> ObservabilityEstimate:
    """Per-mode constant at angular frequency n from radial values and overlap."""
    try:
        c_emp, x, res = _pencil_top(
            *_observation_form(lam + float(n * n), overlap, T))
    except np.linalg.LinAlgError as exc:
        raise ConfigError(
            f"observation Gram numerically singular at k_max={lam.size}; "
            "reduce the radial truncation for this horizon") from exc
    return ObservabilityEstimate(c_emp=c_emp, extremal=x, residual=res,
                                 basis_dim=lam.size, precision="float64")


def mode_observability_constant(model: Model, spectrum: RadialSpectrum, n: int,
                                a: float, b: float,
                                k_max: int = 24) -> ObservabilityEstimate:
    """Worst terminal-to-observed energy ratio for one angular frequency.

    Assembled on the first k_max radial eigenmodes; the terminal form is
    diagonal and the observation form combines closed-form time integrals
    with eigenvector overlaps on the radial band, from a spectrum of model.op.
    """
    k_max = _radial_cut(model, spectrum, k_max)
    if n < 0:
        raise ConfigError("angular frequency must be >= 0")
    overlap = _restricted_overlap(spectrum, a, b, k_max)
    return _mode_estimate(spectrum.values[:k_max], overlap, n,
                          model.config.T_horizon)


def _whitened_mp(a_diag: np.ndarray, b: np.ndarray):
    """Cholesky rows of b = L L^T and the rows of W W^T = L^-1 diag(a_diag)
    L^-T, as lists in the working precision.

    mp.cholesky raises ValueError when b is not positive definite. W =
    L^-1 diag(sqrt(a_diag)) is built column by column by forward
    substitution.
    """
    dim = len(a_diag)
    rows = mp.cholesky(mp.matrix(b.tolist())).tolist()
    cols = []                      # cols[k] holds W[k:, k]
    for k in range(dim):
        col = [mp.sqrt(a_diag[k]) / rows[k][k]]
        for i in range(k + 1, dim):
            col.append(-mp.fdot(rows[i][k:i], col) / rows[i][i])
        cols.append(col)
    w_rows = [[cols[k][i - k] for k in range(i + 1)] for i in range(dim)]
    wwt = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1):
            wwt[i][j] = wwt[j][i] = mp.fdot(w_rows[i][:j + 1], w_rows[j])
    return rows, wwt


def _float64_top(sym):
    """Top eigenvalue and unit eigenvector of the symmetric rows sym,
    rounded to float64, by LAPACK dsyevr."""
    n = len(sym)
    vals, vecs, _, _, info = dsyevr(np.array(sym, dtype=float), range="I",
                                    il=n, iu=n)
    if info:
        raise NonConvergenceError(f"LAPACK dsyevr failed with info={info}")
    return vals[0], vecs[:, 0]


def _top_pair_mp(sym, start):
    """Top eigenvalue and unit eigenvector of the symmetric rows sym, by
    inverse iteration from the float64 vector start in the working
    precision.

    The shift sits just above the Rayleigh quotient of start, on one LU
    factorization of sym - sigma; the eigenvalue is the Rayleigh quotient
    of the converged vector. A step still above 10^(3 - dps) after
    _INVERSE_ITERATIONS steps raises NonConvergenceError.
    """
    def quotient(v):
        return mp.fdot(v, [mp.fdot(row, v) for row in sym])

    z = [mp.mpf(v) for v in start]
    scale = mp.norm(z)
    z = [v / scale for v in z]
    sigma = quotient(z) * (1 + mp.mpf(10) ** (-(mp.mp.dps // 2)))
    lu, perm = mp.mp.LU_decomp(mp.matrix(sym) - sigma * mp.eye(len(sym)))
    z = _inverse_iteration(
        lambda v: list(mp.mp.U_solve(lu, mp.mp.L_solve(lu, mp.matrix(v),
                                                         perm))),
        z, _INVERSE_ITERATIONS, mp.mpf(10) ** (3 - mp.mp.dps))
    if z is None:
        raise NonConvergenceError(
            f"inverse iteration did not converge in {_INVERSE_ITERATIONS} "
            f"steps at dps={mp.mp.dps}")
    return quotient(z), z


def _back_substitution(rows, z):
    """x with L^T x = z, L lower triangular given by its rows."""
    dim = len(z)
    x = [None] * dim
    for i in range(dim - 1, -1, -1):
        below = [rows[k][i] for k in range(i + 1, dim)]
        x[i] = (z[i] - mp.fdot(below, x[i + 1:])) / rows[i][i]
    return x


def truncated_observability(model: Model, spectrum: RadialSpectrum, interval,
                            a: float, b: float, j: int,
                            k_max: int = 8) -> ObservabilityEstimate:
    """Observability constant over all modes with frequency up to 2^j.

    interval is the angular patch (c,d). A full-torus patch decouples by
    orthonormality: the constant is the maximum of per-mode constants and
    the extremizer is supported on the worst mode. A proper subinterval
    couples all modes through the restricted angular Gram; that dense
    problem is solved in double precision when its Cholesky factorization
    survives and in adaptive arbitrary precision otherwise, there as one
    pencil per parity block on (-w, w), each whitened to W W^T by the
    Cholesky factor of its observation form. The block with the larger
    float64 top is solved by inverse iteration on W W^T in the working
    precision, on one LU factorization; its Rayleigh quotient is c_emp and
    one back substitution with the Cholesky rows gives the extremizer.
    Three attempts from _start_dps(2^j) + 30 digits double while
    mp.cholesky fails; an inverse iteration that does not converge in
    _INVERSE_ITERATIONS steps, or leaves a pencil residual above 1e-6,
    raises NonConvergenceError.
    """
    k_max = _radial_cut(model, spectrum, k_max)
    if j < 0:
        raise ConfigError("subspace index j must be >= 0")
    # 2^j > n_theta_max exactly when j >= n_theta_max.bit_length()
    if j >= model.config.n_theta_max.bit_length():
        raise ConfigError(
            f"angular cap 2^{j} exceeds the retained frequencies "
            f"({model.config.n_theta_max})")
    cap = 2 ** j
    c, d = _angular_interval(interval)
    T = model.config.T_horizon
    modes = mode_set(cap)
    dim = len(modes) * k_max
    lam = spectrum.values[:k_max]
    overlap = _restricted_overlap(spectrum, a, b, k_max)

    if d - c >= TWO_PI - 1e-12:
        n_star, est = max(((n, _mode_estimate(lam, overlap, n, T))
                           for n in range(cap + 1)),
                          key=lambda pair: pair[1].c_emp)
        extremal = np.zeros(dim)
        # cos modes occupy the first cap+1 blocks in frequency order
        extremal[n_star * k_max:(n_star + 1) * k_max] = est.extremal
        return ObservabilityEstimate(
            c_emp=est.c_emp, extremal=extremal, residual=est.residual,
            basis_dim=dim, precision="exact-decoupled")

    try:
        c_emp, x, res = _pencil_top(
            *_coupled_form(modes, lam, overlap, c, d, T, math))
        if res <= 1e-6:
            return ObservabilityEstimate(c_emp=c_emp, extremal=x, residual=res,
                                         basis_dim=dim, precision="float64")
        # factorization survived on a numerically singular form; fall through
    except np.linalg.LinAlgError:
        pass

    def attempt():
        to_mp = np.frompyfunc(mp.mpf, 1, 1)
        w, mid, parts = _recentred(modes, c, d)
        forms = [_coupled_form(part, to_mp(lam), to_mp(overlap), -w, w,
                               mp.mpf(T), mp) for part in parts]
        try:
            blocks = [_whitened_mp(*form) for form in forms]
        except ValueError:
            return None
        tops = [_float64_top(wwt) for _, wwt in blocks]
        (_, start), (a_diag, b_form), (rows, wwt), part = max(
            zip(tops, forms, blocks, parts), key=lambda block: block[0][0])
        c_emp, z = _top_pair_mp(wwt, start)
        y = _back_substitution(rows, z)
        scale = mp.norm(y)
        y = [v / scale for v in y]
        bx = [mp.fdot(row, y) for row in b_form.tolist()]
        res = float(mp.norm([a_diag[i] * y[i] - c_emp * bx[i]
                             for i in range(len(y))]) / mp.norm(bx))
        if res > 1e-6:
            raise NonConvergenceError(
                f"inverse iteration left a coupled residual of {res:.3g} "
                f"at dps={mp.mp.dps}")
        x = _rotate_back(modes, part, y, mid, k_max)
        return ObservabilityEstimate(
            c_emp=float(c_emp), extremal=np.array([float(v) for v in x]),
            residual=res, basis_dim=dim, precision=f"mp(dps={mp.mp.dps})")

    return _precision_ladder(
        attempt, _start_dps(cap) + 30, 3,
        "coupled observation Gram not positive definite at the attempted "
        "precisions; reduce j or k_max")[0]
