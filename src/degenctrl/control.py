"""Null-control synthesis on the discretized cylinder.

The control Gramian composes three exact discrete maps: backward adjoint
flow from a terminal datum, restriction to the control region at the time
half-steps, and forward flow from rest with the restricted trajectory as
source. Because the time discretization satisfies an exact summation by
parts duality, the assembled operator is symmetric positive semidefinite
in the discrete inner product without any consistency error.

hum_control solves the penalized system (G + eps I) yT = -S_T phi0 by
conjugate gradient and the resulting control drives the state to -eps yT
at the final time, an algebraic identity that doubles as the convergence
check. lr_control runs the classical dyadic-block strategy instead: on
each block it controls only the angular frequencies below a growing cap,
with a per-block energy budget shrinking geometrically so the residual
contributions sum below the requested tolerance.

Every control region is a measurable.BoxUnionSet (BoxUnionSet.cylinder
is the full torus times a radial band) whose horizon equals the model's;
its masks at the time half-steps come from BoxUnionSet.grid_masks. The
mask picks the path: one that is the same at every theta node keeps the
angular modes decoupled and masks the mode data radially; any other
couples the modes through angular quadrature of the masked grid field.
lr_control needs a mask that is also the same at every half step. Marches
are plain (time, mode, radial) arrays, and the masked sources go to
evolution.solve_forward as one such array of half steps.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import ConfigError, NonConvergenceError
from .model import (Model, ModeCoeffs, ModeIndex, RadialOperator, TimeGrid,
                    _frozen, zero_coeffs)
from .evolution import evolve_mode, solve_adjoint, solve_forward
from .measurable import BoxUnionSet


class _RegionAction:
    """Precomputed restriction map for one region on one model.

    mask holds the region's grid masks at the half steps, shape (n_time,
    theta_quad, n_r - 1), its theta axis collapsed to length 1 when the
    mask is the same at every theta node; it broadcasts against the field.
    """

    def __init__(self, model: Model, region: BoxUnionSet):
        self.model = model
        model.grid.observed_band(region.band_a, region.band_b)
        mask = region.grid_masks(model, model.tgrid.half_nodes)
        if not mask.any():
            raise ConfigError("control region misses every grid point")
        if np.all(mask == mask[:, :1]):
            # a copy, so the mask does not keep the whole theta axis alive
            mask = mask[:, :1].copy()
        self.mask = mask

    def masked_sources(self, adjoint: np.ndarray) -> np.ndarray:
        """Half-step control sources chi_D (y^k + y^{k+1}) / 2 as mode data."""
        if self.mask.shape[1] == 1:
            return 0.5 * (adjoint[:-1] + adjoint[1:]) * self.mask
        # quadrature in theta of the masked field against each basis function
        model = self.model
        return model.theta_weight * np.einsum(
            "mq,tqr->tmr", model.basis_matrix.T, self.control_field(adjoint))

    def control_field(self, adjoint: np.ndarray) -> np.ndarray:
        """Grid samples of the control at every half-step, masked."""
        mid = 0.5 * (adjoint[:-1] + adjoint[1:])
        fields = np.einsum("qm,tmr->tqr", self.model.basis_matrix, mid)
        return fields * self.mask

    def gramian(self, y_terminal: ModeCoeffs) -> ModeCoeffs:
        adj = solve_adjoint(y_terminal)
        fwd = solve_forward(zero_coeffs(self.model), self.masked_sources(adj))
        # a copy, so the result does not keep the whole march alive
        return ModeCoeffs(self.model, fwd[-1].copy())


def apply_control_gramian(region, y_terminal: ModeCoeffs) -> ModeCoeffs:
    """One application of the control Gramian to a terminal datum.

    Backward adjoint solve, restriction to the region at half-steps,
    forward solve from rest; symmetric PSD in the discrete inner product
    by the exact discrete duality of the time stepper.
    """
    return _RegionAction(y_terminal.model, region).gramian(y_terminal)


@dataclass(frozen=True)
class HUMResult:
    """Penalized minimal-norm control and its convergence record."""

    model: Model
    region: object
    epsilon: float
    y_terminal: ModeCoeffs
    control_values: np.ndarray     # (n_time, theta_quad, n_r - 1), masked
    terminal_residual: float       # || phi(T; f) ||
    identity_gap: float            # || phi(T; f) + eps yT ||
    identity_allowance: float      # 10 cg_tol ||phi0||, the gap's bound
    iterations: int
    cg_residual: float
    residual_history: tuple
    cost: float                    # integral of f^2 over the region
    linf_ratio: float              # sup |f| / ||phi0||, 0.0 for a zero datum
    phi0_norm: float
    converged: bool


def hum_control(phi0: ModeCoeffs, region, epsilon: float,
                cg_tol: float = 1e-8, max_iter: int = 500) -> HUMResult:
    """Penalized HUM control by conjugate gradient on the terminal datum.

    Solves (G + eps I) yT = -S_T phi0 in the discrete inner product; the
    control is the masked adjoint trajectory launched from yT. Iteration
    stops at relative residual cg_tol and flags non-convergence past
    max_iter instead of raising. Long flat stretches are normal here (the
    penalized spectrum is a quasi-continuum near eps), so only sixty
    iterations without any envelope progress count as stagnation. A run
    whose identity gap, the true residual phi(T; f) + eps yT = S_T phi0 +
    (G + eps I) yT, ends above 10 cg_tol ||phi0|| is flagged too: CG's
    recursive residual can pass a cg_tol below float64 accuracy while the
    true one stays at round-off.
    """
    if epsilon <= 0:
        raise ConfigError("penalty must be positive")
    if max_iter < 0:
        raise ConfigError(f"max_iter must be >= 0, got {max_iter}")
    model = phi0.model
    action = _RegionAction(model, region)
    mass = model.grid.mass

    def inner(u, v):
        return float(np.sum(mass[None, :] * u * v))

    rhs = -solve_forward(phi0)[-1]
    phi0_norm = math.sqrt(inner(phi0.data, phi0.data))
    rhs_norm = math.sqrt(inner(rhs, rhs))

    x = np.zeros_like(rhs)
    history = []
    converged = True
    iterations = 0
    if rhs_norm > 0.0:
        r = rhs.copy()
        p = r.copy()
        rs = inner(r, r)
        best = math.sqrt(rs) / rhs_norm
        x_best = x
        history.append(best)
        converged = best <= cg_tol
        while not converged:
            if iterations >= max_iter:
                converged = False
                break
            gp = action.gramian(ModeCoeffs(model, p)).data + epsilon * p
            alpha = rs / inner(p, gp)
            x = x + alpha * p
            r = r - alpha * gp
            rs_new = inner(r, r)
            iterations += 1
            # the raw CG residual oscillates; return the best iterate and
            # record the monotone envelope it defines
            rel = math.sqrt(rs_new) / rhs_norm
            if rel < best:
                best = rel
                x_best = x
            history.append(best)
            if best <= cg_tol:
                converged = True
                break
            if len(history) > 60:
                past = history[-61]
                if past > 0 and (past - best) / past < 1e-12:
                    converged = False
                    break
            p = r + (rs_new / rs) * p
            rs = rs_new
        x = x_best

    y_terminal = ModeCoeffs(model, x)
    adj = solve_adjoint(y_terminal)
    field = action.control_field(adj)
    sources = action.masked_sources(adj)
    phi_t = solve_forward(phi0, sources)[-1]
    terminal_residual = math.sqrt(inner(phi_t, phi_t))
    gap_vec = phi_t + epsilon * x
    identity_gap = math.sqrt(inner(gap_vec, gap_vec))
    allowance = 10.0 * cg_tol * phi0_norm
    converged = converged and identity_gap <= allowance
    cells = model.theta_weight * mass[None, None, :]
    cost = float(model.tgrid.dt * np.sum(field ** 2 * cells))
    ratio = (float(np.max(np.abs(field)) / phi0_norm) if phi0_norm > 0 else 0.0)
    return HUMResult(
        model=model, region=region, epsilon=float(epsilon),
        y_terminal=y_terminal, control_values=_frozen(field),
        terminal_residual=terminal_residual, identity_gap=identity_gap,
        identity_allowance=allowance, iterations=iterations,
        cg_residual=history[-1] if history else 0.0,
        residual_history=tuple(history), cost=cost, linf_ratio=ratio,
        phi0_norm=phi0_norm, converged=converged)


@dataclass(frozen=True)
class LRResult:
    """Dyadic-block control record."""

    boundaries: tuple        # 0, T/2, 3T/4, ..., T
    caps: tuple              # angular cap exponent j_k per block
    block_costs: tuple
    block_norms: tuple       # state norm at the end of each block
    epsilons: tuple          # penalty reached by the per-block adaptation
    final_residual: float
    tol: float
    converged: bool


def _mode_block_gramian(op: RadialOperator, n_freq: int, mask: np.ndarray,
                        tgrid: TimeGrid) -> np.ndarray:
    """Dense per-mode control Gramian over one block.

    Column j is the forward response to the masked backward march of the
    unit vector e_j; all columns march together as one block, two marches
    in all. The two stored block trajectories and the source block each
    hold (n_time + 1) (n_r - 1)^2 floats, so peak memory is about
    3 (n_time + 1) (n_r - 1)^2 floats: about 1.2 MB at the c14 size and
    about 250 MB at n_r = 400, n_time = 64. No config bounds n_r.
    """
    size = op.mass.size
    mode = ModeIndex("cos", n_freq)
    back = evolve_mode(op, mode, np.eye(size), None, tgrid)[::-1]
    src = 0.5 * (back[:-1] + back[1:]) * mask[:, None]
    return evolve_mode(op, mode, np.zeros((size, size)), src, tgrid)[-1]


# smallest per-block penalty lr_control tries before it gives up
_EPS_FLOOR = 1e-14


def lr_control(phi0: ModeCoeffs, region: BoxUnionSet, tol: float,
               n_blocks: int = 3) -> LRResult:
    """Dyadic-block control: frequency cap 2^k on block k, then free decay.

    Block k occupies [T(1 - 2^-k), T(1 - 2^-k-1)]; its first half carries
    per-mode penalized controls for angular frequencies n <= 2^k with the
    penalty shrunk adaptively until the controlled energy sits below
    (tol/2) 2^-k, and its second half decays freely. Frequencies above the
    cap always decay freely. The budget law makes the block residuals
    geometrically summable against tol.

    Every march is one whole-model solve_forward on the block's own time
    grid. The adjoint data of the modes above the cap are zero rows, so
    those modes march under zero sources, which leaves their bits as a
    free march would (up to the sign of a zero). The region's mask must
    be the same at every theta node and every half step.
    """
    if tol <= 0:
        raise ConfigError("tolerance must be positive")
    if n_blocks < 1:
        raise ConfigError("need at least one block")
    model = phi0.model
    action = _RegionAction(model, region)
    if action.mask.shape[1] != 1 or not np.all(action.mask == action.mask[0]):
        raise ConfigError("dyadic-block control needs a region that is the "
                          "same at every theta node and every half step")
    mask = action.mask[0, 0]
    mass = model.grid.mass
    T = model.config.T_horizon
    n_time = model.config.n_time

    state = phi0
    boundaries = [0.0]
    caps, costs, norms, epsilons = [], [], [], []

    for k in range(n_blocks):
        half_len = T * 2.0 ** (-k - 2)
        sub = TimeGrid(half_len, n_time)
        cap = 2 ** k
        budget = 0.5 * tol * 2.0 ** (-k)
        controlled = [i for i, m in enumerate(model.modes) if m.n <= cap]
        grams = {n: _mode_block_gramian(model.op, n, mask, sub)
                 for n in {model.modes[i].n for i in controlled}}
        free = solve_forward(state, tgrid=sub)[-1]

        eps = 1e-4
        # terminal adjoint data; the modes above the cap stay zero rows
        y = np.zeros_like(state.data)
        while True:
            low_energy = 0.0
            for i in controlled:
                g = grams[model.modes[i].n]
                y[i] = np.linalg.solve(g + eps * np.eye(g.shape[0]), -free[i])
                low_energy += float(np.sum(mass * (eps * y[i]) ** 2))
            if math.sqrt(low_energy) <= budget or eps <= _EPS_FLOOR:
                break
            eps /= 10.0
        if math.sqrt(low_energy) > budget:
            raise NonConvergenceError(
                f"block {k} budget {budget:.3e} unreachable at "
                f"penalty floor {_EPS_FLOOR:.1e}")
        epsilons.append(eps)

        back = solve_adjoint(ModeCoeffs(model, y), sub)
        src = action.masked_sources(back)
        # per mode: one sum over the whole array rounds differently
        block_cost = 0.0
        for i in controlled:
            block_cost += sub.dt * float(np.sum(src[:, i] ** 2 * mass[None, :]))
        forced = ModeCoeffs(model, solve_forward(state, src, sub)[-1])
        state = ModeCoeffs(model, solve_forward(forced, tgrid=sub)[-1])
        caps.append(k)
        costs.append(block_cost)
        norms.append(math.sqrt(float(np.sum(mass[None, :] * state.data ** 2))))
        boundaries.append(T * (1.0 - 2.0 ** (-k - 1)))

    tail = TimeGrid(T * 2.0 ** (-n_blocks), n_time)
    final_state = solve_forward(state, tgrid=tail)[-1]
    boundaries.append(T)
    final = math.sqrt(float(np.sum(mass[None, :] * final_state ** 2)))
    return LRResult(
        boundaries=tuple(boundaries), caps=tuple(caps),
        block_costs=tuple(costs), block_norms=tuple(norms),
        epsilons=tuple(epsilons), final_residual=final, tol=float(tol),
        converged=final <= tol)
