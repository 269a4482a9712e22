"""Time integration of the mode-decoupled parabolic system.

Each angular mode evolves independently under its own radial generator
(the degenerate stiffness plus n^2 times the mass), discretized in time by
the Crank-Nicolson scheme

    (M + dt/2 K) v_{k+1} = (M - dt/2 K) v_k + dt M s_{k+1/2},

one symmetric positive definite tridiagonal solve per step. The matrix
is factored by LAPACK's banded Cholesky (pbtrf) and each step calls the
banded solve (pbtrs), both directly, without scipy's per-call input
checks; the finite check runs once per march, on the stored trajectory.
Sources are sampled at half steps. This pairing makes the discrete
integration by parts exact: for the adjoint run backward in time,

    <v_N, y_N> = <v_0, y_0> + dt sum_k <s_{k+1/2}, (y_k + y_{k+1})/2>,

because the backward-stepped adjoint satisfies the same one-step solve,
so control Gramians built on this pairing are symmetric to rounding.

The scheme is unconditionally contractive for zero sources, matching the
energy decay of the continuous flow, and second order in dt.

A march ends early at a bitwise fixed point. The step is a deterministic
function of the bits of (state, source), so when the first step returns
exactly the bits of phi0 and every half-step source row has exactly the
bits of the first one (or there are no sources), every later step would
return those bits again, and the remaining rows are filled with them.
The comparison runs on uint64 views, so a -0 or a NaN payload counts as
different from +0 or another NaN: the rule holds bit for bit, signed
zeros included, which "zero in, zero out" would not. A mode at rest, such
as an angular frequency the datum does not carry under a cylinder
control, thus costs one step instead of n_time. The finite and energy
checks still run on the whole stored march.

This module only marches in time, and it returns plain read-only arrays,
row k at time node k. solve_forward is the one whole-model entry point:
initial modes plus, optionally, one (n_time, n_modes, n_r - 1) array of
half-step sources; its states have shape (n_time + 1, n_modes, n_r - 1),
so row k is the ModeCoeffs.data of node k. The datum's model supplies the
operator and, unless the caller passes another one, the time grid (the
dyadic blocks of control.lr_control march on shorter grids). Turning a
control field on the grid into mode sources is the caller's job
(control), and spectra live in spectral.
"""

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import ConfigError, InvariantError
from .model import ModeCoeffs, ModeIndex, RadialOperator, TimeGrid, _frozen


class _Stepper:
    """Prefactorized Crank-Nicolson one-step map for a fixed mode frequency.

    With block=True the coefficient vectors are stored as (size, 1)
    columns, so step advances a (size, m) block of independent states.
    """

    def __init__(self, op: RadialOperator, n_freq: int, dt: float,
                 block: bool = False):
        shift = float(n_freq * n_freq)
        shift_m = shift * op.mass
        self.half_dt = 0.5 * dt
        ab = np.zeros((2, op.mass.size))
        ab[0, 1:] = 0.5 * dt * op.off
        ab[1, :] = op.mass + 0.5 * dt * (op.diag + shift_m)
        pbtrf, self.pbtrs = get_lapack_funcs(("pbtrf", "pbtrs"), (ab,))
        self.factor, info = pbtrf(ab, lower=0, overwrite_ab=1)
        if info != 0:
            raise InvariantError(
                f"banded Cholesky factorization failed (info={info})")
        shape = (-1, 1) if block else (-1,)
        self.diag = op.diag.reshape(shape)
        self.off = op.off.reshape(shape)
        self.m = op.mass.reshape(shape)
        self.shift_m = shift_m.reshape(shape)
        self.dt_m = (dt * op.mass).reshape(shape)

    def step(self, v: np.ndarray, half_step_source=None) -> np.ndarray:
        # m v - (dt/2) (K v + n^2 m v) [+ dt m s], in exactly this rounding
        # order: HUM iteration counts are sensitive to the last ulp. K v is
        # RadialOperator.apply written out on the first axis.
        rhs = self.diag * v
        rhs[:-1] += self.off * v[1:]
        rhs[1:] += self.off * v[:-1]
        rhs += self.shift_m * v
        rhs *= self.half_dt
        np.subtract(self.m * v, rhs, out=rhs)
        if half_step_source is not None:
            rhs += self.dt_m * half_step_source
        # pbtrs solves column by column, so a block column is bitwise the
        # march of that column alone
        x, info = self.pbtrs(self.factor, rhs, lower=0, overwrite_b=1)
        if info != 0:
            raise InvariantError(f"banded Cholesky solve failed (info={info})")
        return x


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.all(a.view(np.uint64) == b.view(np.uint64)))


def _at_rest(states: np.ndarray, sources) -> bool:
    """Whether the first step returned phi0 under constant sources, bitwise."""
    return _same_bits(states[1], states[0]) and (
        sources is None or _same_bits(sources, sources[:1]))


def evolve_mode(op: RadialOperator, mode: ModeIndex, phi0: np.ndarray,
                sources, tgrid: TimeGrid) -> np.ndarray:
    """March one mode from phi0; sources holds half-step samples or None.

    phi0 is one radial vector, shape (n_r - 1,), or a block of m radial
    columns, shape (n_r - 1, m), marched together. sources then has shape
    (n_time,) + phi0.shape. Returns the read-only states, row k at node k,
    shape (n_time + 1,) + phi0.shape. Each column of a block march is
    bitwise the march of that column alone. A march at a bitwise fixed
    point after its first step stops stepping (see the module docstring).
    """
    phi0 = np.asarray(phi0, dtype=float)
    size = op.mass.size
    if phi0.ndim not in (1, 2) or phi0.shape[0] != size:
        raise ConfigError("initial data must be one radial vector or a block "
                          "of radial columns matching the operator")
    if sources is not None:
        sources = np.asarray(sources, dtype=float)
        if sources.shape != (tgrid.n_time,) + phi0.shape:
            raise ConfigError("source array must hold one radial row per half step")
    stepper = _Stepper(op, mode.n, tgrid.dt, block=phi0.ndim == 2)
    states = np.empty((tgrid.n_time + 1,) + phi0.shape)
    states[0] = phi0
    v = phi0
    for k in range(tgrid.n_time):
        v = stepper.step(v, None if sources is None else sources[k])
        states[k + 1] = v
        if k == 0 and _at_rest(states, sources):
            # every later step would map the same bits to the same bits
            states[2:] = v
            break
    if not np.all(np.isfinite(states)):
        raise InvariantError("trajectory contains non-finite entries")
    if sources is None:
        # per column for a block: the sum runs over the radial axis only
        norms = np.sqrt(np.sum(states ** 2 * stepper.m, axis=1))
        if np.any(norms[1:] > norms[:-1] * (1.0 + 1e-12)):
            raise InvariantError("source-free step increased the discrete energy")
    return _frozen(states)


def solve_forward(phi0: ModeCoeffs, sources=None,
                  tgrid: TimeGrid = None) -> np.ndarray:
    """Evolve all modes from phi0, optionally under half-step sources.

    The operator is that of phi0.model, and so is the time grid unless
    tgrid gives another. sources, when given, is one (n_time, n_modes,
    n_r - 1) array: row k holds the mode data of the source at half step
    k. Returns the read-only states, shape (n_time + 1, n_modes, n_r - 1),
    whose row k is the mode data at node k. Each mode marches on its own.
    """
    model = phi0.model
    tgrid = model.tgrid if tgrid is None else tgrid
    shape = (tgrid.n_time, model.n_modes, model.n_radial)
    if sources is not None and (not isinstance(sources, np.ndarray)
                                or sources.shape != shape):
        raise ConfigError(f"sources must be one array of shape {shape}")
    states = np.empty((tgrid.n_time + 1,) + shape[1:])
    for i, mode in enumerate(model.modes):
        states[:, i] = evolve_mode(model.op, mode, phi0.data[i],
                                   None if sources is None else sources[:, i],
                                   tgrid)
    return _frozen(states)


def solve_adjoint(y_terminal: ModeCoeffs,
                  tgrid: TimeGrid = None) -> np.ndarray:
    """Backward solve with terminal data, stored on forward time indices.

    The generator is self adjoint, so the backward flow equals the forward
    flow run for the elapsed time T - t. We run forward from the terminal
    data, on tgrid or the model's grid, and reverse the rows: row k of the
    result is the adjoint state at time t_k, and row 0 is the retrievable
    initial value y(0).
    """
    # a view: the forward array is read-only, and so is its reversal
    return solve_forward(y_terminal, tgrid=tgrid)[::-1]
