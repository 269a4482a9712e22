"""Batch front door: JSON scenario in, CSV/JSON artifacts plus manifest out.

One command per process. Configs are strict: unknown keys, strings where
numbers belong, and booleans posing as numbers are all rejected before
any computation starts. Every run writes a manifest, on failure paths
included, recording the resolved config, the seed, and a content hash of
each artifact; identical config and seed reproduce identical artifact
bytes, so the hashes double as a regression fingerprint.

Exit codes: 0 success, 1 invariant violation or unexpected error, 2
config or usage error, 3 non-convergence.
"""

import argparse
import hashlib
import json
import math
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvariantError, NonConvergenceError
from .model import (Model, ModelConfig, ModeCoeffs, ModeIndex, TWO_PI,
                    build_model, synthesize_field)
from .spectral import bessel_oracle, hardy_ratio, radial_spectrum
from .evolution import evolve_mode, solve_forward, time_grid_for
from .carleman import build_eta, carleman_report, s0_default
from .observability import (mode_observability_constant,
                            torus_smallest_gram_eigenvalue,
                            truncated_observability)
from .control import Cylinder, hum_control, lr_control
from .measurable import (BoxUnionSet, TimeSliceSet, datum_family,
                         density_sequence, measurable_observability_ratio)

COMMANDS = ("spectrum", "hardy", "solve", "carleman", "spectral-ineq",
            "observability", "hum", "lr", "measurable", "density-seq")

# ModelConfig validates these and holds the defaults of the optional ones
_MODEL_REQUIRED = ("alpha", "T_horizon", "n_theta_max", "n_r")
_MODEL_OPTIONAL = ("grid_power", "n_time", "theta_quad_points")

_DEFAULT_BOXES = (((0.5, 2.0), (0.32, 0.45), (0.05, 0.45)),
                  ((3.0, 5.5), (0.45, 0.58), (0.5, 0.95)))

# key -> (kind, default); kind in {real, int, str, list}
_OPTION_SCHEMAS = {
    "spectrum": {"k_eigen": ("int", 5)},
    "hardy": {"n_samples": ("int", 1000)},
    "solve": {"initial_parity": ("str", "cos"), "initial_n": ("int", 0),
              "initial_k": ("int", 1), "snapshot_times": ("list", ())},
    "carleman": {"band_a": ("real", 0.3), "band_b": ("real", 0.6),
                 "s_values": ("list", ())},
    "spectral-ineq": {"freq_caps": ("list", (0, 1, 2, 3, 4, 5, 6, 7, 8)),
                      "interval_c": ("real", 0.0),
                      "interval_d": ("real", 1.0)},
    "observability": {"band_a": ("real", 0.3), "band_b": ("real", 0.6),
                      "k_max": ("int", 24), "j_max": ("int", 2),
                      "theta_c": ("real", 0.0), "theta_d": ("real", TWO_PI),
                      "subspace_k_max": ("int", 8)},
    "hum": {"band_a": ("real", 0.3), "band_b": ("real", 0.6),
            "epsilon": ("real", 1e-6), "cg_tol": ("real", 1e-8),
            "max_iter": ("int", 500), "initial": ("str", "desk")},
    "lr": {"band_a": ("real", 0.3), "band_b": ("real", 0.6),
           "tol": ("real", 1e-3), "n_blocks": ("int", 3),
           "initial": ("str", "lowpass")},
    "measurable": {"boxes": ("list", _DEFAULT_BOXES),
                   "band_a": ("real", 0.3), "band_b": ("real", 0.6),
                   "family_size": ("int", 20),
                   "c_calib": ("real", 1.0), "h_calib": ("real", 0.5),
                   "m_max": ("int", 32), "n_quad": ("int", 16)},
    "density-seq": {"e_intervals": ("list", ((0.0, 1.0),)),
                    "ell": ("real", 0.5), "q": ("real", 0.5),
                    "m_max": ("int", 8)},
}


def _is_finite(number) -> bool:
    try:
        return math.isfinite(number)
    except OverflowError:    # an integer beyond float range
        return False


def _coerce(key, kind, value):
    if kind == "real":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"field '{key}' must be a number")
        if not _is_finite(value):
            raise ConfigError(f"field '{key}' must be a finite number")
        return float(value)
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"field '{key}' must be an integer")
        return int(value)
    if kind == "str":
        if not isinstance(value, str):
            raise ConfigError(f"field '{key}' must be a string")
        return value
    if kind == "list":
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"field '{key}' must be a list")
        return _tuplify(key, value)
    raise ConfigError(f"unhandled kind for '{key}'")


def _seed(value):
    seed = _coerce("seed", "int", value)
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _tuplify(key, value):
    """Nested lists as nested tuples; each number must be a finite float."""
    items = []
    for v in value:
        if isinstance(v, (list, tuple)):
            v = _tuplify(key, v)
        elif isinstance(v, (int, float)) and not _is_finite(v):
            raise ConfigError(f"field '{key}' must hold finite numbers")
        items.append(v)
    return tuple(items)


def parse_config(path: str, command: str):
    """Load and strictly validate one scenario file for one command.

    Returns (ModelConfig, options dict, resolved dict); the resolved dict
    echoes every applied default so the manifest captures the exact run.
    """
    schema = _OPTION_SCHEMAS[command]
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file unreadable: {exc}") from exc
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and over-long integer literals
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    allowed = set(_MODEL_REQUIRED) | set(_MODEL_OPTIONAL) | set(schema) | {"seed"}
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = [k for k in _MODEL_REQUIRED if k not in raw]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    config = ModelConfig(**{key: raw[key] for key in
                            _MODEL_REQUIRED + _MODEL_OPTIONAL if key in raw})

    options = {}
    try:
        # _tuplify and _sanitize recurse once per nesting level of a list
        for key, (kind, default) in schema.items():
            options[key] = (_coerce(key, kind, raw[key]) if key in raw
                            else (_tuplify(key, default)
                                  if kind == "list" else default))
        echoed = {key: _sanitize(options[key]) for key in sorted(options)}
    except RecursionError as exc:
        raise ConfigError("config nests a list option too deeply") from exc
    seed = _seed(raw.get("seed", 0))

    resolved = {
        "alpha": config.alpha, "T_horizon": config.T_horizon,
        "n_theta_max": config.n_theta_max, "n_r": config.n_r,
        "grid_power": config.grid_power, "n_time": config.n_time,
        "theta_quad_points": config.theta_quad_points, "seed": seed,
    }
    resolved.update(echoed)
    return config, options, seed, resolved


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path, header, rows):
    # "%.17g" % x formats exactly as _fmt(x) does, numpy scalars included
    lines = [",".join(header)]
    for row in rows:
        fmt = ",".join(["%s" if isinstance(cell, str) else "%.17g"
                        for cell in row])
        lines.append(fmt % tuple(row))
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _write_grid_csv(path: Path, header, axes, values):
    # the rows _write_csv writes for every point of the grid spanned by
    # axes (last axis fastest) followed by its entry of values, with each
    # axis node and each value formatted once instead of once per row
    keys = [""]
    for axis in axes:
        cells = ["%.17g," % x for x in np.asarray(axis).tolist()]
        keys = [key + cell for key in keys for cell in cells]
    lines = [",".join(header)]
    lines += [key + "%.17g" % v for key, v in
              zip(keys, np.asarray(values).ravel().tolist(), strict=True)]
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    return obj


def _write_json(path: Path, obj):
    path.write_text(json.dumps(_sanitize(obj), indent=2, sort_keys=True)
                    + "\n", newline="\n")


def _eigen_datum(model: Model, spectrum, parity: str, n: int, k: int,
                 scale: float = 1.0) -> np.ndarray:
    data = np.zeros((model.n_modes, model.n_radial))
    pos = model.mode_position(ModeIndex(parity, n))
    if not (1 <= k <= spectrum.values.size):
        raise ConfigError(f"radial index k={k} outside the computed spectrum")
    data[pos] = scale * spectrum.vectors[:, k - 1]
    return data


def _cmd_spectrum(out, config, options, seed):
    model = build_model(config)
    k = options["k_eigen"]
    if not (1 <= k <= model.n_radial):
        raise ConfigError("k_eigen outside the resolvable range")
    spec = radial_spectrum(model.op, k)
    oracle = bessel_oracle(config.alpha, k)
    rows = []
    for i in range(k):
        rel = abs(spec.values[i] - oracle[i]) / oracle[i]
        rows.append((i + 1, spec.values[i], oracle[i], rel))
    _write_csv(out / "spectrum.csv",
               ("k", "lambda_discrete", "lambda_bessel", "rel_error"), rows)
    return ["spectrum.csv"]


def _cmd_hardy(out, config, options, seed):
    model = build_model(config)
    rng = np.random.default_rng(seed)
    n = options["n_samples"]
    if n < 1:
        raise ConfigError("n_samples must be positive")
    nodes = model.grid.nodes
    rows = []
    bound = 4.0 / (1.0 - config.alpha) ** 2
    for i in range(n):
        deg = int(rng.integers(1, 6))
        coef = rng.standard_normal(deg + 1)
        u = nodes * (1.0 - nodes) * np.polynomial.polynomial.polyval(nodes, coef)
        rep = hardy_ratio(u, config.alpha, model.grid)
        rows.append((i, rep.ratio, rep.bound, str(rep.exceeds_bound).lower()))
        if rep.exceeds_bound:
            raise InvariantError(
                f"sample {i} breaks the weighted Hardy bound: {rep.ratio}")
    _write_csv(out / "hardy.csv", ("sample_id", "ratio", "bound", "exceeds"),
               rows)
    return ["hardy.csv"]


def _cmd_solve(out, config, options, seed):
    model = build_model(config)
    k = options["initial_k"]
    spec = radial_spectrum(model.op, max(k, 1))
    data = _eigen_datum(model, spec, options["initial_parity"],
                        options["initial_n"], k)
    tgrid = time_grid_for(model)
    # validate every snapshot before any file is written
    snapshot_nodes = []
    for t_req in options["snapshot_times"]:
        if isinstance(t_req, bool) or not isinstance(t_req, (int, float)):
            raise ConfigError("snapshot_times must hold numbers")
        node = int(round(float(t_req) / tgrid.dt))
        if not (0 <= node <= tgrid.n_time):
            raise ConfigError(f"snapshot time {t_req} outside the horizon")
        snapshot_nodes.append(node)
    states = solve_forward(ModeCoeffs(model, data))
    mass = model.grid.mass
    rows = []
    for t, state in zip(tgrid.nodes, states):
        # a plain loop over the per-mode sums: sum() rounds differently
        # from Python 3.12 on, and the CSV bytes must not move
        total = 0.0
        for row in state:
            total += float(np.sum(mass * row ** 2))
        rows.append((t, math.sqrt(total)))
    _write_csv(out / "solve.csv", ("t", "l2_norm"), rows)
    artifacts = ["solve.csv"]
    for idx, node in enumerate(snapshot_nodes):
        field = synthesize_field(ModeCoeffs(model, states[node])).values
        header = ["r"] + [f"theta_{_fmt(th)}" for th in model.theta_nodes]
        body = [(model.grid.nodes[i],) + tuple(field[:, i])
                for i in range(model.n_radial)]
        name = f"solve_snapshot_{idx}.csv"
        _write_csv(out / name, header, body)
        artifacts.append(name)
    return artifacts


_CARLEMAN_FAMILY = (("cos", 0, 1), ("cos", 0, 2), ("cos", 1, 1),
                    ("sin", 1, 1), ("cos", 2, 1), ("sin", 2, 2))


def _cmd_carleman(out, config, options, seed):
    model = build_model(config)
    a, b = options["band_a"], options["band_b"]
    eta = build_eta(config.alpha, a, b)
    s0 = s0_default(config.T_horizon)
    s_values = options["s_values"] or (s0, 2.0 * s0, 4.0 * s0)
    for s in s_values:
        if isinstance(s, bool) or not isinstance(s, (int, float)):
            raise ConfigError("s_values must hold numbers")
    k_need = max(k for _, _, k in _CARLEMAN_FAMILY)
    spec = radial_spectrum(model.op, k_need)
    tgrid = time_grid_for(model)
    rows, meta_rows = [], []
    for parity, n, k in _CARLEMAN_FAMILY:
        if n > config.n_theta_max:
            raise ConfigError("family frequency exceeds n_theta_max")
        mode = ModeIndex(parity, n)
        states = evolve_mode(model.op, mode, spec.vectors[:, k - 1],
                             None, tgrid)
        rep = carleman_report(mode, states, tgrid, None, eta, model.grid,
                              [float(s) for s in s_values])
        for row in rep.rows:
            rows.append((row.s, row.parity, row.n, row.lhs_grad, row.lhs_zero,
                         row.rhs_f, row.rhs_obs, row.ratio))
            meta_rows.append({"s": row.s, "parity": row.parity, "n": row.n,
                              "radial_k": k, "log_scale": row.log_scale,
                              "below_s0": row.below_s0})
    _write_csv(out / "carleman.csv",
               ("s", "mode_parity", "mode_n", "lhs_grad", "lhs_zero",
                "rhs_f", "rhs_obs", "ratio"), rows)
    _write_json(out / "carleman_meta.json",
                {"gamma": eta.sup_norm + 1.0, "eta_sup": eta.sup_norm,
                 "s0_default": s0, "band": [a, b],
                 "used_fallback_knot": eta.used_fallback_knot,
                 "rows": meta_rows})
    return ["carleman.csv", "carleman_meta.json"]


def _cmd_spectral_ineq(out, config, options, seed):
    c, d = options["interval_c"], options["interval_d"]
    rows = []
    for cap in options["freq_caps"]:
        if isinstance(cap, bool) or not isinstance(cap, int):
            raise ConfigError("freq_caps must hold integers")
        tg = torus_smallest_gram_eigenvalue(cap, (c, d))
        rows.append((cap, tg.lambda_min, tg.c_emp, tg.dps_used))
    _write_csv(out / "spectral_ineq.csv",
               ("freq_cap", "lambda_min", "c_emp", "dps_used"), rows)
    return ["spectral_ineq.csv"]


def _cmd_observability(out, config, options, seed):
    model = build_model(config)
    a, b = options["band_a"], options["band_b"]
    j_max = options["j_max"]
    if j_max < 0:
        raise ConfigError("j_max must be >= 0")
    if 2 ** j_max > config.n_theta_max:
        raise ConfigError("2^j_max exceeds n_theta_max")
    k_obs = options["k_max"]
    k_spec = min(max(k_obs, options["subspace_k_max"]), model.n_radial)
    spec = radial_spectrum(model.op, k_spec)
    rows = []
    for n in range(2 ** j_max + 1):
        est = mode_observability_constant(model, spec, n, a, b, k_obs)
        rows.append((n, "mode", est.c_emp, est.basis_dim, est.residual))
    interval = (options["theta_c"], options["theta_d"])
    for j in range(j_max + 1):
        est = truncated_observability(model, spec, interval, a, b, j,
                                      options["subspace_k_max"])
        rows.append((j, "subspace", est.c_emp, est.basis_dim, est.residual))
    _write_csv(out / "observability.csv",
               ("j_or_n", "cap_type", "c_emp", "basis_dim", "residual"), rows)
    return ["observability.csv"]


def _hum_initial(model, spec, kind, seed):
    if kind == "desk":
        data = (_eigen_datum(model, spec, "cos", 1, 1)
                + _eigen_datum(model, spec, "sin", 2, 3))
        return ModeCoeffs(model, data)
    if kind == "random":
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((model.n_modes, model.n_radial))
        return ModeCoeffs(model, data)
    raise ConfigError("initial must be 'desk' or 'random'")


def _cmd_hum(out, config, options, seed):
    model = build_model(config)
    spec = radial_spectrum(model.op, min(4, model.n_radial))
    phi0 = _hum_initial(model, spec, options["initial"], seed)
    region = Cylinder(options["band_a"], options["band_b"])
    res = hum_control(phi0, region, options["epsilon"], options["cg_tol"],
                      options["max_iter"])
    tgrid = time_grid_for(model)
    # one row per (half step, theta node, radial node), radial fastest
    _write_grid_csv(out / "hum_control.csv", ("t", "theta", "r", "control"),
                    (tgrid.half_nodes, model.theta_nodes, model.grid.nodes),
                    res.control_values)
    _write_json(out / "hum_summary.json", {
        "residual": res.terminal_residual, "iterations": res.iterations,
        "cost": res.cost, "linf_ratio": res.linf_ratio,
        "cg_residual": res.cg_residual, "identity_gap": res.identity_gap,
        "epsilon": res.epsilon, "phi0_norm": res.phi0_norm,
        "converged": res.converged})
    artifacts = ["hum_control.csv", "hum_summary.json"]
    if not res.converged:
        raise NonConvergenceError(
            f"conjugate gradient stopped at residual {res.cg_residual:.3e}",
            artifacts)
    return artifacts


def _cmd_lr(out, config, options, seed):
    model = build_model(config)
    region = Cylinder(options["band_a"], options["band_b"])
    if options["initial"] == "lowpass":
        # smooth datum: low angular modes carried by low radial eigenvectors
        rng = np.random.default_rng(seed)
        k_low = min(4, model.n_radial)
        spec = radial_spectrum(model.op, k_low)
        data = np.zeros((model.n_modes, model.n_radial))
        for i, m in enumerate(model.modes):
            if m.n <= 1:
                data[i] = spec.vectors @ rng.standard_normal(k_low)
        mass = model.grid.mass
        nrm = math.sqrt(float(np.sum(mass[None, :] * data ** 2)))
        phi0 = ModeCoeffs(model, data / nrm)
    elif options["initial"] == "random":
        rng = np.random.default_rng(seed)
        phi0 = ModeCoeffs(model, rng.standard_normal(
            (model.n_modes, model.n_radial)))
    else:
        raise ConfigError("initial must be 'lowpass' or 'random'")
    res = lr_control(phi0, region, options["tol"], options["n_blocks"])
    _write_json(out / "lr_blocks.json", {
        "boundaries": list(res.boundaries), "caps": list(res.caps),
        "block_costs": list(res.block_costs),
        "block_norms": list(res.block_norms),
        "epsilons": list(res.epsilons),
        "final_residual": res.final_residual, "tol": res.tol,
        "converged": res.converged})
    if not res.converged:
        raise NonConvergenceError(
            f"final residual {res.final_residual:.3e} above tol {res.tol:.3e}",
            ["lr_blocks.json"])
    return ["lr_blocks.json"]


def _cmd_measurable(out, config, options, seed):
    model = build_model(config)
    spec = radial_spectrum(model.op, model.n_radial)
    try:
        region = BoxUnionSet(boxes=options["boxes"], band_a=options["band_a"],
                             band_b=options["band_b"],
                             horizon=config.T_horizon)
    except ConfigError as exc:
        if options["boxes"] != _DEFAULT_BOXES:
            raise
        # the message would name a box the config never wrote
        raise ConfigError(
            "the default region was used for boxes; it needs "
            f"T_horizon >= 0.95, band_a <= 0.32 and band_b >= 0.58 ({exc})"
        ) from exc
    family = datum_family(model, spec, options["family_size"], seed)
    rep = measurable_observability_ratio(
        model, spec, family, region, options["c_calib"], options["h_calib"],
        options["m_max"], options["n_quad"])
    _write_json(out / "measurable.json", {
        "E_intervals": [list(iv) for iv in rep.e_intervals],
        "E_measure": rep.e_measure, "slice_threshold": rep.slice_threshold,
        "region_measure": rep.region_measure,
        "ell": rep.ell, "q": rep.q, "ell_sequence": list(rep.sequence),
        "sequence_note": rep.sequence_note, "rho_max": rep.rho_max,
        "per_datum": [{"index": r.index, "rho": r.rho,
                       "terminal_norm": r.terminal_norm,
                       "observed_l1": r.observed_l1, "excluded": r.excluded}
                      for r in rep.per_datum]})
    return ["measurable.json"]


def _cmd_density_seq(out, config, options, seed):
    intervals = []
    for iv in options["e_intervals"]:
        if (not isinstance(iv, (list, tuple)) or len(iv) != 2
                or any(isinstance(x, bool) or not isinstance(x, (int, float))
                       for x in iv)
                or not 0 <= iv[0] < iv[1] <= config.T_horizon):
            raise ConfigError("e_intervals must hold [lo, hi] number pairs "
                              "with 0 <= lo < hi <= T_horizon")
        intervals.append((float(iv[0]), float(iv[1])))
    slices = TimeSliceSet(threshold=0.0, intervals=intervals,
                          horizon=config.T_horizon)
    seq = density_sequence(slices, options["ell"], options["q"],
                           options["m_max"])
    _write_json(out / "density_seq.json", {
        "ell": seq.ell, "q": seq.q, "values": list(seq.values),
        "gap_fractions": list(seq.gap_fractions)})
    return ["density_seq.json"]


_DISPATCH = {
    "spectrum": _cmd_spectrum, "hardy": _cmd_hardy, "solve": _cmd_solve,
    "carleman": _cmd_carleman, "spectral-ineq": _cmd_spectral_ineq,
    "observability": _cmd_observability, "hum": _cmd_hum, "lr": _cmd_lr,
    "measurable": _cmd_measurable, "density-seq": _cmd_density_seq,
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(command: str, config_path: str, out_dir: str, seed_flag=None) -> int:
    """Execute one command and always leave a manifest in the output dir."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        # usage error with nowhere to write a manifest
        print(f"error: cannot use --out {out_dir}: {exc}", file=sys.stderr)
        return 2
    started = time.monotonic()
    manifest = {"command": command, "status": "failed", "artifacts": [],
                "config": None, "seed": None, "duration_seconds": None}

    def finish(status, artifacts=(), error=None):
        manifest["status"] = status
        manifest["artifacts"] = [{"name": name, "sha256": _sha256(out / name)}
                                 for name in sorted(artifacts)]
        if error is not None:
            manifest["error"] = error
            print(f"error: {error}", file=sys.stderr)
        manifest["duration_seconds"] = time.monotonic() - started
        _write_json(out / "manifest.json", manifest)

    try:
        config, options, seed, resolved = parse_config(config_path, command)
        if seed_flag is not None:
            seed = _seed(int(seed_flag))
            resolved["seed"] = seed
        manifest["config"] = resolved
        manifest["seed"] = seed
        artifacts = _DISPATCH[command](out, config, options, seed)
    except ConfigError as exc:
        finish("config-error", error=str(exc))
        return 2
    except NonConvergenceError as exc:
        finish("non-convergence", exc.artifacts, str(exc))
        return 3
    except (InvariantError, AssertionError) as exc:
        finish("invariant-violation", error=str(exc))
        return 1
    except Exception as exc:
        traceback.print_exc()
        finish("internal-error", error=f"{type(exc).__name__}: {exc}")
        return 1
    finish("ok", artifacts)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="degenctrl",
        description="Numerical laboratory for controllability of a "
                    "degenerate parabolic equation on a periodic strip.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    return run(args.command, args.config, args.out, args.seed)


if __name__ == "__main__":
    sys.exit(main())
