"""Front-door behavior: strict configs, exit codes, manifests, determinism."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import degenctrl
from degenctrl import ConfigError, ModelConfig, cli
from degenctrl.cli import main

BASE = {"alpha": 0.5, "T_horizon": 1.0, "n_theta_max": 2, "n_r": 40,
        "n_time": 32}


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def _run(tmp_path, command, payload, out="out", seed=None):
    cfg = _write(tmp_path, f"{command}.json", payload)
    argv = [command, "--config", cfg, "--out", str(tmp_path / out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return main(argv), tmp_path / out


def test_spectrum_artifacts_and_manifest(tmp_path):
    code, out = _run(tmp_path, "spectrum", dict(BASE, k_eigen=4))
    assert code == 0
    header = (out / "spectrum.csv").read_text().splitlines()[0]
    assert header == "k,lambda_discrete,lambda_bessel,rel_error"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["config"]["k_eigen"] == 4
    assert manifest["config"]["seed"] == 0
    names = [a["name"] for a in manifest["artifacts"]]
    assert names == ["spectrum.csv"]
    assert all(len(a["sha256"]) == 64 for a in manifest["artifacts"])


def test_string_where_number_is_config_error(tmp_path):
    code, out = _run(tmp_path, "spectrum", dict(BASE, alpha="0.5"))
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert "alpha" in manifest["error"]


def test_bool_where_number_is_config_error(tmp_path):
    code, _ = _run(tmp_path, "spectrum", dict(BASE, n_r=True))
    assert code == 2


def test_unknown_key_is_config_error(tmp_path):
    code, out = _run(tmp_path, "spectrum", dict(BASE, k_eigne=4))
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert "k_eigne" in manifest["error"]


def test_missing_required_key_is_config_error(tmp_path):
    payload = {k: v for k, v in BASE.items() if k != "alpha"}
    code, _ = _run(tmp_path, "spectrum", payload)
    assert code == 2


def test_unknown_command_is_usage_error(tmp_path):
    cfg = _write(tmp_path, "c.json", BASE)
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_out_at_or_under_a_file_is_usage_error(tmp_path, capsys, out):
    # no directory to put a manifest in: one error line, no traceback
    cfg = _write(tmp_path, "c.json", dict(BASE, k_eigen=4))
    (tmp_path / "taken").write_text("keep")
    assert main(["spectrum", "--config", cfg,
                 "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert (tmp_path / "taken").read_text() == "keep"


def test_missing_config_file_is_config_error(tmp_path):
    code, _ = (main(["spectrum", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]), None)
    assert code == 2


def test_invalid_json_is_config_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["spectrum", "--config", str(p),
                 "--out", str(tmp_path / "o")]) == 2


def test_integer_past_the_digit_limit_is_config_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"alpha": ' + "9" * 5000 + "}")
    assert main(["spectrum", "--config", str(p),
                 "--out", str(tmp_path / "o")]) == 2


def test_undecodable_config_is_config_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_bytes(b"\xff\xfe" + json.dumps(BASE).encode())
    assert main(["spectrum", "--config", str(p),
                 "--out", str(tmp_path / "o")]) == 2
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["status"] == "config-error"


@pytest.mark.parametrize("command, payload", [
    ("solve", dict(BASE, T_horizon=math.inf)),
    ("hum", dict(BASE, cg_tol=math.nan)),
    ("lr", dict(BASE, tol=math.inf)),
])
def test_non_finite_number_is_config_error(tmp_path, command, payload):
    code, out = _run(tmp_path, command, payload)
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config-error"


@pytest.mark.parametrize("command, payload", [
    ("spectrum", dict(BASE, k_eigen=0)),
    ("spectrum", dict(BASE, k_eigen=40)),
    ("hardy", dict(BASE, n_samples=0)),
    ("observability", dict(BASE, j_max=-1)),
    ("hum", dict(BASE, initial="lowpass")),
    ("lr", dict(BASE, initial="desk")),
    ("spectrum", [BASE]),
    ("solve", dict(BASE, snapshot_times="0.5")),
    ("hum", dict(BASE, initial=3)),
], ids=["k-eigen-0", "k-eigen-40", "no-samples", "negative-j-max",
        "hum-lowpass", "lr-desk", "config-list", "snapshot-string",
        "initial-number"])
def test_refused_option_writes_only_the_manifest(tmp_path, command, payload):
    code, out = _run(tmp_path, command, payload)
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf]),
    lambda inner: st.lists(inner, max_size=3), max_leaves=6)


@st.composite
def _command_configs(draw):
    command = draw(st.sampled_from(cli.COMMANDS))
    keys = sorted(set(cli._MODEL_REQUIRED) | set(cli._MODEL_OPTIONAL)
                  | set(cli._OPTION_SCHEMAS[command]) | {"seed"})
    # a valid base with a few keys overwritten reaches past the first check
    payload = dict(BASE)
    payload.update(draw(st.dictionaries(st.sampled_from(keys), _JSON_VALUES,
                                        max_size=2)))
    return command, payload


@settings(max_examples=100, deadline=None)
@given(_command_configs())
def test_parse_config_accepts_finite_or_raises_config_error(
        tmp_path_factory, drawn):
    command, payload = drawn
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(payload))   # NaN and Infinity pass through
    try:
        config, options, _, _ = cli.parse_config(str(path), command)
    except ConfigError:
        return
    assert all(math.isfinite(x) for x in
               (config.alpha, config.T_horizon, config.grid_power))
    assert all(math.isfinite(options[key])
               for key, (kind, _) in cli._OPTION_SCHEMAS[command].items()
               if kind == "real")

    def numbers(value):
        for v in value:
            if isinstance(v, tuple):
                yield from numbers(v)
            elif isinstance(v, (int, float)):
                yield v

    assert all(math.isfinite(x)
               for key, (kind, _) in cli._OPTION_SCHEMAS[command].items()
               if kind in ("reals", "ints", "intervals", "boxes")
               for x in numbers(options[key]))


def _outcome(make):
    try:
        return "ok", make()
    except ConfigError as exc:
        return "refused", str(exc)


# the model's own rules, which apply after the number rule has passed
_RANGE_MESSAGES = {"T_horizon": ("T_horizon must be positive",),
                   "n_time": ("n_time must be >= 2", "n_time too large")}


@settings(max_examples=150, deadline=None)
@given(st.none() | st.booleans() | st.integers()
       | st.integers(10 ** 308, 10 ** 400) | st.floats() | st.text(max_size=4)
       | st.lists(st.integers(), max_size=2))
def test_model_field_and_option_share_the_number_rule(drawn):
    value = json.loads(json.dumps(drawn))   # NaN and Infinity literals too
    for key, kind in (("T_horizon", "real"), ("n_time", "int")):
        option = _outcome(lambda: cli._coerce(key, kind, value))
        field = _outcome(lambda: getattr(
            ModelConfig(**dict(BASE, **{key: value})), key))
        if option[0] == "refused":
            assert field == option
            assert option[1].startswith(key) and repr(value) in option[1]
        elif field[0] == "ok":
            assert type(field[1]) is type(option[1])
            assert field[1] == option[1]
        else:
            assert field[1].startswith(_RANGE_MESSAGES[key])


# every size key of a command, small: a size inside numpy's index range
# allocates for real, so the run fuzz draws sizes only from these ranges
_SMALL_SIZES = {
    "n_r": (-1, 24), "n_time": (-1, 8), "n_theta_max": (-1, 3),
    "theta_quad_points": (-1, 16), "k_eigen": (-1, 12), "n_samples": (-1, 4),
    "initial_n": (-1, 3), "initial_k": (-1, 4), "k_max": (-1, 8),
    "j_max": (-1, 2), "subspace_k_max": (-1, 3), "max_iter": (-1, 8),
    "n_blocks": (-1, 3), "family_size": (-1, 3), "m_max": (-1, 6),
    "n_quad": (-1, 4), "freq_caps": (-1, 4)}
_FUZZ_BASE = {"alpha": 0.5, "T_horizon": 1.0, "n_theta_max": 2, "n_r": 12,
              "n_time": 6, "k_eigen": 3, "n_samples": 3, "k_max": 4,
              "j_max": 1, "subspace_k_max": 2, "max_iter": 8, "n_blocks": 2,
              "family_size": 2, "m_max": 4, "n_quad": 3, "freq_caps": [0, 2]}
_STATUS = {0: ("ok",), 1: ("invariant-violation", "internal-error"),
           2: ("config-error",), 3: ("non-convergence",)}


def _holds_int(value) -> bool:
    if isinstance(value, list):
        return any(_holds_int(v) for v in value)
    return isinstance(value, int) and not isinstance(value, bool)


def _typed(kind, key):
    """Values of one option kind, sizes from their small range only."""
    if kind == "real":
        return st.floats(-2.0, 8.0) | st.floats()
    if kind == "int":
        return st.integers(*_SMALL_SIZES.get(key, (-2, 4)))
    if kind == "str":
        return st.sampled_from(("cos", "sin", "desk", "random", "lowpass"))
    element, length = cli._ELEMENT_KINDS[kind]
    return st.lists(_typed(element, key), min_size=length or 0,
                    max_size=length or 3)


@st.composite
def _run_configs(draw):
    command = draw(st.sampled_from(cli.COMMANDS))
    kinds = {f.name: "int" if f.type is int else "real"
             for f in dataclasses.fields(ModelConfig)}
    kinds.update({key: kind for key, (kind, _) in
                  cli._OPTION_SCHEMAS[command].items()}, seed="int")
    keys = st.sampled_from(sorted(kinds))
    payload = {k: v for k, v in _FUZZ_BASE.items() if k in kinds}
    for key in draw(st.lists(keys, max_size=3, unique=True)):
        payload[key] = draw(_typed(kinds[key], key))
    if draw(st.booleans()):     # and one value of any type
        key = draw(keys)
        payload[key] = draw(_JSON_VALUES.filter(lambda v: not _holds_int(v))
                            if key in _SMALL_SIZES else _JSON_VALUES)
    return command, payload


@settings(max_examples=200, deadline=None)
@given(_run_configs())
def test_run_always_leaves_a_truthful_manifest(tmp_path_factory, drawn):
    command, payload = drawn
    root = tmp_path_factory.mktemp("run")
    config = root / "config.json"
    config.write_text(json.dumps(payload))
    out = root / "out"
    code = cli.run(command, str(config), str(out))
    assert code in _STATUS
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] in _STATUS[code]
    listed = {a["name"] for a in manifest["artifacts"]}
    assert {p.name for p in out.iterdir()} == listed | {"manifest.json"}


def test_density_seq_reproduces_reference_values(tmp_path):
    payload = dict(BASE, e_intervals=[[0.0, 1.0]], ell=0.5, q=0.5, m_max=4)
    code, out = _run(tmp_path, "density-seq", payload)
    assert code == 0
    doc = json.loads((out / "density_seq.json").read_text())
    assert np.allclose(doc["values"], [0.9, 0.7, 0.6, 0.55], atol=1e-12)


def test_density_seq_merges_overlapping_intervals(tmp_path):
    base = dict(BASE, ell=0.5, q=0.5, m_max=4)
    _, once = _run(tmp_path, "density-seq", dict(base, e_intervals=[[0, 1]]),
                   out="once")
    _, twice = _run(tmp_path, "density-seq",
                    dict(base, e_intervals=[[0, 1], [0, 1]]), out="twice")
    assert ((twice / "density_seq.json").read_bytes()
            == (once / "density_seq.json").read_bytes())
    for bad in ([[0.6, 0.2]], [[0, 2]]):
        code, _ = _run(tmp_path, "density-seq", dict(base, e_intervals=bad),
                       out="bad")
        assert code == 2


def test_density_seq_nonconvergence_exit_code(tmp_path):
    payload = dict(BASE, e_intervals=[[0.4, 0.5]], ell=0.9, q=0.9, m_max=6)
    code, out = _run(tmp_path, "density-seq", payload)
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "non-convergence"


@pytest.mark.parametrize("m_max", [10 ** 30, 10 ** 400])
def test_density_seq_huge_m_max_is_nonconvergence(tmp_path, m_max):
    # no capped gap scale keeps the last terms apart; nothing is allocated
    code, out = _run(tmp_path, "density-seq", dict(BASE, m_max=m_max))
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "non-convergence"
    assert "round to the target" in manifest["error"]


def test_density_seq_outcomes_at_the_rounding_edge(tmp_path):
    # at the default intervals, ell and q, 54 terms stay apart and 55 do
    # not; the full search decides 55, the early test fires from 56 on
    code, out = _run(tmp_path, "density-seq", dict(BASE, m_max=54), out="54")
    assert code == 0
    doc = json.loads((out / "density_seq.json").read_text())
    assert len(doc["values"]) == 54
    for m_max, early in ((55, False), (56, True)):
        code, out = _run(tmp_path, "density-seq", dict(BASE, m_max=m_max),
                         out=str(m_max))
        assert code == 3
        error = json.loads((out / "manifest.json").read_text())["error"]
        assert ("round to the target" in error) == early


def test_measurable_huge_m_max_notes_the_failed_sequence(tmp_path):
    payload = dict(BASE, family_size=2, n_quad=4, m_max=10 ** 30)
    code, out = _run(tmp_path, "measurable", payload)
    assert code == 0
    doc = json.loads((out / "measurable.json").read_text())
    assert doc["ell_sequence"] == []
    assert "round to the target" in doc["sequence_note"]


def test_unresolved_gram_eigenvalue_is_nonconvergence(tmp_path):
    # an interval of length 1e-300 exhausts the precision ladder at K = 1
    payload = dict(BASE, interval_c=0.0, interval_d=1e-300)
    code, out = _run(tmp_path, "spectral-ineq", payload)
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "non-convergence"
    assert "smallest Gram eigenvalue" in manifest["error"]


def test_solve_snapshot_layout(tmp_path):
    payload = dict(BASE, initial_parity="cos", initial_n=1, initial_k=1,
                   snapshot_times=[0.5])
    code, out = _run(tmp_path, "solve", payload)
    assert code == 0
    lines = (out / "solve_snapshot_0.csv").read_text().splitlines()
    assert lines[0].startswith("r,theta_")
    assert len(lines) == 1 + BASE["n_r"] - 1
    assert len(lines[0].split(",")) == 1 + 4 * BASE["n_theta_max"] + 8
    solve_rows = (out / "solve.csv").read_text().splitlines()
    assert len(solve_rows) == 1 + BASE["n_time"] + 1


def test_bad_snapshot_time_writes_nothing(tmp_path):
    # -0.01 and 1.01 round onto the first and last nodes of the horizon
    for i, times in enumerate(([0.25, 5.0], [-0.01], [1.01])):
        payload = dict(BASE, initial_parity="cos", initial_n=1, initial_k=1,
                       snapshot_times=times)
        code, out = _run(tmp_path, "solve", payload, out=f"out{i}")
        assert code == 2, times
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "config-error"
        assert manifest["artifacts"] == []
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


@pytest.mark.parametrize("command, key", [
    ("spectrum", "n_r"), ("spectrum", "n_theta_max"),
    ("spectrum", "theta_quad_points"), ("solve", "n_time"), ("hum", "n_time"),
    ("observability", "j_max"), ("measurable", "n_quad"),
    ("hardy", "n_samples"), ("measurable", "family_size")])
def test_size_past_the_index_range_is_config_error(tmp_path, command, key):
    # 10**30 entries overflow numpy's index range; nothing is allocated
    code, out = _run(tmp_path, command, dict(BASE, **{key: 10 ** 30}))
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert key in manifest["error"]
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_mode_past_n_theta_max_is_config_error(tmp_path):
    payload = dict(BASE, initial_parity="cos", initial_n=9, initial_k=1)
    code, out = _run(tmp_path, "solve", payload)
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert "(cos, 9)" in manifest["error"]
    assert "n_theta_max" in manifest["error"]


def test_csv_cells_format_as_17_significant_digits(tmp_path):
    cells = [0.1, -0.0, 5e-324, 1e308, float("inf"), float("-inf"),
             float("nan"), np.float64(2.0) / 3.0, np.int64(71), True, 3, "x"]
    cli._write_csv(tmp_path / "t.csv", ("a", "b"), [cells, cells[::-1]])
    expected = [",".join(c if isinstance(c, str) else f"{float(c):.17g}"
                         for c in row) for row in (cells, cells[::-1])]
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines == ["a,b"] + expected


def test_seed_flag_overrides_config(tmp_path):
    payload = dict(BASE, n_samples=5, seed=1)
    code, out = _run(tmp_path, "hardy", payload, seed=7)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["config"]["seed"] == 7


@pytest.mark.parametrize("where", ["config", "flag"])
def test_negative_seed_is_config_error(tmp_path, capsys, where):
    payload = dict(BASE, n_samples=5)
    if where == "config":
        code, out = _run(tmp_path, "hardy", dict(payload, seed=-3))
    else:
        code, out = _run(tmp_path, "hardy", payload, seed=-1)
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert "seed" in manifest["error"]
    assert manifest["artifacts"] == []
    assert "Traceback" not in capsys.readouterr().err


def test_rerun_is_byte_identical(tmp_path):
    payload = dict(BASE, n_samples=25, seed=3)
    _, out1 = _run(tmp_path, "hardy", payload, out="o1")
    _, out2 = _run(tmp_path, "hardy", payload, out="o2")
    assert (out1 / "hardy.csv").read_bytes() == (out2 / "hardy.csv").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["artifacts"] == m2["artifacts"]


def test_observability_command_schema(tmp_path):
    payload = dict(BASE, n_theta_max=4, n_r=80, T_horizon=0.5,
                   band_a=0.3, band_b=0.6, k_max=6, j_max=2,
                   subspace_k_max=3)
    code, out = _run(tmp_path, "observability", payload)
    assert code == 0
    lines = (out / "observability.csv").read_text().splitlines()
    assert lines[0] == "j_or_n,cap_type,c_emp,basis_dim,residual"
    kinds = [ln.split(",")[1] for ln in lines[1:]]
    assert kinds.count("mode") == 5       # n = 0..2^j_max
    assert kinds.count("subspace") == 3   # j = 0..j_max


@pytest.mark.parametrize("theta", [(0.0, 2.0 * math.pi), (0.5, 1.5)])
@pytest.mark.parametrize("key", ["k_max", "subspace_k_max"])
@pytest.mark.parametrize("value", [0, -3])
def test_nonpositive_truncation_is_config_error(tmp_path, theta, key, value):
    payload = dict(BASE, band_a=0.3, band_b=0.6, k_max=4, j_max=1,
                   subspace_k_max=2, theta_c=theta[0], theta_d=theta[1])
    payload[key] = value
    code, out = _run(tmp_path, "observability", payload)
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert "k_max" in manifest["error"]


def test_unconverged_inverse_iteration_is_nonconvergence(tmp_path,
                                                        monkeypatch):
    # the gram-ladder shape takes the mp route at j = 2; with no inverse
    # iteration the extremizer is the start vector, residual about 700
    monkeypatch.setattr(degenctrl.observability, "_INVERSE_ITERATIONS", 0)
    payload = {"alpha": 0.5, "T_horizon": 1.0, "n_theta_max": 4, "n_r": 60,
               "n_time": 48, "band_a": 0.3, "band_b": 0.6, "k_max": 6,
               "j_max": 2, "subspace_k_max": 3, "theta_c": 2.0,
               "theta_d": 2.4}
    code, out = _run(tmp_path, "observability", payload)
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "non-convergence"
    assert "inverse iteration" in manifest["error"]
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_stalled_prolate_iteration_is_nonconvergence(tmp_path, monkeypatch):
    # one inverse-iteration step never meets the step tolerance at K = 12,
    # so every attempt on the precision ladder gives up
    monkeypatch.setattr(degenctrl.observability, "_PROLATE_STEPS", 1)
    payload = dict(BASE, freq_caps=[12], interval_c=0.0, interval_d=1.0)
    code, out = _run(tmp_path, "spectral-ineq", payload)
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "non-convergence"
    assert "smallest Gram eigenvalue at K=12" in manifest["error"]
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_carleman_command_outputs(tmp_path):
    payload = dict(BASE, n_r=60, band_a=0.3, band_b=0.6)
    code, out = _run(tmp_path, "carleman", payload)
    assert code == 0
    lines = (out / "carleman.csv").read_text().splitlines()
    assert lines[0] == ("s,mode_parity,mode_n,lhs_grad,lhs_zero,"
                        "rhs_f,rhs_obs,ratio")
    assert len(lines) == 1 + 6 * 3        # six cases, three s values
    meta = json.loads((out / "carleman_meta.json").read_text())
    assert meta["s0_default"] == pytest.approx(10.0)
    assert len(meta["rows"]) == 18


def test_carleman_band_without_radial_nodes_is_config_error(tmp_path,
                                                            monkeypatch):
    # no node of the n_r = 40 grid lies in the band; hum, lr and
    # observability refuse it with the same message, and carleman refuses
    # it before its first march
    march = cli.evolve_mode
    marches = []

    def counted(*args, **kwargs):
        marches.append(args[1])
        return march(*args, **kwargs)

    monkeypatch.setattr(cli, "evolve_mode", counted)
    code, out = _run(tmp_path, "carleman",
                     dict(BASE, band_a=0.3, band_b=0.3001))
    assert code == 2
    assert marches == []
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert "no radial nodes inside (0.3, 0.3001)" in manifest["error"]
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


@pytest.mark.parametrize("band", [(1e-100, 1.1e-100), (0.6, 0.3)],
                         ids=["below-float-range", "reversed"])
def test_carleman_band_refused_before_the_weight(tmp_path, band):
    # the weight of the first band would overflow; the band is refused
    # for holding no node before the weight is built
    a, b = band
    code, out = _run(tmp_path, "carleman", dict(BASE, band_a=a, band_b=b))
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert f"no radial nodes inside ({a}, {b})" in manifest["error"]
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


@pytest.mark.parametrize("command, extra", [
    ("hum", {}), ("lr", {}), ("observability", {"j_max": 1})],
    ids=["hum", "lr", "observability"])
def test_band_without_radial_nodes_is_config_error(tmp_path, command, extra):
    # j_max 1 keeps 2^j_max within n_theta_max 2
    code, out = _run(tmp_path, command,
                     dict(BASE, band_a=0.3, band_b=0.3001, **extra))
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert "no radial nodes inside (0.3, 0.3001)" in manifest["error"]
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_carleman_frequency_past_the_cap_is_config_error(tmp_path,
                                                        monkeypatch):
    # the family reaches frequency 2; with n_theta_max 1 it is refused
    # before the spectrum is solved and before any march
    calls = []
    for name in ("evolve_mode", "radial_spectrum"):
        def counted(*args, _name=name, _call=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _call(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    code, out = _run(tmp_path, "carleman", dict(BASE, n_theta_max=1))
    assert code == 2
    assert calls == []
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert "family frequency exceeds n_theta_max" in manifest["error"]
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


@pytest.mark.parametrize("s", [1e300, 1e120, 1e102])
def test_carleman_s_past_float_range_is_config_error(tmp_path, s):
    # s^3 overflows at the first two; the weighted integrals at the third
    code, out = _run(tmp_path, "carleman", dict(BASE, s_values=[s]))
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert f"s = {s!r}" in manifest["error"]
    assert manifest["artifacts"] == []


@pytest.mark.parametrize("horizon", [2e19, 1e-15])
def test_carleman_horizon_past_float_range_is_config_error(tmp_path, horizon):
    # T^16 overflows in s0 at the first; Theta^3 on the time grid at the
    # second, whose weighted integrals would be inf * 0
    code, out = _run(tmp_path, "carleman",
                     dict(BASE, T_horizon=horizon, s_values=[10]))
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert "T_horizon" in manifest["error"]
    assert manifest["artifacts"] == []


@pytest.mark.parametrize("value", [math.nan, math.inf, 10 ** 400],
                         ids=["nan", "inf", "401-digit"])
@pytest.mark.parametrize("command, key", [("solve", "snapshot_times"),
                                          ("carleman", "s_values")])
def test_non_finite_number_in_a_list_is_config_error(tmp_path, command, key,
                                                     value):
    code, out = _run(tmp_path, command, dict(BASE, **{key: [value]}))
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert key in manifest["error"]
    assert manifest["artifacts"] == []
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


@pytest.mark.parametrize("command, key, value", [
    ("spectral-ineq", "freq_caps", [1.5]),
    ("spectral-ineq", "freq_caps", [True]),
    ("solve", "snapshot_times", [[0.5]]),
    ("carleman", "s_values", ["10"]),
    ("spectral-ineq", "freq_caps", [10 ** 400]),
    ("density-seq", "e_intervals", [[0]]),
    ("density-seq", "e_intervals", [[0, "1"]]),
    ("measurable", "boxes", [[[0.5, 2.0], [0.32, 0.45]]]),
    ("measurable", "boxes", [[[0.5, 2.0], [0.32, 0.45], [0.05, True]]]),
], ids=["freq_caps-1.5", "freq_caps-true", "snapshot_times-nested",
        "s_values-string", "freq_caps-401-digits", "e_intervals-one-edge",
        "e_intervals-string", "boxes-two-edges", "boxes-true"])
def test_list_element_of_the_wrong_type_is_config_error(tmp_path, command,
                                                        key, value):
    code, out = _run(tmp_path, command, dict(BASE, **{key: value}))
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert key in manifest["error"]
    # rejected while parsing, like every other malformed option
    assert manifest["config"] is None
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_hum_command_outputs(tmp_path):
    payload = dict(BASE, band_a=0.3, band_b=0.6, epsilon=1e-4,
                   cg_tol=1e-6, max_iter=300, initial="desk")
    code, out = _run(tmp_path, "hum", payload)
    assert code == 0
    summary = json.loads((out / "hum_summary.json").read_text())
    assert summary["converged"] is True
    assert summary["iterations"] >= 1
    assert summary["cost"] > 0
    header = (out / "hum_control.csv").read_text().splitlines()[0]
    assert header == "t,theta,r,control"


@pytest.mark.parametrize("initial", ["desk", "random"])
def test_hum_csv_matches_per_row_route(tmp_path, monkeypatch, initial):
    # hum_control.csv formats each axis once; the bytes must be those of
    # one _write_csv row per meshgrid point
    results = []
    hum_control = cli.hum_control

    def recording_hum_control(*args, **kwargs):
        results.append(hum_control(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "hum_control", recording_hum_control)
    payload = dict(BASE, band_a=0.3, band_b=0.6, epsilon=1e-4,
                   cg_tol=1e-6, max_iter=300, initial=initial)
    code, out = _run(tmp_path, "hum", payload, seed=3)
    assert code == 0
    (res,) = results
    model = res.model
    half_nodes = model.tgrid.half_nodes
    axes = np.meshgrid(half_nodes, model.theta_nodes, model.grid.nodes,
                       indexing="ij")
    columns = [a.ravel().tolist() for a in axes]
    rows = zip(*columns, res.control_values.ravel().tolist(), strict=True)
    cli._write_csv(tmp_path / "expected.csv", ("t", "theta", "r", "control"),
                   rows)
    assert ((out / "hum_control.csv").read_bytes()
            == (tmp_path / "expected.csv").read_bytes())


def test_negative_max_iter_is_config_error(tmp_path):
    code, out = _run(tmp_path, "hum", dict(BASE, max_iter=-1))
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert "max_iter" in manifest["error"]
    assert manifest["artifacts"] == []
    # a zero budget is valid: CG never runs and the run ends unconverged
    code, _ = _run(tmp_path, "hum", dict(BASE, max_iter=0), out="zero")
    assert code == 3


def test_lr_command_outputs(tmp_path):
    payload = dict(BASE, band_a=0.3, band_b=0.6, tol=1e-3, n_blocks=3,
                   initial="lowpass", seed=4)
    code, out = _run(tmp_path, "lr", payload)
    assert code == 0
    doc = json.loads((out / "lr_blocks.json").read_text())
    assert doc["converged"] is True
    assert doc["boundaries"] == [0.0, 0.5, 0.75, 0.875, 1.0]
    assert len(doc["block_norms"]) == 3


def test_lr_random_datum(tmp_path):
    # a white-noise datum: at the default tol its first
    # block's budget is out of reach, at tol 1e-2 it converges
    payload = dict(BASE, initial="random")
    code, out = _run(tmp_path, "lr", payload, out="default")
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "non-convergence"
    assert manifest["artifacts"] == []
    assert "block 0 budget" in manifest["error"]
    assert "unreachable" in manifest["error"]
    loose = dict(payload, tol=1e-2)
    runs = [_run(tmp_path, "lr", loose, out=out) for out in ("a", "b")]
    assert [code for code, _ in runs] == [0, 0]
    first, second = ((out / "lr_blocks.json").read_bytes() for _, out in runs)
    assert first == second


def test_malformed_box_is_config_error(tmp_path):
    code, out = _run(tmp_path, "measurable", dict(BASE, boxes=[[1, 2]]))
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert "box" in manifest["error"]
    bad_edge = [[[0.5, "2"], [0.32, 0.45], [0.05, 0.45]]]
    code, out = _run(tmp_path, "measurable", dict(BASE, boxes=bad_edge),
                     out="out2")
    assert code == 2


def test_empty_boxes_is_config_error(tmp_path):
    # an explicit empty region is an error, not a request for the default
    code, out = _run(tmp_path, "measurable", dict(BASE, boxes=[]))
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert "box" in manifest["error"]
    assert manifest["artifacts"] == []


def test_omitted_boxes_resolve_to_the_default_region(tmp_path):
    # the manifest echoes the region the run used
    _, options, _, resolved = cli.parse_config(
        _write(tmp_path, "m.json", BASE), "measurable")
    assert options["boxes"] == cli._DEFAULT_BOXES
    assert resolved["boxes"] == [[list(edge) for edge in box]
                                 for box in cli._DEFAULT_BOXES]


def test_default_region_past_the_horizon_says_it_is_the_default(tmp_path):
    # the default region ends at t = 0.95; the error must not name its box
    # as if the config had written it
    code, out = _run(tmp_path, "measurable", dict(BASE, T_horizon=0.5))
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert "default region" in manifest["error"]
    assert "T_horizon >= 0.95" in manifest["error"]
    assert manifest["artifacts"] == []


@pytest.mark.parametrize("depth", [600, 990])
def test_deeply_nested_list_option_is_config_error(tmp_path, depth):
    # json.loads accepts this nesting; coercing the option must not recurse
    # into a raw RecursionError (exit 1)
    text = json.dumps(BASE)[:-1] + ', "boxes": ' + "[" * depth + "0.5" \
        + "]" * depth + "}"
    cfg = tmp_path / "measurable.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    code = main(["measurable", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert manifest["artifacts"] == []


def test_unexpected_exception_exits_1_with_manifest(tmp_path, monkeypatch):
    def broken(out, config, options, seed):
        raise ZeroDivisionError("boom")

    monkeypatch.setitem(cli._DISPATCH, "spectrum", broken)
    code, out = _run(tmp_path, "spectrum", dict(BASE, k_eigen=4))
    assert code == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "internal-error"
    assert manifest["error"] == "ZeroDivisionError: boom"


def test_nonconvergence_manifest_lists_only_this_run(tmp_path):
    code, out = _run(tmp_path, "spectrum", dict(BASE, k_eigen=4))
    assert code == 0
    payload = dict(BASE, epsilon=1e-6, cg_tol=1e-12, max_iter=1)
    code, out = _run(tmp_path, "hum", payload)
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "non-convergence"
    names = [a["name"] for a in manifest["artifacts"]]
    assert names == ["hum_control.csv", "hum_summary.json"]


def test_cli_import_leaves_out_scipy_optimize_and_special(tmp_path):
    # the two subpackages add about 0.3 s to a cold start; the package
    # uses scipy only through scipy.linalg
    src = str(Path(degenctrl.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = ("import sys, degenctrl.cli; print(sorted(m for m in sys.modules "
             "if m.startswith(('scipy.optimize', 'scipy.special'))))")
    done = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
