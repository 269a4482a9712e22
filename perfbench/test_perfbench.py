"""Tests of the benchmark itself: counters, tracer, checks, exit paths.

    python3 -m pytest -q perfbench

The gram-ladder test runs two ~9 s ops; the rest take a few seconds.
"""

import json
import shutil
import subprocess
import sys

import pytest

import tracer
import workloads as wl

cli = wl.load_cli()


def _counters(metrics: dict) -> dict:
    """The exact work counters of an op: every metric that is not a time."""
    times = {key for key, unit in tracer.PER_LAYER if unit == "s"}
    return {k: v for k, v in metrics.items() if k not in times}


def _traced_op(workload, index, out):
    tr = tracer.Tracer()
    tr.install()
    try:
        first = tr.begin_op()
        done = workload.run(index, out)
    finally:
        tr.uninstall()
    assert workload.check(index, done) == []
    return tr.op_metrics(first), tr


def test_suite_matches_the_c14_acceptance_suite():
    sys.path.insert(0, str(wl.ROOT))
    try:
        from tests.test_acceptance import _SUITE14
    finally:
        sys.path.remove(str(wl.ROOT))
    assert wl.SUITE14 == _SUITE14


def test_desk_band_counters(tmp_path):
    workload = wl.HumDesk(cli, 0, tmp_path)
    config = json.loads((tmp_path / "hum.json").read_text())
    config.update(band_a=0.3, band_b=0.6)
    (tmp_path / "hum.json").write_text(json.dumps(config))
    first, _ = _traced_op(workload, 0, tmp_path / "a")
    second, _ = _traced_op(workload, 1, tmp_path / "b")
    assert first["control.cg_iterations"] == 71
    assert first["evolution.marches"] == 1305
    assert first["evolution.cn_steps"] == 62640
    assert first["jacobi.mp_calls"] == 0
    assert _counters(first) == _counters(second)


def test_counters_repeat_across_runs_of_one_seed(tmp_path):
    runs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        workload = wl.CliSuite(cli, 4, tmp_path / name)
        metrics, _ = _traced_op(workload, 0, tmp_path / name / "out")
        runs.append(_counters(metrics))
    assert runs[0] == runs[1]
    assert runs[0]["carleman.rows"] > 0
    assert runs[0]["control.lr_penalty_tries"] > 0


def test_gram_ladder_counters_do_not_depend_on_the_seed(tmp_path):
    runs = []
    for seed in (2, 9):
        (tmp_path / str(seed)).mkdir()
        workload = wl.GramLadder(cli, seed, tmp_path / str(seed))
        metrics, _ = _traced_op(workload, 0, tmp_path / str(seed) / "out")
        counters = _counters(metrics)
        # %.17g cells of other values can differ in length by a byte or two
        assert abs(counters.pop("cli.artifact_mb") - 0.0007) < 1e-5
        runs.append(counters)
    assert runs[0] == runs[1]
    assert runs[0]["observability.dps_max"] == 68
    assert runs[0]["observability.mp_routes"] == 1
    assert runs[0]["evolution.marches"] == 0


def test_tracer_notes_missing_functions_and_restores_originals(
        tmp_path, monkeypatch):
    monkeypatch.setattr(tracer, "WRAPPED", tracer.WRAPPED + (
        ("jacobi", "no_such_solver", None),
        ("no_such_layer", "anything", None),
    ))
    original = cli.hum_control
    workload = wl.MeasurableFamily(cli, 3, tmp_path)
    metrics, tr = _traced_op(workload, 0, tmp_path / "out")
    assert cli.hum_control is original
    assert any("no_such_solver" in note for note in tr.notes)
    assert any("no_such_layer" in note for note in tr.notes)
    assert metrics["measurable.field_evals"] > 0
    assert metrics["jacobi.mp_calls"] == 0
    assert set(metrics) == {key for key, _ in tracer.PER_LAYER} - {
        "trace.overhead_s"}


def test_check_reports_a_tampered_artifact(tmp_path):
    workload = wl.MeasurableFamily(cli, 3, tmp_path)
    done = workload.run(0, tmp_path / "out")
    artifact = tmp_path / "out" / "measurable" / "measurable.json"
    artifact.write_text(artifact.read_text().replace("\"ok\"", "\"no\""))
    problems = workload.check(0, done)
    assert any("sha256 mismatch" in p for p in problems)


def test_fingerprint_comparison_flags_drift():
    want = {"cost": [1, 2.0, 2.0], "gap": [1, 1e-12, 1e-12]}
    assert wl.compare_fingerprints("x", want, want) == []
    assert wl.compare_fingerprints(
        "x", {"cost": [1, 2.0, 2.0], "gap": [1, 3e-9, 3e-9]}, want) == []
    assert wl.compare_fingerprints(
        "x", {"cost": [1, 2.1, 2.1], "gap": [1, 1e-12, 1e-12]}, want)
    assert wl.compare_fingerprints(
        "x", {"cost": [1, 2.0, 2.0], "gap": [1, 1e-3, 1e-3]}, want)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_fails_without_the_program(tmp_path, trace):
    shutil.copytree(wl.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hum-desk",
         "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
