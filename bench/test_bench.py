"""Tests of the benchmark's own code: the tail percentile rule, self-time
arithmetic, restoration of traced attributes, and that every checker flags
a corrupted output."""

from __future__ import annotations

import json

import numpy as np
import pytest

import checks
import run
import tracer
import workloads


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tracer.tail_percentile(5) is None
    assert tracer.tail_percentile(19) is None
    assert tracer.tail_percentile(20) == 50.0
    assert tracer.tail_percentile(99) == 50.0
    assert tracer.tail_percentile(100) == 90.0
    assert tracer.tail_percentile(400) == 90.0
    assert tracer.tail_percentile(1000) == 99.0
    assert tracer.tail_percentile(10_000) == 99.9
    q, value = tracer.tail_value(list(range(1, 101)))
    assert q == 90.0 and value == pytest.approx(np.percentile(np.arange(1, 101), 90))
    assert tracer.tail_value([1.0, 2.0]) == (None, 0.0)


def test_self_time_merges_overlaps_and_clips_children():
    parent = tracer.Span("p", 0.0, 10.0, leaf_s=0.5)
    children = [
        tracer.Span("a", 1.0, 3.0),
        tracer.Span("b", 2.0, 4.0),  # overlaps a: [1, 4] covers 3
        tracer.Span("c", 9.0, 12.0),  # clipped to [9, 10]: covers 1
    ]
    assert tracer.self_time(parent, children) == pytest.approx(10.0 - 4.0 - 0.5)
    assert tracer.self_time(parent, []) == pytest.approx(9.5)


def test_self_seconds_only_subtracts_direct_children():
    t = tracer.Tracer()
    t.spans = [
        tracer.Span("cli.main", 0.0, 10.0),
        tracer.Span("x", 1.0, 5.0, parent=0),
        tracer.Span("y", 2.0, 3.0, parent=1),  # grandchild: already inside x
        tracer.Span("cli.main", 20.0, 22.0, leaf_s=0.25),
    ]
    assert t.self_seconds("cli.main") == pytest.approx(6.0 + 1.75)
    assert t.self_seconds("x") == pytest.approx(3.0)


def _attributes(t: tracer.Tracer):
    return [(owner, attr, getattr(owner, attr)) for owner, attr, _ in t.plan()]


def _tiny_eigen_job():
    job = workloads.jobs_for("eigen-nonohmic", 7)[0]
    job = dict(job, sweep="g:0:0.7:6")
    job["argv"] = [a if a != workloads.EIGEN_SWEEP else job["sweep"] for a in job["argv"]]
    return job


def _tiny_spectrum_job(fmt: str):
    (job,) = [j for j in workloads.jobs_for("spectrum", 7) if j["format"] == fmt]
    job = dict(job, sweep="ratio:0.2:2:4", probe="0.01:1.8:20")
    swap = {workloads.SPECTRUM_SWEEP: job["sweep"], workloads.SPECTRUM_PROBE: job["probe"]}
    job["argv"] = [swap.get(a, a) for a in job["argv"]]
    return job


def test_traced_pass_records_layers_and_restores_wrappers(tmp_path):
    t = tracer.Tracer()
    before = _attributes(t)
    out = tmp_path / "eigen.csv"
    with t.installed():
        assert all(getattr(o, a) is not f for o, a, f in before)
        workloads.run_job(_tiny_eigen_job(), 1, str(out))
    assert all(getattr(o, a) is f for o, a, f in before)
    metrics = t.layer_metrics(out.stat().st_size)
    assert set(metrics) == set(tracer.LAYER_UNITS) - {"trace.overhead_frac"}
    assert metrics["eigen.solve.count"] == 6
    assert metrics["eigen.solve.failed"] == 0
    assert metrics["eigen.zeta_calls_per_solve"] > 0
    assert metrics["matrices.zeta_array.calls"] == 0
    assert 0 < metrics["cli.self_s"] < metrics["cli.main_s"]
    spans = tmp_path / "spans.json"
    t.dump(str(spans))
    names = {s[0] for s in json.loads(spans.read_text())["spans"]}
    assert {"cli.main", "eigen.solve", "eigen.label"} <= names


def test_wrappers_restored_when_traced_code_raises():
    t = tracer.Tracer()
    before = _attributes(t)
    with pytest.raises(RuntimeError):
        with t.installed():
            raise RuntimeError("boom")
    assert all(getattr(o, a) is f for o, a, f in before)


def _write(job, path, workers=1):
    from opendicke import cli

    assert cli.main(workloads.cli_argv(job, workers, str(path))) == 0
    return path.read_bytes()


def _rng():
    return np.random.default_rng(0)


def test_eigen_checker_flags_root_in_upper_half_plane(tmp_path):
    job = _tiny_eigen_job()
    data = _write(job, tmp_path / "e.csv")
    assert checks.check_output(data, job, _rng()) == []
    lines = data.decode().splitlines()
    cols = lines[3].split(",")
    cols[2] = cols[2].lstrip("-")  # im_lower of the second point made positive
    lines[3] = ",".join(cols)
    problems = checks.check_output("\n".join(lines).encode(), job, _rng())
    assert any("Im > 0" in p for p in problems)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_spectrum_checker_flags_corrupted_cell(tmp_path, fmt):
    job = _tiny_spectrum_job(fmt)
    data = _write(job, tmp_path / f"s.{fmt}")
    assert checks.check_output(data, job, _rng()) == []
    if fmt == "csv":
        lines = data.decode().splitlines()
        cols = lines[2 + 25].split(",")
        cols[2] = f"{float(cols[2]) * 0.999:.11e}"
        lines[2 + 25] = ",".join(cols)
        bad = ("\n".join(lines) + "\n").encode()
    else:
        doc = json.loads(data)
        doc["abs_s11"][25] *= 0.999
        bad = json.dumps(doc, separators=(",", ":")).encode()
    problems = checks.check_output(bad, job, _rng())
    assert any("cell (1,5)" in p for p in problems)


def test_spectrum_checker_flags_modulus_above_one(tmp_path):
    job = _tiny_spectrum_job("json")
    doc = json.loads(_write(job, tmp_path / "s.json"))
    doc["abs_s11"][3] = 1.001
    problems = checks.check_output(json.dumps(doc).encode(), job, _rng())
    assert any("|S11| > 1" in p for p in problems)


def test_cli_checker_flags_p1_p2_outputs_that_differ(tmp_path):
    job = _tiny_spectrum_job("csv")
    p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    _write(job, p1, workers=1)
    _write(job, p2, workers=2)
    check = run.CliChecker(job, seed=0, keep=tmp_path / "reference")
    check.add(0, p1)
    check.add(0, p2)
    p2.write_bytes(p2.read_bytes().replace(b"e-01,", b"e-02,", 1))
    check.add(0, p2)
    check.add(3, p2)
    p2.unlink()
    check.add(0, p2)
    assert check.verdicts() == [
        [],
        [],
        ["output bytes differ from the first output of the same job"],
        ["exit code 3"],
        ["no output file"],
    ]


def test_dip_checks_flag_broken_unitarity_variance_and_p1_p2_minima():
    w = 0.8
    good = {
        "minima_counts": [1],
        "dips": [w],
        "shifts": [0.01],
        "smats_re": [[[0.0, 1.0], [1.0, 0.0]]],
        "smats_im": [[[0.0, 0.0], [0.0, 0.0]]],
        "variances": [1.0 / (2.0 * w)],
    }
    assert checks.check_dip(good) == []
    bad = dict(good, smats_re=[[[0.0, 1.1], [1.0, 0.0]]], variances=[0.5])
    problems = checks.check_dip(bad)
    assert any("S S^dagger" in p for p in problems)
    assert any("variance" in p for p in problems)
    assert checks.same_minima(good, good) == []
    assert checks.same_minima(good, dict(good, dips=[w + 1e-12])) == ["minima differ between passes"]


def test_spawned_peak_rss_excludes_the_benchmark_process(tmp_path):
    import sys

    ballast = np.ones(64 * 1024 * 1024 // 8)  # 64 MB resident in this process
    code, wall, rss = run.spawn([sys.executable, "-c", "pass"], tmp_path / "log")
    assert code == 0 and wall > 0
    assert rss < 40, f"{rss} MB: the spawning process's memory leaked into the child's peak"
    del ballast


def test_jobs_are_a_function_of_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.jobs_for(name, 3) == workloads.jobs_for(name, 3)
        assert workloads.jobs_for(name, 3) != workloads.jobs_for(name, 4)
    draws = [job["params"] for job in workloads.jobs_for("eigen-nonohmic", 5)]
    strata = sorted(int((d["s_b"] - 0.4) / 0.2 * len(draws)) for d in draws)
    assert strata == list(range(len(draws)))


def test_benchmark_json_lists_every_layer_metric():
    from pathlib import Path

    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracer.LAYER_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_setup_launches_spread_over_the_run():
    due = lambda done, elapsed: run.setup_due(done, elapsed, 40.0)  # noqa: E731
    assert due(0, 0.0) == 1 and due(1, 0.0) == 0
    assert due(1, 20.0) == run.SETUP_LAUNCHES // 2
    assert due(3, 100.0) == run.SETUP_LAUNCHES - 3
    assert due(run.SETUP_LAUNCHES, 100.0) == 0
