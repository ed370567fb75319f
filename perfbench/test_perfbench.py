"""Tests of the benchmark's own logic: ``python3 -m pytest perfbench -q``."""

import json
import shutil

import pytest

import run  # puts the checkout's src/ on sys.path
import inputs
import tracing
from checks import CheckError, Checker
from copula_lab import bounds, cli, coefficients


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    jobs_a = inputs.generate(workload, 7, tmp_path / "a")
    jobs_b = inputs.generate(workload, 7, tmp_path / "b")
    jobs_c = inputs.generate(workload, 8, tmp_path / "c")
    assert jobs_a == jobs_b
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert any(
        (tmp_path / "a" / name).read_bytes() != (tmp_path / "c" / name).read_bytes() for name in files
    )


def test_sinkhorn_grids_are_valid_copulas(tmp_path):
    rng = inputs.np.random.default_rng(3)
    for permutations in (0, 4):
        masses = inputs.sinkhorn_grid(rng, 32, permutations)
        inputs.write_grid(tmp_path / "g.csv", masses)
        (tmp_path / "g.json").write_text(json.dumps({"type": "grid", "path": str(tmp_path / "g.csv")}))
        spec = Checker(tmp_path).spec("g.json")  # validates marginals within 1e-12
        assert (spec.masses == masses).all()
        assert (masses == 0).any() == bool(permutations)


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(1, 101))) == (90, 90.0)
    assert run.tail([1.0] + [5.0] * 10) == (1.0, 100.0 / 11)
    # Ties at the top leave fewer than ten strictly beyond: step down.
    assert run.tail([1.0] * 5 + [2.0] * 20) == (1.0, 20.0)
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)
    with pytest.raises(ValueError):
        run.tail([1.0] * 30)


def _span(i, parent, start, end, name="x", job="j"):
    return {"id": i, "parent": parent, "start": start, "end": end, "name": name, "job": job, "cpu_s": 0.0}


def test_self_time_subtracts_covered_child_time():
    spans = [
        _span(0, None, 0.0, 10.0, "cli.run"),
        _span(1, 0, 1.0, 4.0, "grid.discretize"),
        _span(2, 1, 2.0, 3.0, "families.eval_cdf"),
        _span(3, 0, 3.5, 6.0, "coefficients.rho"),  # overlaps its sibling by 0.5
    ]
    assert tracing.self_times(spans) == {0: 5.0, 1: 2.0, 2: 1.0, 3: 2.5}
    stats = tracing.layer_stats(spans)
    assert stats["cli.run"]["self_s"] == 5.0 and stats["grid.discretize"]["calls"] == 1
    # Only outermost library spans count towards coverage: [1, 6] of [0, 10].
    assert tracing.library_coverage(spans, spans[0]) == 0.5


def test_tracer_patches_every_binding_and_restores_them(tmp_path):
    original_rho = coefficients.rho
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert bounds.rho is not original_rho
        assert bounds._COEFF_FUNCS["rho"] is bounds.rho
        assert coefficients.rho is bounds.rho
        spec = tmp_path / "f.json"
        spec.write_text('{"type": "frechet", "a": 0.2, "b": 0.3}')
        tracer.job = "j"
        argv = ["coeffs", "--spec", str(spec), "--n", "8", "--lags", "1..2", "--out", str(tmp_path / "c.csv")]
        assert tracer.span("cli.run", cli.run, argv) == 0
    finally:
        tracer.uninstall()
    assert coefficients.rho is original_rho and bounds._COEFF_FUNCS["rho"] is original_rho
    names = [s["name"] for s in tracer.spans]
    assert names[:2] == ["cli.run", "cli.coeffs"] and names.count("coefficients.rho") == 2
    assert {s["job"] for s in tracer.spans} == {"j"}


def _discretize_job(tmp_path):
    (tmp_path / "f.json").write_text('{"type": "frechet", "a": 0.2, "b": 0.3}')
    job = {"id": "d", "kind": "discretize", "spec": "f.json",
           "argv": ["discretize", "--spec", "f.json", "--n", "8", "--out", "g.csv"]}
    loop = run.Loop(tmp_path)
    run._in_process_round([job], tmp_path, loop, lambda j: cli.run(j["argv"]))
    return job, loop


def test_checker_accepts_a_good_grid_and_counts_a_corrupted_one(tmp_path):
    job, loop = _discretize_job(tmp_path)
    assert run.error_rate(loop.records) == 0.0
    csv = tmp_path / "g.csv"
    text = csv.read_text()
    first = text.splitlines()[1].split(",")[0]  # a 17-digit mass
    digit = first[5]
    csv.write_text(text.replace(first, first[:5] + str((int(digit) + 1) % 10) + first[6:], 1))
    with pytest.raises(CheckError):
        Checker(tmp_path).check(job, 0)
    record = {"id": "d"}
    loop.check(job, 0, record)
    loop.records.append(record)
    assert "error" in record and run.error_rate(loop.records) == 0.5


def test_checker_counts_a_bad_exit_code_and_a_missing_output(tmp_path):
    job, loop = _discretize_job(tmp_path)
    with pytest.raises(CheckError):
        Checker(tmp_path).check(job, 1)
    (tmp_path / "g.csv").unlink()
    record = {"id": "d"}
    loop.check(job, 0, record)
    assert "error" in record


def test_lagstats_check_rejects_a_wrong_copy_frequency(tmp_path):
    spec = {"type": "frechet", "a": 0.2, "b": 0.3}
    (tmp_path / "f.json").write_text(json.dumps(spec))
    jobs = inputs._chain_pair("f", "f.json", 20_000, 5, "uniform")
    loop = run.Loop(tmp_path)
    run._in_process_round(jobs, tmp_path, loop, lambda j: cli.run(j["argv"]))
    assert run.error_rate(loop.records) == 0.0
    stats_path = tmp_path / "lagstats-f.json"
    stats = json.loads(stats_path.read_text())
    stats["freq_equal"] += 0.05
    stats_path.write_text(json.dumps(stats))
    with pytest.raises(CheckError, match="copy frequency"):
        Checker(tmp_path).check(jobs[1], 0)


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_*"))
    (tmp_path / "BENCHMARK.json").write_text("{}")
    proc = run.subprocess.run(
        [run.sys.executable, "perfbench/run.py", "--workload", "chain-sim", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_children_get_one_blas_thread_through_the_program_setting(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    env = run.child_env()
    assert env["COPULA_LAB_THREADS"] == "1"
    assert env["PYTHONPATH"] == str(run.SRC)
    assert "PYTHONDONTWRITEBYTECODE" not in env and "OPENBLAS_NUM_THREADS" not in env


def test_cli_job_records_its_own_peak_rss(tmp_path):
    (tmp_path / "f.json").write_text('{"type": "frechet", "a": 0.2, "b": 0.3}')
    job = {"id": "d", "kind": "discretize", "spec": "f.json",
           "argv": ["discretize", "--spec", "f.json", "--n", "8", "--out", "g.csv"]}
    ballast = b"x" * (200 * 2**20)  # a resident parent far larger than the child
    loop = run.Loop(tmp_path)
    loop.run_job(job)
    del ballast
    (record,) = loop.records
    assert "error" not in record and 10.0 < record["rss_mb"] < 150.0
