"""copula-lab benchmark: closed-loop CLI workloads and a traced per-layer pass.

Usage, from the root of a copula-lab checkout::

    python3 perfbench/run.py --workload grid-large --seed 1 --seconds 30 --trace 0

One client runs one ``copula-lab`` CLI subprocess at a time (closed
loop) against inputs generated from ``--seed`` (see ``inputs.py``). A run
repeats the workload's job list in whole rounds, at least ``MIN_ROUNDS``,
and starts another round while the job time spent plus the last round's
time stays within ``--seconds``. Every output is checked (``checks.py``);
check time is not part of any metric.

``--trace 0`` prints the end-to-end metrics:

  jobs_per_s     jobs completed per second of job wall time
  job_s_p50      median job wall time, spawn to reap (import and I/O included)
  cpu_s_per_job  mean child user+sys CPU per job (os.wait4 rusage)
  peak_rss_mb    largest peak resident set (VmHWM) of a job's process, MiB
  setup_s        median fresh-process time to import copula_lab.cli and
                 parse the workload's spec files, sampled twice a round

The four times are scaled to a host of fixed speed: before every job the
run times a reference process (``REF_CODE``, no copula_lab code), and each
time is multiplied by ``REF_S`` over the median reference wall of the run
(throughput divided by it). On a shared host whose speed drifts by a third
over minutes this keeps runs minutes apart comparable; a change to the
program does not move the reference. The unscaled values and the
reference walls are in the report.

The report also gives, outside the result line, ``job_s_tail`` (the highest
percentile of job wall time with at least ten samples beyond it, with
that percentile and the sample count) and ``error_rate`` (failed /
attempted jobs, also given as ``failed``). A 30-second run has 12 to 60
jobs of several kinds, so that percentile lies between p17 and p83 and
falls where one kind of job ends and the next begins: it is printed but
is not one of the end-to-end metrics of ``BENCHMARK.json``.

``--trace 1`` runs one round of every workload in process through
``copula_lab.cli.run``, first untraced and then traced (``tracing.py``),
and one round of ``--workload`` as CLI subprocesses. It prints the
per-layer metrics of the traced pass, the tracing overhead and the span
coverage per workload, and the process overhead (CLI job wall minus
in-process wall) of ``--workload``. Every workload is traced, whatever
``--workload`` says, so each traced run measures every layer. Spans are
written to ``perfbench/_out/``.

The children and the in-process passes run with ``COPULA_LAB_THREADS=1``
and without the caller's OMP/OpenBLAS/MKL/numexpr thread variables, so
both sides of a comparison use one BLAS thread, chosen through the
program's own setting.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``.
"""

import os
import sys

# One BLAS thread per job, set through the program's own COPULA_LAB_THREADS,
# which the package turns into the OMP/OpenBLAS/MKL variables before numpy
# loads; the caller's values of those are dropped so they cannot override
# it. On a small shared host a second BLAS thread mostly waits for a core,
# so its timings measure the scheduler. Set here, before numpy loads, so
# the in-process passes use the children's threading.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ.pop(_var, None)
os.environ["COPULA_LAB_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MIN_ROUNDS = 2
TAIL_BEYOND = 10

# A job's child writes its peak resident set (VmHWM) to PEAK_RSS_FILE at
# exit. The ru_maxrss that wait4 returns is no use here: on Linux a new
# program image inherits, at exec, the high-water mark of the process it
# replaces, so it reports this benchmark's own resident set.
PEAK_RSS_FILE = "peak-rss-kb.txt"
CLI_MAIN = (
    "import atexit\n"
    "def _peak_rss():\n"
    "    with open('/proc/self/status') as status:\n"
    "        kb = next(line.split()[1] for line in status if line.startswith('VmHWM:'))\n"
    f"    with open({PEAK_RSS_FILE!r}, 'w') as out:\n"
    "        out.write(kb)\n"
    "atexit.register(_peak_rss)\n"
    "from copula_lab.cli import main\n"
    "main()\n"
)
# The reference process: a fixed mix of interpreter start, numpy import,
# a Python loop, float formatting and small SVDs, the kinds of work the
# jobs do, using nothing of copula_lab. It runs before every job, so the
# median of its walls gives the host's speed over the same seconds as the
# jobs; a change to the program cannot move it. The host's drift slows
# process start and large-memory work (grid-large, chain-sim) more than
# cache-resident compute (the 128-point SVDs of mixture-tuples); the
# 40 small SVDs, about a quarter of the reference's time, set its
# sensitivity between the two, where runs of all three workloads on the
# 2-core VM spread least.
REF_CODE = (
    "import numpy as np\n"
    "x = np.linspace(0.5, 1.5, 65536)\n"
    "s = 0.0\n"
    "for v in x.tolist():\n"
    "    s += v * v\n"
    "text = ','.join(['%.17g' % v for v in x[:20000].tolist()])\n"
    "np.linalg.svd(x[:128 * 128].reshape(128, 128) + np.eye(128))\n"
    "m = x[:96 * 96].reshape(96, 96) + np.eye(96)\n"
    "for _ in range(40):\n"
    "    np.linalg.svd(m)\n"
)
# The reference's median wall on the 2-core x86-64 VM the bounds were set
# on; times are reported as on a host where the reference takes this long.
REF_S = 0.23
SETUP_CODE = (
    "import sys, pathlib\n"
    "import copula_lab.cli\n"
    "from copula_lab.families import parse_spec\n"
    "for p in sys.argv[1:]:\n"
    "    parse_spec(pathlib.Path(p).read_text(encoding='ascii'))\n"
)
ENV_CODE = r"""
import ctypes, json, os, sys
import copula_lab.cli, numpy  # the package caps BLAS threads before numpy loads
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
with open("/proc/self/maps") as maps:
    paths = sorted({l.split()[-1] for l in maps if "blas" in l.rsplit("/", 1)[-1].lower()})
for path in paths:
    lib = ctypes.CDLL(path)
    names = [n for n in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                         "openblas_get_num_threads", "MKL_Get_Max_Threads") if hasattr(lib, n)]
    if names:
        threads = getattr(lib, names[0])()
        break
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "blas": blas.get("name"), "blas_version": blas.get("version"),
                  "blas_threads": threads}))
"""


def _fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


if not (SRC / "copula_lab" / "cli.py").is_file():
    _fail(f"no copula_lab sources under {SRC}; run from the root of a copula-lab checkout")
sys.path[:0] = [str(SRC), str(BENCH_DIR)]

import copula_lab  # noqa: E402
from copula_lab import cli  # noqa: E402

if Path(copula_lab.__file__).resolve().parent != (SRC / "copula_lab").resolve():
    _fail(f"imported copula_lab from {copula_lab.__file__}, not from {SRC}")

import inputs  # noqa: E402
import tracing  # noqa: E402
from checks import Checker, CheckError  # noqa: E402


def output_paths(job: dict, workdir: Path) -> tuple[Path, Path]:
    """The output file a job writes and its manifest."""
    out = workdir / job["argv"][job["argv"].index("--out") + 1]
    return out, Path(str(out) + ".manifest.json")


def child_env() -> dict:
    # Children cache bytecode as an installed CLI does, whatever the caller's
    # PYTHONDONTWRITEBYTECODE says; the environment probe compiles first.
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV + ("PYTHONDONTWRITEBYTECODE",)}
    env.update(COPULA_LAB_THREADS="1", PYTHONPATH=str(SRC))
    return env


def spawn(argv: list[str], cwd: Path, stderr_path: Path) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall s, user+sys CPU s)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """Highest nearest-rank percentile with at least ``beyond`` samples above it.

    Returns (value, percentile). Needs more than ``beyond`` samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for rank in range(n - beyond, 0, -1):
        value = ordered[rank - 1]
        if sum(1 for x in ordered if x > value) >= beyond:
            return value, 100.0 * rank / n
    raise ValueError(f"{n} samples cannot leave {beyond} beyond any percentile")


def error_rate(records: list[dict]) -> float:
    """Failed jobs (bad exit code or output) over attempted jobs."""
    return sum(1 for r in records if "error" in r) / len(records)


def environment(seed: int, workdir: Path) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    out = subprocess.run(
        [sys.executable, "-c", ENV_CODE], cwd=workdir, env=child_env(),
        capture_output=True, text=True, check=True,
    ).stdout
    return {"commit": commit, "seed": seed, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), **json.loads(out)}


class Loop:
    """Runs jobs as CLI subprocesses and checks each output."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.checker = Checker(workdir)
        self.records: list[dict] = []
        self.digests: dict[str, str] = {}
        self.check_s = 0.0

    def run_job(self, job: dict) -> None:
        stderr = self.workdir / "stderr.txt"
        peak_rss = self.workdir / PEAK_RSS_FILE
        peak_rss.unlink(missing_ok=True)
        rc, wall, cpu = spawn([sys.executable, "-c", CLI_MAIN, *job["argv"]], self.workdir, stderr)
        record = {"id": job["id"], "wall_s": wall, "cpu_s": cpu, "rss_mb": 0.0, "rc": rc}
        self.check(job, rc, record)
        try:
            record["rss_mb"] = int(peak_rss.read_text()) / 1024.0
        except (OSError, ValueError) as exc:
            record.setdefault("error", f"no peak RSS record: {exc}")
        if "error" in record:
            record["error"] += " " + stderr.read_text(errors="replace").strip()
        self.records.append(record)

    def check(self, job: dict, rc: int, record: dict) -> None:
        start = time.perf_counter()
        try:
            self.checker.check(job, rc)
        except (CheckError, OSError, ValueError, KeyError, IndexError) as exc:
            # A missing or malformed output is a failed job, not a crash.
            record["error"] = f"{type(exc).__name__}: {exc}"
        else:
            out, _ = output_paths(job, self.workdir)
            self.digests.setdefault(job["id"], hashlib.sha256(out.read_bytes()).hexdigest())
        finally:
            self.check_s += time.perf_counter() - start


def time_child(code: str, args: list[str], workdir: Path) -> float:
    """Wall time of one fresh ``python -c code *args`` that must succeed."""
    rc, wall, _ = spawn([sys.executable, "-c", code, *args], workdir, workdir / "child-stderr.txt")
    if rc != 0:
        raise RuntimeError((workdir / "child-stderr.txt").read_text(errors="replace"))
    return wall


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, dict]:
    jobs = inputs.generate(workload, seed, workdir)
    env = environment(seed, workdir)
    loop = Loop(workdir)
    setup, ref = [], []
    rounds, spent, last = 0, 0.0, 0.0
    while rounds < MIN_ROUNDS or spent + last <= seconds:
        for i, job in enumerate(jobs):
            # Set-up is sampled twice a round, so its median spans the run:
            # a core's speed on this kind of host shifts over seconds.
            if i in (0, len(jobs) // 2):
                setup.append(time_child(SETUP_CODE, inputs.spec_files(jobs), workdir))
            ref.append(time_child(REF_CODE, [], workdir))
            loop.run_job(job)
        last = sum(r["wall_s"] for r in loop.records[-len(jobs):])
        spent += last
        rounds += 1
    recs = loop.records
    walls = [r["wall_s"] for r in recs]
    tail_value, tail_pct = tail(walls)
    raw = {
        "jobs_per_s": len(recs) / sum(walls),
        "job_s_p50": statistics.median(walls),
        "cpu_s_per_job": statistics.fmean(r["cpu_s"] for r in recs),
        "setup_s": statistics.median(setup),
    }
    # The host's speed drifts by a third over minutes; scaling by the
    # reference, timed in the same seconds, takes that drift out.
    slowdown = statistics.median(ref) / REF_S
    metrics = {
        "jobs_per_s": {"value": raw["jobs_per_s"] * slowdown, "unit": "jobs/s"},
        "job_s_p50": {"value": raw["job_s_p50"] / slowdown, "unit": "s"},
        "cpu_s_per_job": {"value": raw["cpu_s_per_job"] / slowdown, "unit": "s"},
        "peak_rss_mb": {"value": max(r["rss_mb"] for r in recs), "unit": "MiB"},
        "setup_s": {"value": raw["setup_s"] / slowdown, "unit": "s"},
    }
    report = {
        "workload": workload,
        "why": inputs.WHY[workload],
        "environment": env,
        "jobs": [{"id": j["id"], "argv": j["argv"]} for j in jobs],
        "rounds": rounds,
        "samples": len(recs),
        "job_s_tail": tail_value,
        "job_s_tail_percentile": tail_pct,
        "job_s_tail_beyond": sum(1 for w in walls if w > tail_value),
        "setup_samples": setup,
        "reference_s": statistics.median(ref),
        "reference_samples": ref,
        "unscaled": raw,
        "error_rate": error_rate(recs),
        "errors": [f"{r['id']}: {r['error']}" for r in recs if "error" in r][:10],
        "per_job_wall_s": {j["id"]: [r["wall_s"] for r in recs if r["id"] == j["id"]] for j in jobs},
        "output_sha256": loop.digests,
        "check_s": loop.check_s,
    }
    failed = sum(1 for r in recs if "error" in r)
    return {"attempted": len(recs), "failed": failed, "metrics": metrics}, report


# ---------------------------------------------------------------------------
# Traced pass


def _in_process_round(jobs: list[dict], workdir: Path, loop: Loop, call) -> tuple[float, list[float]]:
    """Run ``call(job)`` for each job with ``workdir`` as cwd; check outputs.

    Returns (round wall, per-job walls); check time is excluded.
    """
    walls = []
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        for job in jobs:
            start = time.perf_counter()
            rc = call(job)
            walls.append(time.perf_counter() - start)
            record = {"id": job["id"], "wall_s": walls[-1], "rc": rc}
            loop.check(job, rc, record)
            loop.records.append(record)
    finally:
        os.chdir(previous)
    return sum(walls), walls


def traced(requested: str, seed: int, workdir: Path) -> tuple[dict, dict]:
    tracer = tracing.Tracer()
    per_workload: dict[str, dict] = {}
    attempted = failed = 0
    for workload in inputs.WORKLOADS:
        wdir = workdir / workload
        jobs = inputs.generate(workload, seed, wdir)
        loop = Loop(wdir)
        if workload == requested:
            # Only the requested workload pays for a CLI round: its job
            # walls give the process overhead over in-process cli.run.
            for job in jobs:
                loop.run_job(job)
            cli_walls = [r["wall_s"] for r in loop.records]
        plain_wall, walls = _in_process_round(jobs, wdir, loop, lambda job: cli.run(job["argv"]))
        if workload == requested:
            inproc_walls = walls

        def traced_call(job, workload=workload):
            tracer.job = f"{workload}/{job['id']}"
            return tracer.span("cli.run", cli.run, job["argv"])

        first_span = len(tracer.spans)
        tracer.install()
        try:
            traced_wall, _ = _in_process_round(jobs, wdir, loop, traced_call)
        finally:
            tracer.uninstall()
        spans = tracer.spans[first_span:]
        roots = [s for s in spans if s["name"] == "cli.run"]
        covered = sum(tracing.library_coverage(spans, r) * (r["end"] - r["start"]) for r in roots)
        per_workload[workload] = {
            "overhead_s": traced_wall - plain_wall,
            "untraced_wall_s": plain_wall,
            "coverage": covered / sum(r["end"] - r["start"] for r in roots),
            "job_coverage": {r["job"]: tracing.library_coverage(spans, r) for r in roots},
            "self_s": {k: v["self_s"] for k, v in sorted(tracing.layer_stats(spans).items())},
            "output_bytes": sum(p.stat().st_size for job in jobs for p in output_paths(job, wdir)),
            "errors": [f"{r['id']}: {r['error']}" for r in loop.records if "error" in r][:10],
        }
        attempted += len(loop.records)
        failed += sum(1 for r in loop.records if "error" in r)

    out_dir = BENCH_DIR / "_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-seed{seed}.jsonl"
    tracer.write(spans_path)
    metrics = per_layer_metrics(tracer.spans, per_workload, cli_walls, inproc_walls)
    report = {"spans": str(spans_path.relative_to(ROOT)), "span_count": len(tracer.spans),
              "workloads": per_workload, "environment": environment(seed, workdir)}
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, report


PER_LAYER_STATS = {
    "families.parse_spec": ("calls", "self_s"),
    "families.eval_cdf": ("calls", "self_s"),
    "families.conditional_cdf": ("calls", "self_s"),
    "families.spec_digest": ("self_s",),
    "grid.discretize": ("calls", "self_s"),
    "grid.fold_product": ("calls", "self_s", "cpu_s", "gflop"),
    "grid.fold_power": ("self_s",),
    "grid.mix_grids": ("self_s",),
    "grid.write_grid_csv": ("self_s", "bytes"),
    "coefficients.report": ("self_s",),
    "coefficients.rho": ("calls", "self_s", "cpu_s"),
    "coefficients.phi": ("self_s",),
    "coefficients.beta": ("self_s",),
    "coefficients.psi_prime": ("self_s",),
    "coefficients.psi": ("self_s",),
    "bounds.verify_mixture_bound": ("self_s", "tuples"),
    "bounds.tuple_decomposition_check": ("self_s",),
    "bounds.exponential_rate_table": ("self_s",),
    "bounds.psi_divergence_table": ("self_s",),
    "bounds.verify_density_bound": ("self_s",),
    "chains.sample_chain": ("calls", "self_s"),
    "chains.Marginal.quantile": ("self_s",),
    "chains.empirical_lag_stats": ("self_s",),
    "cli.run": ("self_s",),
    "cli.discretize": ("self_s",),
    "cli.coeffs": ("self_s",),
    "cli.verify": ("self_s",),
    "cli.simulate": ("self_s",),
    "cli.lagstats": ("self_s",),
    "cli.psi-divergence": ("self_s",),
}


def per_layer_metrics(spans, per_workload, cli_walls, inproc_walls) -> dict:
    stats = tracing.layer_stats(spans)
    metrics: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    for span_name, stat_names in PER_LAYER_STATS.items():
        row = stats.get(span_name, {})
        for stat in stat_names:
            unit = {"calls": "count", "self_s": "s", "cpu_s": "s", "gflop": "gflop",
                    "bytes": "bytes", "tuples": "count"}[stat]
            put(f"{span_name}.{stat}", row.get(stat, 0.0), unit)
    for key in ("unsatisfied", "not_applicable"):
        put(f"bounds.checks.{key}",
            sum(row.get(key, 0.0) for name, row in stats.items() if name.startswith("bounds.")), "count")
    chains = [s for s in spans if s["name"] == "chains.sample_chain"]
    for family in ("frechet", "mixture", "grid", "marshall-olkin"):
        mine = [s for s in chains if s["attrs"]["family"] == family]
        wall = sum(s["end"] - s["start"] for s in mine)
        put(f"chains.sample_chain.steps_per_s.{family}",
            sum(s["attrs"]["steps"] for s in mine) / wall if wall else 0.0, "steps/s")
    put("cli.process_overhead_s", (sum(cli_walls) - sum(inproc_walls)) / len(cli_walls), "s")
    put("cli.output_bytes", sum(w["output_bytes"] for w in per_workload.values()), "bytes")
    for workload, w in per_workload.items():
        put(f"trace.overhead_s.{workload}", w["overhead_s"], "s")
        put(f"trace.coverage.{workload}", w["coverage"], "ratio")
    return metrics


# ---------------------------------------------------------------------------


def print_report(result: dict, report: dict) -> None:
    print(json.dumps(report, indent=1, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    if "samples" in report:
        print(f"{'job_s_tail':48s} {report['job_s_tail']:>16.6g} s")
        print(f"{'error_rate':48s} {report['error_rate']:>16.6g} ratio")
        print(f"samples: {report['samples']} jobs in {report['rounds']} rounds; "
              f"job_s_tail is p{report['job_s_tail_percentile']:.1f} "
              f"with {report['job_s_tail_beyond']} samples beyond; setup_s over {len(report['setup_samples'])} starts")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workdir = BENCH_DIR / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            result, report = traced(args.workload, args.seed, workdir)
        else:
            result, report = end_to_end(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_report(result, report)
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
