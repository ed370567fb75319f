"""Seeded inputs and job lists of the benchmark workloads.

``generate(workload, seed, workdir)`` writes the spec JSON files and grid
CSVs a workload needs into ``workdir`` and returns its job list. The
same seed gives byte-identical files: parameters come from one
``numpy.random.default_rng(seed)`` stream, Sinkhorn balancing uses only
elementwise numpy operations (no BLAS, so no thread-count dependence),
and grids are printed with 17 significant digits.

A job is a dict: ``id``, ``argv`` (the ``copula-lab`` arguments, paths
relative to ``workdir``), ``kind`` (which correctness check applies)
and the facts that check needs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("grid-large", "chain-sim", "mixture-tuples")

# Each sentence says which layers the workload loads and why it was
# chosen; BENCHMARK.json carries the short form.
WHY = {
    "grid-large": (
        "n=1024 discretize, coeffs (lags 1-2) and density checks: time goes "
        "to grid and coefficients (large SVDs, CSV write/read); chains idle"
    ),
    "chain-sim": (
        "seeded chains up to 1e6 steps plus lagstats: time goes to chains, "
        "conditional_cdf and chain-CSV I/O; grid, coefficients, bounds idle"
    ),
    "mixture-tuples": (
        "mixture tuple bounds at m=6, n=128 (729 small SVDs), rate and "
        "psi-divergence tables: time goes to bounds"
    ),
}

GRID_LARGE_N = 1024
CHAIN_GRID_N = 64
LAG_STATS_LAG = 2
LAG_STATS_GRID_N = 16
TUPLE_M = 6
TUPLE_N = 128


def _param(rng: np.random.Generator, lo: float, hi: float) -> float:
    # Six decimals keep the spec files short and their JSON exact.
    return round(float(rng.uniform(lo, hi)), 6)


def _frechet(rng) -> dict:
    return {"type": "frechet", "a": _param(rng, 0.1, 0.35), "b": _param(rng, 0.1, 0.35)}


def _mardia(rng) -> dict:
    return {"type": "mardia", "theta": _param(rng, 0.3, 0.9)}


def _marshall_olkin(rng) -> dict:
    return {"type": "marshall-olkin", "a": _param(rng, 0.2, 0.8), "b": _param(rng, 0.2, 0.8)}


def _weights(rng, k: int, floor: float = 0.2) -> list[float]:
    """k weights, each at least ``floor``, summing to 1 within 1e-15."""
    raw = rng.dirichlet(np.ones(k))
    ws = [round(floor + (1.0 - k * floor) * float(x), 6) for x in raw[:-1]]
    ws.append(round(1.0 - sum(ws), 12))
    return ws


def _mixture(rng, components: list[dict]) -> dict:
    return {"type": "mixture", "weights": _weights(rng, len(components)), "components": components}


def sinkhorn_grid(rng: np.random.Generator, n: int, permutations: int = 0) -> np.ndarray:
    """Random n x n cell masses with every row and column summing to 1/n.

    ``permutations`` > 0 restricts the support to the union of that many
    random permutation matrices (a sparse grid with total support, so
    balancing converges); 0 gives a dense grid.
    """
    if permutations:
        mask = np.zeros((n, n), dtype=bool)
        for _ in range(permutations):
            mask[np.arange(n), rng.permutation(n)] = True
        d = np.where(mask, rng.uniform(0.5, 1.5, size=(n, n)), 0.0)
    else:
        d = rng.uniform(0.5, 1.5, size=(n, n))
    for _ in range(10_000):
        d /= d.sum(axis=1, keepdims=True)
        d /= d.sum(axis=0, keepdims=True)
        if np.abs(d.sum(axis=1) - 1.0).max() < 1e-14:
            break
    else:
        raise RuntimeError("Sinkhorn balancing did not converge")
    return d / n


def write_grid(path: Path, masses: np.ndarray) -> None:
    lines = [str(masses.shape[0])]
    lines += [",".join(["%.17g" % v for v in row]) for row in masses.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _write_spec(workdir: Path, name: str, spec: dict) -> str:
    (workdir / name).write_text(json.dumps(spec, sort_keys=True) + "\n", encoding="ascii")
    return name


def _grid_large(rng, workdir: Path) -> list[dict]:
    n = str(GRID_LARGE_N)
    frechet = _write_spec(workdir, "frechet.json", _frechet(rng))
    mo = _write_spec(workdir, "marshall-olkin.json", _marshall_olkin(rng))
    mardia = _write_spec(workdir, "mardia.json", _mardia(rng))
    mix = _write_spec(
        workdir, "mixture.json", _mixture(rng, [_frechet(rng), _mardia(rng), _marshall_olkin(rng)])
    )
    dense = _write_spec(
        workdir,
        "mixture-independence.json",
        _mixture(rng, [{"type": "independence"}, _marshall_olkin(rng), _frechet(rng)]),
    )
    write_grid(workdir / "grid1024.csv", sinkhorn_grid(rng, GRID_LARGE_N))
    grid = _write_spec(workdir, "grid1024.json", {"type": "grid", "path": "grid1024.csv"})
    return [
        {"id": "discretize-frechet", "kind": "discretize", "spec": frechet,
         "argv": ["discretize", "--spec", frechet, "--n", n, "--out", "disc-frechet.csv"]},
        {"id": "discretize-marshall-olkin", "kind": "discretize", "spec": mo,
         "argv": ["discretize", "--spec", mo, "--n", n, "--out", "disc-mo.csv"]},
        # Two lags (one n=1024 SVD in rho each) keep a round near 9 s, so a
        # 30-second run takes each job about three times.
        {"id": "coeffs-mardia", "kind": "coeffs", "spec": mardia, "lags": [1, 2],
         "closed_form": True,
         "argv": ["coeffs", "--spec", mardia, "--n", n, "--lags", "1..2", "--out", "coeffs-mardia.csv"]},
        {"id": "coeffs-mixture", "kind": "coeffs", "spec": mix, "lags": [1, 2],
         "argv": ["coeffs", "--spec", mix, "--n", n, "--lags", "1..2", "--out", "coeffs-mixture.csv"]},
        {"id": "coeffs-grid", "kind": "coeffs", "spec": grid, "lags": [1, 2],
         "argv": ["coeffs", "--spec", grid, "--n", n, "--lags", "1..2", "--out", "coeffs-grid.csv"]},
        {"id": "verify-density", "kind": "verify", "spec": dense,
         "argv": ["verify", "--theorem", "density-psi-prime", "--spec", dense, "--n", n,
                  "--out", "verify-density.json"]},
    ]


def _chain_pair(name: str, spec: str, steps: int, seed: int, marginal: str) -> list[dict]:
    chain = f"chain-{name}.csv"
    return [
        {"id": f"simulate-{name}", "kind": "simulate", "spec": spec, "steps": steps,
         "marginal": marginal,
         "argv": ["simulate", "--spec", spec, "--steps", str(steps), "--seed", str(seed),
                  "--marginal", marginal, "--out", chain]},
        {"id": f"lagstats-{name}", "kind": "lagstats", "spec": spec, "chain": chain,
         "steps": steps, "marginal": marginal,
         "argv": ["lagstats", "--in", chain, "--lag", str(LAG_STATS_LAG),
                  "--grid-n", str(LAG_STATS_GRID_N), "--out", f"lagstats-{name}.json"]},
    ]


def _chain_sim(rng, workdir: Path) -> list[dict]:
    frechet = _write_spec(workdir, "frechet.json", _frechet(rng))
    # Frechet-type components only: a Marshall-Olkin component would put
    # the bisection sampler on the 1e5-step path.
    mix = _write_spec(
        workdir, "mixture.json",
        _mixture(rng, [_frechet(rng), {"type": "m"}, {"type": "independence"}]),
    )
    write_grid(workdir / "grid64.csv", sinkhorn_grid(rng, CHAIN_GRID_N, permutations=16))
    grid = _write_spec(workdir, "grid64.json", {"type": "grid", "path": "grid64.csv"})
    mo = _write_spec(workdir, "marshall-olkin.json", _marshall_olkin(rng))
    seeds = [int(s) for s in rng.integers(0, 2**63, size=4)]
    rate = _param(rng, 0.5, 2.0)
    mu, sigma = _param(rng, -1.0, 1.0), _param(rng, 0.5, 2.0)
    return (
        _chain_pair("frechet", frechet, 1_000_000, seeds[0], f"exp:{rate}")
        + _chain_pair("mixture", mix, 100_000, seeds[1], f"normal:{mu},{sigma}")
        + _chain_pair("grid", grid, 100_000, seeds[2], "uniform")
        # A job of about a second: the bisection sampler makes 40
        # conditional_cdf calls a step, about 0.6 ms.
        + _chain_pair("marshall-olkin", mo, 1_200, seeds[3], "uniform")
    )


def _mixture_tuples(rng, workdir: Path) -> list[dict]:
    # A strictly positive component (a Frechet member with a + b < 1)
    # makes every tuple check applicable. Its weight stays in [0.2, 0.4]
    # and the comonotone component keeps the chain sticky, so 1 - psi_prime
    # at lag 20 of the rate table stays far above rounding (above 1e-6 on
    # seeds 200-259), where the ratio < 1 certificate is meaningful. The component
    # types are fixed and only parameters vary with the seed: an
    # independence component would make most tuple SVDs trivial and halve
    # the job's cost on some seeds.
    w0 = round(0.2 + 0.2 * float(rng.uniform()), 6)
    w1 = round((1.0 - w0) * float(rng.uniform(0.3, 0.7)), 6)
    spec = {
        "type": "mixture",
        "weights": [w0, w1, round(1.0 - w0 - w1, 12)],
        "components": [_frechet(rng), {"type": "m"}, _marshall_olkin(rng)],
    }
    mix = _write_spec(workdir, "mixture.json", spec)
    frechet = _frechet(rng)
    m, n = str(TUPLE_M), str(TUPLE_N)
    jobs = [
        {"id": f"verify-{theorem}", "kind": "verify", "spec": mix,
         "argv": ["verify", "--theorem", theorem, "--spec", mix, "--m", m, "--n", n,
                  "--out", f"verify-{theorem}.json"]}
        for theorem in ("mixture-rho", "mixture-phi", "mixture-psi-prime", "tuple-decomposition")
    ]
    jobs.append(
        {"id": "verify-exponential-rate", "kind": "verify", "spec": mix,
         "argv": ["verify", "--theorem", "exponential-rate", "--spec", mix, "--n", "256",
                  "--max-lag", "20", "--out", "verify-exponential-rate.json"]}
    )
    jobs.append(
        {"id": "psi-divergence", "kind": "psi-divergence", "a": frechet["a"], "b": frechet["b"],
         "eps": [0.1, 0.01, 0.002], "lags": [1, 2, 3],
         "argv": ["psi-divergence", "--a", repr(frechet["a"]), "--b", repr(frechet["b"]),
                  "--lags", "1..3", "--eps-list", "0.1,0.01,0.002", "--out", "psi-divergence.json"]}
    )
    return jobs


_BUILDERS = {"grid-large": _grid_large, "chain-sim": _chain_sim, "mixture-tuples": _mixture_tuples}


def generate(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Write the inputs of ``workload`` for ``seed`` into ``workdir``; return its jobs."""
    workdir.mkdir(parents=True, exist_ok=True)
    # The workload name is mixed into the stream so workloads sharing a
    # seed do not share parameters.
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, workdir)


def spec_files(jobs: list[dict]) -> list[str]:
    """The distinct spec files a job list reads, in first-use order."""
    return list(dict.fromkeys(job["spec"] for job in jobs if job.get("spec")))
