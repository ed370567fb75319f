"""Correctness checks on the outputs of benchmark jobs.

Each check tests what an output means, not its bytes, so an
optimisation that moves the last digit of a value still passes:

* ``discretize``: the CSV reads back bit-exact against the in-process
  grid, and every row and column sums to 1/n within 1e-12.
* ``coeffs``: every row keeps the ordering invariants (beta <= phi <= psi,
  1 - psi_prime <= psi, each within 1e-12); Frechet and Mardia rows match
  the coefficients of ``discretize(Frechet(a_n, b_n), n)`` within 1e-9.
* ``verify`` and ``psi-divergence``: the result is satisfied and
  applicable, which the generator guarantees for its inputs.
* ``simulate``: one finite value per step; uniform Frechet-type and
  Marshall-Olkin chains lie on the k/2^53 lattice; grid chains only move
  into cells of positive mass.
* ``lagstats``: pair count and histogram totals, rank-uniform margins,
  and for Frechet-type chains copy and reflect frequencies within 5 sigma
  of b_lag and a_lag.

A failed check raises :class:`CheckError`; the benchmark counts it in
``error_rate``.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

import numpy as np

from copula_lab.coefficients import beta, phi, psi, psi_prime
from copula_lab.families import (
    Frechet,
    GridSpec,
    HoeffdingLower,
    HoeffdingUpper,
    Independence,
    Mardia,
    MarshallOlkin,
    Mixture,
    frechet_fold_params,
    parse_spec,
)
from copula_lab.grid import discretize

LATTICE = float(2**53)
SIGMAS = 5.0


class CheckError(Exception):
    """An output failed its correctness check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


class Checker:
    """Checks job outputs in ``workdir``; caches in-process references."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self._specs: dict[str, object] = {}
        self._grids: dict[tuple[str, int], np.ndarray] = {}
        self._closed_form: dict[tuple[float, float, int, int], tuple] = {}
        self._chain: tuple[tuple, np.ndarray] | None = None

    def spec(self, name: str):
        if name not in self._specs:
            obj = json.loads((self.workdir / name).read_text(encoding="ascii"))
            if obj["type"] == "grid":  # grid paths are relative to the job's cwd
                obj["path"] = str(self.workdir / obj["path"])
            self._specs[name] = parse_spec(json.dumps(obj))
        return self._specs[name]

    def grid(self, name: str, n: int) -> np.ndarray:
        if (name, n) not in self._grids:
            self._grids[name, n] = discretize(self.spec(name), n).masses
        return self._grids[name, n]

    def chain(self, path: Path) -> np.ndarray:
        """The values of a chain file; the last one read is kept for the lagstats check."""
        stat = path.stat()
        key = (path, stat.st_mtime_ns, stat.st_size)
        if self._chain is None or self._chain[0] != key:
            self._chain = (key, read_chain(path))
        return self._chain[1]

    def closed_form_row(self, a: float, b: float, n: int, lag: int) -> tuple:
        """Coefficients of ``discretize(Frechet(a_n, b_n), n)``.

        rho is exact: at even n >= 4 the deflated D = a_n J + b_n I acts on
        mean-zero vectors with eigenvalues b_n + a_n and b_n - a_n.
        """
        key = (a, b, n, lag)
        if key not in self._closed_form:
            p = frechet_fold_params(a, b, lag)
            g = discretize(Frechet(p.a_n, p.b_n), n)
            self._closed_form[key] = (p.a_n + p.b_n, phi(g), beta(g), psi_prime(g), psi(g))
        return self._closed_form[key]

    def check(self, job: dict, returncode: int) -> None:
        """Raise :class:`CheckError` unless the job's exit code and output are right."""
        _require(returncode == 0, f"exit code {returncode}, expected 0")
        out = self.workdir / job["argv"][job["argv"].index("--out") + 1]
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text(encoding="ascii"))
        _require(manifest.get("subcommand") == job["argv"][0], "manifest names another subcommand")
        getattr(self, "_" + job["kind"].replace("-", "_"))(job, out)

    # -- per-kind checks ---------------------------------------------------

    def _discretize(self, job: dict, out: Path) -> None:
        n, masses = read_grid(out)
        _require(n == int(job["argv"][job["argv"].index("--n") + 1]), "grid resolution differs")
        expected = self.grid(job["spec"], n)
        _require(np.array_equal(masses, expected), "grid CSV differs from the in-process grid")
        dev = max(np.abs(masses.sum(axis=0) - 1.0 / n).max(), np.abs(masses.sum(axis=1) - 1.0 / n).max())
        _require(dev <= 1e-12, f"row/column sums deviate from 1/n by {dev:.3g}")

    def _coeffs(self, job: dict, out: Path) -> None:
        lines = out.read_text(encoding="ascii").splitlines()
        _require(lines[0] == "lag,rho,phi,beta,psi_prime,psi,n", "unexpected coeffs header")
        rows = [line.split(",") for line in lines[1:]]
        _require([int(r[0]) for r in rows] == job["lags"], "coeffs rows do not match the lags")
        n = int(job["argv"][job["argv"].index("--n") + 1])
        frechet = _as_frechet(self.spec(job["spec"])) if job.get("closed_form") else None
        for r in rows:
            lag, (rh, ph, be, pp, ps), size = int(r[0]), map(float, r[1:6]), int(r[6])
            _require(size == n, f"lag {lag}: resolution {size}, expected {n}")
            _require(all(map(math.isfinite, (rh, ph, be, pp, ps))), f"lag {lag}: non-finite value")
            _require(0.0 <= rh <= 1.0 and 0.0 <= be <= 1.0 and pp >= 0.0, f"lag {lag}: value out of range")
            _require(be <= ph + 1e-12, f"lag {lag}: beta > phi")
            _require(ph <= ps + 1e-12, f"lag {lag}: phi > psi")
            _require(1.0 - pp <= ps + 1e-12, f"lag {lag}: 1 - psi_prime > psi")
            if frechet is not None:
                want = self.closed_form_row(frechet[0], frechet[1], n, lag)
                worst = max(abs(x - y) for x, y in zip((rh, ph, be, pp, ps), want))
                _require(worst <= 1e-9, f"lag {lag}: off the Frechet closed form by {worst:.3g}")

    def _verify(self, job: dict, out: Path) -> None:
        results = json.loads(out.read_text(encoding="ascii"))
        theorem = job["argv"][job["argv"].index("--theorem") + 1]
        _require(len(results) == 1 and results[0]["theorem_id"] == theorem, "unexpected verify payload")
        result = results[0]
        _require(result["not_applicable"] is False, f"{theorem}: not applicable, expected applicable")
        _require(result["satisfied"] is True, f"{theorem}: unsatisfied, expected satisfied")

    def _psi_divergence(self, job: dict, out: Path) -> None:
        table = json.loads(out.read_text(encoding="ascii"))
        _require(table["satisfied"] is True and table["not_applicable"] is False, "table not satisfied")
        _require(table["diverges"] is True, "table does not diverge")
        a, b = job["a"], job["b"]
        keys = [(row["lag"], row["epsilon"]) for row in table["rows"]]
        _require(keys == [(lag, eps) for lag in job["lags"] for eps in job["eps"]], "unexpected rows")
        for row in table["rows"]:
            want = (1.0 / row["epsilon"] - 1.0) * (a + b) ** row["lag"]
            _require(abs(row["lower_bound"] - want) <= 1e-12 * want, "lower bound off its closed form")
            _require(row["grid_check"] is True, "grid certificate failed")
            _require(row["grid_psi"] >= row["lower_bound"] - 1e-9, "grid psi below the lower bound")

    def _simulate(self, job: dict, out: Path) -> None:
        values = self.chain(out)
        _require(values.size == job["steps"], f"{values.size} values, expected {job['steps']}")
        _require(bool(np.isfinite(values).all()), "non-finite chain value")
        if job["marginal"] != "uniform":
            return
        spec = self.spec(job["spec"])
        _require(bool(((values > 0.0) & (values <= 1.0)).all()), "uniform value outside (0, 1]")
        if isinstance(spec, GridSpec):
            n = spec.resolution
            cell = np.clip(np.ceil(values * n).astype(int) - 1, 0, n - 1)
            _require(bool((spec.masses[cell[:-1], cell[1:]] > 0.0).all()), "chain entered a zero-mass cell")
        else:
            _require(bool((values * LATTICE == np.floor(values * LATTICE)).all()), "value off the k/2^53 lattice")

    def _lagstats(self, job: dict, out: Path) -> None:
        stats = json.loads(out.read_text(encoding="ascii"))
        lag = int(job["argv"][job["argv"].index("--lag") + 1])
        grid_n = int(job["argv"][job["argv"].index("--grid-n") + 1])
        pairs = job["steps"] - lag
        counts = np.array(stats["counts"])
        _require(stats["lag"] == lag and stats["grid_n"] == grid_n, "lag or grid size differs")
        _require(stats["pairs"] == pairs and counts.shape == (grid_n, grid_n), "pair count differs")
        _require(int(counts.sum()) == pairs, "histogram total differs from the pair count")
        values = self.chain(self.workdir / job["chain"])
        # Ranks spread the values evenly over the bins; a tie group lands
        # in one bin, and the last `lag` values are not first members.
        ties = int(np.unique(values, return_counts=True)[1].max())
        slack = lag + 2 * ties
        for margin in (counts.sum(axis=0), counts.sum(axis=1)):
            dev = float(np.abs(margin - pairs / grid_n).max())
            _require(dev <= slack, f"rank margin off uniform by {dev}")
        frechet = _as_frechet(self.spec(job["spec"]))
        if frechet is None:
            return
        u = _to_uniform(values, job["marginal"])
        reflected = float(np.mean(np.abs(u[lag:] - (1.0 - u[:-lag])) <= 1e-9))
        for name, got, p_fn in (
            ("copy", stats["freq_equal"], _copy_moments),
            ("reflect", reflected, _reflect_moments),
        ):
            mean, var = p_fn(*frechet, lag)
            sigma = math.sqrt(var / pairs)
            _require(abs(got - mean) <= SIGMAS * sigma + 1e-12,
                     f"{name} frequency {got:.6f} outside {mean:.6f} +- {SIGMAS:g} sigma ({sigma:.2g})")


# ---------------------------------------------------------------------------
# Helpers


def read_grid(path: Path) -> tuple[int, np.ndarray]:
    """Parse a grid CSV (first line n, then n rows) without the library."""
    lines = path.read_text(encoding="ascii").split("\n")
    n = int(lines[0])
    rows = [line for line in lines[1:] if line]
    _require(len(rows) == n, f"{len(rows)} grid rows, expected {n}")
    flat = [float(v) for line in rows for v in line.split(",")]
    _require(len(flat) == n * n, "grid rows have the wrong length")
    return n, np.array(flat).reshape(n, n)


def read_chain(path: Path) -> np.ndarray:
    return np.array([float(v) for v in path.read_text(encoding="ascii").split()])


def _to_uniform(values: np.ndarray, marginal: str) -> np.ndarray:
    """Map chain values back through the marginal's CDF (accurate to ~1e-15)."""
    kind, _, params = marginal.partition(":")
    if kind == "uniform":
        return values
    if kind == "exp":
        return -np.expm1(-float(params) * values)
    mu, sigma = (float(p) for p in params.split(","))
    dist = statistics.NormalDist(mu, sigma)
    return np.array([dist.cdf(v) for v in values.tolist()])


def _as_frechet(spec) -> tuple[float, float] | None:
    """One-step (reflect, copy) probabilities of a Frechet-type spec, else None.

    A mixture of W, M, Pi, Frechet and Mardia members steps like a single
    Frechet member whose a and b are the weighted sums of the components'.
    """
    if isinstance(spec, Independence):
        return 0.0, 0.0
    if isinstance(spec, HoeffdingLower):
        return 1.0, 0.0
    if isinstance(spec, HoeffdingUpper):
        return 0.0, 1.0
    if isinstance(spec, Mardia):
        spec = spec.as_frechet()
    if isinstance(spec, Frechet):
        return spec.a, spec.b
    if isinstance(spec, Mixture):
        parts = [_as_frechet(c) for c in spec.components]
        if any(p is None for p in parts):
            return None
        return (
            math.fsum(w * p[0] for w, p in zip(spec.weights, parts)),
            math.fsum(w * p[1] for w, p in zip(spec.weights, parts)),
        )
    if isinstance(spec, (MarshallOlkin, GridSpec)):
        return None
    raise CheckError(f"unknown spec {spec!r}")


def _copy_moments(a: float, b: float, lag: int) -> tuple[float, float]:
    """Mean and per-pair variance of the lag-2 copy indicator (b_2 = a^2 + b^2).

    Adjacent lag-2 pairs share one step, so the variance adds twice the
    covariance of neighbours: P(three equal R/C steps) - p^2.
    """
    _require(lag == 2, "frequency moments are derived for lag 2")
    p = frechet_fold_params(a, b, 2).b_n
    return p, p * (1.0 - p) + 2.0 * (a**3 + b**3 - p * p)


def _reflect_moments(a: float, b: float, lag: int) -> tuple[float, float]:
    """Mean and per-pair variance of the lag-2 reflect indicator (a_2 = 2ab)."""
    _require(lag == 2, "frequency moments are derived for lag 2")
    q = frechet_fold_params(a, b, 2).a_n
    return q, q * (1.0 - q) + 2.0 * (a * a * b + a * b * b - q * q)
