"""Mixing coefficients of a grid copula over the grid sigma-algebra.

Five dependence coefficients of the stationary pair (X_0, X_m) whose
joint law is a grid copula: the maximal correlation rho, the uniform
mixing coefficient phi, absolute regularity beta, the lower psi-mixing
coefficient psi_prime, and psi-mixing psi. Each has an extremal
reduction that makes it exact over the grid sigma-algebra:

* rho        second-largest singular value of D = n * masses. The top
             singular value is 1 with constant vectors; D maps the
             mean-zero subspace to itself, so deflating the constant
             direction (subtracting 1/n from every entry) exposes it.
* phi        worst row in total variation: max_i (1/2) sum_j
             |n*masses[i][j] - 1/n|. The half-L1 form is valid because
             each conditional row has total mass 1.
* beta       (1/2) sum_{i,j} |masses[i][j] - 1/n^2|, the row average of
             the phi integrand.
* psi_prime  n^2 * min cell mass. The ratio mu(AxB)/(lambda(A)lambda(B))
             is a weighted average of cell ratios, so singletons attain
             the infimum.
* psi        max(n^2 * max - 1, 1 - n^2 * min), singleton extremality on
             both sides.

Values are exact for the grid measure but relate to the Borel-set
definitions one-sidedly: lower bounds for the sup-type coefficients
(rho, phi, beta, psi), an upper bound for psi_prime. Reports carry the
label "grid-exact" to make that precise.

For resolutions up to 4, :func:`brute_force_coefficient` enumerates
set pairs directly and certifies the reductions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .families import CopulaSpec, _require_int
from .grid import GridCopula, discretize, fold_product

__all__ = [
    "rho",
    "phi",
    "beta",
    "psi_prime",
    "psi",
    "brute_force_coefficient",
    "MixingRow",
    "MixingReport",
    "report",
]

COEFFICIENT_IDS = ("rho", "phi", "beta", "psi_prime", "psi")

# Enumeration over 2^(n^2) cell subsets caps the brute-force oracle.
BRUTE_FORCE_MAX_N = 4


def rho(g: GridCopula) -> float:
    """Maximal correlation over cell-constant mean-zero functions.

    Equals the second-largest singular value of D = n * masses,
    computed as the largest singular value of D with the constant
    direction deflated.
    """
    n = g.resolution
    deflated = n * g.masses - 1.0 / n
    try:
        top = float(np.linalg.svd(deflated, compute_uv=False)[0])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"SVD failed to converge on the deflated {n}x{n} matrix: {exc}"
        ) from exc
    return min(max(top, 0.0), 1.0)


def phi(g: GridCopula) -> float:
    """Uniform mixing: worst conditional row in total variation."""
    return float(_row_tv(g).max())


def beta(g: GridCopula) -> float:
    """Absolute regularity: total variation between the grid measure
    and the product of its (uniform) marginals."""
    n = g.resolution
    return 0.5 * float(np.abs(g.masses - 1.0 / (n * n)).sum())


def psi_prime(g: GridCopula) -> float:
    """Lower psi-mixing: n^2 times the smallest cell mass."""
    n = g.resolution
    return n * n * float(g.masses.min())


def psi(g: GridCopula) -> float:
    """Psi-mixing: worst relative deviation of a cell ratio from 1."""
    n = g.resolution
    scaled = n * n
    return max(scaled * float(g.masses.max()) - 1.0, 1.0 - scaled * float(g.masses.min()))


def _row_tv(g: GridCopula) -> np.ndarray:
    n = g.resolution
    return 0.5 * np.abs(n * g.masses - 1.0 / n).sum(axis=1)


# ---------------------------------------------------------------------------
# Brute-force oracle (small n)


def _subset_bits(n: int) -> np.ndarray:
    # Row k encodes subset k+1 of {0,..,n-1}; all nonempty subsets.
    ks = np.arange(1, 2**n)
    return ((ks[:, None] >> np.arange(n)) & 1).astype(float)


def _brute_pairs(g: GridCopula):
    n = g.resolution
    bits = _subset_bits(n)
    sizes = bits.sum(axis=1) / n
    joint = bits @ g.masses @ bits.T
    return joint, sizes


def _brute_phi(g: GridCopula) -> float:
    joint, lam = _brute_pairs(g)
    return float(np.abs(joint / lam[:, None] - lam[None, :]).max())


def _brute_psi_prime(g: GridCopula) -> float:
    joint, lam = _brute_pairs(g)
    return float((joint / np.outer(lam, lam)).min())


def _brute_psi(g: GridCopula) -> float:
    joint, lam = _brute_pairs(g)
    return float(np.abs(joint / np.outer(lam, lam) - 1.0).max())


def _brute_beta(g: GridCopula) -> float:
    # beta ranges over every measurable set of the product grid
    # sigma-algebra, i.e. arbitrary unions of cells, not only product
    # sets A x B (rectangle pairs undershoot: [[0.3,0.2],[0.2,0.3]]
    # gives 0.05 over rectangles but beta = 0.1).
    n = g.resolution
    signed = g.masses.ravel() - 1.0 / (n * n)
    cells = _subset_bits(n * n)
    return float(np.abs(cells @ signed).max())


def _brute_rho(g: GridCopula) -> float:
    # Lower-bound certificate: alternate projected power iterations
    # from several fixed random starts; every iterate is a feasible
    # mean-zero function pair, so the best value never overshoots.
    n = g.resolution
    d = n * g.masses
    rng = np.random.default_rng(20240901)
    best = 0.0
    for _ in range(10):
        u = rng.standard_normal(n)
        u -= u.mean()
        norm = np.linalg.norm(u)
        if norm == 0.0:
            continue
        u /= norm
        value = 0.0
        for _ in range(2000):
            v = d.T @ u
            v -= v.mean()
            nv = np.linalg.norm(v)
            if nv == 0.0:
                break
            v /= nv
            u = d @ v
            u -= u.mean()
            nu = np.linalg.norm(u)
            if nu == 0.0:
                break
            u /= nu
            new = float(u @ d @ v)
            if abs(new - value) < 1e-13:
                value = new
                break
            value = new
        best = max(best, value)
    return min(best, 1.0)


_BRUTE_FORCE = {
    "rho": _brute_rho,
    "phi": _brute_phi,
    "beta": _brute_beta,
    "psi_prime": _brute_psi_prime,
    "psi": _brute_psi,
}


def brute_force_coefficient(g: GridCopula, which: str) -> float:
    """Exact extremum by enumerating grid-set pairs (resolution <= 4).

    For phi, psi and psi_prime this ranges over all nonempty cell-subset
    pairs (A, B); for beta over every subset of cells of the product
    grid; for rho it reports the best value found by projected power
    iteration over feasible mean-zero function pairs, which is a lower
    -bound certificate rather than an enumeration.
    """
    if which not in _BRUTE_FORCE:
        raise ValidationError(
            f"unknown coefficient {which!r}; expected one of {COEFFICIENT_IDS}"
        )
    if g.resolution > BRUTE_FORCE_MAX_N:
        raise ValidationError(
            f"brute force enumerates 2^(n^2) subsets and refuses n > "
            f"{BRUTE_FORCE_MAX_N} (got {g.resolution})"
        )
    return _BRUTE_FORCE[which](g)


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class MixingRow:
    """Coefficients of the lag-`lag` fold power, with extremal witnesses.

    ``worst_row`` is the row attaining phi; ``max_cell``/``min_cell``
    attain the extreme cell densities behind psi and psi_prime. Ties
    resolve to the lowest (i, j) in lexicographic order.
    """

    lag: int
    rho: float
    phi: float
    beta: float
    psi_prime: float
    psi: float
    worst_row: int
    max_cell: tuple[int, int]
    min_cell: tuple[int, int]


@dataclass(frozen=True)
class MixingReport:
    """Per-lag mixing coefficients of a discretized spec.

    ``method`` is always "grid-exact": values are exact over the grid
    sigma-algebra, hence lower bounds for rho/phi/beta/psi and an upper
    bound for psi_prime relative to their Borel-set definitions.
    """

    resolution: int
    rows: tuple[MixingRow, ...]
    method: str = "grid-exact"


def _argcell(flat_index: int, n: int) -> tuple[int, int]:
    return (flat_index // n, flat_index % n)


def _row_for_lag(lag: int, g: GridCopula) -> MixingRow:
    n = g.resolution
    return MixingRow(
        lag=lag,
        rho=rho(g),
        phi=phi(g),
        beta=beta(g),
        psi_prime=psi_prime(g),
        psi=psi(g),
        worst_row=int(np.argmax(_row_tv(g))),
        max_cell=_argcell(int(np.argmax(g.masses)), n),
        min_cell=_argcell(int(np.argmin(g.masses)), n),
    )


def report(spec: CopulaSpec, n: int, lags) -> MixingReport:
    """Discretize a spec and tabulate all five coefficients per lag.

    ``lags`` must be nonempty, strictly ascending positive integers.
    Lag-m grids are built by sequential fold products, matching the
    one-step composition that defines the chain.
    """
    lags = list(lags)
    if not lags:
        raise ValidationError("lags must be nonempty")
    for lag in lags:
        _require_int(lag, "lag")
    if any(b <= a for a, b in zip(lags, lags[1:])):
        raise ValidationError(f"lags must be strictly ascending (got {lags})")
    base = discretize(spec, n)
    rows = []
    current = base
    power = 1
    for lag in lags:
        while power < lag:
            current = fold_product(current, base)
            power += 1
        rows.append(_row_for_lag(lag, current))
    return MixingReport(resolution=base.resolution, rows=tuple(rows))
