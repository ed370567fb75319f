"""Uniform-grid discretization and the fold-product algebra.

A copula measure restricted to the n x n uniform grid is an n x n
matrix of cell masses with uniform marginals (every row and column sums
to 1/n). Scaling by n gives a doubly stochastic matrix D, and the fold
product of two grids is exactly n * (D1 @ D2) / n at the mass level,
so the Markov-operator semantics of the chain reduce to matrix algebra.

The grid type is ``families.GridSpec``, also named ``GridCopula``
here, so every grid is also a copula spec: it can be a mixture
component or the copula of a sampled chain. Discretizing asks the
spec for its exact cell masses (``CopulaSpec.cell_masses``): CDF
inclusion-exclusion by default, exact for every family including
purely singular ones, and closed forms where a family has them.
"""

from __future__ import annotations

from .errors import ValidationError
from .families import (
    CopulaSpec,
    GridSpec,
    Mixture,
    _require_int,
    _require_spec,
    read_mass_csv,
)

__all__ = [
    "GridCopula",
    "discretize",
    "fold_product",
    "fold_power",
    "mix_grids",
    "coarsen",
    "write_grid_csv",
    "read_grid_csv",
]

GridCopula = GridSpec

# Memory budget of one n x n float64 matrix: 512 MiB, so n <= 8192.
MAX_RESOLUTION = 8192


def discretize(spec: CopulaSpec, n: int) -> GridCopula:
    """Project a copula spec onto the uniform n x n grid.

    Cell masses are exact: singular parts are captured by CDF
    inclusion-exclusion, and families with closed-form grids (the
    Frechet members, mixtures of them, grids at their own resolution)
    supply those. Resolutions above ``MAX_RESOLUTION`` are rejected
    before anything is allocated.
    """
    n = _require_int(n, "resolution", 2)
    if n > MAX_RESOLUTION:
        raise ValidationError(
            f"resolution {n} is above {MAX_RESOLUTION}, the limit set by the "
            f"512 MiB memory budget for one n x n float64 matrix"
        )
    _require_spec(spec)
    return GridCopula(resolution=n, masses=spec.cell_masses(n))


def fold_product(g1: GridCopula, g2: GridCopula) -> GridCopula:
    """Fold product of two grids: masses = n * (M1 @ M2).

    This is the grid transcription of C1*C2(x, y) = integral of
    d/dt C1(x, t) * d/dt C2(t, y) dt, and the transition rule for
    composing lag-1 transition matrices.
    """
    if g1.resolution != g2.resolution:
        raise ValidationError(
            f"resolution mismatch: {g1.resolution} vs {g2.resolution}"
        )
    n = g1.resolution
    return GridCopula(resolution=n, masses=n * (g1.masses @ g2.masses))


def fold_power(g: GridCopula, m: int) -> GridCopula:
    """m-fold product of g with itself (exponentiation by squaring)."""
    _require_int(m, "fold power")
    result: GridCopula | None = None
    base = g
    while m:
        if m & 1:
            result = base if result is None else fold_product(result, base)
        m >>= 1
        if m:
            base = fold_product(base, base)
    assert result is not None
    return result


def mix_grids(weights, grids) -> GridCopula:
    """Cellwise convex combination of equally sized grids.

    The weights and grids are validated as a :class:`Mixture`, whose
    cell masses at the common resolution are the combination.
    """
    mix = Mixture(weights=tuple(weights), components=tuple(grids))
    n = mix.components[0].resolution
    for g in mix.components[1:]:
        if g.resolution != n:
            raise ValidationError(f"resolution mismatch: {n} vs {g.resolution}")
    return GridCopula(resolution=n, masses=mix.cell_masses(n))


def coarsen(g: GridCopula, factor: int) -> GridCopula:
    """Merge factor x factor blocks of cells; resolution must divide evenly."""
    _require_int(factor, "coarsen factor")
    n = g.resolution
    if n % factor != 0:
        raise ValidationError(f"coarsen factor {factor} does not divide resolution {n}")
    m = n // factor
    if m < 2:
        raise ValidationError(f"coarsened resolution {m} would fall below 2")
    blocks = g.masses.reshape(m, factor, m, factor).sum(axis=(1, 3))
    return GridCopula(resolution=m, masses=blocks)


def write_grid_csv(g: GridCopula, path: str) -> None:
    """Write the CSV grid format: first line n, then n rows of n masses.

    Masses are printed with 17 significant digits, enough for a bit-exact
    float64 round trip.
    """
    row_format = ",".join(["%.17g"] * g.resolution) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{g.resolution}\n")
        for row in g.masses.tolist():
            fh.write(row_format % tuple(row))


def read_grid_csv(path: str) -> GridCopula:
    """Load a grid written by :func:`write_grid_csv` (revalidates invariants)."""
    n, masses = read_mass_csv(path)
    return GridCopula(resolution=n, masses=masses)
