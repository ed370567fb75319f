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

import contextlib
import os

import numpy as np

from .errors import OutputError, ValidationError
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
    "lag_walk",
    "mix_grids",
    "coarsen",
    "write_grid_csv",
    "read_grid_csv",
]

GridCopula = GridSpec

# Memory budget of one n x n float64 (or int64) array: 512 MiB, so n <= 8192.
MAX_RESOLUTION = 8192

# write_grid_csv formats cell by cell above this share of distinct masses
# among the n^2 cells. At n = 1024 on a 2-core VM, with the distinct
# masses scattered at random over the cells (the slowest layout for the
# dedupe), the dedupe wrote in 0.18 s against 0.39 s cell by cell at a
# share of 0.03, 0.23 s against 0.39 s at 0.1, broke even near 0.25 and
# took 0.87 s against 0.44 s with every mass distinct.
DEDUPE_MAX_DISTINCT = 0.1


def discretize(spec: CopulaSpec, n: int) -> GridCopula:
    """Project a copula spec onto the uniform n x n grid.

    Cell masses are exact: singular parts are captured by CDF
    inclusion-exclusion, and families with closed-form grids (the
    Frechet members, mixtures of them, grid specs at any resolution)
    supply those. Resolutions above ``MAX_RESOLUTION`` are rejected
    before anything is allocated.
    """
    n = _require_resolution(n, "resolution")
    _require_spec(spec)
    return GridCopula(resolution=n, masses=spec.cell_masses(n))


def _require_resolution(n, name: str) -> int:
    """Check that an n x n array of 8-byte values fits the memory budget."""
    n = _require_int(n, name, 2)
    if n > MAX_RESOLUTION:
        raise ValidationError(
            f"{name} {n} is above {MAX_RESOLUTION}, the limit set by the "
            f"512 MiB memory budget for one n x n array of 8-byte values"
        )
    return n


def _require_lag(lag, name: str) -> int:
    """Check that a lag fits the budget: a lag walk folds once per step."""
    lag = _require_int(lag, name)
    if lag > MAX_RESOLUTION:
        raise ValidationError(
            f"{name} {lag} is above {MAX_RESOLUTION}, the lag budget "
            f"(one fold product per step of a lag walk)"
        )
    return lag


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


def lag_walk(step: GridCopula, stride: int, max_lag: int):
    """Yield (lag, grid) for lag = stride, 2 * stride, ... up to max_lag.

    ``step`` is the lag-``stride`` grid; each later grid is
    fold_product(previous, step), built only when it is asked for.
    """
    current = step
    for lag in range(stride, max_lag + 1, stride):
        if lag > stride:
            current = fold_product(current, step)
        yield lag, current


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

    Masses are printed with ``%.17g`` (17 significant digits), enough for
    a bit-exact float64 round trip. Family grids hold few distinct masses
    (3 for Frechet at n = 1024, about 30 000 for Marshall-Olkin), so each
    distinct mass is formatted once and every row joins the strings of
    its cells. Masses count as distinct by their bit patterns, not by
    float equality, which would merge -0.0 with 0.0 (printed as "-0" and
    "0"). A grid with more than ``DEDUPE_MAX_DISTINCT`` * n^2 distinct
    masses is formatted cell by cell instead. Both ways write the same
    bytes. The file appears only complete (:func:`open_output`).
    """
    n = g.resolution
    bits = g.masses.view(np.uint64).ravel()
    # The sorted distinct bit patterns. np.unique gives the same, but on
    # an all-distinct n = 1024 grid it took 0.5 s (numpy 2.4) against
    # 0.005 s for this sort.
    ordered = np.sort(bits)
    keys = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    del ordered
    with open_output(path) as fh:
        fh.write(f"{n}\n")
        if keys.size > DEDUPE_MAX_DISTINCT * n * n:
            row_format = ",".join(["%.17g"] * n) + "\n"
            for row in g.masses.tolist():
                fh.write(row_format % tuple(row))
            return
        texts = ["%.17g" % v for v in keys.view(np.float64).tolist()]
        # One row of the index at a time: a list of all n^2 indices would
        # cost more memory than the grid itself.
        for row in np.searchsorted(keys, bits).reshape(n, n):
            fh.write(",".join([texts[i] for i in row.tolist()]) + "\n")


@contextlib.contextmanager
def open_output(path: str):
    """Open ``path`` for ASCII text output that appears there only complete.

    The text goes to a new hidden file in the same directory, which
    replaces ``path`` (``os.replace``) when the block exits normally. If
    the block raises, that file is removed and an existing ``path`` is
    left as it was. Any OSError while creating, writing or renaming the
    file is raised again as an ``OutputError``, with ``path`` in place of
    the hidden file's name. Every output and manifest writer goes
    through here.
    """
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="ascii") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            args = (exc.errno, exc.strerror, path) if exc.filename == tmp else exc.args
            raise OutputError(*args) from exc
        raise


def read_grid_csv(path: str) -> GridCopula:
    """Load a grid written by :func:`write_grid_csv` (revalidates invariants)."""
    n, masses = read_mass_csv(path)
    return GridCopula(resolution=n, masses=masses)
