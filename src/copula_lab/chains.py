"""Stationary Markov chains driven by a copula and a marginal law.

The chain starts at a uniform draw and steps by inverting the
conditional CDF of the copula at an independent uniform; pushing every
state through a quantile function then yields the chain with that
marginal. Two design points matter for the empirical checks downstream:

* Uniform variates live on the lattice k/2^53 with k in [1, 2^53), so
  reflection x -> 1 - x is an exact involution in float64 and the
  copy/reflect branch frequencies can be measured by bit comparison.
* The generator is counter-based (Philox) keyed by the seed; step t
  always consumes the same two words (branch decision, fresh value),
  so chains with different marginals but one seed are couplings of the
  same uniform chain.

The spec turns the two word arrays into the states
(``CopulaSpec.walk``): a step loop by default, array operations for
Frechet-type specs, whose steps depend on the decision word only.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .families import CopulaSpec, _require_int, _require_spec
from .grid import MAX_RESOLUTION, _require_resolution

__all__ = [
    "Marginal",
    "ChainSample",
    "EmpiricalLagStats",
    "sample_chain",
    "empirical_lag_stats",
    "marginal_invariance_check",
]

LATTICE = float(2**53)

# Most steps a chain may take: one float64 array of them fills the
# 512 MiB per-array memory budget of a grid at MAX_RESOLUTION (2^26).
MAX_STEPS = MAX_RESOLUTION * MAX_RESOLUTION


def _normal_quantile(u: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    dist = statistics.NormalDist(mu, sigma)
    return np.fromiter((dist.inv_cdf(t) for t in u), float, count=u.size)


# kind -> (parameter names, quantile(u, *params) on a float array). Every
# parameterized kind needs its last parameter (rate, sigma) positive.
_MARGINALS = {
    "uniform": ((), lambda u: u.copy()),
    "exp": (("rate",), lambda u, rate: -np.log1p(-u) / rate),
    "normal": (("mu", "sigma"), _normal_quantile),
}
_USAGE = "uniform, exp:<rate> or normal:<mu>,<sigma> with finite rate, sigma > 0"


@dataclass(frozen=True)
class Marginal:
    """Marginal distribution given by its quantile function.

    Descriptors: "uniform", "exp:<rate>", "normal:<mu>,<sigma>".
    """

    kind: str
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _MARGINALS:
            raise ValidationError(f"unknown marginal {self.kind!r}; expected {_USAGE}")
        names = _MARGINALS[self.kind][0]
        if (
            not all(math.isfinite(p) for p in self.params)
            or len(self.params) != len(names)
            or (names and self.params[-1] <= 0.0)
        ):
            raise ValidationError(
                f"bad {self.kind} marginal parameters {self.params!r}; expected {_USAGE}"
            )

    @classmethod
    def parse(cls, descriptor: str) -> "Marginal":
        kind, colon, rest = descriptor.strip().partition(":")
        try:
            params = tuple(float(p) for p in rest.split(",")) if colon else ()
        except ValueError as exc:
            raise ValidationError(
                f"bad marginal descriptor {descriptor!r}; expected {_USAGE}"
            ) from exc
        return cls(kind=kind, params=params)

    def describe(self) -> str:
        if not self.params:
            return self.kind
        return self.kind + ":" + ",".join(f"{p:.17g}" for p in self.params)

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """Apply the (strictly increasing) quantile function elementwise."""
        return _MARGINALS[self.kind][1](np.asarray(u, dtype=float), *self.params)


@dataclass(frozen=True, eq=False)
class ChainSample:
    """A simulated chain with its full provenance.

    ``spec`` is None for samples loaded from disk, where the generating
    copula is unknown.
    """

    values: np.ndarray
    seed: int
    spec: CopulaSpec | None
    marginal: Marginal

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ValidationError("a chain sample needs at least 2 values")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("chain values must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


def sample_chain(
    spec: CopulaSpec, steps: int, seed: int, marginal: str | Marginal = "uniform"
) -> ChainSample:
    """Simulate a stationary chain of the given length.

    X_0 is uniform; X_{t+1} inverts the conditional CDF at X_t using the
    two Philox words of step t + 1 (branch decision and fresh value);
    ``spec.walk`` computes the states. The uniform path is transformed
    through the marginal quantile at the end, so one seed yields
    coupled chains across marginals. More than ``MAX_STEPS`` steps are
    rejected before anything is allocated.
    """
    if _require_int(steps, "steps", 2) > MAX_STEPS:
        raise ValidationError(
            f"steps {steps} is above {MAX_STEPS}, the limit set by the 512 MiB "
            f"memory budget for one array of 8-byte values"
        )
    if _require_int(seed, "seed", 0) >= 2**64:
        raise ValidationError(f"seed must be a 64-bit unsigned integer (got {seed!r})")
    _require_spec(spec)
    if isinstance(marginal, str):
        marginal = Marginal.parse(marginal)
    rng = np.random.Generator(np.random.Philox(key=seed))
    # Lattice uniforms: decisions in [0, 1), values in (0, 1); values on
    # k/2^53 keep 1 - x exact (see module docstring).
    decisions = rng.integers(0, 2**53, size=steps) / LATTICE
    values = rng.integers(1, 2**53, size=steps) / LATTICE
    u = spec.walk(decisions, values)
    return ChainSample(
        values=marginal.quantile(u), seed=seed, spec=spec, marginal=marginal
    )


@dataclass(frozen=True, eq=False)
class EmpiricalLagStats:
    """Empirical lag-`lag` dependence summary of one chain.

    ``freq_equal`` and ``freq_reflected`` are the fractions of pairs
    with X_{t+lag} bitwise equal to X_t and to 1 - X_t (the copy and
    reflect branches of Frechet-type chains). ``counts`` is the raw 2-D
    pair histogram on the grid_n x grid_n grid, not normalized.
    """

    lag: int
    freq_equal: float
    freq_reflected: float
    counts: np.ndarray
    pairs: int
    grid_n: int


def _pseudo_uniform(values: np.ndarray) -> np.ndarray:
    # Average ranks scaled into (0, 1); ties share a rank, so any
    # strictly increasing marginal transform leaves the output
    # bit-identical.
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    average = starts + (counts + 1) / 2.0
    return average[inverse] / (values.size + 1)


def _cell_index(values: np.ndarray, n: int) -> np.ndarray:
    # Cells are left-open: (j/n, (j+1)/n]. A value equal to j/n lands in
    # cell j-1, which side="left" on the interior boundaries gives.
    boundaries = np.arange(1, n) / n
    return np.searchsorted(boundaries, values, side="left")


def empirical_lag_stats(
    sample: ChainSample, lag: int, grid_n: int, use_ranks: bool | None = None
) -> EmpiricalLagStats:
    """Count copy/reflect events and the pair histogram at one lag.

    Non-uniform marginals are rank-transformed to pseudo-uniforms before
    comparison and binning (``use_ranks`` defaults to exactly that rule;
    pass True/False to force); without ranks every value must lie in
    [0, 1]. Bit-exact comparisons are meaningful because the sampler
    copies and reflects exactly. A ``grid_n`` above
    ``grid.MAX_RESOLUTION`` is rejected before the histogram is
    allocated.
    """
    _require_int(lag, "lag")
    _require_resolution(grid_n, "grid_n")
    values = sample.values
    if lag >= values.size:
        raise ValidationError(
            f"lag {lag} needs a chain longer than {lag} (got {values.size})"
        )
    if use_ranks is None:
        use_ranks = sample.marginal.kind != "uniform"
    if not use_ranks and not np.all((values >= 0.0) & (values <= 1.0)):
        raise ValidationError("chain values must lie in [0, 1] unless rank-transformed")
    work = _pseudo_uniform(values) if use_ranks else values
    x = work[:-lag]
    y = work[lag:]
    pairs = int(x.size)
    freq_equal = float(np.mean(y == x))
    freq_reflected = float(np.mean(y == 1.0 - x))
    ix = _cell_index(x, grid_n)
    iy = _cell_index(y, grid_n)
    counts = np.bincount(ix * grid_n + iy, minlength=grid_n * grid_n)
    counts = counts.reshape(grid_n, grid_n)
    counts.setflags(write=False)
    return EmpiricalLagStats(
        lag=lag,
        freq_equal=freq_equal,
        freq_reflected=freq_reflected,
        counts=counts,
        pairs=pairs,
        grid_n=grid_n,
    )


def marginal_invariance_check(
    spec: CopulaSpec,
    steps: int,
    seed: int,
    marginal: str | Marginal,
    lag: int,
    grid_n: int,
) -> tuple[bool, dict]:
    """Check the marginal plays no role in the lag statistics.

    Runs the uniform-marginal chain and the requested-marginal chain
    with one seed, pushes both through the rank pipeline, and demands
    bit-identical histograms and frequencies (strictly increasing
    transforms preserve order and ties exactly).
    """
    uniform_chain = sample_chain(spec, steps, seed, "uniform")
    other_chain = sample_chain(spec, steps, seed, marginal)
    stats_u = empirical_lag_stats(uniform_chain, lag, grid_n, use_ranks=True)
    stats_o = empirical_lag_stats(other_chain, lag, grid_n, use_ranks=True)
    counts_equal = bool(np.array_equal(stats_u.counts, stats_o.counts))
    identical = (
        counts_equal
        and stats_u.freq_equal == stats_o.freq_equal
        and stats_u.freq_reflected == stats_o.freq_reflected
    )
    report = {
        "marginal": other_chain.marginal.describe(),
        "lag": lag,
        "grid_n": grid_n,
        "pairs": stats_u.pairs,
        "counts_equal": counts_equal,
        "freq_equal": [stats_u.freq_equal, stats_o.freq_equal],
        "freq_reflected": [stats_u.freq_reflected, stats_o.freq_reflected],
        "max_count_diff": int(
            np.abs(stats_u.counts.astype(np.int64) - stats_o.counts).max()
        ),
    }
    return identical, report
