"""Machine checks of the mixing-theory statements at grid scale.

Each check discretizes its copulas, runs exact grid algebra, and
compares a measured quantity against the theoretical bound with a fixed
1e-9 slack for accumulated matrix-product and SVD rounding:

* ``verify_density_bound``      a density bounded below by c > 0 forces
                                psi_prime >= c at every lag.
* ``tuple_decomposition_check`` the lag-m fold power of a mixture is
                                the weighted sum over component tuples
                                of their fold products (exact matrix
                                distributivity on grids).
* ``verify_mixture_bound``      one good tuple bounds the mixture's
                                coefficient: rho <= 1 - (1-rho_t)*a_t,
                                psi_prime >= a_t*psi'_t, and
                                phi, beta <= a_t*(c_t - 1) + 1, where
                                a_t is the tuple's weight product.
* ``exponential_rate_table``    1 - psi_prime along lags m, 2m, ... with
                                the worst consecutive ratio; a ratio
                                below 1 exhibits the exponential decay
                                that psi_prime(m) > 0 forces.
* ``psi_divergence_table``      the Frechet-family witness that
                                psi-mixing can fail outright: over the
                                centered band of width eps, the psi
                                ratio is at least (1-eps)(a+b)^n/eps,
                                unbounded as eps shrinks.

Checks whose hypothesis fails (c <= 0, vacuous bounds, a + b = 0) come
back flagged not-applicable rather than failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .families import CopulaSpec, Frechet, Mixture, _require_spec, frechet_fold_params
from .grid import GridCopula, discretize, fold_power, fold_product, mix_grids
from .coefficients import beta, phi, psi, psi_prime, rho

__all__ = [
    "SLACK",
    "BoundCheckResult",
    "RateTable",
    "DivergenceRow",
    "PsiDivergenceTable",
    "min_ac_density",
    "verify_density_bound",
    "tuple_decomposition_check",
    "verify_mixture_bound",
    "exponential_rate_table",
    "psi_divergence_table",
]

# Inequality slack absorbing matrix-product and SVD rounding at n <= 1024.
SLACK = 1e-9

THEOREM_IDS = (
    "density-psi-prime",
    "tuple-decomposition",
    "mixture-rho",
    "mixture-psi-prime",
    "mixture-phi",
    "mixture-beta",
    "psi-divergence",
    "exponential-rate",
)

# Combinatorial budget for tuple enumeration (k^m tuples).
TUPLE_BUDGET = 10_000
TUPLE_MAX_RESOLUTION = 128


@dataclass(frozen=True)
class BoundCheckResult:
    """Outcome of one theorem check.

    ``satisfied`` is the inequality verdict with the 1e-9 slack applied;
    when ``not_applicable`` is set the hypothesis of the statement fails
    for this input and ``satisfied`` is False but carries no weight
    (the CLI treats satisfied-or-not-applicable as success).
    """

    theorem_id: str
    m: int
    bound: float
    measured: float
    satisfied: bool
    witness: dict = field(default_factory=dict)
    not_applicable: bool = False

    @property
    def passed(self) -> bool:
        return self.satisfied or self.not_applicable


def _require_positive_int(value, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValidationError(f"{name} must be a positive integer (got {value!r})")
    return value


# ---------------------------------------------------------------------------
# Density lower bound


def min_ac_density(spec: CopulaSpec) -> float:
    """Essential infimum of the density of the absolutely continuous part.

    Exact closed forms per family (``CopulaSpec.min_ac_density``);
    mixtures get the weighted sum of component infima, a valid (possibly
    conservative) lower bound c for the hypothesis "density >= c almost
    everywhere"; grids get n^2 times their smallest cell mass.
    """
    _require_spec(spec)
    return spec.min_ac_density()


def verify_density_bound(spec: CopulaSpec, m: int, n: int) -> BoundCheckResult:
    """Check psi_prime(lag j) >= c*(1 - slack) at j = m, 2m, 3m.

    c is the essential infimum of the AC density (closed form per
    family, cell minimum for grid inputs). c <= 0 means the hypothesis
    fails and the result is flagged not-applicable.
    """
    m = _require_positive_int(m, "m")
    c = min_ac_density(spec)
    if c <= 0.0:
        return BoundCheckResult(
            theorem_id="density-psi-prime",
            m=m,
            bound=c,
            measured=0.0,
            satisfied=False,
            witness={"reason": "density not bounded away from zero (c <= 0)"},
            not_applicable=True,
        )
    base = discretize(spec, n)
    g_m = fold_power(base, m)
    g_2m = fold_product(g_m, g_m)
    g_3m = fold_product(g_2m, g_m)
    checks = []
    satisfied = True
    for lag, g in ((m, g_m), (2 * m, g_2m), (3 * m, g_3m)):
        value = psi_prime(g)
        checks.append({"lag": lag, "psi_prime": value})
        if value < c * (1.0 - SLACK):
            satisfied = False
    flat = int(np.argmin(g_m.masses))
    cell = (flat // g_m.resolution, flat % g_m.resolution)
    return BoundCheckResult(
        theorem_id="density-psi-prime",
        m=m,
        bound=c,
        measured=checks[0]["psi_prime"],
        satisfied=satisfied,
        witness={"binding_cell": list(cell), "checks": checks},
    )


# ---------------------------------------------------------------------------
# Tuple machinery shared by the decomposition and mixture checks


def _component_grids(components, n: int) -> list[GridCopula]:
    return [discretize(comp, n) for comp in components]


def _iter_tuple_products(mats: list[np.ndarray], m: int):
    """Yield (index tuple, raw matrix product) in lexicographic order.

    Products are of raw mass matrices; the caller scales by n^(m-1) to
    obtain grid masses. Prefix products are shared across the k^m leaves.
    """
    if m == 1:
        for i, mat in enumerate(mats):
            yield (i,), mat
        return
    for prefix_idx, prefix in _iter_tuple_products(mats, m - 1):
        for i, mat in enumerate(mats):
            yield prefix_idx + (i,), prefix @ mat


def _check_tuple_budget(k: int, m: int, n: int) -> None:
    if k**m > TUPLE_BUDGET:
        raise ValidationError(
            f"tuple enumeration budget exceeded: {k}^{m} > {TUPLE_BUDGET}"
        )
    if n > TUPLE_MAX_RESOLUTION:
        raise ValidationError(
            f"tuple checks refuse n > {TUPLE_MAX_RESOLUTION} (got {n})"
        )


def tuple_decomposition_check(weights, components, m: int, n: int) -> BoundCheckResult:
    """Verify the lag-m mixture fold power equals its tuple expansion.

    fold_power(mix, m) must match the sum over all k^m index tuples (i)
    of (prod_j w_{i_j}) * n^(m-1) * (masses_{i_1} @ ... @ masses_{i_m})
    cellwise within 1e-10. A single-component "mixture" is allowed and
    degenerates to an exact identity.
    """
    m = _require_positive_int(m, "m")
    spec = Mixture(weights=tuple(weights), components=tuple(components))
    k = len(spec.components)
    _check_tuple_budget(k, m, n)
    grids = _component_grids(spec.components, n)
    mixed = mix_grids(list(spec.weights), grids)
    left = fold_power(mixed, m).masses
    mats = [g.masses for g in grids]
    acc = np.zeros_like(left)
    count = 0
    for idx, raw in _iter_tuple_products(mats, m):
        w = 1.0
        for i in idx:
            w *= spec.weights[i]
        acc += w * raw
        count += 1
    right = float(n) ** (m - 1) * acc
    deviation = float(np.abs(left - right).max())
    flat = int(np.argmax(np.abs(left - right)))
    cell = (flat // n, flat % n)
    return BoundCheckResult(
        theorem_id="tuple-decomposition",
        m=m,
        bound=1e-10,
        measured=deviation,
        satisfied=deviation <= 1e-10,
        witness={"worst_cell": list(cell), "tuples": count},
    )


# ---------------------------------------------------------------------------
# Mixture coefficient bounds

_MIXTURE_THEOREMS = {
    "rho": "mixture-rho",
    "psi_prime": "mixture-psi-prime",
    "phi": "mixture-phi",
    "beta": "mixture-beta",
}

_COEFF_FUNCS = {"rho": rho, "psi_prime": psi_prime, "phi": phi, "beta": beta}


def _tuple_bound(coefficient: str, weight: float, value: float) -> float:
    if coefficient == "rho":
        return 1.0 - (1.0 - value) * weight
    if coefficient == "psi_prime":
        return weight * value
    # phi and beta share the contraction form.
    return weight * (value - 1.0) + 1.0


def _vacuous(coefficient: str, bound: float) -> bool:
    if coefficient == "psi_prime":
        return bound <= 0.0
    return bound >= 1.0


def verify_mixture_bound(
    weights,
    components,
    coefficient: str,
    m: int,
    n: int,
    *,
    ergodic_components=None,
    constant_tuples_only: bool = False,
) -> BoundCheckResult:
    """Bound a mixture's lag-m coefficient through its best tuple.

    Every length-m tuple (i) of component indices yields a valid bound
    built from the tuple's weight product a_t and the coefficient of
    its fold product; the check keeps the tuple whose bound is best
    (smallest for rho/phi/beta, largest for psi_prime, lexicographic
    tie-break) and compares the mixture's measured coefficient at lag m
    against it with 1e-9 slack.

    phi and beta additionally require an ergodic-and-aperiodic
    component; ``ergodic_components`` lists asserted component indices,
    defaulting to the components whose lag-1 grid has every cell
    strictly positive (a sufficient condition). Vacuous best bounds
    (>= 1, or <= 0 for psi_prime) flag the result not-applicable.

    ``constant_tuples_only`` restricts the search to tuples (i, ..., i);
    the general search can only improve on it.
    """
    m = _require_positive_int(m, "m")
    if coefficient not in _MIXTURE_THEOREMS:
        raise ValidationError(
            f"unknown coefficient {coefficient!r}; expected one of "
            f"{sorted(_MIXTURE_THEOREMS)}"
        )
    spec = Mixture(weights=tuple(weights), components=tuple(components))
    theorem_id = _MIXTURE_THEOREMS[coefficient]
    k = len(spec.components)
    _check_tuple_budget(k, m, n)
    grids = _component_grids(spec.components, n)

    if ergodic_components is None:
        flagged = [i for i, g in enumerate(grids) if float(g.masses.min()) > 0.0]
    else:
        flagged = sorted(set(ergodic_components))
        for i in flagged:
            if not 0 <= i < k:
                raise ValidationError(
                    f"ergodic component index {i} out of range 0..{k - 1}"
                )
    if coefficient in ("phi", "beta") and not flagged:
        return BoundCheckResult(
            theorem_id=theorem_id,
            m=m,
            bound=1.0,
            measured=0.0,
            satisfied=False,
            witness={"reason": "no component flagged ergodic and aperiodic"},
            not_applicable=True,
        )

    coeff_fn = _COEFF_FUNCS[coefficient]
    want_max = coefficient == "psi_prime"
    mats = [g.masses for g in grids]
    scale = float(n) ** (m - 1)
    best_bound = None
    best_idx = None
    best_value = None
    for idx, raw in _iter_tuple_products(mats, m):
        if constant_tuples_only and any(i != idx[0] for i in idx):
            continue
        w = 1.0
        for i in idx:
            w *= spec.weights[i]
        tuple_grid = GridCopula(resolution=n, masses=scale * raw)
        value = coeff_fn(tuple_grid)
        bound = _tuple_bound(coefficient, w, value)
        better = best_bound is None or (
            bound > best_bound if want_max else bound < best_bound
        )
        if better:
            best_bound, best_idx, best_value = bound, idx, value

    assert best_bound is not None and best_idx is not None
    if _vacuous(coefficient, best_bound):
        return BoundCheckResult(
            theorem_id=theorem_id,
            m=m,
            bound=best_bound,
            measured=0.0,
            satisfied=False,
            witness={
                "reason": "every tuple bound is vacuous",
                "best_tuple": list(best_idx),
            },
            not_applicable=True,
        )

    mixed = mix_grids(list(spec.weights), grids)
    measured = coeff_fn(fold_power(mixed, m))
    if want_max:
        satisfied = measured >= best_bound - SLACK
    else:
        satisfied = measured <= best_bound + SLACK
    return BoundCheckResult(
        theorem_id=theorem_id,
        m=m,
        bound=best_bound,
        measured=measured,
        satisfied=satisfied,
        witness={
            "best_tuple": list(best_idx),
            "tuple_coefficient": best_value,
            "ergodic_components": flagged,
        },
    )


# ---------------------------------------------------------------------------
# Exponential rate table


@dataclass(frozen=True)
class RateTable:
    """1 - psi_prime along lags m, 2m, ..., with the worst step ratio.

    A row with 1 - psi_prime <= SLACK has converged: its value is
    rounding noise, so no quotient is taken from it. ``ratio`` is the
    maximum consecutive quotient over rows above that floor (0 when no
    such row has a successor, inf when a converged row is followed by
    one above the floor); ``satisfied`` iff ratio < 1, the
    geometric-decay certificate. ``rows`` keeps the raw values.
    """

    rows: tuple[tuple[int, float], ...]
    ratio: float
    satisfied: bool
    not_applicable: bool = False


def exponential_rate_table(
    spec: CopulaSpec, m: int, n: int, max_lag: int
) -> RateTable:
    """Tabulate 1 - psi_prime at lags m, 2m, ... up to max_lag.

    Requires psi_prime > 0 at lag m on the grid (otherwise the
    hypothesis fails and the table is flagged not-applicable).
    """
    m = _require_positive_int(m, "m")
    max_lag = _require_positive_int(max_lag, "max_lag")
    if max_lag < m:
        raise ValidationError(f"max_lag {max_lag} is below the base lag m = {m}")
    base = discretize(spec, n)
    g_m = fold_power(base, m)
    if psi_prime(g_m) <= 0.0:
        return RateTable(rows=(), ratio=0.0, satisfied=False, not_applicable=True)
    rows = []
    current = g_m
    lag = m
    while lag <= max_lag:
        rows.append((lag, 1.0 - psi_prime(current)))
        lag += m
        if lag <= max_lag:
            current = fold_product(current, g_m)
    ratios = []
    for (_, prev), (_, nxt) in zip(rows, rows[1:]):
        if prev > SLACK:
            ratios.append(nxt / prev)
        elif nxt > SLACK:
            ratios.append(math.inf)
    ratio = max(ratios) if ratios else 0.0
    return RateTable(rows=tuple(rows), ratio=ratio, satisfied=ratio < 1.0)


# ---------------------------------------------------------------------------
# Psi-divergence witness


@dataclass(frozen=True)
class DivergenceRow:
    """One (lag, epsilon) entry of the psi-divergence table.

    ``lower_bound`` = (1 - eps) * (a + b)^lag / eps, the psi ratio over
    the centered band of width eps. The grid columns certify it: at any
    even resolution N >= 2/eps the two-cell centered band is contained
    in the eps band, so psi of the lag-n grid must reach the bound.
    Rows whose certificate grid would exceed resolution 1024 skip the
    check (None entries).
    """

    lag: int
    epsilon: float
    lower_bound: float
    grid_resolution: int | None
    grid_psi: float | None
    grid_check: bool | None


@dataclass(frozen=True)
class PsiDivergenceTable:
    rows: tuple[DivergenceRow, ...]
    not_applicable: bool
    satisfied: bool
    diverges: bool


GRID_CHECK_MAX_N = 1024


def psi_divergence_table(a: float, b: float, lags, epsilons) -> PsiDivergenceTable:
    """Lower bounds showing psi-mixing fails for Frechet chains.

    For each lag n and band width eps the psi coefficient of the lag-n
    copula is at least (1 - eps)(a + b)^n / eps, which grows without
    bound as eps shrinks; ``diverges`` reports that monotone growth
    across the given epsilons. a + b = 0 is independence (psi = 0) and
    flags the table not-applicable.
    """
    Frechet(a, b)  # parameter validation
    lags = [
        _require_positive_int(lag, "lag") for lag in lags
    ]
    if not lags:
        raise ValidationError("lags must be nonempty")
    epsilons = [float(e) for e in epsilons]
    if not epsilons:
        raise ValidationError("epsilons must be nonempty")
    for eps in epsilons:
        if not 0.0 < eps < 1.0:
            raise ValidationError(f"epsilon must lie in (0, 1) (got {eps!r})")
    if a + b == 0.0:
        return PsiDivergenceTable(
            rows=(), not_applicable=True, satisfied=True, diverges=False
        )
    rows = []
    for lag in lags:
        params = frechet_fold_params(a, b, lag)
        for eps in epsilons:
            # (1/eps - 1) * (a+b)^lag rather than
            # (1-eps) * (a_n+b_n) / eps: identical by the sum identity
            # a_n + b_n = (a+b)^n, and float-exact at round epsilons.
            lower = (1.0 / eps - 1.0) * (a + b) ** lag
            resolution = 2 * math.ceil(1.0 / eps)
            if resolution <= GRID_CHECK_MAX_N:
                g = discretize(Frechet(params.a_n, params.b_n), resolution)
                grid_psi = psi(g)
                check = grid_psi >= lower - SLACK
                rows.append(
                    DivergenceRow(lag, eps, lower, resolution, grid_psi, check)
                )
            else:
                rows.append(DivergenceRow(lag, eps, lower, None, None, None))
    satisfied = all(row.grid_check is not False for row in rows)
    diverges = len(set(epsilons)) >= 2
    for lag in lags:
        per_lag = sorted(
            (row for row in rows if row.lag == lag),
            key=lambda row: -row.epsilon,
        )
        for prev, nxt in zip(per_lag, per_lag[1:]):
            if nxt.epsilon < prev.epsilon and not nxt.lower_bound > prev.lower_bound:
                diverges = False
    return PsiDivergenceTable(
        rows=tuple(rows),
        not_applicable=False,
        satisfied=satisfied,
        diverges=diverges,
    )
