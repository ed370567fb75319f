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
back flagged not-applicable rather than failed. ``verify`` runs the
check behind a theorem id of ``THEOREMS``, answering in BoundCheckResults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .families import (
    CopulaSpec,
    Frechet,
    Mixture,
    _require_int,
    _require_spec,
    frechet_fold_params,
)
from .grid import GridCopula, discretize, fold_power, fold_product, mix_grids
from .coefficients import beta, phi, psi, psi_prime, rho

__all__ = [
    "SLACK",
    "THEOREMS",
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
    "verify",
]

# Inequality slack absorbing matrix-product and SVD rounding at n <= 1024.
SLACK = 1e-9

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

    @classmethod
    def hypothesis_fails(cls, theorem_id, m, bound, reason, **witness):
        """A not-applicable result: nothing measured, ``reason`` in the witness."""
        return cls(theorem_id, m, bound, 0.0, False, {"reason": reason, **witness}, True)


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
    m = _require_int(m, "m")
    c = min_ac_density(spec)
    if c <= 0.0:
        return BoundCheckResult.hypothesis_fails(
            "density-psi-prime", m, c, "density not bounded away from zero (c <= 0)"
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


def _iter_tuple_products(weights, mats: list[np.ndarray], m: int):
    """Yield (index tuple, weight product, raw matrix product) in
    lexicographic order.

    Products are of raw mass matrices; the caller scales by n^(m-1) to
    obtain grid masses. Prefix products are shared across the k^m leaves.
    """
    if m == 1:
        for i, (w, mat) in enumerate(zip(weights, mats)):
            yield (i,), w, mat
        return
    for prefix_idx, prefix_w, prefix in _iter_tuple_products(weights, mats, m - 1):
        for i, (w, mat) in enumerate(zip(weights, mats)):
            yield prefix_idx + (i,), prefix_w * w, prefix @ mat


def _tuple_grids(weights, components, m: int, n: int):
    """The validated mixture and its component grids, within the tuple budget."""
    spec = Mixture(weights=tuple(weights), components=tuple(components))
    k = len(spec.components)
    if k**m > TUPLE_BUDGET:
        raise ValidationError(
            f"tuple enumeration budget exceeded: {k}^{m} > {TUPLE_BUDGET}"
        )
    if n > TUPLE_MAX_RESOLUTION:
        raise ValidationError(
            f"tuple checks refuse n > {TUPLE_MAX_RESOLUTION} (got {n})"
        )
    return spec, [discretize(comp, n) for comp in spec.components]


def tuple_decomposition_check(weights, components, m: int, n: int) -> BoundCheckResult:
    """Verify the lag-m mixture fold power equals its tuple expansion.

    fold_power(mix, m) must match the sum over all k^m index tuples (i)
    of (prod_j w_{i_j}) * n^(m-1) * (masses_{i_1} @ ... @ masses_{i_m})
    cellwise within 1e-10. A single-component "mixture" is allowed and
    degenerates to an exact identity.
    """
    m = _require_int(m, "m")
    spec, grids = _tuple_grids(weights, components, m, n)
    mixed = mix_grids(list(spec.weights), grids)
    left = fold_power(mixed, m).masses
    mats = [g.masses for g in grids]
    acc = np.zeros_like(left)
    count = 0
    for _, w, raw in _iter_tuple_products(spec.weights, mats, m):
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

# coefficient -> (theorem id, tuple bound from the tuple's weight product
# w and coefficient v, whether a larger bound is the better one). A
# larger-is-better bound is vacuous at <= 0, the others at >= 1.
MIXTURE_RULES = {
    "rho": ("mixture-rho", lambda w, v: 1.0 - (1.0 - v) * w, False),
    "psi_prime": ("mixture-psi-prime", lambda w, v: w * v, True),
    "phi": ("mixture-phi", lambda w, v: w * (v - 1.0) + 1.0, False),
    "beta": ("mixture-beta", lambda w, v: w * (v - 1.0) + 1.0, False),
}

# The coefficient functions stay in a plain name -> function dict rather
# than in the MIXTURE_RULES tuples: perfbench's tracer wraps functions it
# finds bound in module-level dicts.
_COEFF_FUNCS = {"rho": rho, "psi_prime": psi_prime, "phi": phi, "beta": beta}


def verify_mixture_bound(
    weights,
    components,
    coefficient: str,
    m: int,
    n: int,
    *,
    ergodic_components=None,
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
    """
    m = _require_int(m, "m")
    if coefficient not in MIXTURE_RULES:
        raise ValidationError(
            f"unknown coefficient {coefficient!r}; expected one of "
            f"{sorted(MIXTURE_RULES)}"
        )
    spec, grids = _tuple_grids(weights, components, m, n)
    theorem_id, tuple_bound, want_max = MIXTURE_RULES[coefficient]
    k = len(grids)

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
        return BoundCheckResult.hypothesis_fails(
            theorem_id, m, 1.0, "no component flagged ergodic and aperiodic"
        )

    coeff_fn = _COEFF_FUNCS[coefficient]
    mats = [g.masses for g in grids]
    scale = float(n) ** (m - 1)
    best_bound = None
    best_idx = None
    best_value = None
    for idx, w, raw in _iter_tuple_products(spec.weights, mats, m):
        tuple_grid = GridCopula(resolution=n, masses=scale * raw)
        value = coeff_fn(tuple_grid)
        bound = tuple_bound(w, value)
        better = best_bound is None or (
            bound > best_bound if want_max else bound < best_bound
        )
        if better:
            best_bound, best_idx, best_value = bound, idx, value

    assert best_bound is not None and best_idx is not None
    vacuous = best_bound <= 0.0 if want_max else best_bound >= 1.0
    if vacuous:
        reason = "every tuple bound is vacuous"
        return BoundCheckResult.hypothesis_fails(
            theorem_id, m, best_bound, reason, best_tuple=list(best_idx)
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
    m = _require_int(m, "m")
    max_lag = _require_int(max_lag, "max_lag")
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
    lags = [_require_int(lag, "lag") for lag in lags]
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


# ---------------------------------------------------------------------------
# Theorem ids
#
# A check takes (spec, m, n, max_lag, epsilons, ergodic_components) and
# calls the public checks by their module-level names, so perfbench's
# tracer, which rebinds those names, sees every call made by ``verify``.


def _mixture_parts(spec: CopulaSpec) -> tuple[list, list]:
    if not isinstance(spec, Mixture):
        raise ValidationError("this theorem check needs a mixture spec")
    return list(spec.weights), list(spec.components)


def _mixture_check(coefficient: str):
    def check(spec, m, n, max_lag, epsilons, ergodic):
        parts = _mixture_parts(spec)
        return [
            verify_mixture_bound(*parts, coefficient, m, n, ergodic_components=ergodic)
        ]

    return check


def _check_divergence(spec, m, n, max_lag, epsilons, ergodic):
    # The lag under test is m; a Mardia spec is a Frechet member.
    if not isinstance(spec, Frechet):
        raise ValidationError("the psi-divergence check needs a frechet or mardia spec")
    table = psi_divergence_table(spec.a, spec.b, [m], epsilons)
    if table.not_applicable:
        reason = "a + b = 0 (independence, psi is 0)"
        return [BoundCheckResult.hypothesis_fails("psi-divergence", m, 0.0, reason)]
    return [
        BoundCheckResult(
            "psi-divergence",
            row.lag,
            row.lower_bound,
            row.grid_psi or 0.0,
            bool(row.grid_check),
            {"epsilon": row.epsilon, "grid_resolution": row.grid_resolution},
            row.grid_check is None,
        )
        for row in table.rows
    ]


def _check_rate(spec, m, n, max_lag, epsilons, ergodic):
    table = exponential_rate_table(spec, m, n, 5 * m if max_lag is None else max_lag)
    rows = {"rows": [[lag, value] for lag, value in table.rows]}
    return [
        BoundCheckResult(
            "exponential-rate", m, 1.0, table.ratio, table.satisfied, rows,
            table.not_applicable,
        )
    ]


THEOREMS = {
    "density-psi-prime": lambda spec, m, n, *_: [verify_density_bound(spec, m, n)],
    "tuple-decomposition": lambda spec, m, n, *_: [
        tuple_decomposition_check(*_mixture_parts(spec), m, n)
    ],
    **{rule[0]: _mixture_check(coeff) for coeff, rule in MIXTURE_RULES.items()},
    "psi-divergence": _check_divergence,
    "exponential-rate": _check_rate,
}
THEOREM_IDS = tuple(THEOREMS)


def verify(
    theorem: str, spec: CopulaSpec, m: int, n: int, *,
    max_lag=None, epsilons=(0.1, 0.01), ergodic_components=None,
) -> list[BoundCheckResult]:
    """Run the check behind ``theorem``, a key of ``THEOREMS``, on ``spec``.

    tuple-decomposition and the mixture checks need a mixture spec;
    psi-divergence needs a Frechet or Mardia spec, takes m as its lag
    and answers one result per band width in ``epsilons``.
    exponential-rate tabulates up to ``max_lag``, default 5m.
    """
    if theorem not in THEOREMS:
        raise ValidationError(f"unknown theorem {theorem!r}; expected {THEOREM_IDS}")
    return THEOREMS[theorem](spec, m, n, max_lag, epsilons, ergodic_components)
