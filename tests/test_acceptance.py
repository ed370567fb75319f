"""One test per acceptance criterion, each printing a PASS line.

Criterion 9 re-derives every grid the other criteria produce (the
builders below are shared), so it can run standalone and still cover
the full collection.
"""

import functools
import math
import time

import numpy as np

from copula_lab import (
    Frechet,
    GridCopula,
    HoeffdingLower,
    HoeffdingUpper,
    Independence,
    MarshallOlkin,
    beta,
    brute_force_coefficient,
    discretize,
    empirical_lag_stats,
    fold_power,
    frechet_fold_params,
    marginal_invariance_check,
    mix_grids,
    phi,
    psi,
    psi_divergence_table,
    psi_prime,
    rho,
    sample_chain,
    tuple_decomposition_check,
    verify_mixture_bound,
)

from conftest import sinkhorn_grid

FRECHET = Frechet(a=0.2, b=0.3)
W = HoeffdingLower()
M = HoeffdingUpper()
PI = Independence()

TUPLE_CASES = [
    ([0.5, 0.5], [M, PI], 2),
    ([0.4, 0.6], [FRECHET, MarshallOlkin(a=0.3, b=0.6)], 3),
    ([0.2, 0.3, 0.5], [W, M, PI], 2),
]


# --- shared grid builders (also the criterion-9 registry) --------------------

@functools.lru_cache(maxsize=None)
def frechet_lag_grids(n: int) -> tuple:
    """Lag-1..5 fold powers of the discretized Frechet spec."""
    base = discretize(FRECHET, n)
    return tuple(fold_power(base, m) for m in range(1, 6))


@functools.lru_cache(maxsize=None)
def frechet_closed_form_grids(n: int) -> tuple:
    out = []
    for m in range(1, 6):
        p = frechet_fold_params(0.2, 0.3, m)
        out.append(discretize(Frechet(a=p.a_n, b=p.b_n), n))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def refinement_grids() -> tuple:
    return tuple(discretize(FRECHET, n) for n in (4, 8, 16, 32, 64))


@functools.lru_cache(maxsize=None)
def oracle_grids() -> tuple:
    rng = np.random.default_rng(424242)
    return tuple(sinkhorn_grid(rng, int(rng.integers(2, 5))) for _ in range(50))


@functools.lru_cache(maxsize=None)
def tuple_case_grids() -> tuple:
    out = []
    for weights, comps, m in TUPLE_CASES:
        mixed = mix_grids(weights, [discretize(c, 16) for c in comps])
        out.append(fold_power(mixed, m))
    return tuple(out)


def _positive_component(rng) -> object:
    kind = int(rng.integers(3))
    if kind == 0:
        return Independence()
    if kind == 1:
        a = float(rng.uniform(0.0, 0.6))
        b = float(rng.uniform(0.0, min(0.6, 0.9 - a)))
        return Frechet(a=a, b=b)
    return MarshallOlkin(
        a=float(rng.uniform(0.05, 0.95)), b=float(rng.uniform(0.05, 0.95))
    )


def _any_component(rng) -> object:
    kind = int(rng.integers(5))
    if kind == 0:
        return HoeffdingLower()
    if kind == 1:
        return HoeffdingUpper()
    return _positive_component(rng)


@functools.lru_cache(maxsize=None)
def random_mixtures() -> tuple:
    """100 seeded mixtures; the first component always has a strictly
    positive grid so the phi/beta ergodicity hypothesis auto-flags."""
    rng = np.random.default_rng(20240915)
    cases = []
    for _ in range(100):
        k = int(rng.integers(2, 5))
        comps = [_positive_component(rng)]
        comps += [_any_component(rng) for _ in range(k - 1)]
        raw = rng.uniform(0.2, 1.0, size=k)
        cases.append((tuple(float(w) for w in raw / raw.sum()), tuple(comps)))
    return tuple(cases)


@functools.lru_cache(maxsize=None)
def mixture_lag_grids() -> tuple:
    out = []
    for weights, comps in random_mixtures():
        mixed = mix_grids(list(weights), [discretize(c, 16) for c in comps])
        out.append(mixed)
        out.append(fold_power(mixed, 2))
    return tuple(out)


# --- criteria ------------------------------------------------------------------

def test_criterion_1_density_bound_psi_prime():
    start = time.perf_counter()
    grids = frechet_lag_grids(64)
    values = [psi_prime(g) for g in grids]
    assert abs(values[0] - 0.5) <= 1e-12
    for v in values:
        assert v >= 0.5 - 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        f"ACCEPTANCE 1: PASS — psi_prime lags 1-5 at n=64 all >= 0.5-1e-9 "
        f"(lag 1 = {values[0]!r}), {elapsed:.2f}s"
    )


def test_criterion_2_spectral_decay():
    start = time.perf_counter()
    values = [rho(g) for g in frechet_lag_grids(64)]
    for m, v in enumerate(values, start=1):
        assert abs(v - 0.5**m) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        f"ACCEPTANCE 2: PASS — rho at lags 1-5, n=64 equals 0.5^m within 1e-9 "
        f"(max gap {max(abs(v - 0.5**(m+1)) for m, v in enumerate(values)):.2e}), "
        f"{elapsed:.2f}s"
    )


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for g in oracle_grids():
        for name, fast in (
            ("phi", phi), ("beta", beta), ("psi_prime", psi_prime), ("psi", psi),
        ):
            gap = abs(brute_force_coefficient(g, name) - fast(g))
            worst = max(worst, gap)
            assert gap <= 1e-10
        assert brute_force_coefficient(g, "rho") <= rho(g) + 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 3: PASS — 50 random grids, brute force = fast formulas "
        f"(worst gap {worst:.2e}), rho lower bound <= Gram-eigenvalue rho + 1e-6, {elapsed:.2f}s"
    )


def test_criterion_4_tuple_decomposition():
    devs = []
    for weights, comps, m in TUPLE_CASES:
        res = tuple_decomposition_check(weights, comps, m, 16)
        assert res.satisfied
        assert res.measured <= 1e-10
        devs.append(res.measured)
    print(
        f"ACCEPTANCE 4: PASS — tuple decomposition (k,m) in "
        f"{{(2,2),(2,3),(3,2)}} at n=16, max deviation {max(devs):.2e}"
    )


def test_criterion_5_mixture_bounds():
    start = time.perf_counter()
    checks = 0
    for weights, comps in random_mixtures():
        for coeff in ("rho", "psi_prime", "phi", "beta"):
            for m in (1, 2):
                res = verify_mixture_bound(list(weights), list(comps), coeff, m, 16)
                assert res.satisfied and not res.not_applicable, (coeff, m, comps)
                checks += 1
    for coeff in ("rho", "psi_prime"):
        res = verify_mixture_bound([0.5, 0.5], [M, PI], coeff, 1, 16)
        assert abs(res.bound - 0.5) <= 1e-9
        assert abs(res.measured - 0.5) <= 1e-9
    elapsed = time.perf_counter() - start
    print(
        f"ACCEPTANCE 5: PASS — {checks} mixture-bound checks satisfied "
        f"(100 seeded mixtures x 4 coefficients x m in {{1,2}}, n=16), "
        f"tight M/Pi cases at 0.5, {elapsed:.2f}s"
    )


def test_criterion_6_psi_divergence():
    table = psi_divergence_table(0.2, 0.3, [2], [0.1, 0.01])
    assert table.rows[0].lower_bound == 2.25
    assert table.rows[1].lower_bound == 24.75
    growth = [psi(g) for g in refinement_grids()]
    assert all(x < y for x, y in zip(growth, growth[1:]))
    assert growth[-1] > 10.0
    print(
        f"ACCEPTANCE 6: PASS — divergence bounds exactly 2.25 and 24.75; "
        f"grid psi strictly increasing {growth} with psi(64) > 10"
    )


def test_criterion_7_closed_form_vs_grid_algebra():
    worst = 0.0
    for n in (8, 64):
        folds = frechet_lag_grids(n)
        closed = frechet_closed_form_grids(n)
        for m in range(5):
            gap = float(np.abs(folds[m].masses - closed[m].masses).max())
            worst = max(worst, gap)
            assert gap <= 1e-12
    print(
        f"ACCEPTANCE 7: PASS — fold_power matches closed-form lag grids, "
        f"m=1..5, n in {{8,64}}, max cell gap {worst:.2e}"
    )


def test_criterion_8_simulation_consistency():
    start = time.perf_counter()
    sample = sample_chain(FRECHET, 100_000, 12345)
    st = empirical_lag_stats(sample, 2, 16)
    sigma_b = 3.0 * math.sqrt(0.13 * 0.87 / st.pairs)
    sigma_a = 3.0 * math.sqrt(0.12 * 0.88 / st.pairs)
    assert abs(st.freq_equal - 0.13) < sigma_b
    assert abs(st.freq_reflected - 0.12) < sigma_a
    ok_exp, _ = marginal_invariance_check(FRECHET, 100_000, 12345, "exp:1.0", 2, 16)
    ok_norm, _ = marginal_invariance_check(FRECHET, 100_000, 12345, "normal:0,1", 2, 16)
    assert ok_exp and ok_norm
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"ACCEPTANCE 8: PASS — lag-2 freq_equal {st.freq_equal:.5f} in "
        f"0.13±{sigma_b:.4f}, freq_reflected {st.freq_reflected:.5f} in "
        f"0.12±{sigma_a:.4f}; exp/normal invariance bit-exact, {elapsed:.2f}s"
    )


def test_criterion_9_ordering_and_refinement_everywhere():
    all_grids: list[GridCopula] = []
    all_grids += frechet_lag_grids(64)
    all_grids += frechet_lag_grids(8)
    all_grids += frechet_closed_form_grids(8)
    all_grids += frechet_closed_form_grids(64)
    all_grids += refinement_grids()
    all_grids += oracle_grids()
    all_grids += tuple_case_grids()
    all_grids += mixture_lag_grids()
    for g in all_grids:
        b, f, p, pp = beta(g), phi(g), psi(g), psi_prime(g)
        assert b <= f + 1e-12
        assert f <= p + 1e-12
        assert 1.0 - pp <= p + 1e-12

    # Dyadic refinement chains present in the collection: the Frechet
    # lag-1 grids at n in {4,8,16,32,64} and each lag's {8, 64} pair.
    chains = [refinement_grids()]
    chains += [
        (frechet_lag_grids(8)[m], frechet_lag_grids(64)[m]) for m in range(5)
    ]
    for chain in chains:
        for coarse, fine in zip(chain, chain[1:]):
            assert rho(fine) >= rho(coarse) - 1e-12
            assert phi(fine) >= phi(coarse) - 1e-12
            assert beta(fine) >= beta(coarse) - 1e-12
            assert psi(fine) >= psi(coarse) - 1e-12
            assert psi_prime(fine) <= psi_prime(coarse) + 1e-12
    print(
        f"ACCEPTANCE 9: PASS — ordering invariants on {len(all_grids)} grids "
        f"from criteria 1-8; refinement monotonicity on {len(chains)} dyadic chains"
    )
