import math

import numpy as np
import pytest

from copula_lab import (
    BoundCheckResult,
    Frechet,
    GridSpec,
    HoeffdingLower,
    HoeffdingUpper,
    Independence,
    Mardia,
    MarshallOlkin,
    Mixture,
    ValidationError,
    beta,
    discretize,
    exponential_rate_table,
    fold_power,
    min_ac_density,
    phi,
    psi_divergence_table,
    psi_prime,
    rho,
    tuple_decomposition_check,
    verify_density_bound,
    verify_mixture_bound,
)
from copula_lab.bounds import MIXTURE_RULES, THEOREMS, verify

from conftest import sinkhorn_grid

M = HoeffdingUpper()
W = HoeffdingLower()
PI = Independence()


# --- essential infimum of the AC density -------------------------------------

def test_min_ac_density_values():
    assert min_ac_density(PI) == 1.0
    assert min_ac_density(M) == 0.0
    assert min_ac_density(W) == 0.0
    assert abs(min_ac_density(Frechet(a=0.2, b=0.3)) - 0.5) < 1e-15
    assert min_ac_density(Frechet(a=0.5, b=0.5)) == 0.0
    assert abs(min_ac_density(Mardia(theta=0.6)) - min_ac_density(Mardia(theta=0.6).as_frechet())) == 0.0


def test_min_ac_density_marshall_olkin():
    # Both powers appear unless a parameter degenerates the branch away.
    assert abs(min_ac_density(MarshallOlkin(a=0.5, b=0.5)) - 0.5) < 1e-15
    assert abs(min_ac_density(MarshallOlkin(a=0.3, b=0.6)) - 0.4) < 1e-15
    assert min_ac_density(MarshallOlkin(a=0.0, b=0.6)) == 1.0
    assert min_ac_density(MarshallOlkin(a=0.6, b=0.0)) == 1.0
    assert min_ac_density(MarshallOlkin(a=1.0, b=0.5)) == 0.0


def test_min_ac_density_mixture_and_grid():
    mix = Mixture(weights=(0.5, 0.5), components=(PI, Frechet(a=0.2, b=0.3)))
    assert abs(min_ac_density(mix) - 0.75) < 1e-15
    g = discretize(Frechet(a=0.2, b=0.3), 4)
    spec = GridSpec(resolution=4, masses=g.masses)
    assert abs(min_ac_density(spec) - 0.5) < 1e-12


# --- density bound ------------------------------------------------------------

def test_density_bound_frechet_tight():
    res = verify_density_bound(Frechet(a=0.2, b=0.3), 1, 64)
    assert res.theorem_id == "density-psi-prime"
    assert res.satisfied and not res.not_applicable
    assert abs(res.bound - 0.5) < 1e-15
    assert abs(res.measured - 0.5) < 1e-12


def test_density_bound_marshall_olkin():
    res = verify_density_bound(MarshallOlkin(a=0.5, b=0.5), 1, 64)
    assert res.satisfied
    assert abs(res.bound - 0.5) < 1e-15
    assert res.measured >= 0.5 - 1e-9


def test_density_bound_checks_three_lag_multiples():
    res = verify_density_bound(Frechet(a=0.2, b=0.3), 2, 16)
    lags = [c["lag"] for c in res.witness["checks"]]
    assert lags == [2, 4, 6]
    for c in res.witness["checks"]:
        assert c["psi_prime"] >= res.bound * (1.0 - 1e-9)


def test_density_bound_not_applicable_for_singular_specs():
    for spec in (M, W, Frechet(a=0.5, b=0.5), MarshallOlkin(a=1.0, b=0.5)):
        res = verify_density_bound(spec, 1, 16)
        assert res.not_applicable
        assert not res.satisfied
        assert res.passed


def test_density_bound_validation():
    with pytest.raises(ValidationError):
        verify_density_bound(PI, 0, 16)
    with pytest.raises(ValidationError):
        verify_density_bound(PI, 1, 1)


# --- tuple decomposition --------------------------------------------------------

def test_tuple_decomposition_degenerate_single_component():
    res = tuple_decomposition_check([1.0], [Frechet(a=0.2, b=0.3)], 3, 8)
    assert res.satisfied
    assert res.measured <= 1e-12
    assert res.witness["tuples"] == 1


def test_tuple_decomposition_two_components():
    res = tuple_decomposition_check([0.5, 0.5], [M, PI], 2, 8)
    assert res.satisfied
    assert res.measured <= 1e-12
    assert res.witness["tuples"] == 4
    assert res.bound == 1e-10


def test_tuple_decomposition_three_components():
    res = tuple_decomposition_check([0.2, 0.3, 0.5], [W, M, PI], 2, 8)
    assert res.satisfied
    assert res.measured <= 1e-12
    assert res.witness["tuples"] == 9


def test_tuple_decomposition_smooth_components():
    res = tuple_decomposition_check(
        [0.4, 0.6], [Frechet(a=0.2, b=0.3), MarshallOlkin(a=0.3, b=0.6)], 3, 16
    )
    assert res.satisfied
    assert res.measured <= 1e-10


def test_tuple_decomposition_budget_refusal():
    with pytest.raises(ValidationError, match="budget"):
        tuple_decomposition_check([0.5, 0.5], [M, PI], 14, 8)
    with pytest.raises(ValidationError):
        tuple_decomposition_check([0.5, 0.5], [M, PI], 2, 256)


# --- mixture bounds -------------------------------------------------------------

def test_mixture_rho_bound_tight():
    res = verify_mixture_bound([0.5, 0.5], [M, PI], "rho", 1, 16)
    assert res.theorem_id == "mixture-rho"
    assert res.satisfied
    assert abs(res.bound - 0.5) < 1e-12
    assert abs(res.measured - 0.5) < 1e-9
    assert res.witness["best_tuple"] == [1]


def test_mixture_psi_prime_bound_tight():
    res = verify_mixture_bound([0.5, 0.5], [M, PI], "psi_prime", 1, 16)
    assert res.theorem_id == "mixture-psi-prime"
    assert res.satisfied
    assert abs(res.bound - 0.5) < 1e-12
    assert abs(res.measured - 0.5) < 1e-9
    assert res.measured >= res.bound - 1e-9


def test_mixture_phi_bound_via_independence_tuple():
    res = verify_mixture_bound([0.2, 0.3, 0.5], [W, M, PI], "phi", 2, 16)
    assert res.theorem_id == "mixture-phi"
    assert res.satisfied
    assert abs(res.bound - 0.75) < 1e-12
    assert res.witness["best_tuple"] == [2, 2]
    assert res.measured <= 0.75 + 1e-9


def test_mixture_beta_bound():
    res = verify_mixture_bound([0.2, 0.3, 0.5], [W, M, PI], "beta", 2, 16)
    assert res.satisfied
    assert res.measured <= res.bound + 1e-9


def test_mixture_bound_random_mixtures_hold():
    rng = np.random.default_rng(20240915)
    smooth = [PI, Frechet(a=0.2, b=0.3), MarshallOlkin(a=0.4, b=0.4)]
    extra = [W, M]
    for _ in range(25):
        k = int(rng.integers(2, 5))
        comps = [smooth[int(rng.integers(len(smooth)))]]
        pool = smooth + extra
        comps += [pool[int(rng.integers(len(pool)))] for _ in range(k - 1)]
        raw = rng.uniform(0.2, 1.0, size=k)
        weights = list(raw / raw.sum())
        for coeff in ("rho", "psi_prime", "phi", "beta"):
            for m in (1, 2):
                res = verify_mixture_bound(weights, comps, coeff, m, 16)
                assert res.passed, (coeff, m, comps)


def test_mixture_general_search_at_least_as_good_as_constant_tuples():
    rng = np.random.default_rng(6)
    comps = [Frechet(a=0.2, b=0.3), PI, MarshallOlkin(a=0.4, b=0.4)]
    raw = rng.uniform(0.2, 1.0, size=3)
    weights = list(raw / raw.sum())
    coeff_fns = {"rho": rho, "psi_prime": psi_prime, "phi": phi, "beta": beta}
    for coeff in ("rho", "psi_prime", "phi", "beta"):
        _, tuple_bound, want_max = MIXTURE_RULES[coeff]
        for m in (2, 3):
            full = verify_mixture_bound(weights, comps, coeff, m, 8)
            # The best constant tuple (i, ..., i): component i's lag-m
            # grid coefficient at weight product w_i^m.
            const = [
                tuple_bound(w**m, coeff_fns[coeff](fold_power(discretize(c, 8), m)))
                for w, c in zip(weights, comps)
            ]
            const_bound = max(const) if want_max else min(const)
            if const_bound <= 0.0 if want_max else const_bound >= 1.0:
                continue
            assert not full.not_applicable
            if coeff == "psi_prime":
                assert full.bound >= const_bound - 1e-12
            else:
                assert full.bound <= const_bound + 1e-12


def test_mixture_rho_not_applicable_when_all_tuples_singular():
    res = verify_mixture_bound([0.5, 0.5], [W, M], "rho", 1, 8)
    assert res.not_applicable
    assert res.passed


def test_mixture_phi_requires_ergodic_flag():
    # No component grid has all cells positive, so nothing is auto-flagged
    # and the statement's hypothesis is not established.
    res = verify_mixture_bound([0.5, 0.5], [W, M], "phi", 1, 8)
    assert res.not_applicable
    # Explicitly asserting the hypothesis for a component turns the
    # check back on: the W tuple has grid phi 1 - 1/8, so the bound is
    # 0.5 * (phi - 1) + 1 = 0.9375 and the mixture's 0.75 sits under it.
    forced = verify_mixture_bound(
        [0.5, 0.5], [W, M], "phi", 1, 8, ergodic_components=[0]
    )
    assert not forced.not_applicable
    assert forced.satisfied
    assert abs(forced.bound - 0.9375) < 1e-12
    assert abs(forced.measured - 0.75) < 1e-12


def test_mixture_phi_auto_flags_positive_component():
    res = verify_mixture_bound([0.5, 0.5], [W, PI], "phi", 1, 8)
    assert res.satisfied
    assert abs(res.bound - 0.5) < 1e-12
    assert res.witness["ergodic_components"] == [1]


def test_mixture_bound_validation():
    with pytest.raises(ValidationError):
        verify_mixture_bound([0.5, 0.5], [M, PI], "psi", 1, 8)
    with pytest.raises(ValidationError):
        verify_mixture_bound(
            [0.5, 0.5], [M, PI], "phi", 1, 8, ergodic_components=[2]
        )
    with pytest.raises(ValidationError, match="budget"):
        verify_mixture_bound([0.5, 0.5], [M, PI], "rho", 14, 8)


# --- exponential rate tables ------------------------------------------------------

def test_rate_table_independence():
    table = exponential_rate_table(PI, 1, 8, 5)
    assert not table.not_applicable
    assert table.satisfied
    assert table.ratio == 0.0
    assert [lag for lag, _ in table.rows] == [1, 2, 3, 4, 5]
    assert all(v == 0.0 for _, v in table.rows)


def test_rate_table_frechet_geometric():
    table = exponential_rate_table(Frechet(a=0.2, b=0.3), 1, 32, 5)
    assert table.satisfied
    for j, (lag, value) in enumerate(table.rows, start=1):
        assert lag == j
        assert abs(value - 0.5**j) < 1e-12
    assert abs(table.ratio - 0.5) < 1e-9


def test_rate_table_mixture_decays():
    mix = Mixture(weights=(0.9, 0.1), components=(M, PI))
    table = exponential_rate_table(mix, 1, 16, 6)
    assert table.satisfied
    values = [v for _, v in table.rows]
    assert all(x > y for x, y in zip(values, values[1:]))
    assert table.ratio < 1.0
    for j, v in enumerate(values, start=1):
        assert v <= 0.9**j + 1e-12


@pytest.mark.parametrize(
    "spec, n",
    [
        (Frechet(a=0.05, b=0.05), 16),
        (Frechet(a=0.05, b=0.05), 64),
        (Frechet(a=0.05, b=0.05), 256),
        (Mixture(weights=(0.7, 0.3), components=(PI, Frechet(a=0.2, b=0.3))), 64),
        (Mixture(weights=(0.7, 0.3), components=(PI, Frechet(a=0.2, b=0.3))), 256),
    ],
)
def test_rate_table_ignores_rows_at_the_rounding_floor(spec, n):
    # Fast-mixing chains reach 1 - psi_prime ~ 1e-16 noise by lag 20;
    # quotients of that noise (inf, or 1.08-1.33) must not decide.
    table = exponential_rate_table(spec, 1, n, 20)
    values = [v for _, v in table.rows]
    assert len(values) == 20
    assert min(values) <= 1e-9
    assert table.satisfied
    assert table.ratio < 0.31


def test_rate_table_floor_keeps_the_geometric_ratio():
    table = exponential_rate_table(Frechet(a=0.2, b=0.1), 1, 64, 20)
    assert table.satisfied
    assert abs(table.ratio - 0.3) < 1e-6


def test_rate_table_converged_row_then_rise_is_infinite(monkeypatch):
    from copula_lab import bounds

    rows = iter([0.5, 0.5, 1.0, 0.7])  # psi_prime at the check and lags 1..3
    monkeypatch.setattr(bounds, "psi_prime", lambda g: next(rows))
    table = exponential_rate_table(Frechet(a=0.2, b=0.3), 1, 4, 3)
    assert [v for _, v in table.rows] == [0.5, 0.0, 0.30000000000000004]
    assert table.ratio == math.inf
    assert not table.satisfied


def test_rate_table_respects_base_lag_stride():
    table = exponential_rate_table(Frechet(a=0.2, b=0.3), 2, 16, 7)
    assert [lag for lag, _ in table.rows] == [2, 4, 6]


def test_rate_table_not_applicable_for_singular_spec():
    table = exponential_rate_table(M, 1, 16, 4)
    assert table.not_applicable
    assert not table.satisfied


def test_rate_table_validation():
    with pytest.raises(ValidationError):
        exponential_rate_table(PI, 3, 8, 2)
    with pytest.raises(ValidationError):
        exponential_rate_table(PI, 0, 8, 4)


# --- psi divergence -----------------------------------------------------------------

def test_psi_divergence_frozen_values():
    table = psi_divergence_table(0.2, 0.3, [2], [0.1, 0.01])
    assert not table.not_applicable
    row1, row2 = table.rows
    # (1/eps - 1) * (a+b)^lag evaluates these exactly in floats.
    assert row1.lower_bound == 2.25
    assert row2.lower_bound == 24.75
    assert row1.grid_resolution == 20
    assert row2.grid_resolution == 200
    assert row1.grid_check is True and row2.grid_check is True
    assert row1.grid_psi >= row1.lower_bound
    assert table.satisfied
    assert table.diverges


def test_psi_divergence_grows_with_shrinking_epsilon():
    table = psi_divergence_table(0.2, 0.3, [1, 2, 3], [0.2, 0.1, 0.05])
    for lag in (1, 2, 3):
        vals = [r.lower_bound for r in table.rows if r.lag == lag]
        assert vals[0] < vals[1] < vals[2]
    assert table.diverges


def test_psi_divergence_independence_not_applicable():
    table = psi_divergence_table(0.0, 0.0, [1], [0.1])
    assert table.not_applicable
    assert table.rows == ()


def test_psi_divergence_skips_oversized_grid_certificates():
    table = psi_divergence_table(0.2, 0.3, [1], [0.1, 0.0001])
    small, large = table.rows
    assert small.grid_check is True
    assert large.grid_resolution is None
    assert large.grid_psi is None
    assert large.grid_check is None
    assert table.satisfied  # skipped certificates do not fail the table


def test_psi_divergence_single_epsilon_cannot_claim_divergence():
    table = psi_divergence_table(0.2, 0.3, [1], [0.1])
    assert not table.diverges
    assert table.satisfied


def test_psi_divergence_validation():
    with pytest.raises(ValidationError):
        psi_divergence_table(0.7, 0.7, [1], [0.1])
    with pytest.raises(ValidationError):
        psi_divergence_table(0.2, 0.3, [], [0.1])
    with pytest.raises(ValidationError):
        psi_divergence_table(0.2, 0.3, [1], [])
    with pytest.raises(ValidationError):
        psi_divergence_table(0.2, 0.3, [0], [0.1])
    with pytest.raises(ValidationError):
        psi_divergence_table(0.2, 0.3, [1], [1.0])
    with pytest.raises(ValidationError):
        psi_divergence_table(0.2, 0.3, [1], [0.0])


def test_psi_divergence_band_certificate_matches_formula():
    # The two-cell centered band at resolution N carries the same mass
    # ratio the formula uses at eps = 2/N, so grid psi must reach the
    # eps-bound whenever N >= 2/eps.
    table = psi_divergence_table(0.2, 0.3, [1, 2], [0.1])
    for row in table.rows:
        n = row.grid_resolution
        g = fold_power(discretize(Frechet(a=0.2, b=0.3), n), row.lag)
        from copula_lab import psi as psi_coeff

        assert row.grid_psi == psi_coeff(g)
        assert row.grid_psi >= row.lower_bound - 1e-9


# --- cross-checks against coefficient module -----------------------------------------

def test_frechet_lag_coefficients_match_closed_forms():
    spec = Frechet(a=0.2, b=0.3)
    for n in (4, 16):
        g = discretize(spec, n)
        for m in (1, 2, 3):
            gm = fold_power(g, m)
            assert abs(rho(gm) - 0.5**m) < 1e-9
            assert abs(psi_prime(gm) - (1.0 - 0.5**m)) < 1e-9


def test_mixture_bound_reproducible():
    a = verify_mixture_bound([0.5, 0.5], [M, PI], "rho", 2, 16)
    b = verify_mixture_bound([0.5, 0.5], [M, PI], "rho", 2, 16)
    assert a == b


def test_verify_runs_the_check_behind_each_theorem():
    fr = Frechet(a=0.2, b=0.3)
    weights, comps = [0.5, 0.5], [M, PI]
    mix = Mixture(weights=tuple(weights), components=tuple(comps))
    assert verify("density-psi-prime", fr, 2, 16) == [verify_density_bound(fr, 2, 16)]
    assert verify("tuple-decomposition", mix, 2, 8) == [
        tuple_decomposition_check(weights, comps, 2, 8)
    ]
    for coeff, (theorem, _, _) in MIXTURE_RULES.items():
        expected = verify_mixture_bound(weights, comps, coeff, 2, 8, ergodic_components=[1])
        assert verify(theorem, mix, 2, 8, ergodic_components=[1]) == [expected]
    table = exponential_rate_table(fr, 1, 16, 5)
    (rate,) = verify("exponential-rate", fr, 1, 16)
    assert (rate.measured, rate.satisfied, rate.not_applicable) == (
        table.ratio, table.satisfied, table.not_applicable
    )
    assert rate.witness["rows"] == [list(row) for row in table.rows]
    assert len(verify("exponential-rate", fr, 1, 16, max_lag=3)[0].witness["rows"]) == 3
    rows = psi_divergence_table(0.2, 0.3, [2], [0.1, 0.01]).rows
    results = verify("psi-divergence", fr, 2, 16, epsilons=[0.1, 0.01])
    assert [(r.m, r.bound, r.measured) for r in results] == [
        (row.lag, row.lower_bound, row.grid_psi) for row in rows
    ]
    (na,) = verify("psi-divergence", Frechet(a=0.0, b=0.0), 1, 16)
    assert na == BoundCheckResult.hypothesis_fails(
        "psi-divergence", 1, 0.0, "a + b = 0 (independence, psi is 0)"
    )
    assert na.passed and na.measured == 0.0


def test_verify_rejects_unknown_theorems_and_wrong_spec_types():
    with pytest.raises(ValidationError, match="unknown theorem"):
        verify("fermat", PI, 1, 8)
    for theorem in ("tuple-decomposition", "mixture-rho"):
        with pytest.raises(ValidationError, match="mixture spec"):
            verify(theorem, PI, 1, 8)
    with pytest.raises(ValidationError, match="frechet or mardia"):
        verify("psi-divergence", PI, 1, 8)


def test_mixture_rules_give_the_cli_theorem_map():
    from copula_lab import bounds

    mixture_ids = {theorem for theorem, _, _ in MIXTURE_RULES.values()}
    assert mixture_ids <= set(THEOREMS)
    assert set(bounds._COEFF_FUNCS) == set(MIXTURE_RULES)
