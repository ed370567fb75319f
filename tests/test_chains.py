import math

import numpy as np
import pytest
from scipy import stats

from copula_lab import (
    ChainSample,
    Frechet,
    GridSpec,
    HoeffdingLower,
    HoeffdingUpper,
    Independence,
    Mardia,
    Marginal,
    MarshallOlkin,
    Mixture,
    ValidationError,
    discretize,
    empirical_lag_stats,
    fold_power,
    frechet_fold_params,
    marginal_invariance_check,
    sample_chain,
)
from copula_lab.chains import MAX_STEPS
from copula_lab.families import _REGISTRY


def binomial_3sigma(p: float, pairs: int) -> float:
    return 3.0 * math.sqrt(p * (1.0 - p) / pairs)


# --- samplers ----------------------------------------------------------------

def test_upper_bound_chain_is_constant():
    sample = sample_chain(HoeffdingUpper(), 100, 42)
    assert np.all(sample.values == sample.values[0])


def test_lower_bound_chain_alternates_reflection():
    sample = sample_chain(HoeffdingLower(), 50, 42)
    v = sample.values
    assert np.array_equal(v[1:], 1.0 - v[:-1])


def test_independence_chain_lag1_correlation_near_zero():
    steps = 100_000
    sample = sample_chain(Independence(), steps, 7)
    v = sample.values
    corr = np.corrcoef(v[:-1], v[1:])[0, 1]
    assert abs(corr) < 3.0 / math.sqrt(steps)


def test_frechet_chain_copy_frequency_lag1():
    steps = 100_000
    sample = sample_chain(Frechet(a=0.2, b=0.3), steps, 12345)
    st = empirical_lag_stats(sample, 1, 16)
    assert abs(st.freq_equal - 0.3) < binomial_3sigma(0.3, st.pairs)
    assert abs(st.freq_reflected - 0.2) < binomial_3sigma(0.2, st.pairs)


def test_frechet_chain_lag2_frequencies():
    steps = 100_000
    p = frechet_fold_params(0.2, 0.3, 2)
    assert (p.a_n, p.b_n) == (0.12, 0.13)
    sample = sample_chain(Frechet(a=0.2, b=0.3), steps, 12345)
    st = empirical_lag_stats(sample, 2, 16)
    assert abs(st.freq_equal - 0.13) < binomial_3sigma(0.13, st.pairs)
    assert abs(st.freq_reflected - 0.12) < binomial_3sigma(0.12, st.pairs)


def test_independence_chain_no_exact_copies():
    sample = sample_chain(Independence(), 20_000, 3)
    st = empirical_lag_stats(sample, 1, 8)
    assert st.freq_equal == 0.0
    assert st.freq_reflected == 0.0


def test_mixture_chain_copy_frequency_follows_weight():
    mix = Mixture(weights=(0.3, 0.7), components=(HoeffdingUpper(), Independence()))
    sample = sample_chain(mix, 50_000, 11)
    st = empirical_lag_stats(sample, 1, 8)
    assert abs(st.freq_equal - 0.3) < binomial_3sigma(0.3, st.pairs)


def test_marshall_olkin_chain_values_in_unit_interval():
    sample = sample_chain(MarshallOlkin(a=0.3, b=0.6), 2_000, 5)
    assert sample.values.min() >= 0.0
    assert sample.values.max() <= 1.0


def _bisection_step(spec, x: float, value: float) -> float:
    """Reference oracle: smallest y with cond_cdf(x, y) >= value, to 2^-40.

    Bisection on the nondecreasing right-continuous conditional; an atom
    is found by interval inclusion as the bracket closes on the jump.
    """
    xa = np.asarray(x, dtype=float)
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if spec.cond_cdf(xa, np.asarray(mid, dtype=float)) >= value:
            hi = mid
        else:
            lo = mid
    return hi


def test_marshall_olkin_step_matches_bisection_oracle():
    rng = np.random.default_rng(2024)
    edges = [(0.0, 0.0), (0.0, 0.7), (0.7, 0.0), (1.0, 0.4), (0.4, 1.0), (1.0, 1.0)]
    params = edges + [tuple(rng.uniform(0.0, 1.0, 2)) for _ in range(14)]
    for a, b in params:
        spec = MarshallOlkin(a=float(a), b=float(b))
        xs = np.concatenate(([2.0**-53, 1.0], rng.integers(1, 2**53, size=98) / 2.0**53))
        values = rng.integers(1, 2**53, size=100) / 2.0**53
        for x, value in zip(xs.tolist(), values.tolist()):
            y = spec.step(x, 0.5, value)
            assert y * 2.0**53 == math.floor(y * 2.0**53)  # on the k/2^53 lattice
            assert abs(y - _bisection_step(spec, x, value)) <= 2.0**-40


def test_marshall_olkin_step_from_state_zero():
    # A W component reflects a state of 1.0 to 0.0; x^-b must not be formed.
    for a, b in [(0.5, 0.5), (0.3, 1.0), (1.0, 0.3), (0.0, 0.5)]:
        y = MarshallOlkin(a=a, b=b).step(0.0, 0.5, 0.3)
        assert 0.0 < y <= 1.0


def test_marshall_olkin_chain_matches_cell_masses():
    spec = MarshallOlkin(a=0.3, b=0.6)
    g = discretize(spec, 4)
    st = empirical_lag_stats(sample_chain(spec, 50_000, 17), 1, 4, use_ranks=False)
    freq = st.counts / st.pairs
    sigma = 4.0 * np.sqrt(g.masses * (1 - g.masses) / st.pairs)
    assert np.all(np.abs(freq - g.masses) < sigma)


def test_grid_spec_chain_matches_cell_masses():
    g = discretize(Frechet(a=0.2, b=0.3), 4)
    spec = GridSpec(resolution=4, masses=g.masses)
    steps = 50_000
    sample = sample_chain(spec, steps, 9)
    st = empirical_lag_stats(sample, 1, 4)
    freq = st.counts / st.pairs
    sigma = 3.0 * np.sqrt(g.masses * (1 - g.masses) / st.pairs) + 1e-9
    assert np.all(np.abs(freq - g.masses) < sigma)


def _grid_step_reference(spec, x: float, decision: float, value: float) -> float:
    # The row's conditional CDF summed afresh on every step.
    n = spec.resolution
    i = min(max(math.ceil(x * n) - 1, 0), n - 1)
    row = np.cumsum(n * spec.masses[i])
    j = min(int(np.searchsorted(row, decision, side="right")), n - 1)
    return (j + value) / n


def test_grid_spec_step_matches_per_row_cumsum():
    rng = np.random.default_rng(12)
    mix = Mixture(weights=(0.3, 0.7), components=(MarshallOlkin(a=0.4, b=0.7), Independence()))
    for n in (7, 64, 100):
        for source in (Frechet(a=0.2, b=0.3), mix):
            spec = GridSpec(resolution=n, masses=discretize(source, n).masses)
            for x, decision, value in rng.random((500, 3)):
                assert spec.step(x, decision, value) == _grid_step_reference(
                    spec, x, decision, value
                )


# --- whole-chain walks against the step loop -------------------------------------

def _loop_walk(spec, decisions: np.ndarray, values: np.ndarray) -> np.ndarray:
    # The step loop sample_chain ran before specs walked whole chains.
    u = np.empty(values.size)
    u[0] = values[0]
    for t in range(1, values.size):
        u[t] = spec.step(float(u[t - 1]), float(decisions[t]), float(values[t]))
    return u


def _philox_words(steps: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.Generator(np.random.Philox(key=seed))
    decisions = rng.integers(0, 2**53, size=steps) / 2.0**53
    values = rng.integers(1, 2**53, size=steps) / 2.0**53
    return decisions, values


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


_MO_GRID = discretize(Mixture((0.5, 0.5), (MarshallOlkin(a=0.3, b=0.6), Independence())), 8)
WALK_SPECS = {
    "independence": Independence(),
    "w": HoeffdingLower(),
    "m": HoeffdingUpper(),
    "frechet": Frechet(a=0.2, b=0.3),
    "frechet-no-pi": Frechet(a=0.5, b=0.5),
    "mardia": Mardia(theta=-0.4),
    "marshall-olkin": MarshallOlkin(a=0.3, b=0.6),
    "grid": _MO_GRID,
    "mixture": Mixture(
        (0.3, 0.3, 0.4), (Frechet(a=0.2, b=0.5), HoeffdingUpper(), Independence())
    ),
    "nested-mixture": Mixture(
        (0.25, 0.75),
        (Mixture((0.5, 0.5), (HoeffdingUpper(), HoeffdingLower())), Mardia(theta=0.8)),
    ),
    "mixture-with-marshall-olkin": Mixture(
        (0.5, 0.5), (MarshallOlkin(a=0.3, b=0.6), Frechet(a=0.1, b=0.2))
    ),
    "mixture-with-grid": Mixture((0.6, 0.4), (_MO_GRID, HoeffdingLower())),
}


def test_walk_specs_cover_the_registry():
    assert {spec.type_name for spec in WALK_SPECS.values()} == set(_REGISTRY)


@pytest.mark.parametrize("name", list(WALK_SPECS))
def test_sample_chain_matches_the_step_loop(name):
    spec = WALK_SPECS[name]
    for seed in (11, 2**64 - 1):
        want = _loop_walk(spec, *_philox_words(3000, seed))
        assert _same_bits(sample_chain(spec, 3000, seed).values, want)


def test_walk_keeps_the_step_boundaries():
    # Decision words on and next to the branch and component boundaries,
    # and the largest word, where (d - low) / w of a last component whose
    # weights sum to just under 1 exceeds 1 and needs the 1 - 2^-53 clamp.
    specs = [
        Frechet(a=0.25, b=0.25),
        Mixture((0.5, 0.5), (HoeffdingLower(), HoeffdingUpper())),
        Mixture((0.5, 0.5 - 1e-13), (HoeffdingLower(), Frechet(a=0.5, b=0.5))),
        Mixture(
            (0.25, 0.75),
            (Mixture((0.5, 0.5), (HoeffdingUpper(), HoeffdingLower())), Frechet(a=0.5, b=0.5)),
        ),
    ]
    edges = np.array([0.0, 0.125, 0.25, 0.5, 1.0 - 2.0**-53])
    words = np.concatenate([edges, np.nextafter(edges[1:], 0.0), np.nextafter(edges[:-1], 1.0)])
    rng = np.random.default_rng(3)
    decisions = rng.permutation(np.tile(words, 40))
    values = rng.integers(1, 2**53, size=decisions.size) / 2.0**53
    for spec in specs:
        want = _loop_walk(spec, decisions, values)
        assert _same_bits(spec.walk(decisions, values), want)


def test_sample_chain_steps_budget(monkeypatch):
    # Philox raising stands in for the allocation of the chain's words.
    def allocate(*a, **k):
        raise AssertionError("chain words allocated")

    monkeypatch.setattr(np.random, "Philox", allocate)
    for steps in (MAX_STEPS + 1, 10**15):
        with pytest.raises(ValidationError, match="memory budget"):
            sample_chain(Independence(), steps, 0)
    with pytest.raises(AssertionError, match="allocated"):
        sample_chain(Independence(), MAX_STEPS, 0)


def test_sample_chain_validation():
    with pytest.raises(ValidationError):
        sample_chain(Independence(), 1, 0)
    with pytest.raises(ValidationError):
        sample_chain(Independence(), 10, -1)
    with pytest.raises(ValidationError):
        sample_chain(Independence(), 10, 2**64)
    with pytest.raises(ValidationError):
        sample_chain(Independence(), 10, 0, marginal="cauchy")


# --- determinism ---------------------------------------------------------------

def test_chain_byte_determinism():
    a = sample_chain(Frechet(a=0.2, b=0.3), 5_000, 31337)
    b = sample_chain(Frechet(a=0.2, b=0.3), 5_000, 31337)
    assert a.values.tobytes() == b.values.tobytes()
    c = sample_chain(Frechet(a=0.2, b=0.3), 5_000, 31338)
    assert a.values.tobytes() != c.values.tobytes()


# --- marginals -----------------------------------------------------------------

def test_marginal_parse_and_describe():
    u = Marginal.parse("uniform")
    e = Marginal.parse("exp:2.0")
    n = Marginal.parse("normal:1.5,0.5")
    assert u.describe() == "uniform"
    assert e.describe() == "exp:2"
    assert n.describe() == "normal:1.5,0.5"
    assert Marginal.parse(e.describe()) == e
    assert Marginal.parse(n.describe()) == n
    with pytest.raises(ValidationError):
        Marginal.parse("exp:0")
    with pytest.raises(ValidationError):
        Marginal.parse("normal:0")
    with pytest.raises(ValidationError):
        Marginal.parse("beta:2,3")


@pytest.mark.parametrize(
    "descriptor",
    ["uniform:", "uniform:1", "exp", "exp:", "exp:1,2", "exp:-1", "exp:nan",
     "normal:1", "normal:1,", "normal:0,0", "normal:inf,1", "cauchy:1"],
)
def test_marginal_parse_rejects(descriptor):
    with pytest.raises(ValidationError):
        Marginal.parse(descriptor)


def test_marginal_quantiles():
    e = Marginal.parse("exp:1.0")
    u = np.array([0.0, 1.0 - math.exp(-1.0), 0.5])
    q = e.quantile(u)
    assert abs(q[1] - 1.0) < 1e-12
    assert abs(q[2] - math.log(2.0)) < 1e-12
    n = Marginal.parse("normal:0,1")
    qn = n.quantile(np.array([0.5, 0.975]))
    assert abs(qn[0]) < 1e-12
    assert abs(qn[1] - 1.959963984540054) < 1e-9


def test_exponential_marginal_transforms_values():
    sample = sample_chain(Frechet(a=0.2, b=0.3), 1_000, 4, marginal="exp:1.0")
    assert sample.values.min() >= 0.0
    assert sample.values.max() > 1.0  # exp quantile leaves the unit interval
    assert sample.marginal.describe() == "exp:1"


# --- marginal invariance ----------------------------------------------------------

def test_marginal_invariance_exponential():
    ok, rep = marginal_invariance_check(Frechet(a=0.2, b=0.3), 10_000, 99, "exp:1.0", 1, 16)
    assert ok
    assert rep["counts_equal"]
    assert rep["max_count_diff"] == 0
    assert rep["freq_equal"][0] == rep["freq_equal"][1]
    assert rep["freq_reflected"][0] == rep["freq_reflected"][1]


def test_marginal_invariance_normal_lag2():
    ok, rep = marginal_invariance_check(Frechet(a=0.5, b=0.5), 10_000, 99, "normal:0,1", 2, 16)
    assert ok


def test_marginal_invariance_uniform_trivial():
    ok, _ = marginal_invariance_check(MarshallOlkin(a=0.3, b=0.6), 2_000, 99, "uniform", 1, 8)
    assert ok


# --- stationarity and consistency ---------------------------------------------------

def test_stationarity_chi_square_frechet():
    # The chain starts in the stationary law, so the marginal histogram
    # must look uniform; 16 bins, level 0.001.
    steps = 100_000
    bins = 16
    sample = sample_chain(Frechet(a=0.2, b=0.3), steps, 5)
    counts = np.bincount(
        np.minimum((sample.values * bins).astype(int), bins - 1), minlength=bins
    )
    expected = steps / bins
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < stats.chi2.ppf(0.999, bins - 1)


def test_stationarity_chi_square_grid_spec():
    g = discretize(Frechet(a=0.2, b=0.3), 8)
    spec = GridSpec(resolution=8, masses=g.masses)
    steps = 100_000
    bins = 16
    sample = sample_chain(spec, steps, 5)
    counts = np.bincount(
        np.minimum((sample.values * bins).astype(int), bins - 1), minlength=bins
    )
    expected = steps / bins
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < stats.chi2.ppf(0.999, bins - 1)


def test_lag_histogram_converges_to_fold_power():
    spec = Frechet(a=0.2, b=0.3)
    target = fold_power(discretize(spec, 8), 2).masses
    devs = []
    for steps in (1_000, 10_000, 100_000):
        sample = sample_chain(spec, steps, 5)
        st = empirical_lag_stats(sample, 2, 8)
        devs.append(float(np.abs(st.counts / st.pairs - target).max()))
    assert devs[0] > devs[1] > devs[2]


# --- empirical stats plumbing ---------------------------------------------------------

def test_empirical_stats_m_chain_lag3():
    sample = sample_chain(HoeffdingUpper(), 500, 8)
    st = empirical_lag_stats(sample, 3, 8)
    assert st.freq_equal == 1.0
    assert st.pairs == 497


def test_empirical_stats_counts_shape_and_total():
    sample = sample_chain(Independence(), 1_000, 2)
    st = empirical_lag_stats(sample, 4, 8)
    assert st.counts.shape == (8, 8)
    assert st.counts.sum() == st.pairs == 996
    assert st.grid_n == 8


def test_empirical_stats_rank_transform_default():
    # Non-uniform marginals go through average ranks by default; the
    # rank pipeline matches the rank-transformed uniform run bit for bit
    # because a strictly increasing marginal preserves order and ties.
    uni = sample_chain(Frechet(a=0.2, b=0.3), 5_000, 21)
    exp = sample_chain(Frechet(a=0.2, b=0.3), 5_000, 21, marginal="exp:1.0")
    st_u = empirical_lag_stats(uni, 1, 8, use_ranks=True)
    st_e = empirical_lag_stats(exp, 1, 8)
    assert st_u.freq_equal == st_e.freq_equal
    assert st_u.freq_reflected == st_e.freq_reflected
    assert np.array_equal(st_u.counts, st_e.counts)
    # Copy events survive the rank transform exactly (ties map to ties),
    # so freq_equal is the same whether or not ranks are applied.
    st_raw = empirical_lag_stats(uni, 1, 8)
    assert st_raw.freq_equal == st_e.freq_equal
    # Reflections do not: rank(1 - x) != N + 1 - rank(x) for a finite
    # sample, so raw reflection counting needs the uniform-scale values.
    assert abs(st_raw.freq_reflected - 0.2) < binomial_3sigma(0.2, st_raw.pairs)
    assert st_e.freq_reflected < st_raw.freq_reflected


def test_empirical_stats_validation():
    sample = sample_chain(Independence(), 10, 0)
    with pytest.raises(ValidationError):
        empirical_lag_stats(sample, 10, 4)
    with pytest.raises(ValidationError):
        empirical_lag_stats(sample, 0, 4)
    with pytest.raises(ValidationError):
        empirical_lag_stats(sample, 1, 1)


def test_chain_sample_rejects_non_finite_values():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="finite"):
            ChainSample(
                values=np.array([0.5, bad, 0.2]), seed=0, spec=None, marginal=Marginal("uniform")
            )


def test_empirical_stats_without_ranks_rejects_values_outside_unit_interval():
    for bad in (1.7, -0.2):
        sample = ChainSample(
            values=np.array([0.5, bad, 0.2, 0.9]), seed=0, spec=None, marginal=Marginal("uniform")
        )
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            empirical_lag_stats(sample, 1, 4, use_ranks=False)
        # Ranks map every finite value into (0, 1).
        assert empirical_lag_stats(sample, 1, 4, use_ranks=True).pairs == 3
