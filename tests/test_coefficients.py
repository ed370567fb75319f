import numpy as np
import pytest

from copula_lab import (
    Frechet,
    GridCopula,
    HoeffdingLower,
    HoeffdingUpper,
    Independence,
    Mardia,
    MarshallOlkin,
    Mixture,
    ValidationError,
    beta,
    brute_force_coefficient,
    discretize,
    fold_power,
    phi,
    psi,
    psi_prime,
    report,
    rho,
)

from conftest import sinkhorn_grid

PI_GRID = discretize(Independence(), 8)
F_GRID_2 = discretize(Frechet(a=0.2, b=0.3), 2)
M_GRID_4 = discretize(HoeffdingUpper(), 4)


# --- closed-form values ------------------------------------------------------

def test_rho_independence_is_zero():
    assert rho(PI_GRID) == 0.0
    # 300 is not a multiple of the Gram block: the last block is short.
    assert rho(discretize(Independence(), 300)) == 0.0


def test_rho_upper_bound_is_one():
    assert abs(rho(M_GRID_4) - 1.0) < 1e-12


def test_rho_frechet_even_grids():
    # D = aR + bI + (1-a-b)J/n; on the mean-zero subspace the singular
    # values are a+b and |b-a|, so rho = a+b once n >= 4.
    for n in (4, 8, 64):
        g = discretize(Frechet(a=0.2, b=0.3), n)
        assert abs(rho(g) - 0.5) < 1e-12


def test_rho_frechet_n2_degenerate():
    # At n=2 the mean-zero subspace is one-dimensional and the reversal
    # and identity parts collapse onto it together: rho = |b-a|.
    assert abs(rho(F_GRID_2) - 0.1) < 1e-12


def _svd_rho(g):
    # rho as the top singular value of the whole deflated matrix: the
    # reference for the Gram-eigenvalue kernel.
    n = g.resolution
    top = float(np.linalg.svd(n * g.masses - 1.0 / n, compute_uv=False)[0])
    return min(max(top, 0.0), 1.0)


def _rho_cross_check_grids():
    rng = np.random.default_rng(20261018)
    for n in (2, 3, 5, 64, 255, 256, 257, 300, 1024):
        yield f"dense-{n}", sinkhorn_grid(rng, n)
    for n in (8, 64, 300, 1024):
        yield f"sparse-{n}", sinkhorn_grid(rng, n, permutations=4)
    specs = {
        "independence": Independence(),
        "w": HoeffdingLower(),
        "m": HoeffdingUpper(),
        "frechet": Frechet(a=0.2, b=0.3),
        "frechet-tiny": Frechet(a=1e-9, b=1e-9),
        "mardia": Mardia(theta=0.4),
        "marshall-olkin": MarshallOlkin(a=0.3, b=0.6),
        "mixture": Mixture(
            weights=(0.5, 0.3, 0.2),
            components=(Frechet(a=0.2, b=0.3), HoeffdingUpper(), MarshallOlkin(a=0.3, b=0.6)),
        ),
    }
    for name, spec in specs.items():
        for n in (2, 7, 64, 300):
            yield f"{name}-{n}", discretize(spec, n)
    for n in (64, 300):
        yield f"dense-{n}-lag2", fold_power(sinkhorn_grid(rng, n), 2)
        yield f"sparse-{n}-lag2", fold_power(sinkhorn_grid(rng, n, permutations=4), 2)
        yield f"mixture-{n}-lag2", fold_power(discretize(specs["mixture"], n), 2)


def test_rho_matches_full_svd():
    for name, g in _rho_cross_check_grids():
        assert abs(rho(g) - _svd_rho(g)) <= 1e-12, name


def test_phi_examples():
    assert phi(PI_GRID) == 0.0
    assert abs(phi(M_GRID_4) - 0.75) < 1e-15
    assert abs(phi(F_GRID_2) - 0.05) < 1e-15


def test_beta_examples():
    assert beta(PI_GRID) == 0.0
    assert abs(beta(M_GRID_4) - 0.75) < 1e-15
    assert abs(beta(F_GRID_2) - 0.05) < 1e-15


def test_psi_prime_examples():
    assert psi_prime(PI_GRID) == 1.0
    g3 = discretize(Frechet(a=0.2, b=0.3), 3)
    assert abs(psi_prime(g3) - 0.5) < 1e-15
    assert psi_prime(discretize(HoeffdingLower(), 8)) == 0.0


def test_psi_examples():
    assert psi(PI_GRID) == 0.0
    assert abs(psi(F_GRID_2) - 0.1) < 1e-15
    for n in (2, 4, 8):
        m_grid = discretize(HoeffdingUpper(), n)
        assert abs(psi(m_grid) - (n - 1)) < 1e-12


# --- brute-force oracle ------------------------------------------------------

def test_brute_force_psi_prime_example():
    assert abs(brute_force_coefficient(F_GRID_2, "psi_prime") - 0.9) < 1e-12


def test_brute_force_phi_independence():
    g = discretize(Independence(), 3)
    assert brute_force_coefficient(g, "phi") == 0.0


def test_brute_force_beta_matches_fast_on_random_grids():
    for seed in range(20):
        g = sinkhorn_grid(np.random.default_rng(seed), 4)
        assert abs(brute_force_coefficient(g, "beta") - beta(g)) < 1e-10


def test_brute_force_oracle_equivalence():
    # The closed extremal reductions against raw subset enumeration.
    rng = np.random.default_rng(424242)
    for trial in range(50):
        n = int(rng.integers(2, 5))
        g = sinkhorn_grid(rng, n)
        assert abs(brute_force_coefficient(g, "phi") - phi(g)) < 1e-10
        assert abs(brute_force_coefficient(g, "beta") - beta(g)) < 1e-10
        assert abs(brute_force_coefficient(g, "psi_prime") - psi_prime(g)) < 1e-10
        assert abs(brute_force_coefficient(g, "psi") - psi(g)) < 1e-10
        lb = brute_force_coefficient(g, "rho")
        assert lb <= rho(g) + 1e-6
        assert lb >= rho(g) - 1e-6


def test_brute_force_refuses_large_grids():
    g = sinkhorn_grid(np.random.default_rng(0), 5)
    with pytest.raises(ValidationError, match="refuses n > 4"):
        brute_force_coefficient(g, "beta")


def test_brute_force_rejects_unknown_id():
    with pytest.raises(ValidationError):
        brute_force_coefficient(F_GRID_2, "tau")


def test_beta_subset_extremum_needs_all_cell_subsets():
    # On this grid the best rectangle pair undershoots the cellwise total
    # variation, so an oracle restricted to A x B products would be wrong.
    g = GridCopula(resolution=2, masses=np.array([[0.3, 0.2], [0.2, 0.3]]))
    assert abs(beta(g) - 0.1) < 1e-15
    assert abs(brute_force_coefficient(g, "beta") - 0.1) < 1e-15
    joint_dev = []
    for amask in (0b01, 0b10, 0b11):
        for bmask in (0b01, 0b10, 0b11):
            rows = [i for i in range(2) if amask >> i & 1]
            cols = [j for j in range(2) if bmask >> j & 1]
            mass = g.masses[np.ix_(rows, cols)].sum()
            joint_dev.append(abs(mass - len(rows) * len(cols) / 4.0))
    assert max(joint_dev) < 0.1


# --- report ------------------------------------------------------------------

def test_report_independence():
    rep = report(Independence(), 8, [1, 2, 3])
    assert rep.resolution == 8
    assert rep.method == "grid-exact"
    assert [r.lag for r in rep.rows] == [1, 2, 3]
    for row in rep.rows:
        assert row.rho == 0.0
        assert row.phi == 0.0
        assert row.beta == 0.0
        assert row.psi == 0.0
        assert row.psi_prime == 1.0


def test_report_frechet_rho_halves_per_lag():
    rep = report(Frechet(a=0.2, b=0.3), 64, [1, 2, 3, 4, 5])
    for row, want in zip(rep.rows, (0.5, 0.25, 0.125, 0.0625, 0.03125)):
        assert abs(row.rho - want) < 1e-9


def test_report_upper_bound_idempotent():
    rep = report(HoeffdingUpper(), 8, [1, 2])
    for row in rep.rows:
        assert abs(row.rho - 1.0) < 1e-12
        assert abs(row.phi - (1.0 - 1.0 / 8.0)) < 1e-15


def test_report_witnesses_lexicographic():
    rep = report(Frechet(a=0.2, b=0.3), 2, [1])
    row = rep.rows[0]
    # Ties: cells (0,0) and (1,1) share the max, (0,1) and (1,0) the min,
    # both rows share the worst TV; the lowest index wins everywhere.
    assert row.max_cell == (0, 0)
    assert row.min_cell == (0, 1)
    assert row.worst_row == 0


def test_report_lag_validation():
    with pytest.raises(ValidationError):
        report(Independence(), 8, [])
    with pytest.raises(ValidationError):
        report(Independence(), 8, [2, 1])
    with pytest.raises(ValidationError):
        report(Independence(), 8, [1, 1])
    with pytest.raises(ValidationError):
        report(Independence(), 8, [0, 1])
    with pytest.raises(ValidationError):
        report(Independence(), 8, [1.5])


def test_report_row_ranges():
    rep = report(MarshallOlkin(a=0.3, b=0.6), 16, [1, 2, 3])
    for row in rep.rows:
        assert 0.0 <= row.rho <= 1.0
        assert 0.0 <= row.phi <= 1.0
        assert 0.0 <= row.beta <= 1.0
        assert 0.0 <= row.psi_prime <= 1.0 + 1e-12
        assert row.psi >= 0.0


# --- invariants --------------------------------------------------------------

def test_coefficient_ordering():
    rng = np.random.default_rng(99)
    grids = [sinkhorn_grid(rng, int(rng.integers(2, 11))) for _ in range(100)]
    grids += [PI_GRID, F_GRID_2, M_GRID_4, discretize(MarshallOlkin(a=0.3, b=0.6), 8)]
    for g in grids:
        assert beta(g) <= phi(g) + 1e-12
        assert phi(g) <= psi(g) + 1e-12
        assert 1.0 - psi_prime(g) <= psi(g) + 1e-12


def test_refinement_monotonicity():
    # Coarser grid sets form a sub-collection of the finer ones, so the
    # sup-type coefficients can only grow and psi_prime can only shrink.
    for spec in (Frechet(a=0.2, b=0.3), MarshallOlkin(a=0.3, b=0.6)):
        prev = None
        for n in (2, 4, 8, 16, 32):
            g = discretize(spec, n)
            cur = (rho(g), phi(g), beta(g), psi(g), psi_prime(g))
            if prev is not None:
                assert cur[0] >= prev[0] - 1e-12
                assert cur[1] >= prev[1] - 1e-12
                assert cur[2] >= prev[2] - 1e-12
                assert cur[3] >= prev[3] - 1e-12
                assert cur[4] <= prev[4] + 1e-12
            prev = cur


def test_rho_submultiplicative_over_lags():
    grids = [
        discretize(Frechet(a=0.2, b=0.3), 8),
        discretize(MarshallOlkin(a=0.3, b=0.6), 8),
        sinkhorn_grid(np.random.default_rng(7), 6),
    ]
    for g in grids:
        for m in (1, 2):
            base = rho(fold_power(g, m))
            for i in (1, 2, 3):
                assert rho(fold_power(g, i * m)) <= base**i + 1e-9


def test_psi_prime_fold_lower_bound_from_min_density():
    specs = [
        Frechet(a=0.2, b=0.3),
        Mixture(
            weights=(0.5, 0.5),
            components=(Independence(), Frechet(a=0.2, b=0.3)),
        ),
        Mixture(
            weights=(0.3, 0.7),
            components=(MarshallOlkin(a=0.4, b=0.4), Independence()),
        ),
    ]
    n = 8
    for spec in specs:
        g = discretize(spec, n)
        c = float((n * n * g.masses).min())
        assert c > 0.0
        for m in range(1, 6):
            assert psi_prime(fold_power(g, m)) >= c - 1e-12
