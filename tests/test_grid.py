import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copula_lab import (
    CopulaSpec,
    Frechet,
    GridCopula,
    GridSpec,
    HoeffdingLower,
    HoeffdingUpper,
    Independence,
    Mardia,
    MarshallOlkin,
    Mixture,
    ValidationError,
    coarsen,
    discretize,
    fold_power,
    fold_product,
    frechet_fold_params,
    mix_grids,
    read_grid_csv,
    write_grid_csv,
)
from copula_lab import grid
from copula_lab.errors import OutputError
from copula_lab.families import _REGISTRY
from copula_lab.grid import MAX_RESOLUTION, lag_walk, open_output

from conftest import sinkhorn_grid


def frechet_grid(a: float, b: float, n: int) -> GridCopula:
    return discretize(Frechet(a=a, b=b), n)


# --- discretize ------------------------------------------------------------

def test_discretize_independence():
    g = discretize(Independence(), 2)
    assert np.array_equal(g.masses, np.full((2, 2), 0.25))


def test_discretize_upper_bound_is_diagonal():
    g = discretize(HoeffdingUpper(), 4)
    assert np.array_equal(g.masses, np.eye(4) / 4.0)


def test_discretize_lower_bound_is_antidiagonal():
    g = discretize(HoeffdingLower(), 4)
    assert np.array_equal(g.masses, np.fliplr(np.eye(4)) / 4.0)


def test_discretize_frechet_example():
    g = discretize(Frechet(a=0.2, b=0.3), 2)
    want = np.array([[0.275, 0.225], [0.225, 0.275]])
    assert np.abs(g.masses - want).max() < 1e-15


def test_discretize_mardia_matches_frechet_form():
    m = Mardia(theta=0.6)
    assert np.array_equal(discretize(m, 8).masses, discretize(m.as_frechet(), 8).masses)


def test_discretize_mixture_is_mass_mixture():
    mix = Mixture(
        weights=(0.2, 0.3, 0.5),
        components=(HoeffdingLower(), HoeffdingUpper(), Independence()),
    )
    got = discretize(mix, 8)
    want = mix_grids(
        [0.2, 0.3, 0.5],
        [discretize(c, 8) for c in mix.components],
    )
    assert np.array_equal(got.masses, want.masses)


def test_discretize_grid_spec_same_resolution_is_copy():
    masses = np.array([[0.275, 0.225], [0.225, 0.275]])
    g = discretize(GridSpec(resolution=2, masses=masses), 2)
    assert np.array_equal(g.masses, masses)


def test_discretize_grid_spec_refines_by_cdf():
    masses = np.array([[0.275, 0.225], [0.225, 0.275]])
    spec = GridSpec(resolution=2, masses=masses)
    fine = discretize(spec, 4)
    # Within-cell mass is uniform, so each coarse cell splits evenly.
    assert np.abs(coarsen(fine, 2).masses - masses).max() < 1e-15
    assert np.abs(fine.masses[0, 0] - 0.275 / 4.0) < 1e-15


def test_sparse_grid_spec_refines_without_rounding_dust():
    # Inclusion-exclusion of the bilinear CDF left about 1e-17 of dust in
    # the empty cells of this sparse grid; at n = 512 and 1024 the total
    # mass drifted past 1 + 1e-12 and a valid grid was refused.
    g = sinkhorn_grid(np.random.default_rng(5), 16, permutations=3)
    for n in (48, 512, 1024):
        fine = discretize(g, n).masses
        coarse_cell = np.arange(n) * 16 // n
        empty = g.masses[np.ix_(coarse_cell, coarse_cell)] == 0.0
        assert np.all(fine[empty] == 0.0) and fine.min() == 0.0
        assert abs(fine.sum() - 1.0) < 1e-15
        by_cdf = CopulaSpec.cell_masses(g, n)
        assert np.abs(fine - by_cdf).max() < 1e-15


def test_discretize_grid_spec_between_resolutions():
    g = sinkhorn_grid(np.random.default_rng(6), 6)
    # Coarser and finer grids whose resolution 6 does not divide: each
    # agrees with inclusion-exclusion of the bilinear CDF.
    for n in (4, 9, 10):
        fine = discretize(g, n).masses
        assert np.abs(fine - CopulaSpec.cell_masses(g, n)).max() < 1e-15
    assert np.abs(discretize(g, 3).masses - coarsen(g, 2).masses).max() < 1e-16


def test_discretize_marshall_olkin_row_sums():
    g = discretize(MarshallOlkin(a=0.3, b=0.6), 16)
    assert np.abs(g.masses.sum(axis=0) - 1.0 / 16).max() < 1e-12
    assert np.abs(g.masses.sum(axis=1) - 1.0 / 16).max() < 1e-12


def test_discretize_rejects_bad_resolution():
    with pytest.raises(ValidationError):
        discretize(Independence(), 1)
    with pytest.raises(ValidationError):
        discretize(Independence(), 0)


def test_discretize_rejects_resolution_over_budget_before_allocating(monkeypatch):
    # A cell_masses that raises stands in for the allocation: a check
    # made after it would fail here instead of exhausting memory.
    class Allocated(Exception):
        pass

    def allocate(self, n):
        raise Allocated(n)

    monkeypatch.setattr(Independence, "cell_masses", allocate)
    for n in (MAX_RESOLUTION + 1, 100_000):
        with pytest.raises(ValidationError, match="512 MiB"):
            discretize(Independence(), n)
    with pytest.raises(Allocated):
        discretize(Independence(), MAX_RESOLUTION)


# --- fold product ----------------------------------------------------------

def test_fold_independence_absorbs():
    pi = discretize(Independence(), 8)
    g = discretize(Frechet(a=0.2, b=0.3), 8)
    assert np.abs(fold_product(pi, g).masses - pi.masses).max() < 1e-15
    assert np.abs(fold_product(g, pi).masses - pi.masses).max() < 1e-15


def test_fold_bounds_multiplication_table():
    n = 6
    w = discretize(HoeffdingLower(), n)
    m = discretize(HoeffdingUpper(), n)
    assert np.array_equal(fold_product(w, w).masses, m.masses)
    assert np.array_equal(fold_product(w, m).masses, w.masses)
    assert np.array_equal(fold_product(m, w).masses, w.masses)
    assert np.array_equal(fold_product(m, m).masses, m.masses)


def test_fold_frechet_matches_closed_form_params():
    g = frechet_grid(0.2, 0.3, 8)
    p = frechet_fold_params(0.2, 0.3, 2)
    want = frechet_grid(p.a_n, p.b_n, 8)
    assert np.abs(fold_product(g, g).masses - want.masses).max() < 1e-15


def test_fold_rejects_resolution_mismatch():
    with pytest.raises(ValidationError):
        fold_product(discretize(Independence(), 4), discretize(Independence(), 8))


def test_fold_power_one_is_identity():
    g = frechet_grid(0.2, 0.3, 4)
    assert np.array_equal(fold_power(g, 1).masses, g.masses)


def test_fold_power_examples():
    n = 4
    w = discretize(HoeffdingLower(), n)
    m = discretize(HoeffdingUpper(), n)
    assert np.array_equal(fold_power(w, 2).masses, m.masses)
    assert np.array_equal(fold_power(w, 3).masses, w.masses)
    assert np.array_equal(fold_power(m, 5).masses, m.masses)


def test_fold_power_matches_sequential():
    g = sinkhorn_grid(np.random.default_rng(3), 5)
    seq = g
    for m in range(2, 7):
        seq = fold_product(seq, g)
        assert np.abs(fold_power(g, m).masses - seq.masses).max() < 1e-12


def test_lag_walk_folds_by_the_step_in_order(monkeypatch):
    g = sinkhorn_grid(np.random.default_rng(4), 6)
    calls = []
    real = grid.fold_product
    monkeypatch.setattr(grid, "fold_product", lambda a, b: calls.append(1) or real(a, b))
    walk = list(lag_walk(g, 2, 7))
    assert [lag for lag, _ in walk] == [2, 4, 6]
    assert len(calls) == 2  # no product past the last lag
    want = g
    for lag, got in walk:
        assert got.masses.tobytes() == want.masses.tobytes()
        want = real(want, g)
    assert list(lag_walk(g, 3, 2)) == []


def test_fold_power_rejects_bad_exponent():
    g = frechet_grid(0.2, 0.3, 4)
    with pytest.raises(ValidationError):
        fold_power(g, 0)
    with pytest.raises(ValidationError):
        fold_power(g, -2)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=16),
)
def test_fold_closure_keeps_uniform_marginals(seed, n):
    rng = np.random.default_rng(seed)
    g1 = sinkhorn_grid(rng, n)
    g2 = sinkhorn_grid(rng, n)
    out = fold_product(g1, g2)
    assert np.abs(out.masses.sum(axis=1) - 1.0 / n).max() < 1e-12
    assert np.abs(out.masses.sum(axis=0) - 1.0 / n).max() < 1e-12
    assert out.masses.min() >= 0.0


# --- mix grids -------------------------------------------------------------

def test_mix_grids_example():
    n = 2
    m = discretize(HoeffdingUpper(), n)
    pi = discretize(Independence(), n)
    got = mix_grids([0.5, 0.5], [m, pi])
    want = np.array([[0.375, 0.125], [0.125, 0.375]])
    assert np.abs(got.masses - want).max() < 1e-15


def test_mix_grids_single_component():
    g = frechet_grid(0.2, 0.3, 4)
    assert np.array_equal(mix_grids([1.0], [g]).masses, g.masses)


def test_mix_grids_validation():
    g = discretize(Independence(), 2)
    h = discretize(Independence(), 4)
    with pytest.raises(ValidationError, match="sum"):
        mix_grids([0.5, 0.6], [g, g])
    with pytest.raises(ValidationError):
        mix_grids([0.5, 0.5], [g, h])
    with pytest.raises(ValidationError):
        mix_grids([1.0, 0.0], [g, g])
    with pytest.raises(ValidationError):
        mix_grids([0.5], [g, g])
    with pytest.raises(ValidationError):
        mix_grids([], [])


def test_fold_distributes_over_mixtures():
    # fold_power of a mixture equals the weighted sum over all length-m
    # component tuples of their fold products, scaled by n^(m-1).
    rng = np.random.default_rng(17)
    n = 5
    for k, m in itertools.product((2, 3), (2, 3)):
        grids = [sinkhorn_grid(rng, n) for _ in range(k)]
        raw_w = rng.uniform(0.2, 1.0, size=k)
        weights = list(raw_w / raw_w.sum())
        mixed = mix_grids(weights, grids)
        left = fold_power(mixed, m).masses
        right = np.zeros((n, n))
        for combo in itertools.product(range(k), repeat=m):
            prod = grids[combo[0]].masses
            for idx in combo[1:]:
                prod = n * (prod @ grids[idx].masses)
            w = np.prod([weights[i] for i in combo])
            right = right + w * prod
        assert np.abs(left - right).max() < 1e-12


# --- closed-form exactness and convergence ---------------------------------

def test_frechet_fold_exact_on_even_grids():
    for n in (2, 4, 8, 16):
        g = frechet_grid(0.2, 0.3, n)
        for m in range(1, 5):
            p = frechet_fold_params(0.2, 0.3, m)
            want = frechet_grid(p.a_n, p.b_n, n)
            assert np.abs(fold_power(g, m).masses - want.masses).max() < 1e-12


def _fold_coarsen_gap(spec, n: int) -> float:
    coarse = fold_power(discretize(spec, n), 2)
    fine = fold_power(discretize(spec, 2 * n), 2)
    return float(np.abs(coarsen(fine, 2).masses - coarse.masses).max())


def test_marshall_olkin_fold_coarsening_converges():
    # Doubling the discretization resolution before folding shrinks the
    # gap to the coarse fold: fold and discretize commute in the limit.
    gaps = [_fold_coarsen_gap(MarshallOlkin(a=0.5, b=0.5), n) for n in (2, 4, 8, 16, 32)]
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))


def test_marshall_olkin_fold_coarsening_converges_asymmetric():
    # With a != b the singular curve drifts across cell boundaries, so the
    # gap wobbles step to step; the overall decay still has to show.
    spec = MarshallOlkin(a=0.3, b=0.6)
    gaps = [_fold_coarsen_gap(spec, n) for n in (2, 4, 8, 16, 32, 64)]
    assert min(gaps[-2:]) < min(gaps[:2])
    assert gaps[-1] < 0.5 * gaps[0]


# --- coarsen ----------------------------------------------------------------

def test_coarsen_blocks_sum():
    g = frechet_grid(0.2, 0.3, 8)
    c = coarsen(g, 2)
    assert c.resolution == 4
    assert abs(c.masses[0, 0] - g.masses[:2, :2].sum()) < 1e-15


def test_coarsen_validation():
    g = frechet_grid(0.2, 0.3, 8)
    with pytest.raises(ValidationError):
        coarsen(g, 3)
    with pytest.raises(ValidationError):
        coarsen(g, 8)  # result would be 1x1
    with pytest.raises(ValidationError):
        coarsen(g, 0)


# --- csv round trip ---------------------------------------------------------

def test_grid_csv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(23)
    g = sinkhorn_grid(rng, 7)
    path = str(tmp_path / "grid.csv")
    write_grid_csv(g, path)
    back = read_grid_csv(path)
    assert back.resolution == 7
    assert np.array_equal(back.masses, g.masses)
    first = open(path, encoding="ascii").readline().strip()
    assert first == "7"


def test_grid_csv_writer_matches_per_value_format(tmp_path):
    # Zero, the 2^-53 lattice step, subnormals and a quarter one lattice
    # step short, then a dense grid of arbitrary doubles.
    tiny = 2.0**-53
    edge = np.array(
        [
            [0.25, 0.0, 0.0, 0.0],
            [0.0, 0.25 - tiny, tiny, 0.0],
            [0.0, tiny, 0.25 - tiny, 5e-324],
            [0.0, 0.0, 2.2250738585072014e-308 / 3, 0.25],
        ]
    )
    for g in (GridCopula(resolution=4, masses=edge), sinkhorn_grid(np.random.default_rng(4), 7)):
        path = tmp_path / "grid.csv"
        write_grid_csv(g, str(path))
        rows = [",".join(format(v, ".17g") for v in row) + "\n" for row in g.masses]
        assert path.read_text(encoding="ascii") == f"{g.resolution}\n" + "".join(rows)


def _plain_grid_text(resolution: int, masses: np.ndarray) -> str:
    """The grid CSV written one cell at a time with the ``.17g`` format."""
    rows = [",".join(format(v, ".17g") for v in row) + "\n" for row in masses.tolist()]
    return f"{resolution}\n" + "".join(rows)


def _assert_writes_plain_text(g, path, monkeypatch) -> str:
    """Both writer paths give the plain per-cell text; returns that text."""
    want = _plain_grid_text(g.resolution, g.masses)
    with monkeypatch.context() as patch:
        for share in (0.0, 1.0):  # always cell by cell, always deduped
            patch.setattr(grid, "DEDUPE_MAX_DISTINCT", share)
            write_grid_csv(g, str(path))
            assert path.read_text(encoding="ascii") == want, share
    return want


def _assert_round_trip(path) -> None:
    """Reading a written grid and writing it again changes no byte."""
    text = path.read_bytes()
    back = read_grid_csv(str(path))
    again = path.with_name("again.csv")
    write_grid_csv(back, str(again))
    assert again.read_bytes() == text


def test_grid_csv_writer_matches_plain_formatter_on_every_family(tmp_path, monkeypatch):
    base = tmp_path / "base.csv"
    write_grid_csv(sinkhorn_grid(np.random.default_rng(8), 5), str(base))
    specs = [
        Independence(),
        HoeffdingLower(),
        HoeffdingUpper(),
        Frechet(a=0.2, b=0.3),
        Mardia(theta=-0.4),
        MarshallOlkin(a=0.3, b=0.6),
        Mixture(
            weights=(0.3, 0.3, 0.4),
            components=(Frechet(a=0.45, b=0.5), Mardia(theta=0.6), MarshallOlkin(a=0.3, b=0.6)),
        ),
        read_grid_csv(str(base)),
    ]
    assert {s.type_name for s in specs} == set(_REGISTRY)
    path = tmp_path / "grid.csv"
    for spec in specs:
        for n in (7, 64):
            g = discretize(spec, n)
            _assert_writes_plain_text(g, path, monkeypatch)
            _assert_round_trip(path)


def test_grid_csv_writer_matches_plain_formatter_at_1024(tmp_path):
    g = discretize(MarshallOlkin(a=0.3, b=0.6), 1024)
    path = tmp_path / "grid.csv"
    want = _plain_grid_text(1024, g.masses)
    write_grid_csv(g, str(path))
    assert path.read_text(encoding="ascii") == want


def test_grid_csv_writer_falls_back_on_all_distinct_grids(tmp_path, monkeypatch):
    g = sinkhorn_grid(np.random.default_rng(9), 64)
    distinct = np.unique(g.masses.view(np.uint64)).size
    assert distinct > grid.DEDUPE_MAX_DISTINCT * 64 * 64
    path = tmp_path / "grid.csv"
    _assert_writes_plain_text(g, path, monkeypatch)
    _assert_round_trip(path)


def test_grid_csv_writer_on_negative_zero_subnormal_and_repeated_cells(tmp_path, monkeypatch):
    # -0 cells, the two smallest subnormals and repeated masses, read
    # from a hand-written file; 0.25 - 2^-53 + 2^-53 sums to 0.25 exactly.
    tiny = 2.0**-53
    text = (
        "4\n"
        "0.25,-0,-0,0\n"
        f"-0,{0.25 - tiny!r},{tiny!r},5e-324\n"
        f"0,{tiny!r},{0.25 - tiny!r},1e-323\n"
        "0,-0,0,0.25\n"
    )
    src = tmp_path / "src.csv"
    src.write_text(text, encoding="ascii")
    g = read_grid_csv(str(src))
    path = tmp_path / "grid.csv"
    _assert_writes_plain_text(g, path, monkeypatch)
    _assert_round_trip(path)
    # GridSpec validation turns -0.0 into 0.0, so the writer's own
    # handling of -0.0 shows only on a bare mass array: keyed on bits,
    # -0.0 and 0.0 stay two masses, printed "-0" and "0".
    signed = np.array(g.masses)
    signed[0, 1] = signed[1, 0] = -0.0
    bare = SimpleNamespace(resolution=4, masses=signed)
    rows = _assert_writes_plain_text(bare, path, monkeypatch).splitlines()
    assert rows[1] == "0.25,-0,0,0"
    assert rows[2].startswith("-0,")


def test_grid_csv_rejects_malformed(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("2\n0.25,0.25\n")
    with pytest.raises(ValidationError):
        read_grid_csv(str(p))
    p.write_text("2\n0.25,0.25\n0.25,gnat\n")
    with pytest.raises(ValidationError):
        read_grid_csv(str(p))
    p.write_text("x\n")
    with pytest.raises(ValidationError):
        read_grid_csv(str(p))
    with pytest.raises(ValidationError):
        read_grid_csv(str(tmp_path / "missing.csv"))


# --- grid construction validation -------------------------------------------

def test_grid_copula_validation():
    with pytest.raises(ValidationError):
        GridCopula(resolution=2, masses=np.array([[0.3, 0.2], [0.2, 0.3]]) * 1.1)
    with pytest.raises(ValidationError):
        GridCopula(resolution=2, masses=np.array([[0.4, 0.1], [0.2, 0.3]]))
    bad = np.array([[0.55, -0.05], [-0.05, 0.55]])
    with pytest.raises(ValidationError):
        GridCopula(resolution=2, masses=bad)


def test_grid_copula_clamps_dust_and_is_readonly():
    masses = np.full((2, 2), 0.25)
    masses[1, 1] -= 3e-16
    masses[1, 0] += 3e-16
    g = GridCopula(resolution=2, masses=masses)
    assert g.masses.min() >= 0.0
    with pytest.raises(ValueError):
        g.masses[0, 0] = 0.5


def test_open_output_failures_are_output_errors(tmp_path):
    target = tmp_path / "missing" / "out.txt"
    with pytest.raises(OutputError) as info:
        with open_output(str(target)) as fh:
            fh.write("x")
    assert isinstance(info.value, OSError) and info.value.filename == str(target)
    with pytest.raises(ValueError):  # not an I/O failure: raised as it is
        with open_output(str(tmp_path / "out.txt")):
            raise ValueError("boom")
    assert list(tmp_path.iterdir()) == []
