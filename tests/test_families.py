import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copula_lab import (
    ON_SINGULAR,
    CopulaSpec,
    Frechet,
    GridSpec,
    HoeffdingLower,
    HoeffdingUpper,
    Independence,
    Mardia,
    MarshallOlkin,
    Mixture,
    ValidationError,
    canonical_spec_json,
    conditional_cdf,
    discretize,
    eval_ac_density,
    eval_cdf,
    frechet_fold_params,
    parse_spec,
    sample_chain,
    serialize_spec,
    spec_digest,
    spec_to_json,
    write_grid_csv,
)
from copula_lab.families import MAX_SPEC_DEPTH, _REGISTRY, _require_int
from copula_lab.grid import GridCopula, coarsen, fold_power


def unit_floats():
    return st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def frechet_specs():
    return st.tuples(unit_floats(), unit_floats()).filter(
        lambda t: t[0] + t[1] <= 1.0
    ).map(lambda t: Frechet(a=t[0], b=t[1]))


SMOOTH_SPECS = [
    Independence(),
    Frechet(a=0.2, b=0.3),
    Frechet(a=0.5, b=0.5),
    Mardia(theta=0.6),
    MarshallOlkin(a=0.3, b=0.6),
    MarshallOlkin(a=0.5, b=0.5),
    Mixture(
        weights=(0.4, 0.6),
        components=(Frechet(a=0.1, b=0.2), MarshallOlkin(a=0.7, b=0.2)),
    ),
]
# A grid is a copula spec too: the discretized Marshall-Olkin copula.
GRID_SPEC = discretize(MarshallOlkin(a=0.3, b=0.6), 4)
ALL_SPECS = SMOOTH_SPECS + [HoeffdingLower(), HoeffdingUpper(), GRID_SPEC]


# --- cdf -------------------------------------------------------------------

def test_cdf_upper_bound_example():
    assert eval_cdf(HoeffdingUpper(), 0.3, 0.7) == 0.3


def test_cdf_frechet_example():
    got = eval_cdf(Frechet(a=0.2, b=0.3), 0.5, 0.5)
    assert abs(got - 0.275) < 1e-15


def test_cdf_uniform_marginals():
    for spec in ALL_SPECS:
        assert abs(eval_cdf(spec, 0.42, 1.0) - 0.42) < 1e-12
        assert abs(eval_cdf(spec, 1.0, 0.42) - 0.42) < 1e-12
        assert eval_cdf(spec, 0.0, 0.42) == 0.0
        assert eval_cdf(spec, 0.42, 0.0) == 0.0


def test_cdf_vectorized_matches_scalar():
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 1, size=25)
    y = rng.uniform(0, 1, size=25)
    for spec in ALL_SPECS:
        vec = eval_cdf(spec, x, y)
        assert vec.shape == (25,)
        for i in range(25):
            assert vec[i] == eval_cdf(spec, float(x[i]), float(y[i]))


def test_cdf_grid_spec_matches_mass_sums():
    masses = np.array([[0.275, 0.225], [0.225, 0.275]])
    spec = GridSpec(resolution=2, masses=masses)
    assert abs(eval_cdf(spec, 0.5, 0.5) - 0.275) < 1e-15
    assert abs(eval_cdf(spec, 1.0, 1.0) - 1.0) < 1e-15
    assert abs(eval_cdf(spec, 0.5, 1.0) - 0.5) < 1e-12


@settings(max_examples=300)
@given(
    spec=st.sampled_from(ALL_SPECS),
    x1=unit_floats(),
    x2=unit_floats(),
    y1=unit_floats(),
    y2=unit_floats(),
)
def test_cdf_rectangle_inequality(spec, x1, x2, y1, y2):
    xa, xb = sorted((x1, x2))
    ya, yb = sorted((y1, y2))
    mass = (
        eval_cdf(spec, xb, yb)
        - eval_cdf(spec, xa, yb)
        - eval_cdf(spec, xb, ya)
        + eval_cdf(spec, xa, ya)
    )
    assert mass >= -1e-12


def test_cdf_rectangle_inequality_dense():
    # 20 x 20 lattice of random evaluation points per family.
    rng = np.random.default_rng(11)
    for spec in ALL_SPECS:
        pts = np.sort(rng.uniform(0, 1, size=20))
        qts = np.sort(rng.uniform(0, 1, size=20))
        c = eval_cdf(spec, pts[:, None], qts[None, :])
        mass = c[1:, 1:] - c[:-1, 1:] - c[1:, :-1] + c[:-1, :-1]
        assert mass.min() >= -1e-12


@settings(max_examples=300)
@given(x=unit_floats(), y=unit_floats(), spec=st.sampled_from(ALL_SPECS))
def test_cdf_frechet_hoeffding_bounds(spec, x, y):
    lo = max(x + y - 1.0, 0.0)
    hi = min(x, y)
    v = eval_cdf(spec, x, y)
    assert lo - 1e-12 <= v <= hi + 1e-12


@settings(max_examples=200)
@given(
    x=unit_floats(),
    y=unit_floats(),
    w=st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
)
def test_cdf_mixture_linearity(x, y, w):
    parts = (Frechet(a=0.2, b=0.3), MarshallOlkin(a=0.3, b=0.6))
    mix = Mixture(weights=(w, 1.0 - w), components=parts)
    expect = w * eval_cdf(parts[0], x, y) + (1.0 - w) * eval_cdf(parts[1], x, y)
    assert abs(eval_cdf(mix, x, y) - expect) < 1e-12


@settings(max_examples=200)
@given(
    x=unit_floats(),
    y=unit_floats(),
    theta=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)
def test_mardia_equals_its_frechet_form(x, y, theta):
    m = Mardia(theta=theta)
    assert eval_cdf(m, x, y) == eval_cdf(m.as_frechet(), x, y)


# --- density ---------------------------------------------------------------

def test_density_frechet_example():
    assert eval_ac_density(Frechet(a=0.2, b=0.3), 0.4, 0.7) == 0.5


def test_density_independence_is_one():
    assert eval_ac_density(Independence(), 0.123, 0.987) == 1.0


def test_density_marshall_olkin_example():
    # At (0.25, 0.81): y**a = 0.9 > 0.5 = x**b, so the density there is
    # (1 - a) * y**(-a) = 0.5 / 0.9.  Cross-checked against the mixed
    # difference of the cdf over a shrinking rectangle.
    got = eval_ac_density(MarshallOlkin(a=0.5, b=0.5), 0.25, 0.81)
    assert abs(got - 5.0 / 9.0) < 1e-12


def test_density_marshall_olkin_matches_cdf_difference_quotient():
    spec = MarshallOlkin(a=0.5, b=0.5)
    for x, y in [(0.25, 0.81), (0.81, 0.25), (0.7, 0.2)]:
        h = 1e-6
        mass = (
            eval_cdf(spec, x + h, y + h)
            - eval_cdf(spec, x - h, y + h)
            - eval_cdf(spec, x + h, y - h)
            + eval_cdf(spec, x - h, y - h)
        )
        assert abs(mass / (4 * h * h) - eval_ac_density(spec, x, y)) < 1e-4


def test_density_singular_markers():
    assert eval_ac_density(HoeffdingUpper(), 0.3, 0.3) is ON_SINGULAR
    assert eval_ac_density(HoeffdingLower(), 0.3, 0.7) is ON_SINGULAR
    assert eval_ac_density(Frechet(a=0.2, b=0.3), 0.4, 0.4) is ON_SINGULAR
    assert eval_ac_density(Frechet(a=0.2, b=0.3), 0.4, 0.6) is ON_SINGULAR
    assert eval_ac_density(MarshallOlkin(a=0.5, b=0.5), 0.3, 0.3) is ON_SINGULAR


def test_density_off_singular_values():
    assert eval_ac_density(HoeffdingUpper(), 0.3, 0.6) == 0.0
    assert eval_ac_density(HoeffdingLower(), 0.3, 0.6) == 0.0
    assert eval_ac_density(Frechet(a=0.0, b=0.0), 0.4, 0.4) == 1.0


def test_density_mixture_weighted_sum():
    mix = Mixture(
        weights=(0.4, 0.6),
        components=(Independence(), Frechet(a=0.2, b=0.3)),
    )
    assert abs(eval_ac_density(mix, 0.4, 0.7) - (0.4 * 1.0 + 0.6 * 0.5)) < 1e-15
    assert eval_ac_density(mix, 0.4, 0.4) is ON_SINGULAR


def test_density_grid_spec_rejected():
    spec = GridSpec(resolution=2, masses=np.full((2, 2), 0.25))
    with pytest.raises(ValidationError):
        eval_ac_density(spec, 0.3, 0.6)


# --- conditional cdf -------------------------------------------------------

def test_conditional_independence_example():
    assert conditional_cdf(Independence(), 0.3, 0.6) == 0.6


def test_conditional_frechet_example():
    got = conditional_cdf(Frechet(a=0.2, b=0.3), 0.4, 0.5)
    assert abs(got - 0.55) < 1e-15


def test_conditional_upper_bound_is_step():
    spec = HoeffdingUpper()
    assert conditional_cdf(spec, 0.4, 0.39) == 0.0
    assert conditional_cdf(spec, 0.4, 0.4) == 1.0
    assert conditional_cdf(spec, 0.4, 0.7) == 1.0


def test_conditional_lower_bound_is_step():
    spec = HoeffdingLower()
    assert conditional_cdf(spec, 0.4, 0.59) == 0.0
    assert conditional_cdf(spec, 0.4, 0.6) == 1.0


def test_conditional_marshall_olkin_atom():
    # Given x, the conditional has a single atom where y**a == x**b.
    spec = MarshallOlkin(a=0.5, b=0.5)
    at = conditional_cdf(spec, 0.25, 0.25)
    below = conditional_cdf(spec, 0.25, 0.25 - 1e-9)
    assert abs(at - 0.5) < 1e-15
    assert abs(below - 0.25) < 1e-8
    assert abs((at - below) - 0.25) < 1e-8


def test_conditional_grid_spec_rows():
    masses = np.array([[0.275, 0.225], [0.225, 0.275]])
    spec = GridSpec(resolution=2, masses=masses)
    # x = 0.3 falls in row 0; within-cell mass is spread uniformly.
    assert abs(conditional_cdf(spec, 0.3, 0.5) - 0.55) < 1e-15
    assert abs(conditional_cdf(spec, 0.3, 0.25) - 0.275) < 1e-15
    assert conditional_cdf(spec, 0.3, 1.0) == 1.0


@settings(max_examples=300)
@given(
    spec=st.sampled_from(ALL_SPECS),
    x=st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
    y1=unit_floats(),
    y2=unit_floats(),
)
def test_conditional_monotone_in_y(spec, x, y1, y2):
    ya, yb = sorted((y1, y2))
    va = conditional_cdf(spec, x, ya)
    vb = conditional_cdf(spec, x, yb)
    assert va <= vb + 1e-15
    assert -1e-15 <= va and vb <= 1.0 + 1e-15


def test_conditional_integrates_to_marginal():
    # Integrating the conditional over x at fixed y recovers y.
    n = 10_000
    xs = (np.arange(n) + 0.5) / n
    for spec in ALL_SPECS:
        for y in (0.2, 0.5, 0.83):
            vals = conditional_cdf(spec, xs, y)
            assert abs(float(vals.mean()) - y) < 1e-3


def test_conditional_array_matches_scalar():
    rng = np.random.default_rng(13)
    x = rng.uniform(0.01, 0.99, size=40)
    y = rng.uniform(0, 1, size=40)
    for spec in ALL_SPECS:
        vec = conditional_cdf(spec, x, y)
        for i in range(40):
            assert vec[i] == conditional_cdf(spec, float(x[i]), float(y[i]))


# --- fold parameters -------------------------------------------------------

def test_fold_params_examples():
    p1 = frechet_fold_params(0.2, 0.3, 1)
    assert (p1.a_n, p1.b_n) == (0.2, 0.3)
    p2 = frechet_fold_params(0.2, 0.3, 2)
    assert abs(p2.a_n - 0.12) < 1e-15
    assert abs(p2.b_n - 0.13) < 1e-15
    p3 = frechet_fold_params(0.5, 0.5, 3)
    assert (p3.a_n, p3.b_n) == (0.5, 0.5)


def test_fold_params_dyadic_sum_identity():
    # Dyadic-rational inputs keep the sum identity exact in floats.
    for a, b in [(0.25, 0.5), (0.125, 0.25), (0.5, 0.25)]:
        for n in range(1, 11):
            p = frechet_fold_params(a, b, n)
            assert p.a_n + p.b_n == (a + b) ** n


@settings(max_examples=200)
@given(spec=frechet_specs(), n=st.integers(min_value=1, max_value=8))
def test_fold_params_recursion(spec, n):
    p = frechet_fold_params(spec.a, spec.b, n)
    q = frechet_fold_params(spec.a, spec.b, n + 1)
    assert abs(q.a_n - (spec.a * p.b_n + spec.b * p.a_n)) < 1e-12
    assert abs(q.b_n - (spec.a * p.a_n + spec.b * p.b_n)) < 1e-12
    assert 0.0 <= p.a_n and 0.0 <= p.b_n and p.a_n + p.b_n <= 1.0 + 1e-12


def test_fold_params_stay_valid():
    p = frechet_fold_params(0.0, 1.0, 7)
    assert (p.a_n, p.b_n) == (0.0, 1.0)
    with pytest.raises(ValidationError):
        frechet_fold_params(0.2, 0.3, 0)


# --- validation ------------------------------------------------------------

def test_frechet_weight_validation_message():
    with pytest.raises(ValidationError, match="a \\+ b <= 1"):
        Frechet(a=0.7, b=0.7)


def test_parameter_range_validation():
    with pytest.raises(ValidationError):
        Frechet(a=-0.1, b=0.3)
    with pytest.raises(ValidationError):
        Mardia(theta=1.5)
    with pytest.raises(ValidationError):
        MarshallOlkin(a=1.2, b=0.3)
    with pytest.raises(ValidationError):
        MarshallOlkin(a=float("nan"), b=0.3)


def test_mixture_validation():
    with pytest.raises(ValidationError, match="sum"):
        Mixture(weights=(0.5, 0.6), components=(Independence(), HoeffdingUpper()))
    with pytest.raises(ValidationError):
        Mixture(weights=(0.0, 1.0), components=(Independence(), HoeffdingUpper()))
    with pytest.raises(ValidationError):
        Mixture(weights=(0.5,), components=(Independence(), HoeffdingUpper()))
    with pytest.raises(ValidationError):
        Mixture(weights=(), components=())


def test_grid_spec_validation():
    with pytest.raises(ValidationError):
        GridSpec(resolution=2, masses=np.array([[0.5, 0.0], [0.0, 0.5]]) * 1.2)
    with pytest.raises(ValidationError):
        GridSpec(resolution=3, masses=np.full((2, 2), 0.25))
    with pytest.raises(ValidationError):
        GridSpec(resolution=2, masses=np.array([[0.55, -0.05], [-0.05, 0.55]]))


def test_grid_spec_clamps_tiny_negative_dust():
    masses = np.array([[0.25, 0.25], [0.25, 0.25]])
    masses[0, 0] -= 4e-16
    masses[0, 1] += 4e-16
    spec = GridSpec(resolution=2, masses=masses)
    assert spec.masses.min() >= 0.0


# --- serialization ---------------------------------------------------------

# In-memory grids have no path to serialize; the protocol tests below
# round-trip a grid loaded from a file.
ROUND_TRIP_SPECS = SMOOTH_SPECS + [HoeffdingLower(), HoeffdingUpper()] + [
    Mixture(
        weights=(0.2, 0.3, 0.5),
        components=(HoeffdingLower(), HoeffdingUpper(), Independence()),
    ),
    Mixture(
        weights=(0.9, 0.1),
        components=(
            Mixture(weights=(0.5, 0.5), components=(Independence(), Mardia(theta=-0.4))),
            Frechet(a=0.0, b=1.0),
        ),
    ),
]


def test_serialize_round_trip():
    for spec in ROUND_TRIP_SPECS:
        assert parse_spec(spec_to_json(spec)) == spec


@settings(max_examples=200)
@given(spec=frechet_specs())
def test_serialize_round_trip_frechet(spec):
    assert parse_spec(spec_to_json(spec)) == spec


def test_parse_spec_examples():
    spec = parse_spec('{"type": "frechet", "a": 0.2, "b": 0.3}')
    assert spec == Frechet(a=0.2, b=0.3)
    mix = parse_spec(
        '{"type": "mixture", "weights": [0.5, 0.5],'
        ' "components": [{"type": "m"}, {"type": "independence"}]}'
    )
    assert mix == Mixture(
        weights=(0.5, 0.5), components=(HoeffdingUpper(), Independence())
    )


def test_parse_spec_rejects_unknown_type():
    with pytest.raises(ValidationError, match="type"):
        parse_spec('{"type": "gaussian", "rho": 0.5}')


def test_parse_spec_rejects_unknown_field():
    with pytest.raises(ValidationError):
        parse_spec('{"type": "frechet", "a": 0.2, "b": 0.3, "c": 0.1}')


def test_parse_spec_rejects_missing_field():
    with pytest.raises(ValidationError):
        parse_spec('{"type": "frechet", "a": 0.2}')


def test_parse_spec_rejects_invalid_parameters():
    with pytest.raises(ValidationError, match="a \\+ b <= 1"):
        parse_spec('{"type": "frechet", "a": 0.7, "b": 0.7}')


def test_grid_spec_round_trip_via_csv(tmp_path):
    from copula_lab import GridCopula

    masses = np.array([[0.275, 0.225], [0.225, 0.275]])
    path = tmp_path / "g.csv"
    write_grid_csv(GridCopula(resolution=2, masses=masses), str(path))
    text = json.dumps({"type": "grid", "path": str(path)})
    spec = parse_spec(text)
    assert isinstance(spec, GridSpec)
    assert spec.resolution == 2
    assert np.array_equal(spec.masses, masses)


def test_digest_ignores_json_formatting():
    a = parse_spec('{"type": "frechet", "a": 0.2, "b": 0.3}')
    b = parse_spec('{"b": 0.3,\n  "a": 0.2,  "type": "frechet"}')
    assert spec_digest(a) == spec_digest(b)
    assert canonical_spec_json(a) == canonical_spec_json(b)
    assert spec_digest(a) != spec_digest(Frechet(a=0.3, b=0.2))


def test_discretize_accepts_every_family():
    for spec in ALL_SPECS:
        g = discretize(spec, 8)
        assert g.resolution == 8


def test_parse_spec_rejects_non_string_type():
    with pytest.raises(ValidationError, match="type"):
        parse_spec('{"type": ["frechet"]}')


def _nested_mixture_json(depth: int) -> str:
    text = '{"type": "independence"}'
    for _ in range(depth):
        text = '{"type": "mixture", "weights": [1.0], "components": [' + text + "]}"
    return text


def test_parse_spec_nesting_cap():
    spec = parse_spec(_nested_mixture_json(MAX_SPEC_DEPTH))
    assert eval_cdf(spec, 0.5, 0.5) == 0.25
    for depth in (MAX_SPEC_DEPTH + 1, 600, 2000):
        with pytest.raises(ValidationError, match="nests deeper"):
            parse_spec(_nested_mixture_json(depth))


# --- the family protocol, over every registered type ---------------------------

def _grid_file_spec(tmp_path) -> GridSpec:
    path = tmp_path / "g.csv"
    write_grid_csv(discretize(Frechet(a=0.1, b=0.6), 4), str(path))
    return parse_spec(json.dumps({"type": "grid", "path": str(path)}))


PROTOCOL_EXAMPLES = {
    "independence": lambda tmp: Independence(),
    "w": lambda tmp: HoeffdingLower(),
    "m": lambda tmp: HoeffdingUpper(),
    "frechet": lambda tmp: Frechet(a=0.2, b=0.3),
    "mardia": lambda tmp: Mardia(theta=-0.4),
    "marshall-olkin": lambda tmp: MarshallOlkin(a=0.3, b=0.6),
    "mixture": lambda tmp: Mixture(
        weights=(0.5, 0.25, 0.25),
        components=(Mardia(theta=0.6), MarshallOlkin(a=0.5, b=0.5), _grid_file_spec(tmp)),
    ),
    "grid": _grid_file_spec,
}


def test_protocol_examples_cover_the_registry():
    assert set(PROTOCOL_EXAMPLES) == set(_REGISTRY)


@pytest.mark.parametrize("type_name", sorted(PROTOCOL_EXAMPLES))
def test_protocol_round_trip(type_name, tmp_path):
    spec = PROTOCOL_EXAMPLES[type_name](tmp_path)
    assert type(spec) is _REGISTRY[type_name]
    assert serialize_spec(spec)["type"] == type_name
    back = parse_spec(spec_to_json(spec))
    assert back == spec
    assert spec_digest(back) == spec_digest(spec)


@pytest.mark.parametrize("type_name", sorted(PROTOCOL_EXAMPLES))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_protocol_cell_masses_match_inclusion_exclusion(type_name, n, tmp_path):
    spec = PROTOCOL_EXAMPLES[type_name](tmp_path)
    exact = spec.cell_masses(n)
    generic = CopulaSpec.cell_masses(spec, n)
    assert exact.shape == (n, n)
    assert np.abs(exact - generic).max() <= 1e-15


@pytest.mark.parametrize("type_name", sorted(_REGISTRY))
def test_protocol_step_has_no_default(type_name):
    # Every family samples exactly; none falls back to a generic inverse.
    assert "step" not in vars(CopulaSpec)
    assert callable(getattr(_REGISTRY[type_name], "step", None))


def test_require_int_is_the_integer_rule():
    assert _require_int(3, "k") == 3
    assert _require_int(0, "k", 0) == 0
    for bad in (True, 1.0, "2", None, 0):
        with pytest.raises(ValidationError, match="k must be an integer >= 1"):
            _require_int(bad, "k")


@pytest.mark.parametrize(
    "call",
    [
        lambda g: discretize(Independence(), True),
        lambda g: GridSpec(resolution=2.0, masses=g.masses),
        lambda g: fold_power(g, True),
        lambda g: coarsen(g, True),
        lambda g: frechet_fold_params(0.2, 0.3, True),
        lambda g: sample_chain(Independence(), 10, True),
        lambda g: sample_chain(Independence(), 10.0, 1),
    ],
    ids=["resolution", "grid-resolution", "fold-power", "coarsen", "fold-lag", "seed", "steps"],
)
def test_integer_arguments_reject_non_integers(call):
    with pytest.raises(ValidationError, match="must be an integer"):
        call(discretize(Independence(), 2))


def test_grid_copula_is_grid_spec():
    assert GridCopula is GridSpec
    g = discretize(Frechet(a=0.2, b=0.3), 4)
    assert isinstance(g, GridSpec) and g.path is None


def test_discretized_grid_is_a_spec():
    g = discretize(MarshallOlkin(a=0.3, b=0.6), 8)
    mix = Mixture(weights=(0.5, 0.5), components=(g, Independence()))
    expect = 0.5 * g.masses + 0.5 * discretize(Independence(), 8).masses
    assert np.array_equal(discretize(mix, 8).masses, expect)
    chain = sample_chain(g, 500, 3)
    cells = np.ceil(chain.values * 8).astype(int) - 1
    assert (g.masses[cells[:-1], cells[1:]] > 0.0).all()


def test_grid_digest_follows_the_csv_content(tmp_path):
    path = tmp_path / "g.csv"
    write_grid_csv(discretize(Frechet(a=0.2, b=0.3), 4), str(path))
    text = json.dumps({"type": "grid", "path": str(path)})
    before = spec_digest(parse_spec(text))
    write_grid_csv(discretize(Frechet(a=0.3, b=0.2), 4), str(path))
    after = parse_spec(text)
    assert serialize_spec(after) == {"type": "grid", "path": str(path)}
    assert spec_digest(after) != before
    assert spec_digest(after) == spec_digest(discretize(Frechet(a=0.3, b=0.2), 4))
