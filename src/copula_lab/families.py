"""Bivariate copula families on the unit square.

This module is the symbolic half of the library: one immutable spec
class per family, each carrying all of that family's behaviour, and
the public functions that validate their arguments and call it.

The family protocol
-------------------
Every family derives from :class:`CopulaSpec` and implements

* ``cdf(x, y)``                 C(x, y) on broadcast float arrays
* ``cond_cdf(x, y)``            P(X1 <= y | X0 = x) on broadcast float
                                arrays, the transition kernel of the
                                induced stationary chain
* ``ac_density(x, y)``          density of the absolutely continuous part
                                at an interior point, or ``ON_SINGULAR``
* ``min_ac_density()``          essential infimum of that density; the
                                default 0 is a valid lower bound
* ``cell_masses(n)``            exact n x n grid cell masses; the default
                                is CDF inclusion-exclusion, which is exact
                                for every family, and families with a
                                closed form override it
* ``step(x, decision, value)``  one chain step from state x, given the two
                                Philox words of the step; every family
                                samples exactly and there is no default
* ``to_json(canonical)``        the JSON form; the default writes
                                ``type_name`` and the ``json_fields``

Parsing goes through one registry, ``_REGISTRY`` (type name -> class),
and ``from_json``, which by default passes the ``json_fields`` to the
constructor. ``Mixture`` recurses over its components. Adding a family
touches one class: write it and list it in ``_REGISTRY``.

Supported families
------------------
* ``Independence``            Pi(x, y) = x * y
* ``HoeffdingLower``          W(x, y) = max(x + y - 1, 0), mass on y = 1 - x
* ``HoeffdingUpper``          M(x, y) = min(x, y), mass on y = x
* ``Frechet(a, b)``           a*W + b*M + (1 - a - b)*Pi
* ``Mardia(theta)``           the Frechet member with a = theta^2*(1-theta)/2,
                              b = theta^2*(1+theta)/2
* ``MarshallOlkin(a, b)``     min(x * y^(1-a), y * x^(1-b))
* ``Mixture(weights, comps)`` convex combination of other specs
* ``GridSpec(n, masses)``     piecewise-uniform measure on the n x n grid,
                              loaded from a CSV cell-mass file or produced
                              by the grid algebra (``grid.GridCopula`` is
                              this class)

Density queries that land exactly on a singular support line return the
marker ``ON_SINGULAR`` instead of a number. All measure-level work goes
through CDF inclusion-exclusion, never through pointwise densities, so
the marker never propagates into grids or reports.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError

__all__ = [
    "ON_SINGULAR",
    "Independence",
    "HoeffdingLower",
    "HoeffdingUpper",
    "Frechet",
    "Mardia",
    "MarshallOlkin",
    "Mixture",
    "GridSpec",
    "CopulaSpec",
    "FrechetParams",
    "eval_cdf",
    "eval_ac_density",
    "conditional_cdf",
    "frechet_fold_params",
    "parse_spec",
    "serialize_spec",
    "spec_to_json",
    "canonical_spec_json",
    "spec_digest",
]

# Marker returned by eval_ac_density on a singular support set.
ON_SINGULAR = math.inf

# Tolerance for user-entered convex weights (decimals, so exact sums
# cannot be demanded).
WEIGHT_TOL = 1e-12

# Cell masses more negative than this signal a broken (non-2-increasing)
# input; anything in (-CLAMP_TOL, 0) is rounding dust and is clamped.
CLAMP_TOL = 1e-15
MARGINAL_TOL = 1e-12

# Deepest mixture nesting a parsed spec may have. The protocol methods
# recurse once per level, so this also bounds their stack depth.
MAX_SPEC_DEPTH = 64


def _require_number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    v = float(value)
    if math.isnan(v) or math.isinf(v):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return v


def _require_int(value, name: str, minimum: int = 1) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum} (got {value!r})")
    return value


def _require_spec(spec) -> None:
    if not isinstance(spec, CopulaSpec):
        raise ValidationError(f"not a copula spec: {spec!r}")


class CopulaSpec:
    """Base class of every copula family; see the module docstring.

    Subclasses set ``type_name`` (the JSON ``type``) and ``json_fields``
    and implement the protocol methods.
    """

    type_name = ""
    json_fields: tuple[str, ...] = ()

    def min_ac_density(self) -> float:
        """0, a valid lower bound for every family; others override it."""
        return 0.0

    def cell_masses(self, n: int) -> np.ndarray:
        """Masses of the n x n grid cells by CDF inclusion-exclusion."""
        edges = np.arange(n + 1) / n
        cdf = self.cdf(edges[:, None], edges[None, :])
        return cdf[1:, 1:] - cdf[:-1, 1:] - cdf[1:, :-1] + cdf[:-1, :-1]

    def to_json(self, canonical: bool = False) -> dict:
        """JSON-ready dict; ``canonical`` asks for the form digests hash."""
        return {"type": self.type_name, **{f: getattr(self, f) for f in self.json_fields}}

    @classmethod
    def from_json(cls, obj: dict, depth: int) -> CopulaSpec:
        return cls(**{f: obj[f] for f in cls.json_fields})


@dataclass(frozen=True)
class Independence(CopulaSpec):
    """The independence copula Pi(x, y) = x*y."""

    type_name = "independence"

    def cdf(self, x, y):
        return x * y

    def cond_cdf(self, x, y):
        return np.broadcast_arrays(x, y)[1].astype(float) + 0.0 * x

    def ac_density(self, x: float, y: float) -> float:
        return 1.0

    def min_ac_density(self) -> float:
        return 1.0

    def cell_masses(self, n: int) -> np.ndarray:
        return np.full((n, n), 1.0 / (n * n))

    def step(self, x: float, decision: float, value: float) -> float:
        return value


@dataclass(frozen=True)
class HoeffdingLower(CopulaSpec):
    """The countermonotone copula W; all mass on the line y = 1 - x."""

    type_name = "w"

    def cdf(self, x, y):
        return np.maximum(x + y - 1.0, 0.0)

    def cond_cdf(self, x, y):
        return (y >= 1.0 - x).astype(float)

    def ac_density(self, x: float, y: float) -> float:
        return ON_SINGULAR if x + y == 1.0 else 0.0

    def cell_masses(self, n: int) -> np.ndarray:
        return np.fliplr(np.eye(n)) / n

    def step(self, x: float, decision: float, value: float) -> float:
        return 1.0 - x


@dataclass(frozen=True)
class HoeffdingUpper(CopulaSpec):
    """The comonotone copula M; all mass on the diagonal y = x."""

    type_name = "m"

    def cdf(self, x, y):
        return np.minimum(x, y)

    def cond_cdf(self, x, y):
        return (y >= x).astype(float)

    def ac_density(self, x: float, y: float) -> float:
        return ON_SINGULAR if x == y else 0.0

    def cell_masses(self, n: int) -> np.ndarray:
        return np.eye(n) / n

    def step(self, x: float, decision: float, value: float) -> float:
        return x


@dataclass(frozen=True)
class Frechet(CopulaSpec):
    """Convex combination a*W + b*M + (1 - a - b)*Pi.

    Requires a >= 0, b >= 0 and a + b <= 1. The family is closed under
    fold products; see :func:`frechet_fold_params`.
    """

    a: float
    b: float

    type_name = "frechet"
    json_fields = ("a", "b")

    def __post_init__(self) -> None:
        a = _require_number(self.a, "a")
        b = _require_number(self.b, "b")
        if a < 0.0:
            raise ValidationError(f"a >= 0 violated (got {a})")
        if b < 0.0:
            raise ValidationError(f"b >= 0 violated (got {b})")
        if a + b > 1.0 + WEIGHT_TOL:
            raise ValidationError(f"a + b <= 1 violated (got {a + b})")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def cdf(self, x, y):
        a, b = self.a, self.b
        return (
            a * np.maximum(x + y - 1.0, 0.0)
            + b * np.minimum(x, y)
            + (1.0 - a - b) * x * y
        )

    def cond_cdf(self, x, y):
        a, b = self.a, self.b
        return (
            a * (y >= 1.0 - x)
            + b * (y >= x)
            + (1.0 - a - b) * (y + 0.0 * x)
        )

    def ac_density(self, x: float, y: float) -> float:
        if self.b > 0.0 and x == y:
            return ON_SINGULAR
        if self.a > 0.0 and x + y == 1.0:
            return ON_SINGULAR
        return 1.0 - self.a - self.b

    def min_ac_density(self) -> float:
        return 1.0 - self.a - self.b

    def cell_masses(self, n: int) -> np.ndarray:
        # Linear in the three parts, so the masses stay float-exact where
        # the parts' closed-form grids are.
        a, b = self.a, self.b
        out = np.zeros((n, n))
        for w, part in (
            (a, HoeffdingLower()),
            (b, HoeffdingUpper()),
            (1.0 - a - b, Independence()),
        ):
            if w != 0.0:
                out += w * part.cell_masses(n)
        return out

    def step(self, x: float, decision: float, value: float) -> float:
        # Exact three-branch sampler: reflect with probability a, copy
        # with probability b, fresh uniform otherwise.
        if decision < self.a:
            return 1.0 - x
        if decision < self.a + self.b:
            return x
        return value


@dataclass(frozen=True, init=False)
class Mardia(Frechet):
    """One-parameter Frechet subfamily with weight sum a + b = theta^2.

    It is the Frechet member a = theta^2*(1-theta)/2,
    b = theta^2*(1+theta)/2 and behaves as one; only its JSON form
    (``"mardia"`` with ``theta``) is its own.
    """

    theta: float

    type_name = "mardia"
    json_fields = ("theta",)

    def __init__(self, theta: float) -> None:
        t = _require_number(theta, "theta")
        if abs(t) > 1.0:
            raise ValidationError(f"|theta| <= 1 violated (got {t})")
        object.__setattr__(self, "theta", t)
        super().__init__(a=t * t * (1.0 - t) / 2.0, b=t * t * (1.0 + t) / 2.0)

    def as_frechet(self) -> Frechet:
        return Frechet(a=self.a, b=self.b)


@dataclass(frozen=True)
class MarshallOlkin(CopulaSpec):
    """C(x, y) = min(x * y^(1-a), y * x^(1-b)) with 0 <= a, b <= 1.

    Absolutely continuous off the curve y^a = x^b, where a singular
    component lives whenever both parameters are positive. The AC
    density is (1-a)*y^(-a) where y^a > x^b and (1-b)*x^(-b) where
    y^a < x^b, hence bounded below by min(1-a, 1-b).
    """

    a: float
    b: float

    type_name = "marshall-olkin"
    json_fields = ("a", "b")

    def __post_init__(self) -> None:
        a = _require_number(self.a, "a")
        b = _require_number(self.b, "b")
        if not 0.0 <= a <= 1.0:
            raise ValidationError(f"0 <= a <= 1 violated (got {a})")
        if not 0.0 <= b <= 1.0:
            raise ValidationError(f"0 <= b <= 1 violated (got {b})")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def cdf(self, x, y):
        return np.minimum(x * y ** (1.0 - self.a), y * x ** (1.0 - self.b))

    def cond_cdf(self, x, y):
        a, b = self.a, self.b
        # On the curve y^a == x^b this takes the right limit: the single
        # atom of the conditional law at y* = x^(b/a) is included (cadlag).
        upper = y ** (1.0 - a) + 0.0 * x
        lower = (1.0 - b) * x ** (-b) * y
        return np.where(y**a >= x**b, upper, lower)

    def ac_density(self, x: float, y: float) -> float:
        a, b = self.a, self.b
        p = x**b
        q = y**a
        if p == q:
            # On the singular curve when it carries mass; otherwise the
            # parameters degenerate to independence along this locus.
            if a > 0.0 and b > 0.0:
                return ON_SINGULAR
            return 1.0
        if q > p:
            return (1.0 - a) * y ** (-a)
        return (1.0 - b) * x ** (-b)

    def min_ac_density(self) -> float:
        # Branch y^a > x^b (density (1-a)*y^-a, infimum 1-a) is hit only
        # when b > 0; symmetrically for the other branch. With a = b = 0
        # the copula degenerates to independence.
        candidates = []
        if self.b > 0.0:
            candidates.append(1.0 - self.a)
        if self.a > 0.0:
            candidates.append(1.0 - self.b)
        return min(candidates) if candidates else 1.0

    def step(self, x: float, decision: float, value: float) -> float:
        # Closed-form inverse of cond_cdf (Nelsen's conditional method):
        # the linear branch below the atom at y* = x^(b/a), the atom, then
        # y^(1-a) above it. Rounding up onto the k/2^53 lattice, to at
        # least 2^-53, keeps 1 - y exact, as for every other sampler.
        a, b = self.a, self.b
        if a == 0.0:
            return value
        atom = x ** (b / a)
        xb = x**b
        if b < 1.0 and value * xb <= (1.0 - b) * atom:
            y = value * xb / (1.0 - b)
        elif a == 1.0 or value <= atom ** (1.0 - a):
            y = atom
        else:
            y = value ** (1.0 / (1.0 - a))
        return max(math.ceil(y * 2.0**53), 1) / 2.0**53


@dataclass(frozen=True)
class Mixture(CopulaSpec):
    """Convex mixture of component copulas.

    Weights must be strictly positive and sum to 1 within 1e-12;
    components may nest (finitely).
    """

    weights: tuple[float, ...]
    components: tuple[CopulaSpec, ...]

    type_name = "mixture"
    json_fields = ("weights", "components")

    def __post_init__(self) -> None:
        weights = tuple(_require_number(w, "weight") for w in self.weights)
        components = tuple(self.components)
        if len(components) == 0:
            raise ValidationError("mixture components must be nonempty")
        if len(weights) != len(components):
            raise ValidationError(
                f"weights and components length mismatch "
                f"({len(weights)} vs {len(components)})"
            )
        for w in weights:
            if w <= 0.0:
                raise ValidationError(f"weights strictly positive violated (got {w})")
        total = math.fsum(weights)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValidationError(f"weights sum to 1 violated (got {total!r})")
        for c in components:
            if not isinstance(c, CopulaSpec):
                raise ValidationError(f"mixture component is not a copula spec: {c!r}")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "components", components)

    def _weighted_sum(self, part, shape) -> np.ndarray:
        out = np.zeros(shape)
        for w, comp in zip(self.weights, self.components):
            out += w * part(comp)
        return out

    def cdf(self, x, y):
        return self._weighted_sum(lambda c: c.cdf(x, y), np.broadcast(x, y).shape)

    def cond_cdf(self, x, y):
        return self._weighted_sum(lambda c: c.cond_cdf(x, y), np.broadcast(x, y).shape)

    def cell_masses(self, n: int) -> np.ndarray:
        return self._weighted_sum(lambda c: c.cell_masses(n), (n, n))

    def ac_density(self, x: float, y: float) -> float:
        total = 0.0
        for w, comp in zip(self.weights, self.components):
            d = comp.ac_density(x, y)
            if d == ON_SINGULAR:
                return ON_SINGULAR
            total += w * d
        return total

    def min_ac_density(self) -> float:
        # The weighted sum of component infima: a valid, possibly
        # conservative, lower bound.
        return math.fsum(
            w * comp.min_ac_density()
            for w, comp in zip(self.weights, self.components)
        )

    def step(self, x: float, decision: float, value: float) -> float:
        # The decision word picks a component and, rescaled to [0, 1),
        # serves again as that component's decision.
        low = 0.0
        last = len(self.components) - 1
        for i, (w, comp) in enumerate(zip(self.weights, self.components)):
            if decision < low + w or i == last:
                sub = (decision - low) / w
                sub = min(max(sub, 0.0), 1.0 - 2.0**-53)
                return comp.step(x, sub, value)
            low += w
        raise AssertionError("unreachable: weights sum to 1")

    def to_json(self, canonical: bool = False) -> dict:
        return {
            "type": self.type_name,
            "weights": list(self.weights),
            "components": [c.to_json(canonical) for c in self.components],
        }

    @classmethod
    def from_json(cls, obj: dict, depth: int) -> Mixture:
        weights = obj["weights"]
        components = obj["components"]
        if not isinstance(weights, list) or not isinstance(components, list):
            raise ValidationError("mixture 'weights' and 'components' must be lists")
        return cls(
            weights=tuple(_require_number(w, "weight") for w in weights),
            components=tuple(_spec_from_obj(c, depth + 1) for c in components),
        )


@dataclass(frozen=True, eq=False)
class GridSpec(CopulaSpec):
    """A copula given by cell masses on a uniform n x n grid.

    Cell (i, j), zero-indexed, covers (i/n, (i+1)/n] x (j/n, (j+1)/n].
    The measure is treated as uniform within each cell, so the CDF is
    the bilinear interpolation of the cumulative node values. This is
    also the grid type of the fold algebra (``grid.GridCopula``).
    ``path`` records the CSV origin when loaded from disk (needed to
    serialize); equality and the digest look at the masses only.

    Validation clamps rounding dust in (-1e-15, 0) to zero, rejects
    anything more negative, and checks total mass 1 and row/column sums
    1/n within 1e-12. The stored mass array is a read-only copy.
    """

    resolution: int
    masses: np.ndarray
    path: str | None = None

    type_name = "grid"
    json_fields = ("path",)

    def __post_init__(self) -> None:
        n = _require_int(self.resolution, "resolution", 2)
        arr = np.array(self.masses, dtype=float)
        if arr.shape != (n, n):
            raise ValidationError(f"mass matrix shape {arr.shape} does not match n={n}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("mass matrix contains non-finite entries")
        low = float(arr.min())
        if low < -CLAMP_TOL:
            raise ValidationError(
                f"cell mass below -1e-15 (got {low!r}); input is not 2-increasing"
            )
        np.maximum(arr, 0.0, out=arr)
        total = float(arr.sum())
        if abs(total - 1.0) > MARGINAL_TOL:
            raise ValidationError(f"total mass = 1 violated (got {total!r})")
        target = 1.0 / n
        row_err = float(np.abs(arr.sum(axis=1) - target).max())
        col_err = float(np.abs(arr.sum(axis=0) - target).max())
        if row_err > MARGINAL_TOL or col_err > MARGINAL_TOL:
            raise ValidationError(
                f"uniform marginals violated (row dev {row_err!r}, col dev {col_err!r})"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "masses", arr)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GridSpec)
            and self.resolution == other.resolution
            and np.array_equal(self.masses, other.masses)
        )

    def densities(self) -> np.ndarray:
        """Cell densities n^2 * masses (the discrete stand-in for c(x, y))."""
        n = self.resolution
        return (n * n) * self.masses

    def cdf(self, x, y):
        n = self.resolution
        nodes = np.zeros((n + 1, n + 1))
        nodes[1:, 1:] = self.masses.cumsum(axis=0).cumsum(axis=1)
        xb, yb = np.broadcast_arrays(x, y)
        tx = xb * n
        ty = yb * n
        i = np.clip(np.floor(tx).astype(int), 0, n - 1)
        j = np.clip(np.floor(ty).astype(int), 0, n - 1)
        u = tx - i
        v = ty - j
        return (
            nodes[i, j] * (1.0 - u) * (1.0 - v)
            + nodes[i + 1, j] * u * (1.0 - v)
            + nodes[i, j + 1] * (1.0 - u) * v
            + nodes[i + 1, j + 1] * u * v
        )

    def cond_cdf(self, x, y):
        n = self.resolution
        xb, yb = np.broadcast_arrays(x, y)
        i = np.clip(np.ceil(xb * n).astype(int) - 1, 0, n - 1)
        j = np.clip((yb * n).astype(int), 0, n - 1)
        rowcum = np.zeros((n, n + 1))
        rowcum[:, 1:] = self.masses.cumsum(axis=1)
        v = yb * n - j
        out = n * (rowcum[i, j] + v * self.masses[i, j])
        return np.minimum(out, 1.0)

    def ac_density(self, x: float, y: float) -> float:
        raise ValidationError(
            "density of a grid spec is piecewise by construction; "
            "read cell masses from copula_lab.grid instead"
        )

    def min_ac_density(self) -> float:
        n = self.resolution
        return n * n * float(self.masses.min())

    def cell_masses(self, n: int) -> np.ndarray:
        if n == self.resolution:
            return self.masses.copy()
        return super().cell_masses(n)

    @cached_property
    def _row_cdf(self) -> np.ndarray:
        # Each row's conditional CDF at the cell edges, built once on the
        # first step.
        return np.cumsum(self.resolution * self.masses, axis=1)

    def step(self, x: float, decision: float, value: float) -> float:
        n = self.resolution
        i = min(max(math.ceil(x * n) - 1, 0), n - 1)
        j = min(int(np.searchsorted(self._row_cdf[i], decision, side="right")), n - 1)
        return (j + value) / n

    def to_json(self, canonical: bool = False) -> dict:
        # The canonical form stands for the cell masses, so a digest
        # follows the file's content rather than its name.
        if canonical:
            digest = hashlib.sha256(self.masses.tobytes()).hexdigest()
            return {"type": self.type_name, "n": self.resolution, "masses_sha256": digest}
        if self.path is None:
            raise ValidationError("in-memory grid spec has no file path to serialize")
        return {"type": self.type_name, "path": self.path}

    @classmethod
    def from_json(cls, obj: dict, depth: int) -> GridSpec:
        path = obj["path"]
        if not isinstance(path, str):
            raise ValidationError("grid 'path' must be a string")
        n, masses = read_mass_csv(path)
        return cls(resolution=n, masses=masses, path=path)


# ---------------------------------------------------------------------------
# Pointwise evaluation


def _check_unit_range(arr: np.ndarray, name: str) -> None:
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValidationError(f"{name} must lie in [0, 1]")


def eval_cdf(spec: CopulaSpec, x, y):
    """Evaluate C(x, y). Accepts scalars or broadcastable arrays in [0, 1]."""
    _require_spec(spec)
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    _check_unit_range(xa, "x")
    _check_unit_range(ya, "y")
    out = np.asarray(spec.cdf(xa, ya))
    if out.ndim == 0:
        return float(out)
    return out


def eval_ac_density(spec: CopulaSpec, x: float, y: float) -> float:
    """Density of the absolutely continuous part at an interior point.

    Returns ``ON_SINGULAR`` when (x, y) lands exactly on a singular
    support line (the diagonals for Frechet-type families, the curve
    y^a = x^b for Marshall-Olkin).
    """
    _require_spec(spec)
    x = _require_number(x, "x")
    y = _require_number(y, "y")
    if not (0.0 < x < 1.0 and 0.0 < y < 1.0):
        raise ValidationError("(x, y) must lie in the open unit square")
    return spec.ac_density(x, y)


def conditional_cdf(spec: CopulaSpec, x, y):
    """P(X1 <= y | X0 = x), nondecreasing and right-continuous in y.

    ``x`` must lie in the open interval (0, 1); ``y`` in [0, 1]. Inputs
    broadcast; scalar inputs give a float.
    """
    _require_spec(spec)
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if not np.all((xa > 0.0) & (xa < 1.0)):
        raise ValidationError("x must lie in (0, 1)")
    _check_unit_range(ya, "y")
    out = np.asarray(spec.cond_cdf(xa, ya))
    if out.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Frechet fold-power parameters


@dataclass(frozen=True)
class FrechetParams:
    """Lag-n parameters (a_n, b_n) of a Frechet family member."""

    a_n: float
    b_n: float
    n: int

    def __post_init__(self) -> None:
        _require_int(self.n, "lag n")
        if self.a_n < 0.0 or self.b_n < 0.0:
            raise ValidationError(
                f"a_n, b_n >= 0 violated (got {self.a_n!r}, {self.b_n!r})"
            )
        if self.a_n + self.b_n > 1.0 + WEIGHT_TOL:
            raise ValidationError(
                f"a_n + b_n <= 1 violated (got {self.a_n + self.b_n!r})"
            )


def frechet_fold_params(a: float, b: float, n: int) -> FrechetParams:
    """Parameters of the n-step fold power of Frechet(a, b).

    a_n = ((a+b)^n - (b-a)^n) / 2 and b_n = ((a+b)^n + (b-a)^n) / 2,
    the closed form of the recursion a_{k+1} = a*b_k + b*a_k,
    b_{k+1} = a*a_k + b*b_k; in particular a_n + b_n = (a+b)^n.
    """
    Frechet(a, b)  # parameter validation
    _require_int(n, "lag n")
    s = (a + b) ** n
    d = (b - a) ** n
    a_n = max(0.0, (s - d) / 2.0)
    b_n = (s + d) / 2.0
    return FrechetParams(a_n=a_n, b_n=b_n, n=n)


# ---------------------------------------------------------------------------
# JSON serialization
#
# Schema: {"type": <a registered type_name>} with the class's json_fields
# as sibling fields ("a"/"b", "theta", "weights"+"components", "path").
# Unknown fields are rejected.

_REGISTRY = {
    cls.type_name: cls
    for cls in (
        Independence,
        HoeffdingLower,
        HoeffdingUpper,
        Frechet,
        Mardia,
        MarshallOlkin,
        Mixture,
        GridSpec,
    )
}


def serialize_spec(spec: CopulaSpec) -> dict:
    """Spec as a plain JSON-ready dict (inverse of :func:`parse_spec`)."""
    _require_spec(spec)
    return spec.to_json()


def read_mass_csv(path: str) -> tuple[int, np.ndarray]:
    """Read the grid CSV format: first line n, then n rows of n masses."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [line.strip() for line in fh if line.strip() != ""]
    except OSError as exc:
        raise ValidationError(f"cannot read grid file {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"grid file {path!r} is not ASCII text: {exc}") from exc
    if not lines:
        raise ValidationError(f"grid file {path!r} is empty")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ValidationError(
            f"grid file {path!r}: first line must be the resolution"
        ) from exc
    if len(lines) != n + 1:
        raise ValidationError(
            f"grid file {path!r}: expected {n} mass rows, found {len(lines) - 1}"
        )
    rows = []
    for k, line in enumerate(lines[1:], start=1):
        parts = line.split(",")
        if len(parts) != n:
            raise ValidationError(
                f"grid file {path!r}: row {k} has {len(parts)} entries, expected {n}"
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ValidationError(
                f"grid file {path!r}: row {k} has a non-numeric entry"
            ) from exc
    return n, np.array(rows)


def _spec_from_obj(obj, depth: int = 0) -> CopulaSpec:
    if not isinstance(obj, dict):
        raise ValidationError(f"spec must be a JSON object, got {type(obj).__name__}")
    if depth > MAX_SPEC_DEPTH:
        raise ValidationError(f"spec nests deeper than {MAX_SPEC_DEPTH} mixture levels")
    kind = obj.get("type")
    if kind is None:
        raise ValidationError("spec is missing the 'type' field")
    if not isinstance(kind, str) or kind not in _REGISTRY:
        raise ValidationError(
            f"unknown spec type {kind!r}; expected one of {sorted(_REGISTRY)}"
        )
    cls = _REGISTRY[kind]
    extra = set(obj) - {"type"} - set(cls.json_fields)
    if extra:
        raise ValidationError(f"unknown field(s) for type {kind!r}: {sorted(extra)}")
    missing = set(cls.json_fields) - set(obj)
    if missing:
        raise ValidationError(f"missing field(s) for type {kind!r}: {sorted(missing)}")
    return cls.from_json(obj, depth)


def parse_spec(text: str) -> CopulaSpec:
    """Parse and validate a JSON copula spec document."""
    try:
        obj = json.loads(text)
    except RecursionError as exc:
        raise ValidationError(
            f"spec nests deeper than {MAX_SPEC_DEPTH} mixture levels"
        ) from exc
    return _spec_from_obj(obj)


def spec_to_json(spec: CopulaSpec) -> str:
    return json.dumps(serialize_spec(spec), indent=2) + "\n"


def canonical_spec_json(spec: CopulaSpec) -> str:
    """Canonical form: sorted keys, no insignificant whitespace.

    Grid specs appear by resolution and a SHA-256 of their cell masses
    instead of by file path.
    """
    _require_spec(spec)
    return json.dumps(spec.to_json(canonical=True), sort_keys=True, separators=(",", ":"))


def spec_digest(spec: CopulaSpec) -> str:
    """SHA-256 of the canonical JSON; stable across re-serialization."""
    return hashlib.sha256(canonical_spec_json(spec).encode("ascii")).hexdigest()
