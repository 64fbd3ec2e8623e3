"""Grid-sampled radial profiles and coupled-system descriptions.

Everything in this package works on the uniform grid t_j = j/(M-1) over
[0, 1], where t is the radial coordinate on the unit ball.  A system couples
n >= 2 unknowns cyclically: equation i has Hessian degree k_i and a forcing
term f_i(t, v) evaluated on the next unknown v_{i+1} (indices wrap around).
Forcing terms come from the finite family

    f(t, v) = sum_j  c_j * t**p_j * v**gamma_j,   c_j, p_j, gamma_j >= 0,

with the convention 0**0 = 1 so constant terms survive at t = 0 and v = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "GridFunction",
    "NonlinearitySpec",
    "PowerSystemSpec",
    "SolutionBundle",
    "SystemSpec",
    "UNIT_RATIO_TOL",
    "eval_nonlinearity",
    "grid_points",
    "sup_norm",
    "unit_ratio_sign",
]


@lru_cache(maxsize=64)
def grid_points(M: int) -> np.ndarray:
    """Uniform grid t_j = j/(M-1) on [0, 1], cached and locked read-only."""
    t = np.linspace(0.0, 1.0, M)
    t.flags.writeable = False
    return t


class NonFiniteError(ValueError):
    """Grid samples that are not all finite, such as an overflowed operator output."""


def _grid_samples(values) -> np.ndarray:
    """values as a float array, or the ValueError a GridFunction raises for them."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or vals.size < 3:
        raise ValueError("a grid function needs a 1-d array with at least 3 samples")
    if not np.isfinite(vals).all():
        raise NonFiniteError("grid function samples must be finite")
    return vals


@dataclass(frozen=True)
class GridFunction:
    """Scalar samples on the uniform grid; immutable once constructed."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = _grid_samples(self.values).copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def grid_size(self) -> int:
        return self.values.size


def _values(v: GridFunction | np.ndarray) -> np.ndarray:
    return v.values if isinstance(v, GridFunction) else np.asarray(v, dtype=float)


def sup_norm(v: GridFunction | np.ndarray) -> float:
    """Max of |v| over the grid."""
    return float(np.abs(_values(v)).max())


@dataclass(frozen=True)
class NonlinearitySpec:
    """Finite sum f(t, v) = sum c * t**p * v**gamma with nonnegative data.

    terms keeps the given terms with c > 0, in order: a term with c = 0
    never contributes, so it is dropped.  At least one positive coefficient
    is required so the forcing is not identically zero.
    """

    terms: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        cleaned = []
        for term in self.terms:
            if len(term) != 3:
                raise ValueError("each term must be a (c, p, gamma) triple")
            c, p, g = (float(x) for x in term)
            if not all(map(math.isfinite, (c, p, g))) or min(c, p, g) < 0:
                raise ValueError(f"term {term!r} must have finite nonnegative entries")
            cleaned.append((c, p, g))
        terms = tuple(term for term in cleaned if term[0] > 0)
        if not terms:
            raise ValueError("at least one term needs a positive coefficient")
        object.__setattr__(self, "terms", terms)

    @property
    def vanishes_at_zero(self) -> bool:
        """True iff f(t, 0) = 0 for every t, i.e. all exponents are positive."""
        return all(g > 0 for _, _, g in self.terms)


def _bind_terms(f: NonlinearitySpec, t) -> tuple[tuple[float, float, object], ...]:
    """f's terms as (gamma, c, weight) with weight = c * t**p, None where p = 0.

    The weight is t**p itself when c = 1 (c * x = x is exact then).  An
    operator program binds each forcing once per plan, so a composite
    computes no t**p; eval_nonlinearity binds on every call.
    """
    bound = []
    for c, p, g in f.terms:
        weight = None
        if p != 0:
            weight = np.power(t, p)
            if c != 1.0:
                weight = c * weight
        bound.append((g, c, weight))
    return tuple(bound)


def _sum_terms(terms: tuple[tuple[float, float, object], ...], v):
    """sum over _bind_terms' triples of c * t**p * v**gamma: the term arithmetic.

    A term is weight * v**gamma, or v**gamma times c in place where p = 0,
    with the factor skipped when c = 1, and the sum starts from the first
    term rather than from zeros: c * 1.0 = c, 1.0 * x = x and 0.0 + x = x
    for x >= 0, so all are exact.  An array result is always a new array,
    never v itself: v**gamma is computed even at gamma = 1.  v is not
    checked here; callers guarantee v >= 0.
    """
    out = None
    for g, c, weight in terms:
        term = np.power(v, g)
        if weight is not None:
            term = weight * term
        elif c != 1.0:
            term *= c
        out = term if out is None else out + term
    return out


def eval_nonlinearity(f: NonlinearitySpec, t, v):
    """Evaluate f(t, v) elementwise with the 0**0 = 1 convention.

    Negative v samples are a domain error: the family is only defined on
    v >= 0 and fractional exponents would otherwise produce complex values.
    Scalar inputs give a float back; array inputs broadcast.  The terms are
    bound to t and summed by _sum_terms, the arithmetic every operator
    program runs too.
    """
    t_arr = np.asarray(t, dtype=float)
    v_arr = np.asarray(v, dtype=float)
    if (v_arr < 0).any():
        raise ValueError("eval_nonlinearity requires v >= 0")
    out = _sum_terms(_bind_terms(f, t_arr), v_arr)
    if t_arr.shape != v_arr.shape:
        shape = np.broadcast_shapes(t_arr.shape, v_arr.shape)
        if np.shape(out) != shape:  # every term is t-free and t has the larger shape
            out = np.zeros(shape) + out
    if np.ndim(out) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class SystemSpec:
    """Coupled system: n equations of degree k_i with forcings f_i on the unit ball in R^N."""

    N: int
    k: tuple[int, ...]
    f: tuple[NonlinearitySpec, ...]

    def __post_init__(self) -> None:
        if self.N < 2:
            raise ValueError("ambient dimension N must be at least 2")
        k = tuple(int(x) for x in self.k)
        if len(k) < 2:
            raise ValueError("a system couples at least two equations")
        if any(ki < 1 or ki > self.N for ki in k):
            raise ValueError(f"each degree must satisfy 1 <= k_i <= N, got {k}")
        f = tuple(self.f)
        if len(f) != len(k):
            raise ValueError("need exactly one forcing per equation")
        if not all(isinstance(fi, NonlinearitySpec) for fi in f):
            raise ValueError("forcings must be NonlinearitySpec instances")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "f", f)

    @property
    def n(self) -> int:
        return len(self.k)

    @property
    def gamma(self) -> tuple[float, ...] | None:
        """Exponent gamma_i > 0 shared by every term of f_i, else None.

        Set exactly when each forcing is sum_j c_j t^{p_j} v^{gamma_i}, so
        f_i(t, s v) = s^{gamma_i} f_i(t, v) whatever the coefficients and
        t-weights; None when a forcing mixes exponents or is free of v.
        This is the one homogeneity test: the rescale, sublinearity_check,
        chain_contraction_bound, the lambda_* helpers and the scenario
        gates all read it.
        """
        gamma = []
        for f in self.f:
            exponents = {g for _, _, g in f.terms}
            if len(exponents) != 1 or 0.0 in exponents:
                return None
            gamma.extend(exponents)
        return tuple(gamma)

    @property
    def homogeneity_ratio(self) -> float | None:
        """prod(gamma) / prod(k); the composite map scales norms by this power.

        None unless gamma is set.
        """
        gamma = self.gamma
        if gamma is None:
            return None
        return float(np.prod(gamma) / np.prod(self.k))


UNIT_RATIO_TOL = 1e-12  # homogeneity ratios this close to 1 count as 1


def unit_ratio_sign(ratio: float) -> int:
    """-1 below 1, 0 within UNIT_RATIO_TOL of 1, +1 above.

    The one place a homogeneity ratio (or an exponent product over the
    degree product) is compared with 1: below is the sublinear regime,
    0 the critical one, above the superlinear one.
    """
    if abs(ratio - 1.0) <= UNIT_RATIO_TOL:
        return 0
    return -1 if ratio < 1.0 else 1


def _power_exponents(spec: SystemSpec, what: str) -> tuple[float, ...]:
    """spec.gamma, or a ValueError: `what` needs one exponent per equation."""
    gamma = spec.gamma
    if gamma is None:
        raise ValueError(f"{what} needs one exponent per equation (c t**p v**gamma_i)")
    return gamma


def PowerSystemSpec(N: int, k: tuple[int, ...], gamma: tuple[float, ...]) -> SystemSpec:
    """Pure-power system: the SystemSpec whose forcing of equation i is v**gamma_i."""
    gamma = tuple(float(g) for g in gamma)
    if len(gamma) != len(k):
        raise ValueError("need exactly one exponent per equation")
    if any(g <= 0 or not math.isfinite(g) for g in gamma):
        raise ValueError("exponents must be positive and finite")
    return SystemSpec(N, k, tuple(NonlinearitySpec(((1.0, 0.0, g),)) for g in gamma))


@dataclass(frozen=True)
class SolutionBundle:
    """A candidate solution: one nonnegative profile per unknown.

    Profiles may be given as GridFunctions or raw arrays (a composite's
    chain); raw arrays are wrapped.  Diagnostics are not stored here;
    verify_solution computes them.
    """

    v: tuple[GridFunction, ...]
    spec: SystemSpec

    def __post_init__(self) -> None:
        v = tuple(
            vi if isinstance(vi, GridFunction) else GridFunction(vi) for vi in self.v
        )
        if len(v) != self.spec.n:
            raise ValueError("bundle needs one profile per equation")
        sizes = {vi.grid_size for vi in v}
        if len(sizes) != 1:
            raise ValueError("all profiles must share one grid")
        for i, vi in enumerate(v):
            if vi.values[-1] != 0.0:
                raise ValueError(f"profile {i + 1} must vanish at t = 1 exactly")
            if np.min(vi.values) < 0:
                raise ValueError(f"profile {i + 1} must be nonnegative")
        object.__setattr__(self, "v", v)

    @property
    def grid_size(self) -> int:
        return self.v[0].grid_size
