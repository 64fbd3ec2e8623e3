"""Integral solution operators and discrete radial Hessians.

The radial reduction of the k-Hessian equation on the unit ball turns each
equation into a one-dimensional two-point problem.  Writing v = -u for the
transformed unknown, the solution operator for equation i is

    A_i(v)(t) = integral_t^1 ( (k_i / tau^{N-k_i})
                  * integral_0^tau s^{N-1} f_i(s, v(s)) / C(N-1, k_i-1) ds
                )^{1/k_i} dtau,

and the coupled system is solved by fixed points of the cyclic composition
A_1(A_2(...A_n(v)...)).  The outer integral uses the composite trapezoid
rule on the shared uniform grid; the inner one integrates the monomial
weight s^{N-1} exactly against piecewise-linear f (see weighted_cumulative
for why plain trapezoid is not an option there).  The inner cumulative
integral behaves like tau^N near the origin, which cancels the
tau^{-(N-k)} weight, so the integrand of the outer integral extends
continuously by 0 to tau = 0.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import (
    GridFunction,
    NonFiniteError,
    SystemSpec,
    _bind_terms,
    _grid_samples,
    _sum_terms,
    _values,
    grid_points,
)

__all__ = [
    "QuadratureTable",
    "apply_composite",
    "apply_operator",
    "hessian_eigenvalues",
    "radial_hessian",
]

# Round-off floor: inner trapezoid sums of a nonnegative integrand may dip
# this far below zero; anything lower signals a genuinely negative forcing.
NEGATIVE_ROUNDOFF_FLOOR = -1e-14


class _Equation(NamedTuple):
    """One equation of an operator program: everything A_i needs but its input.

    terms are the forcing's _bind_terms triples on the plan's grid (c t**p
    only where p > 0), power = N - 1 the weight power of the inner
    integral, C = C(N-1, k-1), inv_k = 1/k, and divisor the slice
    t**(N-k)[1:] the core is divided by, None where N = k.
    """

    terms: tuple[tuple[float, float, object], ...]
    power: int
    C: int
    k: int
    inv_k: float
    divisor: np.ndarray | None


class QuadratureTable:
    """Quadrature plan on one grid, and the operator program bound to it.

    The panel weights of each weight power and the powers t**(N-k) the
    operators divide by are computed on first use and kept on the instance,
    so every operator that uses the plan shares them.  The first composite
    that meets a system binds it into an operator program (program), which
    the plan keeps for its later composites.  Each solver call builds one
    plan on entry, passes it to every composite it makes and drops it, with
    its program, on return; nothing caches a plan or a program beyond that
    call: with a one-entry plan cache keyed on M, the fine_grid benchmark's
    peak RSS rose from 48.4 to 57.8 MB, far past its 5% bound.
    """

    __slots__ = ("M", "h", "t", "_powers", "_weights", "_bound")

    def __init__(self, M: int):
        if M < 3:
            raise ValueError("quadrature grid needs at least 3 points")
        self.M = M
        self.h = 1.0 / (M - 1)
        self.t = grid_points(M)
        self._powers: dict[int, np.ndarray] = {}
        self._weights: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._bound: tuple[SystemSpec, tuple[_Equation, ...]] | None = None

    def program(self, spec: SystemSpec) -> tuple[_Equation, ...]:
        """spec bound to this plan: one _Equation per equation, in cycle order.

        Equation n comes first, as the composite applies it first.  Built
        when the plan first meets spec and kept for the plan's next
        composites; a plan that meets another spec binds that one in its
        place.
        """
        bound = self._bound
        if bound is None or bound[0] is not spec:
            N = spec.N
            program = tuple(
                _Equation(
                    _bind_terms(f, self.t),
                    N - 1,
                    math.comb(N - 1, k - 1),
                    k,
                    1.0 / k,
                    None if N == k else self.power(N - k)[1:],
                )
                for k, f in zip(reversed(spec.k), reversed(spec.f))
            )
            bound = self._bound = (spec, program)
        return bound[1]

    def power(self, e: int) -> np.ndarray:
        """t**e on the grid."""
        out = self._powers.get(e)
        if out is None:
            out = self._powers[e] = self.t ** e
        return out

    def tail(self, y: np.ndarray) -> np.ndarray:
        """Trapezoid integral from t_j to 1 for every j; last entry exactly 0.

        The panel sums h * (y_j + y_{j+1}) / 2 are formed and accumulated in
        place, in that order of operations.
        """
        cum = np.empty(self.M)
        cum[0] = 0.0
        panels = cum[1:]
        np.add(y[1:], y[:-1], out=panels)
        panels *= self.h
        panels /= 2.0
        panels.cumsum(out=panels)
        return cum[-1] - cum

    def _panel_weights(self, power: int) -> tuple[np.ndarray, np.ndarray]:
        """Weights of the left and right panel values for the weight s**power."""
        weights = self._weights.get(power)
        if weights is None:
            # not kept: a plan lives through a whole solver call, and holding
            # these two arrays too raised fine_grid peak RSS by about 0.3 MB
            p1 = self.t ** (power + 1)
            p2 = self.t ** (power + 2)
            s0 = self.t[:-1]
            s1 = self.t[1:]
            dp = (p1[1:] - p1[:-1]) / (power + 1)
            dp1 = (p2[1:] - p2[:-1]) / (power + 2)
            weights = self._weights[power] = (
                (s1 * dp - dp1) / self.h,
                (dp1 - s0 * dp) / self.h,
            )
        return weights

    def weighted_cumulative(self, y: np.ndarray, power: int) -> np.ndarray:
        """Integral of s**power * y(s) from 0 to t_j; exact in the weight.

        y is interpolated linearly per panel and the monomial weight is
        integrated against it in closed form.  Plain trapezoid is off by an
        O(1) relative factor on the first panels whenever power >= 2 (the
        weight's curvature dominates there), and differentiating the result
        turns that into a residual spike at the origin that never decays
        with the grid, so the weight must be handled exactly.  The panel
        integrals are formed and accumulated in place in the returned array.
        """
        left, right = self._panel_weights(power)
        out = np.empty(self.M)
        out[0] = 0.0
        panels = out[1:]
        np.multiply(left, y[:-1], out=panels)
        panels += right * y[1:]
        panels.cumsum(out=panels)
        return out


def _checked_input(v: GridFunction | np.ndarray) -> np.ndarray:
    """Samples of an operator input: finite, on a grid, and nonnegative.

    The samples are finite by then, so min() < 0 is exactly any sample < 0.
    """
    vals = v.values if isinstance(v, GridFunction) else _grid_samples(v)
    if vals.min() < 0:
        raise ValueError("operator input must be nonnegative")
    return vals


def _run(plan: QuadratureTable, eq: _Equation, vals: np.ndarray) -> np.ndarray:
    """A_i on finite nonnegative samples, using plan's quadrature.

    y = max(core, 0)**(1/k), core = k * (inner / C) / t**(N-k), skips only
    exact identities: the division by C = C(N-1, k-1) when C = 1, the factor
    k and the power 1/k when k = 1, and the division by t**0 = 1.0 when
    N = k, so every sample keeps its bits.

    The output is tail's cum[-1] - cum, cum a sequential cumsum of panels
    h (y_j + y_{j+1}) / 2 with y = max(core, 0)**(1/k) >= 0.  Rounding is
    monotone, so a finite cum is nondecreasing and the output nonnegative
    and nonincreasing, its maximum w[0] = cum[-1].  A NaN or inf among the
    panels makes every later partial sum NaN or inf, so the output is
    finite exactly when w[0] is: that one scalar is its finiteness check
    (NonFiniteError, a ValueError).  It is made on every output, not only
    the last: a v-free term would turn an overflowed inf into v**0 = 1.

    The forcing is nonnegative wherever it is finite, so core falls below
    NEGATIVE_ROUNDOFF_FLOOR only through rounding in the panel weights.
    core.min() equals the smallest sample unless core holds a NaN, where
    it is NaN; so a min() at or above the floor clears every sample, and
    only a NaN min() falls back to comparing each sample.  That raises on
    exactly the samples where a comparison alone would: a NaN cannot hide
    a value below the floor.
    """
    terms, power, C, k, inv_k, divisor = eq
    inner = plan.weighted_cumulative(_sum_terms(terms, vals), power)
    if C != 1:
        inner /= C

    # inner ~ tau^N, so the ratio extends by 0 at the origin.  core is a
    # second array and y = max(core, 0)**(1/k) a third, the clip's own, so
    # k = 1 skips the power and still allocates what it did: with either
    # array gone, the fine_grid benchmark's heap peak no longer reached
    # glibc's trim threshold and its peak_rss_mb rose from 45.5 to 48.6 MB
    core = np.empty_like(inner)
    core[0] = 0.0
    if k == 1:
        np.divide(inner[1:], divisor, out=core[1:])
    else:
        np.multiply(k, inner[1:], out=core[1:])
        if divisor is not None:
            core[1:] /= divisor
    if not core.min() >= NEGATIVE_ROUNDOFF_FLOOR and (core < NEGATIVE_ROUNDOFF_FLOOR).any():
        raise ValueError("inner integral went negative beyond round-off")
    y = np.maximum(core, 0.0)
    if k != 1:
        y **= inv_k
    w = plan.tail(y)
    if not math.isfinite(w[0]):
        raise NonFiniteError("grid function samples must be finite")
    return w


def apply_operator(spec: SystemSpec, i: int, v: GridFunction | np.ndarray) -> GridFunction:
    """Solution operator of equation i (1-based) applied to the profile v.

    v plays the role of the next unknown in the cycle.  The output vanishes
    at t = 1 exactly and is nonincreasing, since its first derivative is
    -(weighted inner integral)^{1/k} <= 0.  It is concave when k = N, but
    for k < N the second derivative at t = 1 flips to +((N-k)/k) g(1) > 0
    whenever the forcing vanishes there, so concavity is not guaranteed.
    Negative or non-finite input samples are rejected, and so is a
    non-finite output (NonFiniteError).  It runs equation i of the
    program apply_composite runs, bound to a fresh plan.
    """
    if not 1 <= i <= spec.n:
        raise ValueError(f"equation index {i} outside 1..{spec.n}")
    vals = _checked_input(v)
    plan = QuadratureTable(vals.size)
    return GridFunction(_run(plan, plan.program(spec)[spec.n - i], vals))


def apply_composite(
    spec: SystemSpec, v1: GridFunction | np.ndarray, *, plan: QuadratureTable | None = None
) -> tuple[np.ndarray, ...]:
    """Cyclic composition: equation n's operator first, then n-1, ..., then 1.

    Feeding v1 (the profile coupled to equation n) through the whole cycle
    returns the chain (w1, ..., wn) of all operator outputs as raw arrays:
    wn is the innermost application and w1 the updated first unknown, and a
    SolutionBundle wraps them.  The operators share one quadrature plan and
    pass raw arrays between them.  That plan is the given one, which a
    solver reuses across its composites (a plan on another grid size is a
    ValueError), or else a fresh one; the composite runs the operator
    program bound to it (QuadratureTable.program), which the plan keeps
    until the solver drops it.

    Checks, each where the kernel needs it: v1, a GridFunction or a raw
    array, is checked once for finite nonnegative samples (ValueError).
    Each operator output is nonnegative by construction (_run), so it
    feeds the next operator unchecked.  Each output's finiteness is read
    off its first sample, w[0] = max w (NonFiniteError, a ValueError).
    """
    w = _checked_input(v1)
    if plan is None:
        plan = QuadratureTable(w.size)
    elif plan.M != w.size:
        raise ValueError(f"quadrature plan has M = {plan.M}, input has {w.size} samples")
    chain: list[np.ndarray] = []
    for eq in plan.program(spec):
        w = _run(plan, eq, w)
        chain.append(w)
    return tuple(reversed(chain))


def _derivatives(u: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Second-order first and second derivatives with one-sided closures.

    The origin uses the even extension u(-t) = u(t) of a radial profile:
    u'(0) = 0 and u''(0) = 2(u_1 - u_0)/h^2.  The right endpoint uses
    standard one-sided second-order stencils.  Exact on quadratics.
    """
    up = np.empty_like(u)
    upp = np.empty_like(u)
    up[1:-1] = (u[2:] - u[:-2]) / (2 * h)
    upp[1:-1] = (u[2:] - 2 * u[1:-1] + u[:-2]) / h**2
    up[0] = 0.0
    upp[0] = 2.0 * (u[1] - u[0]) / h**2
    up[-1] = (3 * u[-1] - 4 * u[-2] + u[-3]) / (2 * h)
    upp[-1] = (2 * u[-1] - 5 * u[-2] + 4 * u[-3] - u[-4]) / h**2
    return up, upp


def hessian_eigenvalues(u: GridFunction) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (u'', u'/t) on the grid; the radial Hessian's eigenvalue pair.

    In R^N the second array carries multiplicity N-1.  At t = 0 both
    entries reduce to u''(0) by symmetry.
    """
    vals = _values(u)
    if vals.size < 5:
        raise ValueError("need at least 5 grid points for the derivative stencils")
    h = 1.0 / (vals.size - 1)
    t = grid_points(vals.size)
    up, upp = _derivatives(vals, h)
    ratio = np.empty_like(up)
    ratio[0] = upp[0]
    ratio[1:] = up[1:] / t[1:]
    return upp, ratio


def _symmetric_function(a: np.ndarray, b: np.ndarray, l: int, N: int) -> np.ndarray:
    """l-th elementary symmetric function of the eigenvalues (a, b, ..., b) in R^N.

    b has multiplicity N-1, so the value is C(N-1,l-1) a b^{l-1} + C(N-1,l) b^l;
    math.comb gives C(N-1, N) = 0, which the l = N case needs.
    """
    return math.comb(N - 1, l - 1) * a * b ** (l - 1) + math.comb(N - 1, l) * b**l


def radial_hessian(u: GridFunction, k: int, N: int) -> GridFunction:
    """Discrete k-Hessian of a radial profile u on the unit ball in R^N.

    Evaluates C(N-1,k-1) u'' (u'/t)^{k-1} + C(N-1,k) (u'/t)^k with central
    differences inside and second-order one-sided closures at both ends; at
    the origin all Hessian eigenvalues coincide with u''(0), so the value is
    C(N,k) u''(0)^k.
    """
    if not 1 <= k <= N:
        raise ValueError(f"degree must satisfy 1 <= k <= N, got k={k}, N={N}")
    upp, ratio = hessian_eigenvalues(u)
    return GridFunction(_symmetric_function(upp, ratio, k, N))
