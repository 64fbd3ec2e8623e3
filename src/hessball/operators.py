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

import numpy as np

from .core import (
    GridFunction,
    SystemSpec,
    _grid_samples,
    _values,
    eval_nonlinearity,
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


class QuadratureTable:
    """Quadrature plan on one grid: weighted cumulative and tail trapezoid sums.

    Powers of t and the panel weights of each weight power are computed on
    first use and kept on the instance, so every operator of one composite
    shares them.  Plans are built per composite, never cached across calls:
    with a one-entry plan cache keyed on M, the fine_grid benchmark's peak
    RSS rose from 48.4 to 57.8 MB, far past its 5% bound.
    """

    __slots__ = ("M", "h", "t", "_powers", "_weights")

    def __init__(self, M: int):
        if M < 3:
            raise ValueError("quadrature grid needs at least 3 points")
        self.M = M
        self.h = 1.0 / (M - 1)
        self.t = grid_points(M)
        self._powers: dict[int, np.ndarray] = {}
        self._weights: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def power(self, e: int) -> np.ndarray:
        """t**e on the grid."""
        out = self._powers.get(e)
        if out is None:
            out = self._powers[e] = self.t ** e
        return out

    def tail(self, y: np.ndarray) -> np.ndarray:
        """Trapezoid integral from t_j to 1 for every j; last entry exactly 0."""
        cum = np.empty(self.M)
        cum[0] = 0.0
        (self.h * (y[1:] + y[:-1]) / 2.0).cumsum(out=cum[1:])
        return cum[-1] - cum

    def _panel_weights(self, power: int) -> tuple[np.ndarray, np.ndarray]:
        """Weights of the left and right panel values for the weight s**power."""
        weights = self._weights.get(power)
        if weights is None:
            p1 = self.power(power + 1)
            p2 = self.power(power + 2)
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
        with the grid, so the weight must be handled exactly.
        """
        left, right = self._panel_weights(power)
        out = np.empty(self.M)
        out[0] = 0.0
        (left * y[:-1] + right * y[1:]).cumsum(out=out[1:])
        return out


def _checked_input(v: GridFunction | np.ndarray) -> np.ndarray:
    """Samples of an operator input: finite, on a grid, and nonnegative."""
    vals = v.values if isinstance(v, GridFunction) else _grid_samples(v)
    if (vals < 0).any():
        raise ValueError("operator input must be nonnegative")
    return vals


def _apply(spec: SystemSpec, i: int, vals: np.ndarray, plan: QuadratureTable) -> np.ndarray:
    """A_i on raw samples already checked by _checked_input, using plan's quadrature."""
    N = spec.N
    k = spec.k[i - 1]
    fvals = eval_nonlinearity(spec.f[i - 1], plan.t, vals)
    C = math.comb(N - 1, k - 1)
    inner = plan.weighted_cumulative(fvals, N - 1) / C

    core = np.empty_like(inner)
    if N == k:
        core[:] = k * inner
    else:
        # inner ~ tau^N, so the ratio extends by 0 at the origin
        core[0] = 0.0
        core[1:] = k * inner[1:] / plan.power(N - k)[1:]
    if (core < NEGATIVE_ROUNDOFF_FLOOR).any():
        raise ValueError("inner integral went negative beyond round-off")
    np.maximum(core, 0.0, out=core)  # what np.clip(core, 0.0, None) calls
    return plan.tail(core ** (1.0 / k))


def apply_operator(spec: SystemSpec, i: int, v: GridFunction | np.ndarray) -> GridFunction:
    """Solution operator of equation i (1-based) applied to the profile v.

    v plays the role of the next unknown in the cycle.  The output vanishes
    at t = 1 exactly and is nonincreasing, since its first derivative is
    -(weighted inner integral)^{1/k} <= 0.  It is concave when k = N, but
    for k < N the second derivative at t = 1 flips to +((N-k)/k) g(1) > 0
    whenever the forcing vanishes there, so concavity is not guaranteed.
    Negative or non-finite input samples are rejected.
    """
    if not 1 <= i <= spec.n:
        raise ValueError(f"equation index {i} outside 1..{spec.n}")
    vals = _checked_input(v)
    return GridFunction(_apply(spec, i, vals, QuadratureTable(vals.size)))


def apply_composite(
    spec: SystemSpec, v1: GridFunction | np.ndarray, return_chain: bool = False
):
    """Cyclic composition: equation n's operator first, then n-1, ..., then 1.

    Feeding v1 (the profile coupled to equation n) through the whole cycle
    returns the updated first unknown as a GridFunction.  With
    return_chain=True the result is the tuple (w1, ..., wn) of all
    intermediate outputs as raw arrays, where wn is the innermost
    application and w1 the final one; a SolutionBundle wraps them.  v1 may
    be a GridFunction or a raw array; it is checked once, every operator
    output is checked for finiteness (NonFiniteError, a ValueError), and the
    operators share one quadrature plan and pass raw arrays between them.
    """
    w = _checked_input(v1)
    plan = QuadratureTable(w.size)
    chain: list[np.ndarray] = []
    for i in range(spec.n, 0, -1):
        w = _grid_samples(_apply(spec, i, w, plan))
        if return_chain:
            chain.append(w)
    return tuple(reversed(chain)) if return_chain else GridFunction(w)


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
