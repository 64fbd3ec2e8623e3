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

from .core import GridFunction, SystemSpec, _values, eval_nonlinearity, grid_points

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
    """Immutable per-grid helpers for weighted cumulative and tail trapezoid sums."""

    __slots__ = ("M", "h", "t")

    def __init__(self, M: int):
        if M < 3:
            raise ValueError("quadrature grid needs at least 3 points")
        self.M = M
        self.h = 1.0 / (M - 1)
        self.t = grid_points(M)

    def tail(self, y: np.ndarray) -> np.ndarray:
        """Trapezoid integral from t_j to 1 for every j; last entry exactly 0."""
        cum = np.empty(self.M)
        cum[0] = 0.0
        np.cumsum(self.h * (y[1:] + y[:-1]) / 2.0, out=cum[1:])
        return cum[-1] - cum

    def weighted_cumulative(self, y: np.ndarray, power: int) -> np.ndarray:
        """Integral of s**power * y(s) from 0 to t_j; exact in the weight.

        y is interpolated linearly per panel and the monomial weight is
        integrated against it in closed form.  Plain trapezoid is off by an
        O(1) relative factor on the first panels whenever power >= 2 (the
        weight's curvature dominates there), and differentiating the result
        turns that into a residual spike at the origin that never decays
        with the grid, so the weight must be handled exactly.
        """
        s0 = self.t[:-1]
        s1 = self.t[1:]
        dp = (s1 ** (power + 1) - s0 ** (power + 1)) / (power + 1)
        dp1 = (s1 ** (power + 2) - s0 ** (power + 2)) / (power + 2)
        left = (s1 * dp - dp1) / self.h
        right = (dp1 - s0 * dp) / self.h
        out = np.empty(self.M)
        out[0] = 0.0
        np.cumsum(left * y[:-1] + right * y[1:], out=out[1:])
        return out


def apply_operator(spec: SystemSpec, i: int, v: GridFunction) -> GridFunction:
    """Solution operator of equation i (1-based) applied to the profile v.

    v plays the role of the next unknown in the cycle.  The output vanishes
    at t = 1 exactly and is nonincreasing, since its first derivative is
    -(weighted inner integral)^{1/k} <= 0.  It is concave when k = N, but
    for k < N the second derivative at t = 1 flips to +((N-k)/k) g(1) > 0
    whenever the forcing vanishes there, so concavity is not guaranteed.
    Negative input samples are rejected.
    """
    if not 1 <= i <= spec.n:
        raise ValueError(f"equation index {i} outside 1..{spec.n}")
    vals = _values(v)
    if np.any(vals < 0):
        raise ValueError("operator input must be nonnegative")

    N = spec.N
    k = spec.k[i - 1]
    table = QuadratureTable(vals.size)
    t = table.t

    fvals = np.asarray(eval_nonlinearity(spec.f[i - 1], t, vals), dtype=float)
    C = math.comb(N - 1, k - 1)
    inner = table.weighted_cumulative(fvals, N - 1) / C

    core = np.empty_like(inner)
    if N == k:
        core[:] = k * inner
    else:
        # inner ~ tau^N, so the ratio extends by 0 at the origin
        core[0] = 0.0
        core[1:] = k * inner[1:] / t[1:] ** (N - k)
    bad = core < NEGATIVE_ROUNDOFF_FLOOR
    if np.any(bad):
        raise ValueError("inner integral went negative beyond round-off")
    np.clip(core, 0.0, None, out=core)

    return GridFunction(table.tail(core ** (1.0 / k)))


def apply_composite(spec: SystemSpec, v1: GridFunction, return_chain: bool = False):
    """Cyclic composition: equation n's operator first, then n-1, ..., then 1.

    Feeding v1 (the profile coupled to equation n) through the whole cycle
    returns the updated first unknown.  With return_chain=True the result is
    the tuple (w1, ..., wn) of all intermediate outputs, where wn is the
    innermost application and w1 the final one.
    """
    chain: list[GridFunction] = []
    w = v1
    for i in range(spec.n, 0, -1):
        w = apply_operator(spec, i, w)
        chain.append(w)
    if return_chain:
        return tuple(reversed(chain))
    return w


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
