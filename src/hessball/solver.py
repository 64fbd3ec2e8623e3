"""Fixed-point machinery for the cyclic integral operator.

Four solution strategies, all built on the composite map A = A_1 ... A_n.
Every fixed-point loop picks its next input by one depth-1 Anderson mix of
its last two images (_mix), not the image itself, and every stop still
tests the defect of the input whose image was taken:

* Picard iteration of A, which converges to the nontrivial fixed point in
  sublinear regimes and collapses to zero in the critical one; it stops on
  each input's own defect max|A(v) - v|;
* normalized power iteration, which extracts the invariant shape phi and the
  factor mu = ||A(phi)|| regardless of scaling behaviour; its shape
  iteration, shared with the scan, mixes the normalized images and rescales
  the mix to unit sup norm, and mu, its Collatz-Wielandt bracket and the
  shape change all belong to the returned shape; on a large grid it
  first settles the shape on two fixed coarse grids (nested iteration,
  Brandt 1977) and starts the fine grid from their Richardson extrapolation
  to its spacing, and the COARSE_GRID and fine lambda0 give Richardson's
  estimate of the fine grid's discretization error;
* analytic rescaling, which turns (phi, mu) into a fixed point of the
  discrete map via c = mu^{1/(1-rho)} on either side of ratio 1 for every
  system with one exponent per equation (SystemSpec.gamma set: coefficients
  and t-weights allowed); every scenario solves those systems this way, so
  Picard and the scan only see forcings that mix exponents;
* a norm-profile scan, which measures G(r) = ||A(v_r)|| along shape-converged
  profiles of prescribed norm r and brackets the roots of G(r) - r, covering
  systems that are not homogeneous, whose fixed points can repel iteration;
  only the sign of G(r) - r sets a bracket, so its coarse pass settles each
  shape loosely and converges fully only the radii that decide a bracket.

The multiplier helpers relate systems with per-equation constant factors to
the factor-free chain: the composite map only sees the single number
prod_j lambda_j^{e_j} (e_1 = 1, e_j = (gamma_1...gamma_{j-1})/(k_2...k_j)),
so a nonzero fixed point exists exactly when that product equals
(1/mu)^{k_1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .analysis import cone_check
from .core import (
    GridFunction,
    NonFiniteError,
    SolutionBundle,
    SystemSpec,
    _power_exponents,
    grid_points,
    sup_norm,
    unit_ratio_sign,
)
from .operators import QuadratureTable, apply_composite

__all__ = [
    "EigenResult",
    "IterationReport",
    "IterationStatus",
    "LambdaProductCheck",
    "NormProfile",
    "lambda_product_check",
    "lambda_product_exponents",
    "make_bundle",
    "normalized_power_iteration",
    "norm_profile_scan",
    "picard_solve",
    "rescale_to_solution",
]

COLLAPSE_RELATIVE = 1e-10
DIVERGENCE_NORM = 1e10
# The one cap on the composites of a fixed-point loop: each Picard solve,
# each power-iteration stage and each shape iteration of a scan radius or
# polish point stops after MAX_COMPOSITES.  Read at call time, so patching
# it caps every loop.  The benchmark's three workloads at seeds 1-5 reach
# at most 10 (Picard), 8 (a power-iteration stage) and 7 (a scan radius or
# polish point); only shapes that never settle, such as the CI's N = 4
# scan, run to it.
MAX_COMPOSITES = 300
SCAN_INNER_TOL = 1e-10
# The scan's coarse pass settles each shape to SCAN_SIGN_TOL only, and runs
# a radius on to SCAN_INNER_TOL where |G - r| <= SIGN_MARGIN delta max(G, r),
# delta the loose shape's last change.  |G_loose - G_full| / (delta G_full),
# measured at every radius over [1e-4, 1e4]: 9.8 on criterion 9's system
# (M = 1001, 48 radii); at most 13 on 80 random systems of its family
# (M = 301, 32 radii); at most 60 with N = 3, forcing eps (v^0.34 + v^3.99),
# over every k_i <= 3 and eps from 0.01 to 1 (48 radii, M = 301 and 1001;
# the 60 is k = (1, 1), eps = 0.03).  On criterion 9 and that k = (1, 1),
# eps = 0.03 system every margin from 0 to 1e4 re-runs just the 4 bracket
# ends, and 1e5 re-runs more, so 1e3 costs nothing there and leaves 17x
# headroom.  Criterion 9's scan took 105 composites, 198 at SCAN_INNER_TOL.
SCAN_SIGN_TOL = 1e-4
SIGN_MARGIN = 1e3
POLISH_MAX_STEPS = 64
LAMBDA_PRODUCT_RTOL = 1e-6
# The power iteration's coarse stages run on (COARSE_GRID + 1) / 2 and
# COARSE_GRID nodes when M - 1 >= COARSE_MIN_REFINEMENT (COARSE_GRID - 1).
# Median of 15 calls, N = 3, tol 1e-12, nine runs on a 2-vCPU Xeon VM
# (Python 3.11, numpy 2.4): nested vs direct took 2.1-3.4 vs 2.2-3.1 ms at
# M = 4001, 2.7-4.0 vs 3.7-5.1 ms at 8001 and 3.5-5.3 vs 7.0-8.6 ms at
# 16001, so nested wins at 8001 in every run and breaks even at 4001.
COARSE_GRID = 1001
COARSE_MIN_REFINEMENT = 8


class IterationStatus(str, Enum):
    CONVERGED = "converged"
    COLLAPSED_TO_ZERO = "collapsed_to_zero"
    DIVERGED = "diverged"
    MAX_ITER = "max_iter"


@dataclass(frozen=True)
class IterationReport:
    status: IterationStatus
    iterations: int
    final_delta: float
    solution: SolutionBundle | None


def make_bundle(spec: SystemSpec, v1: GridFunction) -> SolutionBundle:
    """Assemble a SolutionBundle by chaining v1 through every equation.

    The stored profiles are the chain outputs themselves (not the raw
    iterate), so each vanishes at t = 1 exactly and satisfies its own
    equation up to quadrature error; the fixed-point error shows up only in
    the last equation's coupling back to profile 1.
    """
    return SolutionBundle(v=apply_composite(spec, v1), spec=spec)


def _composite(
    spec: SystemSpec, v: np.ndarray, plan: QuadratureTable
) -> tuple[np.ndarray, ...] | None:
    """apply_composite on plan with numpy's over/invalid warnings off; None on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return apply_composite(spec, v, plan=plan)
        except NonFiniteError:
            return None


def _mix(
    g: np.ndarray,
    f: np.ndarray,
    last_g: np.ndarray | None,
    last_f: np.ndarray | None,
    delta: float,
    last_delta: float,
) -> np.ndarray:
    """The next input of a fixed-point loop: a depth-1 Anderson mix of two steps.

    g is the image of the current input and f = g - input its defect,
    delta = ||f||; last_g, last_f and last_delta are the previous step's
    (None, None and anything on the first step).  Returns the type II mix
    (Anderson 1965; Walker & Ni 2011, a secant method) g - gamma (g - g'),
    gamma = <f - f', f> / ||f - f'||^2 over the grid samples, clipped at 0
    so that the composite only sees nonnegative input; a new array.  The
    first step, a step with f = f' and a step whose delta rose since the
    previous one get g itself, the plain step.
    """
    if last_f is None or not delta <= last_delta:
        return g
    df = f - last_f
    dd = float(df @ df)
    if not dd > 0:
        return g
    v = g - (float(df @ f) / dd) * (g - last_g)
    np.maximum(v, 0.0, out=v)
    return v


def picard_solve(
    spec: SystemSpec,
    init: GridFunction,
    tol: float = 1e-10,
) -> IterationReport:
    """Fixed-point iteration of A from a cone start, with depth-1 Anderson mixing.

    Each step applies A to its input v and tests that input's own defect
    delta = max|A(v) - v|; final_delta is the last one.  Stops when delta is
    below tol relative to 1 + ||A(v)||.  Collapse (||A(v)|| below 1e-10 of
    the start) is checked before convergence so that a geometric decay to
    zero is reported as collapse, not as convergence to the trivial fixed
    point; divergence trips at norm 1e10, and MAX_ITER after
    MAX_COMPOSITES steps.  A step whose composite overflows (non-finite
    samples) reads as an infinite norm and delta, so it also ends in
    DIVERGED.  The bundle is the last composite's chain, so its coupling
    defect is final_delta.  Every step shares one quadrature plan, dropped
    on return.

    The next input is not A(v) itself but _mix's depth-1 Anderson mix of
    the last two steps, with g = A(v) and f = g - v.  The mix only chooses
    inputs, so an accepted answer meets the same defect bound.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not cone_check(init).in_cone:
        raise ValueError("initial profile must lie in the cone")

    init_norm = sup_norm(init)
    v = np.asarray(init.values, dtype=float)
    plan = QuadratureTable(v.size)
    delta = last_delta = math.inf
    last_g = last_f = None
    status = IterationStatus.MAX_ITER
    for iterations in range(1, MAX_COMPOSITES + 1):
        chain = _composite(spec, v, plan)
        if chain is None:
            delta = norm = math.inf
        else:
            g = chain[0]
            f = g - v
            # g is nonnegative and nonincreasing, so g[0] is its sup norm
            delta, norm = sup_norm(f), float(g[0])
        if norm < COLLAPSE_RELATIVE * init_norm:
            status = IterationStatus.COLLAPSED_TO_ZERO
        elif norm > DIVERGENCE_NORM:
            status = IterationStatus.DIVERGED
        elif delta <= tol * (1.0 + norm):
            status = IterationStatus.CONVERGED
        else:
            v = _mix(g, f, last_g, last_f, delta, last_delta)
            last_g, last_f, last_delta = g, f, delta
            continue
        break

    converged = status is IterationStatus.CONVERGED
    return IterationReport(
        status=status,
        iterations=iterations,
        final_delta=delta,
        solution=SolutionBundle(v=chain, spec=spec) if converged else None,
    )


@dataclass(frozen=True)
class EigenResult:
    """Invariant shape of the composite map and its scaling factor.

    shape has unit sup norm; mu = ||A(shape)||; lambda0 = 1/mu is the unique
    multiplier for which v = lambda0 A(v) has a nonzero cone solution when
    the map is homogeneous of degree 1.  mu_bounds = (lo, hi) are the
    extremes of A(shape)_j / shape_j over nodes 0..M-2 (cone profiles are 0
    at M-1), so lo <= mu <= hi; at degree 1 they bracket the mu of every
    positive eigenfunction (Collatz 1942, Wielandt 1950).  solution is the
    chain of A(shape), the iteration's last composite; shape_delta is that
    step's shape change ||A(shape)/mu - shape||.  status is CONVERGED when
    shape_delta <= tol, MAX_ITER when it is not, and COLLAPSED_TO_ZERO or
    DIVERGED when the last composite annihilated the iterate (mu = 0) or
    overflowed (mu = inf); those two have mu_bounds (mu, mu), shape_delta
    inf and no solution.  iterations counts composites on the result's
    grid and coarse_iterations those of both coarse stages (0 where they
    do not run); coarse_lambda0 is the COARSE_GRID stage's lambda0, None
    unless both stages converged.
    """

    shape: GridFunction
    mu: float
    mu_bounds: tuple[float, float]
    lambda0: float
    shape_delta: float
    iterations: int
    coarse_iterations: int
    coarse_lambda0: float | None
    status: IterationStatus
    solution: SolutionBundle | None

    @property
    def lambda0_bounds(self) -> tuple[float, float]:
        """(1/hi, 1/lo) of mu_bounds, with 1/0 read as inf."""
        lo, hi = self.mu_bounds
        return _reciprocal(hi), _reciprocal(lo)

    @property
    def grid_error_estimate(self) -> float | None:
        """Richardson's estimate of lambda0's discretization error, or None.

        For a second-order discretization lambda0(h) = lambda0 + C h^2, so
        the COARSE_GRID and fine values give C h^2 = (coarse_lambda0 -
        lambda0) / ((h_c/h)^2 - 1) on the fine grid (Roache 1994).  None
        when the coarse stages did not run or did not converge.
        """
        if self.coarse_lambda0 is None:
            return None
        refinement = (self.shape.grid_size - 1) / (COARSE_GRID - 1)
        return (self.coarse_lambda0 - self.lambda0) / (refinement**2 - 1.0)


def _reciprocal(x: float) -> float:
    return math.inf if x == 0 else 1.0 / x


def _shape_iteration(
    spec: SystemSpec,
    r: float,
    start: np.ndarray,
    plan: QuadratureTable,
    tol: float = SCAN_INNER_TOL,
) -> tuple[np.ndarray, tuple[np.ndarray, ...] | None, float, float, int]:
    """Iterate the normalized map shape -> A(r shape)/||A(r shape)|| from start.

    Stops once a step's input is within tol of its own normalized image,
    or after MAX_COMPOSITES steps.  Returns (shape, chain, delta, G,
    iterations) of the last step: shape is its input, chain the chain of
    A(r shape), G = ||A(r shape)|| and delta = ||A(r shape)/G - shape||,
    that input's own defect.  The next input is _mix's depth-1 Anderson mix
    of the last two normalized images, rescaled to unit sup norm by its
    maximum (the mix is clipped at 0, so that is its sup norm); where the
    clip leaves it all zero, the plain step, the normalized image itself.
    So every input is a nonnegative unit-norm profile, and the stop, G and
    the chain all belong to it.  An annihilated iterate (G = 0) stops with
    delta = inf, so it never counts as converged.  An overflowing composite
    returns (start, None, inf, inf, iterations), so a warm start never
    inherits an iterate on its way to overflow.  Every composite uses the
    caller's quadrature plan.
    """
    new_shape = start
    last_g = last_f = None
    last_delta = math.inf
    for it in range(1, MAX_COMPOSITES + 1):
        shape = new_shape
        # the last chain stays alive across this composite: dropping it first
        # tripled the page faults, ~35% slower at M = 64001 on a Xeon VM
        chain = _composite(spec, r * shape, plan)
        if chain is None:
            return start, None, math.inf, math.inf, it
        G = float(chain[0][0])  # the image's sup norm: it peaks at t = 0
        if G == 0:
            delta = math.inf
            break
        g = chain[0] / G
        f = g - shape
        delta = sup_norm(f)
        if delta <= tol:
            break
        new_shape = _mix(g, f, last_g, last_f, delta, last_delta)
        if new_shape is not g:
            norm = new_shape.max()
            if norm > 0:
                new_shape /= norm
            else:
                new_shape = g
        last_g, last_f, last_delta = g, f, delta
    return shape, chain, delta, G, it


def _prolong(values: np.ndarray, M: int) -> np.ndarray:
    """Cubic interpolation of values, on a uniform grid of >= 4 nodes, to M nodes.

    Each fine node t takes the cubic through the four coarse nodes
    j-1 .. j+2 around the panel [t_j, t_j+1] that holds it (shifted inward
    at either end), in Newton form: the divided differences of values, taken
    at the first of those nodes, then three in-place multiply-adds in the
    local coordinate s = t/h - (j-1).  So it reproduces cubics to rounding
    and is fourth order on smooth data.
    """
    m = values.size
    s = grid_points(M) * (m - 1)
    first = np.clip(s.astype(np.intp) - 1, 0, m - 4)
    s -= first
    d1 = np.diff(values)
    d2 = np.diff(d1) / 2.0
    d3 = np.diff(d2) / 3.0
    s -= 2.0
    out = d3[first]
    out *= s
    out += d2[first]
    s += 1.0
    out *= s
    out += d1[first]
    s += 1.0
    out *= s
    out += values[first]
    return out


def _cone_start(values: np.ndarray, M: int) -> np.ndarray:
    """values prolonged to M nodes, clipped at 0 and scaled to unit sup norm."""
    start = _prolong(values, M)
    np.maximum(start, 0.0, out=start)
    start /= sup_norm(start)
    return start


def _coarse_start(
    spec: SystemSpec, shape: np.ndarray, tol: float
) -> tuple[np.ndarray, int, float | None]:
    """Settle shape on two coarse grids, then extrapolate it to shape's grid.

    Returns (start, coarse iterations, coarse lambda0).  The shape is
    iterated to tol on (COARSE_GRID + 1) / 2 nodes, from shape restricted
    there by linear interpolation, then on COARSE_GRID nodes from that
    shape prolonged by _cone_start; each stage has its own quadrature plan.
    The grid error of the shape falls like h^2, so on COARSE_GRID nodes
    phi_c + (phi_c - P phi_l)(h^2 - h_c^2)/(h_c^2 - h_l^2) predicts the
    shape on spacing h (Richardson 1911), and _cone_start takes that to
    shape's grid.  Each prolongation is cubic, clipped at 0 (rounding can
    leave the node t = 1 just below it) and scaled to unit sup norm, as the
    composite takes only cone inputs.  The iterations of both stages are
    counted, and the lambda0 is the COARSE_GRID stage's.  A stage that does
    not converge returns shape itself and None, so the fine stage starts
    where it would without them.
    """
    M, low = shape.size, (COARSE_GRID + 1) // 2
    start = np.interp(grid_points(low), grid_points(M), shape)
    total = 0
    for m in (low, COARSE_GRID):
        coarse, _, delta, mu, iterations = _shape_iteration(
            spec, 1.0, start, QuadratureTable(m), tol
        )
        total += iterations
        if delta > tol:
            return shape, total, None
        if m == low:
            start = _cone_start(coarse, COARSE_GRID)
    # coarse is the COARSE_GRID shape, start the low one prolonged to its grid
    h2_low, h2_coarse, h2 = ((n - 1.0) ** -2 for n in (low, COARSE_GRID, M))
    coarse += (coarse - start) * ((h2 - h2_coarse) / (h2_coarse - h2_low))
    return _cone_start(coarse, M), total, 1.0 / mu


def normalized_power_iteration(
    spec: SystemSpec,
    init: GridFunction,
    tol: float = 1e-10,
) -> EigenResult:
    """Iterate the normalized map v -> A(v)/||A(v)|| to the invariant shape.

    Normalization strips the scaling degree, so the iteration converges for
    any homogeneity.  Each next input is _shape_iteration's Anderson mix of
    the last two normalized images, so the returned shape is the last
    step's input, not an image: mu = ||A(shape)||, shape_delta is that
    input's own defect and mu_bounds are read off that input and its image.
    The Collatz-Wielandt bracket holds for any positive input, so it bounds
    eigenvalues in the degree-1 case as it did with plain steps.  On a grid
    with M - 1 >= COARSE_MIN_REFINEMENT (COARSE_GRID - 1) the iteration
    first runs on (COARSE_GRID + 1) / 2 and COARSE_GRID nodes and finishes
    on M from the two coarse shapes' Richardson extrapolation, prolonged
    (_coarse_start); every reported quantity but the coarse ones comes from
    the fine stage.  Below that the coarse stages do not run.  A composite
    that annihilates the iterate or overflows ends in the status
    COLLAPSED_TO_ZERO or DIVERGED, not an exception; a start outside the
    cone, or zero, is a ValueError.  A zero node of shape gives the bracket
    an inf or nan end.  Each stage shares one quadrature plan across its
    composites, dropped on return.
    """
    if not cone_check(init).in_cone or sup_norm(init) == 0:
        raise ValueError("initial profile must be a nonzero cone element")
    shape = init.values / sup_norm(init)
    coarse_iterations, coarse_lambda0 = 0, None
    if shape.size - 1 >= COARSE_MIN_REFINEMENT * (COARSE_GRID - 1):
        shape, coarse_iterations, coarse_lambda0 = _coarse_start(spec, shape, tol)
    shape, chain, delta, mu, iterations = _shape_iteration(
        spec, 1.0, shape, QuadratureTable(shape.size), tol
    )
    mu_bounds, solution = (mu, mu), None
    if chain is None:
        status = IterationStatus.DIVERGED
    elif mu == 0:
        status = IterationStatus.COLLAPSED_TO_ZERO
    else:
        status = IterationStatus.CONVERGED if delta <= tol else IterationStatus.MAX_ITER
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = chain[0][:-1] / shape[:-1]
        mu_bounds = (float(ratio.min()), float(ratio.max()))
        solution = SolutionBundle(v=chain, spec=spec)
    return EigenResult(
        shape=GridFunction(shape),
        mu=mu,
        mu_bounds=mu_bounds,
        lambda0=_reciprocal(mu),
        shape_delta=delta,
        iterations=iterations,
        coarse_iterations=coarse_iterations,
        coarse_lambda0=coarse_lambda0,
        status=status,
        solution=solution,
    )


def rescale_to_solution(spec: SystemSpec, eig: EigenResult) -> SolutionBundle | None:
    """Scale the invariant shape to a fixed point; None at ratio 1.

    Needs spec.gamma.  A forcing sum_j c_j t^{p_j} v^{gamma_i} with one
    exponent per equation is gamma_i-homogeneous in v whatever its
    coefficients and t-weights, the quadrature is linear and the 1/k_i power
    positively homogeneous, so the discrete composite is monotone and
    rho-homogeneous on the grid, not only in the continuum: A(c phi) =
    c^rho A(phi) up to rounding, with A(phi) = mu phi' and phi' the next
    normalized shape.  That is all the uniqueness argument uses: a map that
    is monotone and rho-homogeneous on the grid, with rho < 1, has at most
    one cone fixed point (Krasnosel'skii 1964), since for fixed points x, y
    and the largest s with y >= s x, s < 1 would give y = A(y) >= s^rho x
    > s x.  Weights and coefficients change c, not the argument.  So
    c = mu^{1/(1-rho)} gives A(c phi) = c phi', and the bundle's relative
    coupling defect max|A(c phi) - c phi| / ||c phi|| is eig.shape_delta,
    whatever the size of c.  At rho = 1 no scale works unless mu = 1
    exactly, which is the eigenvalue situation, so None is returned
    whenever unit_ratio_sign(rho) is 0, and when c is not a positive finite
    float (the power over- or underflows, or mu is 0).  It is exact on
    either side of ratio 1: G(r) = r^rho mu along r phi, so c is the only
    root of G(r) = r, the one a norm-profile scan would bracket.
    """
    _power_exponents(spec, "rescale_to_solution")
    rho = spec.homogeneity_ratio
    if unit_ratio_sign(rho) == 0:
        return None
    try:
        c = eig.mu ** (1.0 / (1.0 - rho))
    except (OverflowError, ZeroDivisionError):
        return None
    if not 0.0 < c < math.inf:
        return None
    return make_bundle(spec, GridFunction(c * eig.shape.values))


@dataclass(frozen=True)
class NormProfile:
    """Scan of G(r) = ||A(v_r)|| along shape-converged profiles of norm r.

    values holds G at each radius, from a shape settled to SCAN_INNER_TOL
    where the sign-first pass re-ran the radius (every bracket end, and
    every radius whose sign the loose shape could have misread) and to
    SCAN_SIGN_TOL elsewhere.  sign_changes holds the neighbouring radii
    where the sign bit of G(r) - r flips (zero counts as non-negative);
    roots the radius where each bracket's polish stopped, and polish_steps
    the number of radii it evaluated there; solutions its chain of A, or
    None where the polish stopped before its fixed-point defect met
    SCAN_INNER_TOL r, among them a polish ended at a point whose shape did
    not settle.  converged marks radii whose shape iteration met the
    tolerance it was run at (never where the map annihilates the profile
    or a composite overflows, where G is inf); roots are accepted by their
    defect, not by these flags.  inner_iterations counts the composites of
    each shape iteration: one entry per radius, a re-run's added to its
    radius's, then one per polish point in bracket order, so its sum is the
    scan's composite count.
    """

    radii: tuple[float, ...]
    values: tuple[float, ...]
    converged: tuple[bool, ...]
    sign_changes: tuple[tuple[float, float], ...]
    roots: tuple[float, ...]
    polish_steps: tuple[int, ...]
    inner_iterations: tuple[int, ...]
    solutions: tuple[SolutionBundle | None, ...]


def _default_shape(M: int) -> np.ndarray:
    t = grid_points(M)
    return 1.0 - t * t


def norm_profile_scan(
    spec: SystemSpec,
    r_min: float,
    r_max: float,
    points: int,
    grid_size: int = 1001,
) -> NormProfile:
    """Profile the composite map's norm response over log-spaced radii.

    Every root of G(r) - r is a candidate solution norm, and a bracket needs
    only the sign of G(r) - r, so the coarse pass is sign-first (loose
    inner solves in an outer iteration, Eisenstat & Walker 1996).  Each
    radius's shape iteration runs to SCAN_SIGN_TOL from the last radius's
    normalized image (its shape, where it did not converge).  Where its
    last shape change delta leaves
    |G - r| <= SIGN_MARGIN delta max(G, r) (the measured bound on the loose
    shape's error in G, times delta, with headroom), it runs on to
    SCAN_INNER_TOL from its own normalized image, an input that radius has
    not tried; then so does each end of every bracket those values leave,
    until both ends of every bracket ran to SCAN_INNER_TOL.  A radius whose
    loose pass reads G = 0 or inf, or missed SCAN_SIGN_TOL, is not re-run.
    A system with one exponent per equation (spec.gamma set), a pure power
    among them, has the same normalized map at every r, so its radii all
    run to SCAN_INNER_TOL, each from the last radius's shape, and none is re-run:
    every radius then follows the power iteration's own shape iteration,
    and the root stays within SCAN_INNER_TOL / |1 - rho| of the rescale's
    c.  A loose pass saved 5% of those scans' composites (4250 against
    4475 over 200 random pure powers at M = 301) but moved 23 of the 200
    roots up to 7.4 times that distance from c.
    Neighbouring radii where the sign bit of G(r) - r flips are polished
    by Illinois regula falsi (Dowell & Jarratt 1971) on psi(x) = log G - x,
    x = log r, which is affine once the shape has converged for a pure
    power, from the values at both ends and the shape at the lower one,
    all settled to SCAN_INNER_TOL.  An end at
    G = 0 or inf, or a secant point not strictly inside the bracket, takes
    the bisection step in x instead.  The last composite at a point r gives
    A(v) for v = r shape, so both G(r) and the defect max|A(v) - v|; the
    polish stops once the defect is at most SCAN_INNER_TOL r, at a point
    whose shape iteration misses SCAN_INNER_TOL at a finite nonzero G (its
    sign is not settled, and the next point would start from its shape), when
    the bracket cannot be split, or after POLISH_MAX_STEPS points; that chain
    is the root's bundle, accepted only when the defect stop is the one that
    ended the polish.  For N = 4, k = (1, 1), 0.0816 (v^0.4946 + v^3.1625),
    28 radii over [1e-4, 1e4], M = 301, two brackets open at radii that
    hit MAX_COMPOSITES, and stopping at an unsettled shape cut their
    polishes from 47 and 39 points of MAX_COMPOSITES composites to one each
    (26532 -> 1332 composites), brackets and accepted flags unchanged.
    An overflowing composite reads as G = inf.  Deliberately not
    picard_solve: a root can be repelling, and its profile can sit outside
    the cone (steeply decreasing forcing bends the tail convex), so no march
    and no cone gate.  The coarse pass, its re-runs and every polish share
    one quadrature plan, and all run _shape_iteration, whose Anderson-mixed
    inputs change only which profiles are tried: a radius counts as
    converged, and a root as accepted, by the defect of the profile whose
    image was taken.  inner_iterations records each radius's composites,
    its re-run's included, then each polish point's.
    """
    if not 0 < r_min < r_max < math.inf:
        raise ValueError("need 0 < r_min < r_max, both finite")
    if points < 8:
        raise ValueError("need at least 8 scan points")

    radii = np.logspace(math.log10(r_min), math.log10(r_max), points)
    values = np.empty(points)
    deltas = np.empty(points)
    resumable = np.zeros(points, dtype=bool)
    rerun = np.zeros(points, dtype=bool)
    starts: list[np.ndarray] = []
    inner: list[int] = []
    # one exponent per equation: the normalized map is the same at every r
    # and the full pass keeps the power iteration's shapes
    homogeneous = spec.gamma is not None
    tols = np.full(points, SCAN_INNER_TOL if homogeneous else SCAN_SIGN_TOL)
    shape = _default_shape(grid_size)
    plan = QuadratureTable(shape.size)
    for j, r in enumerate(radii):
        shape, chain, deltas[j], values[j], it = _shape_iteration(
            spec, float(r), shape, plan, tols[j]
        )
        # a re-run continues from the normalized image, an input that this
        # radius has not tried yet, and so does the next radius
        resumable[j] = not homogeneous and deltas[j] <= tols[j]
        if resumable[j]:
            shape = chain[0] / values[j]
            # the loose shape's error in G could flip the sign of G - r
            rerun[j] = abs(values[j] - r) <= SIGN_MARGIN * deltas[j] * max(values[j], r)
        starts.append(shape)
        inner.append(it)

    # re-run those radii to SCAN_INNER_TOL, then each end of every bracket
    # their values leave; G = 0 and G = inf read their sign exactly, and a
    # shape iteration that missed SCAN_SIGN_TOL is not re-run
    while True:
        negative = np.signbit(values - radii)
        flips = negative[:-1] != negative[1:]
        rerun[:-1] |= flips
        rerun[1:] |= flips
        todo = np.flatnonzero(rerun & resumable)
        if not todo.size:
            break
        for j in todo:
            starts[j], _, deltas[j], values[j], it = _shape_iteration(
                spec, float(radii[j]), starts[j], plan
            )
            inner[j] += it
            tols[j] = SCAN_INNER_TOL
            resumable[j] = False

    crossings = np.flatnonzero(flips)
    brackets = tuple((float(radii[j]), float(radii[j + 1])) for j in crossings)
    roots: list[float] = []
    steps: list[int] = []
    solutions: list[SolutionBundle | None] = []
    for j, (lo, hi) in zip(crossings, brackets):
        shape = starts[j]
        # bracket ends in x = log r with psi = log G - x, nan where G is 0 or inf
        x = [math.log(lo), math.log(hi)]
        psi = [
            math.log(g) - xe if 0 < g < math.inf else math.nan
            for g, xe in zip(values[j : j + 2], x)
        ]
        step, last_end = 0, None
        while step < POLISH_MAX_STEPS:
            point = math.nan
            if psi[0] != psi[1]:
                point = x[0] - psi[0] * (x[1] - x[0]) / (psi[1] - psi[0])
            if not x[0] < point < x[1]:
                point = 0.5 * (x[0] + x[1])
            if step and not x[0] < point < x[1]:
                break
            r = math.exp(point)
            shape, chain, delta, G, it = _shape_iteration(spec, r, shape, plan)
            inner.append(it)
            step += 1
            defect = math.inf if chain is None else sup_norm(chain[0] - r * shape)
            accepted = defect <= SCAN_INNER_TOL * r
            # G = 0 and G = inf read their sign exactly; an unsettled shape does not
            if accepted or SCAN_INNER_TOL < delta < math.inf:
                break
            end = 0 if np.signbit(G - r) == negative[j] else 1
            x[end] = point
            psi[end] = math.log(G) - point if 0 < G < math.inf else math.nan
            if end == last_end:  # Illinois: halve the end kept twice in a row
                psi[1 - end] *= 0.5
            last_end = end
        roots.append(r)
        steps.append(step)
        solutions.append(SolutionBundle(v=chain, spec=spec) if accepted else None)

    return NormProfile(
        radii=tuple(float(r) for r in radii),
        values=tuple(float(v) for v in values),
        converged=tuple(bool(c) for c in deltas <= tols),
        sign_changes=brackets,
        roots=tuple(roots),
        polish_steps=tuple(steps),
        inner_iterations=tuple(inner),
        solutions=tuple(solutions),
    )


def lambda_product_exponents(spec: SystemSpec) -> tuple[float, ...]:
    """Exponents e_j collapsing per-equation factors into one product.

    Pulling the factor of equation j out through the operators ahead of it
    multiplies the composite output by lambda_j^{e_j/k_1}; the fixed-point
    condition therefore reads prod_j lambda_j^{e_j} = lambda0^{k_1} with
    e_1 = 1 and e_j = (gamma_1 ... gamma_{j-1}) / (k_2 ... k_j).
    """
    gamma = _power_exponents(spec, "lambda_product_exponents")
    e = [1.0]
    for j in range(1, spec.n):
        e.append(e[-1] * gamma[j - 1] / spec.k[j])
    return tuple(e)


@dataclass(frozen=True)
class LambdaProductCheck:
    """Comparison of the collapsed multiplier product against lambda0^{k_1}."""

    product: float
    target: float
    matches: bool
    exponents: tuple[float, ...]
    composite_factor: float

    def __bool__(self) -> bool:
        return self.matches


def _check_multipliers(spec: SystemSpec, lam: tuple[float, ...]) -> None:
    """One positive, finite multiplier per equation, else a ValueError."""
    if len(lam) != spec.n:
        raise ValueError("need one multiplier per equation")
    if any(l <= 0 or not math.isfinite(l) for l in lam):
        raise ValueError("multipliers must be positive and finite")


def lambda_product_check(
    spec: SystemSpec,
    lam: tuple[float, ...],
    eig: EigenResult,
) -> LambdaProductCheck:
    """Check whether per-equation multipliers admit a nonzero fixed point.

    Valid only at homogeneity ratio 1 (unit_ratio_sign 0), where scale
    invariance makes the existence question a pure number comparison.
    """
    _power_exponents(spec, "lambda_product_check")
    if unit_ratio_sign(spec.homogeneity_ratio) != 0:
        raise ValueError("multiplier product check requires homogeneity ratio 1")
    _check_multipliers(spec, lam)
    e = lambda_product_exponents(spec)
    product = float(np.prod([l**ej for l, ej in zip(lam, e)]))
    target = eig.lambda0 ** spec.k[0]
    matches = bool(abs(product - target) <= LAMBDA_PRODUCT_RTOL * abs(target))
    return LambdaProductCheck(
        product=product,
        target=target,
        matches=matches,
        exponents=e,
        composite_factor=product ** (1.0 / spec.k[0]),
    )

