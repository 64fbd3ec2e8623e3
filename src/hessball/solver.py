"""Fixed-point machinery for the cyclic integral operator.

Four solution strategies, all built on the composite map A = A_1 ... A_n:

* Picard iteration v <- A(v), which converges to the nontrivial fixed point
  in sublinear regimes and collapses to zero in the critical one;
* normalized power iteration, which extracts the invariant shape phi and the
  factor mu = ||A(phi)|| regardless of scaling behaviour;
* analytic rescaling, which turns (phi, mu) into an exact fixed point for
  homogeneous systems via c = mu^{1/(1-rho)};
* a norm-profile scan, which measures G(r) = ||A(v_r)|| along shape-converged
  profiles of prescribed norm r and brackets the roots of G(r) - r, covering
  regimes where the fixed point repels plain iteration.

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
    NonlinearitySpec,
    SolutionBundle,
    SystemSpec,
    _power_exponents,
    grid_points,
    sup_norm,
    unit_ratio_sign,
)
from .operators import apply_composite

__all__ = [
    "EigenResult",
    "IterationReport",
    "IterationStatus",
    "LambdaProductCheck",
    "NormProfile",
    "lambda_product_check",
    "lambda_product_exponents",
    "lambda_scaled_system",
    "make_bundle",
    "normalized_power_iteration",
    "norm_profile_scan",
    "picard_solve",
    "rescale_to_solution",
]

COLLAPSE_RELATIVE = 1e-10
DIVERGENCE_NORM = 1e10
PICARD_MAX_ITER = 500
POWER_MAX_ITER = 500
SCAN_INNER_TOL = 1e-10
SCAN_MAX_INNER = 300
ACCEPT_DEFECT = 1e-8
LAMBDA_PRODUCT_RTOL = 1e-6


class IterationStatus(str, Enum):
    CONVERGED = "converged"
    COLLAPSED_TO_ZERO = "collapsed_to_zero"
    DIVERGED = "diverged"
    MAX_ITER = "max_iter"


@dataclass(frozen=True)
class IterationReport:
    status: IterationStatus
    iterations: int
    norm_history: tuple[float, ...]
    final_delta: float
    solution: SolutionBundle | None


def make_bundle(spec: SystemSpec, v1: GridFunction) -> SolutionBundle:
    """Assemble a SolutionBundle by chaining v1 through every equation.

    The stored profiles are the chain outputs themselves (not the raw
    iterate), so each vanishes at t = 1 exactly and satisfies its own
    equation up to quadrature error; the fixed-point error shows up only in
    the last equation's coupling back to profile 1.
    """
    return SolutionBundle(v=apply_composite(spec, v1, return_chain=True), spec=spec)


@np.errstate(over="ignore", invalid="ignore")
def picard_solve(
    spec: SystemSpec,
    init: GridFunction,
    tol: float = 1e-10,
) -> IterationReport:
    """Fixed-point iteration v <- A(v) from a cone start.

    Each step's update max|A(v) - v| is the fixed-point defect of the
    iterate it started from, and final_delta is the last one.  Stops when
    the update is below tol relative to 1 + ||A(v)||.  Collapse (norm below
    1e-10 of the start) is checked before convergence so that a geometric
    decay to zero is reported as collapse, not as convergence to the
    trivial fixed point; divergence trips at norm 1e10, and MAX_ITER after
    PICARD_MAX_ITER steps.  A step whose composite overflows (non-finite
    samples) reads as an infinite norm and delta, so it also ends in
    DIVERGED; numpy's overflow warnings are off for the call.  The bundle
    is the last composite's chain, so its coupling defect is final_delta.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not cone_check(init).in_cone:
        raise ValueError("initial profile must lie in the cone")

    init_norm = sup_norm(init)
    v = np.asarray(init.values, dtype=float)
    history: list[float] = []
    delta = math.inf
    status = IterationStatus.MAX_ITER
    for _ in range(PICARD_MAX_ITER):
        try:
            chain = apply_composite(spec, v, return_chain=True)
        except NonFiniteError:
            delta = norm = math.inf
        else:
            delta = sup_norm(chain[0] - v)
            v = chain[0]
            norm = sup_norm(v)
        history.append(norm)
        if norm < COLLAPSE_RELATIVE * init_norm:
            status = IterationStatus.COLLAPSED_TO_ZERO
        elif norm > DIVERGENCE_NORM:
            status = IterationStatus.DIVERGED
        elif delta <= tol * (1.0 + norm):
            status = IterationStatus.CONVERGED
        else:
            continue
        break

    converged = status is IterationStatus.CONVERGED
    return IterationReport(
        status=status,
        iterations=len(history),
        norm_history=tuple(history),
        final_delta=delta,
        solution=SolutionBundle(v=chain, spec=spec) if converged else None,
    )


@dataclass(frozen=True)
class EigenResult:
    """Invariant shape of the composite map and its scaling factor.

    shape has unit sup norm; mu = ||A(shape)||; lambda0 = 1/mu is the unique
    multiplier for which v = lambda0 A(v) has a nonzero cone solution when
    the map is homogeneous of degree 1.  solution is the chain of A(shape),
    the iteration's last composite; shape_delta is that step's shape change.
    """

    shape: GridFunction
    mu: float
    lambda0: float
    shape_delta: float
    iterations: int
    solution: SolutionBundle


def _shape_iteration(
    spec: SystemSpec,
    r: float,
    shape: np.ndarray,
    tol: float = SCAN_INNER_TOL,
    max_iter: int = SCAN_MAX_INNER,
) -> tuple[np.ndarray, tuple[np.ndarray, ...], float, int]:
    """Run v <- r A(v)/||A(v)|| until a step changes the shape by at most tol.

    Returns (shape, chain, delta, iterations) of the last step: shape is
    its input, chain the chain of A(r shape), so G = ||A(r shape)|| is
    sup_norm(chain[0]), and delta its shape change.  An annihilated
    iterate (A(r shape) = 0) stops with delta = inf, so it never counts as
    converged.
    """
    new_shape = shape
    for it in range(1, max_iter + 1):
        shape = new_shape
        # the last chain stays alive across this composite: dropping it first
        # tripled the page faults, ~35% slower at M = 64001 on a Xeon VM
        chain = apply_composite(spec, r * shape, return_chain=True)
        norm = sup_norm(chain[0])
        if norm == 0:
            delta = math.inf
            break
        new_shape = chain[0] / norm
        delta = sup_norm(new_shape - shape)
        if delta <= tol:
            break
    return shape, chain, delta, it


def normalized_power_iteration(
    spec: SystemSpec,
    init: GridFunction,
    tol: float = 1e-10,
) -> EigenResult:
    """Iterate v <- A(v)/||A(v)|| to the invariant shape.

    Normalization strips the scaling degree, so the iteration converges for
    any homogeneity; the returned mu is meaningful as an eigenvalue
    reciprocal only in the degree-1 case.
    """
    if not cone_check(init).in_cone or sup_norm(init) == 0:
        raise ValueError("initial profile must be a nonzero cone element")
    shape, chain, delta, iterations = _shape_iteration(
        spec, 1.0, init.values / sup_norm(init), tol, POWER_MAX_ITER
    )
    mu = sup_norm(chain[0])
    if mu == 0:
        raise ValueError("composite map annihilated the iterate; system is degenerate")
    return EigenResult(
        shape=GridFunction(shape),
        mu=mu,
        lambda0=1.0 / mu,
        shape_delta=delta,
        iterations=iterations,
        solution=SolutionBundle(v=chain, spec=spec),
    )


def rescale_to_solution(spec: SystemSpec, eig: EigenResult) -> SolutionBundle | None:
    """Scale the invariant shape to an exact fixed point; None at ratio 1.

    Homogeneity gives A(c phi) = c^rho mu phi, so c = mu^{1/(1-rho)} makes
    c phi a fixed point in the continuum.  At rho = 1 no scale works unless
    mu = 1 exactly, which is the eigenvalue situation, so None is returned
    whenever unit_ratio_sign(rho) is 0, and when c is not a positive finite
    float (the power over- or underflows).
    """
    _power_exponents(spec, "rescale_to_solution")
    rho = spec.homogeneity_ratio
    if unit_ratio_sign(rho) == 0:
        return None
    try:
        c = eig.mu ** (1.0 / (1.0 - rho))
    except OverflowError:
        return None
    if not 0.0 < c < math.inf:
        return None
    return make_bundle(spec, GridFunction(c * eig.shape.values))


@dataclass(frozen=True)
class NormProfile:
    """Scan of G(r) = ||A(v_r)|| along shape-converged profiles of norm r.

    sign_changes holds the neighbouring radii where the sign bit of G(r) - r
    flips (zero counts as non-negative); roots the radius where each
    bracket's bisection stopped; solutions its chain of A, or None where the
    fixed-point defect failed acceptance.  converged marks radii whose inner
    shape iteration met its tolerance (never where the map annihilates the
    profile or a composite overflows, where G is inf); roots are accepted by
    their defect, not by these flags.
    """

    radii: tuple[float, ...]
    values: tuple[float, ...]
    converged: tuple[bool, ...]
    sign_changes: tuple[tuple[float, float], ...]
    roots: tuple[float, ...]
    solutions: tuple[SolutionBundle | None, ...]


def _default_shape(M: int) -> np.ndarray:
    t = grid_points(M)
    return 1.0 - t * t


def _scan_step(spec: SystemSpec, r: float, shape: np.ndarray):
    """_shape_iteration at r as (shape, chain, delta, G); overflow: chain None, G inf."""
    try:
        shape, chain, delta, _ = _shape_iteration(spec, r, shape)
    except NonFiniteError:
        return shape, None, math.inf, math.inf
    return shape, chain, delta, sup_norm(chain[0])


@np.errstate(over="ignore", invalid="ignore")
def norm_profile_scan(
    spec: SystemSpec,
    r_min: float,
    r_max: float,
    points: int,
    grid_size: int = 1001,
) -> NormProfile:
    """Profile the composite map's norm response over log-spaced radii.

    Every root of G(r) - r is a candidate solution norm.  Neighbouring radii
    where the sign bit of G(r) - r flips are bisected from the coarse pass's
    shape at the lower radius.  The last composite at a midpoint r gives
    A(v) for v = r shape, so both G(r) and the defect max|A(v) - v|; bisection
    stops once the defect is at most SCAN_INNER_TOL r (or the bracket cannot
    be halved), and that chain is the root's bundle, accepted when the defect
    is at most ACCEPT_DEFECT (1 + r).  An overflowing composite reads as
    G = inf (numpy's overflow warnings are off for the call).  Deliberately
    not picard_solve: a root can be repelling, and its profile can sit
    outside the cone (steeply decreasing forcing bends the tail convex), so
    no march and no cone gate.
    """
    if not 0 < r_min < r_max:
        raise ValueError("need 0 < r_min < r_max")
    if points < 8:
        raise ValueError("need at least 8 scan points")

    radii = np.logspace(math.log10(r_min), math.log10(r_max), points)
    values = np.empty(points)
    converged = np.empty(points, dtype=bool)
    shapes: list[np.ndarray] = []
    shape = _default_shape(grid_size)
    for j, r in enumerate(radii):
        shape, _, delta, values[j] = _scan_step(spec, float(r), shape)
        converged[j] = delta <= SCAN_INNER_TOL
        shapes.append(shape)

    negative = np.signbit(values - radii)
    crossings = np.flatnonzero(negative[:-1] != negative[1:])
    brackets = tuple((float(radii[j]), float(radii[j + 1])) for j in crossings)
    roots: list[float] = []
    solutions: list[SolutionBundle | None] = []
    for j, (lo, hi) in zip(crossings, brackets):
        shape = shapes[j]
        mid = 0.5 * (lo + hi)
        while True:
            shape, chain, _, G = _scan_step(spec, mid, shape)
            defect = math.inf if chain is None else sup_norm(chain[0] - mid * shape)
            if defect <= SCAN_INNER_TOL * mid:
                break
            lo, hi = (mid, hi) if np.signbit(G - mid) == negative[j] else (lo, mid)
            if not lo < 0.5 * (lo + hi) < hi:
                break
            mid = 0.5 * (lo + hi)
        roots.append(mid)
        accepted = defect <= ACCEPT_DEFECT * (1.0 + mid)
        solutions.append(SolutionBundle(v=chain, spec=spec) if accepted else None)

    return NormProfile(
        radii=tuple(float(r) for r in radii),
        values=tuple(float(v) for v in values),
        converged=tuple(bool(c) for c in converged),
        sign_changes=brackets,
        roots=tuple(roots),
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
    if len(lam) != spec.n:
        raise ValueError("need one multiplier per equation")
    if any(l <= 0 or not math.isfinite(l) for l in lam):
        raise ValueError("multipliers must be positive and finite")
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


def lambda_scaled_system(spec: SystemSpec, lam: tuple[float, ...]) -> SystemSpec:
    """The same power system with constant factor lambda_j on equation j."""
    gamma = _power_exponents(spec, "lambda_scaled_system")
    if len(lam) != spec.n:
        raise ValueError("need one multiplier per equation")
    if any(l <= 0 or not math.isfinite(l) for l in lam):
        raise ValueError("multipliers must be positive and finite")
    return SystemSpec(
        spec.N,
        spec.k,
        tuple(
            NonlinearitySpec(((float(l), 0.0, g),))
            for l, g in zip(lam, gamma)
        ),
    )

