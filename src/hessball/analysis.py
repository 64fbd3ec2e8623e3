"""Cone diagnostics, explicit bound constants, growth classification, thresholds.

The fixed-point iteration lives in the cone of nonnegative profiles whose
minimum over the middle window [1/4, 3/4] dominates a quarter of the sup
norm.  This module evaluates cone membership, the explicit constants that
bound the solution operator from below (window integral) and above
(endpoint prefactor), the asymptotic growth classification of a system's
forcing family, the threshold chains that certify two-solution regimes, the
comparison-function sublinearity used for uniqueness, and pointwise
admissibility margins of candidate solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    GridFunction,
    NonlinearitySpec,
    SystemSpec,
    _power_exponents,
    _values,
    eval_nonlinearity,
    grid_points,
    sup_norm,
    unit_ratio_sign,
)
from .operators import (
    _symmetric_function,
    apply_composite,
    apply_operator,
    hessian_eigenvalues,
)

__all__ = [
    "BoundCheck",
    "ConeReport",
    "GrowthClass",
    "SublinearityReport",
    "ThresholdReport",
    "admissibility_check",
    "chain_contraction_bound",
    "classify_growth",
    "cone_check",
    "lower_bound_check",
    "lower_bound_constant",
    "multiplicity_thresholds",
    "sublinearity_check",
    "upper_bound_check",
    "upper_bound_prefactor",
]

WINDOW = (0.25, 0.75)
WINDOW_FRACTION = 0.25
CONE_TOL = 1e-10  # round-off slack on both cone inequalities
BOUND_TOL = 1e-8  # slack of the lower and upper operator bound checks
WINDOW_QUADRATURE_POINTS = 4001  # trapezoid nodes of the window constant


@dataclass(frozen=True)
class ConeReport:
    """Cone membership: nonnegative, and window minimum >= ||v||/4."""

    in_cone: bool
    margin: float
    nonneg_margin: float


def _window_slice(t: np.ndarray) -> np.ndarray:
    return (t >= WINDOW[0] - 1e-12) & (t <= WINDOW[1] + 1e-12)


def cone_check(v: GridFunction | np.ndarray) -> ConeReport:
    """Evaluate both cone inequalities on the grid.

    margin is min over grid points in [1/4, 3/4] of v minus ||v||/4;
    nonneg_margin is the global minimum of v.  Membership allows round-off
    slack CONE_TOL on both.
    """
    vals = _values(v)
    t = grid_points(vals.size)
    nonneg_margin = float(np.min(vals))
    window_min = float(np.min(vals[_window_slice(t)]))
    margin = window_min - WINDOW_FRACTION * sup_norm(vals)
    return ConeReport(
        in_cone=(nonneg_margin >= -CONE_TOL and margin >= -CONE_TOL),
        margin=margin,
        nonneg_margin=nonneg_margin,
    )


@lru_cache(maxsize=256)
def lower_bound_constant(k: int, N: int) -> float:
    """Window constant: integral over [1/4, 3/4] of the operator kernel floor.

    Equals the integral of ((k/tau^{N-k}) * (tau^N - 4^{-N})/N / C(N-1,k-1))^{1/k}
    over tau in [1/4, 3/4], by _window_quadrature on
    WINDOW_QUADRATURE_POINTS nodes.
    """
    return _window_quadrature(k, N, WINDOW_QUADRATURE_POINTS)


def _window_quadrature(k: int, N: int, M: int) -> float:
    """The window constant by the trapezoid rule on M nodes.

    The integrand leaves 1/4 like (tau - 1/4)^{1/k}, so the quadrature
    substitutes tau = 1/4 + sigma^k/2: the transformed integrand is smooth
    in sigma and the composite trapezoid rule recovers second-order
    convergence for every k.
    """
    if not 1 <= k <= N:
        raise ValueError(f"need 1 <= k <= N, got k={k}, N={N}")
    C = math.comb(N - 1, k - 1)
    s = np.linspace(0.0, 1.0, M)
    tau = 0.25 + 0.5 * s**k
    inner = (tau**N - 0.25**N) / (N * C)
    kernel = (k * inner / tau ** (N - k)) ** (1.0 / k)
    integrand = kernel * 0.5 * k * s ** (k - 1)
    return float(np.sum(np.diff(s) * (integrand[1:] + integrand[:-1]) / 2.0))


def upper_bound_prefactor(k: int, N: int) -> float:
    """Endpoint prefactor (1/2)(k/(N*C(N-1,k-1)))^{1/k}; strictly below 1."""
    if not 1 <= k <= N:
        raise ValueError(f"need 1 <= k <= N, got k={k}, N={N}")
    return 0.5 * (k / (N * math.comb(N - 1, k - 1))) ** (1.0 / k)


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of a hypothesis-guarded inequality check.

    hypothesis_ok records whether the forcing inequality (and cone
    membership where required) held on the grid; bound_holds is None when
    the hypothesis failed, so no claim is made.  Truthiness means the
    hypothesis held and the bound held.
    """

    hypothesis_ok: bool
    bound_holds: bool | None
    lhs: float
    rhs: float

    def __bool__(self) -> bool:
        return self.hypothesis_ok and bool(self.bound_holds)


def lower_bound_check(
    spec: SystemSpec,
    i: int,
    v: GridFunction,
    eta: float,
    m: float,
) -> BoundCheck:
    """Window lower bound for equation i's operator output.

    Hypothesis: v lies in the cone and f_i(t, v(t)) >= eta * v(t)^m on grid
    points with t in [1/4, 3/4].  Conclusion tested: the output at t = 1/4
    dominates Gamma_i * eta^{1/k_i} * (||v||/4)^{m/k_i} up to BOUND_TOL, where
    Gamma_i is lower_bound_constant(k_i, N).
    """
    vals = _values(v)
    t = grid_points(vals.size)
    k_i = spec.k[i - 1]

    inside = _window_slice(t)
    fv = eval_nonlinearity(spec.f[i - 1], t, vals)
    floor = eta * vals**m
    hypothesis_ok = bool(
        cone_check(v).in_cone and np.all(fv[inside] >= floor[inside] - 1e-12)
    )
    if not hypothesis_ok:
        return BoundCheck(False, None, math.nan, math.nan)

    w = apply_operator(spec, i, v)
    lhs = float(np.interp(WINDOW[0], t, w.values))
    gamma_i = lower_bound_constant(k_i, spec.N)
    rhs = gamma_i * eta ** (1.0 / k_i) * (sup_norm(vals) / 4.0) ** (m / k_i)
    return BoundCheck(True, bool(lhs >= rhs - BOUND_TOL), lhs, rhs)


def upper_bound_check(
    spec: SystemSpec,
    i: int,
    v: GridFunction,
    eps: float,
    d: float,
) -> BoundCheck:
    """Sup-norm upper bound for equation i's operator output.

    Hypothesis: f_i(t, v(t)) <= eps * v(t)^d on the full grid.  Conclusion
    tested: sup ||output|| < (eps * ||v||^d)^{1/k_i} + BOUND_TOL.  The
    strict form holds with room to spare because the endpoint prefactor is
    below 1.
    """
    vals = _values(v)
    t = grid_points(vals.size)
    k_i = spec.k[i - 1]

    fv = eval_nonlinearity(spec.f[i - 1], t, vals)
    cap = eps * vals**d
    hypothesis_ok = bool(np.all(fv <= cap + 1e-12))
    if not hypothesis_ok:
        return BoundCheck(False, None, math.nan, math.nan)

    lhs = sup_norm(apply_operator(spec, i, v))
    rhs = (eps * sup_norm(vals) ** d) ** (1.0 / k_i)
    return BoundCheck(True, bool(lhs < rhs + BOUND_TOL), lhs, rhs)


def chain_contraction_bound(spec: SystemSpec) -> float:
    """Explicit upper bound for ||composite(v)|| / ||v||^rho on unit-norm input.

    With t^p <= 1 on [0, 1], f_j(t, w) <= C_j ||w||^{gamma_j}, C_j the sum of
    f_j's coefficients, so the per-equation sup bound is ||A_j(w)|| <=
    P_j C_j^{1/k_j} ||w||^{gamma_j/k_j}.  Composing it through the cycle
    gives prod_j (P_j C_j^{1/k_j})^{e_j} with e_1 = 1 and
    e_j = (gamma_1...gamma_{j-1})/(k_1...k_{j-1}).  For homogeneity ratio 1
    this number bounds the contraction factor of the composite map; below 1
    it rules out nonzero fixed points, as it always is for unit pure powers.
    """
    gamma = _power_exponents(spec, "chain_contraction_bound")
    bound = 1.0
    exponent = 1.0
    for j in range(spec.n):
        total = sum(c for c, _, _ in spec.f[j].terms)
        factor = upper_bound_prefactor(spec.k[j], spec.N) * total ** (1.0 / spec.k[j])
        bound *= factor**exponent
        exponent *= gamma[j] / spec.k[j]
    return bound


@dataclass(frozen=True)
class GrowthClass:
    """Asymptotic growth data of a system's forcing family.

    alpha/beta are the smallest/largest exponents per equation; the
    four functionals bound the coefficient of the dominant term uniformly in
    t near v = 0 (lower0/upper0) and near v = infinity (lower_inf/upper_inf).
    condition names the first matching solvability regime:

      C1: all lower0 and upper_inf positive, later forcings vanish at v = 0,
          and both exponent products sit below the degree product;
      C2: all upper0 and lower_inf positive, both products above;
      C3: like C1 at zero plus positive lower_inf, products straddling
          (below at zero, above at infinity) -- the two-solution regime
          when a threshold radius exists;
      none: no regime matches, in particular the ratio-1 boundary: a
          product within UNIT_RATIO_TOL of the degree product (relative,
          see unit_ratio_sign) is neither below nor above it.

    vanishing_count counts equations whose forcing vanishes at v = 0;
    relabel_vanishing_ok reports that at least n-1 do, in which case a
    cyclic relabeling puts the system in the form C1/C3 expect even when
    equation 1 is not the non-vanishing one (informational only; condition
    itself uses the stated i = 2..n form).
    """

    alpha: tuple[float, ...]
    beta: tuple[float, ...]
    lower0: tuple[float, ...]
    upper0: tuple[float, ...]
    lower_inf: tuple[float, ...]
    upper_inf: tuple[float, ...]
    condition: str
    product_alpha: float
    product_beta: float
    product_k: float
    vanishing_count: int
    relabel_vanishing_ok: bool


def _dominant_coefficients(f: NonlinearitySpec, exponent: float) -> tuple[float, float]:
    """(min over t, max over t) of the coefficient of v**exponent in f.

    The coefficient function sum_j c_j t^{p_j} over matching terms is
    nondecreasing on [0,1], so the extrema sit at t = 0 and t = 1.
    """
    at0 = 0.0
    at1 = 0.0
    for c, p, g in f.terms:
        if g == exponent:
            at1 += c
            if p == 0:
                at0 += c
    return at0, at1


def classify_growth(spec: SystemSpec) -> GrowthClass:
    """Classify a system by its forcing growth at v = 0 and v = infinity."""
    alpha, beta = [], []
    lower0, upper0, lower_inf, upper_inf = [], [], [], []
    vanishing = []
    for f in spec.f:
        exps = [g for _, _, g in f.terms]
        a, b = min(exps), max(exps)
        alpha.append(a)
        beta.append(b)
        lo0, hi0 = _dominant_coefficients(f, a)
        loI, hiI = _dominant_coefficients(f, b)
        lower0.append(lo0)
        upper0.append(hi0)
        lower_inf.append(loI)
        upper_inf.append(hiI)
        vanishing.append(f.vanishes_at_zero)

    pa = float(np.prod(alpha))
    pb = float(np.prod(beta))
    pk = float(np.prod(spec.k))
    n = spec.n

    exponents_positive = all(a > 0 for a in alpha)
    tail_vanishes = all(vanishing[1:])
    at_zero, at_inf = unit_ratio_sign(pa / pk), unit_ratio_sign(pb / pk)
    condition = "none"
    if exponents_positive:
        if (
            all(x > 0 for x in lower0)
            and all(x > 0 for x in upper_inf)
            and tail_vanishes
            and at_zero < 0
            and at_inf < 0
        ):
            condition = "C1"
        elif (
            all(x > 0 for x in upper0)
            and all(x > 0 for x in lower_inf)
            and at_zero > 0
            and at_inf > 0
        ):
            condition = "C2"
        elif (
            all(x > 0 for x in lower0)
            and all(x > 0 for x in lower_inf)
            and tail_vanishes
            and at_zero < 0 < at_inf
        ):
            condition = "C3"

    count = sum(vanishing)
    return GrowthClass(
        alpha=tuple(alpha),
        beta=tuple(beta),
        lower0=tuple(lower0),
        upper0=tuple(upper0),
        lower_inf=tuple(lower_inf),
        upper_inf=tuple(upper_inf),
        condition=condition,
        product_alpha=pa,
        product_beta=pb,
        product_k=pk,
        vanishing_count=count,
        relabel_vanishing_ok=count >= n - 1,
    )


@dataclass(frozen=True)
class ThresholdReport:
    """Descending forcing-bound chains certifying two-solution regimes.

    sup_chain[i-1] bounds f_i from above over [0,1] x [0, next bound^{1/k}],
    anchored at v <= r0/4 in the last equation; the small-radius condition
    holds when r0 exceeds sup_chain[0]^{1/k_1}.  sup_chain_at_R0 is the same
    construction anchored at v <= R0 (entries for equations 2..n), feeding
    inf_chain: inf_chain[i-1] bounds f_i from below over the middle window
    with v between the window floor of the next output and its sup bound.
    The large-radius condition holds when R0 < Gamma_1 * inf_chain[0]^{1/k_1}.
    """

    r0: float | None
    R0: float | None
    sup_chain: tuple[float, ...] | None
    sup_chain_at_R0: tuple[float, ...] | None
    inf_chain: tuple[float, ...] | None
    r0_condition: bool | None
    R0_condition: bool | None


def multiplicity_thresholds(
    spec: SystemSpec,
    r0: float | None = None,
    R0: float | None = None,
) -> ThresholdReport:
    """Evaluate the threshold chains for the given anchor radii.

    Every term c * t^p * v^q has c, p, q >= 0, so the forcing is
    nondecreasing in both t and v and each box extremum is one evaluation at
    a corner: the sup at t = 1 and the top v, the window inf at t = 1/4 and
    the bottom v.  An overflowing chain entry reads inf.  Either anchor may
    be omitted; a nonpositive anchor is a domain error.
    """
    if r0 is None and R0 is None:
        raise ValueError("need at least one of r0, R0")
    for name, val in (("r0", r0), ("R0", R0)):
        if val is not None and (not math.isfinite(val) or val <= 0):
            raise ValueError(f"{name} must be positive and finite")

    n = spec.n
    k = spec.k
    f = spec.f

    sup_chain = None
    r0_condition = None
    if r0 is not None:
        g = [0.0] * n
        g[n - 1] = eval_nonlinearity(f[n - 1], 1.0, r0 / 4.0)
        for i in range(n - 2, -1, -1):
            g[i] = eval_nonlinearity(f[i], 1.0, g[i + 1] ** (1.0 / k[i + 1]))
        sup_chain = tuple(g)
        r0_condition = bool(r0 > g[0] ** (1.0 / k[0]))

    sup_at_R0 = None
    inf_chain = None
    R0_condition = None
    if R0 is not None:
        gt = [0.0] * n  # index 0 unused; entries for equations 2..n
        gt[n - 1] = eval_nonlinearity(f[n - 1], 1.0, R0)
        for i in range(n - 2, 0, -1):
            gt[i] = eval_nonlinearity(f[i], 1.0, gt[i + 1] ** (1.0 / k[i + 1]))
        e = [0.0] * n
        e[n - 1] = eval_nonlinearity(f[n - 1], WINDOW[0], R0 / 4.0)
        for i in range(n - 2, -1, -1):
            gamma_next = lower_bound_constant(k[i + 1], spec.N)
            v_lo = 0.25 * gamma_next * e[i + 1] ** (1.0 / k[i + 1])
            e[i] = eval_nonlinearity(f[i], WINDOW[0], v_lo)
        sup_at_R0 = tuple(gt[1:])
        inf_chain = tuple(e)
        gamma_1 = lower_bound_constant(k[0], spec.N)
        R0_condition = bool(R0 < gamma_1 * e[0] ** (1.0 / k[0]))

    return ThresholdReport(
        r0=r0,
        R0=R0,
        sup_chain=sup_chain,
        sup_chain_at_R0=sup_at_R0,
        inf_chain=inf_chain,
        r0_condition=r0_condition,
        R0_condition=R0_condition,
    )


@dataclass(frozen=True)
class SublinearityReport:
    """Comparison-function sandwich and downscaling gain of the composite map.

    ratio_min/ratio_max bound output/(1-t) away from t = 1, so the output is
    pinched between positive multiples of 1-t.  gain is the measured margin
    by which scaling the input by xi in (0,1) beats linear scaling of the
    output: output(xi v) >= (1 + gain) * xi * output(v); gain_expected is
    xi^{rho-1} - 1 from homogeneity.  hypothesis_ok is True only when
    unit_ratio_sign(rho) puts rho below 1; otherwise the uniqueness
    mechanism does not apply.
    """

    hypothesis_ok: bool
    ratio_min: float
    ratio_max: float
    gain: float
    gain_expected: float
    xi: float
    rho: float


def sublinearity_check(
    spec: SystemSpec, v: GridFunction, xi: float
) -> SublinearityReport:
    """Measure the comparison sandwich and the strict downscaling gain.

    Needs spec.gamma, and reads rho off it: any coefficients and t-weights.
    """
    _power_exponents(spec, "sublinearity_check")
    if not 0 < xi < 1:
        raise ValueError("xi must lie in (0, 1)")
    if sup_norm(v) == 0:
        raise ValueError("v must be nonzero")
    rho = spec.homogeneity_ratio

    w = apply_composite(spec, v)[0]
    t = grid_points(w.size)
    ratios = w[:-1] / (1.0 - t[:-1])
    ratio_min = float(np.min(ratios))
    ratio_max = float(np.max(ratios))

    scaled = apply_composite(spec, xi * v.values)[0]
    mask = w > 0
    gain = float(np.min(scaled[mask] / (xi * w[mask]))) - 1.0
    gain_expected = xi ** (rho - 1.0) - 1.0

    return SublinearityReport(
        hypothesis_ok=unit_ratio_sign(rho) < 0,
        ratio_min=ratio_min,
        ratio_max=ratio_max,
        gain=gain,
        gain_expected=gain_expected,
        xi=xi,
        rho=rho,
    )


def admissibility_check(u: GridFunction, k: int, N: int) -> tuple[float, ...]:
    """Margins of degrees 1..k: the grid minimum of each sigma_l of u's Hessian.

    With (a, b) = (u'', u'/t) the eigenvalue vector is (a, b, ..., b); the
    l-th symmetric function is C(N-1,l) b^l + C(N-1,l-1) a b^{l-1}.  Entry
    l-1 is its minimum over the grid.  u is k-admissible when the first k
    entries are nonnegative up to round-off and convex when all N are, so
    one call at k = N answers both.
    """
    if not 1 <= k <= N:
        raise ValueError(f"need 1 <= k <= N, got k={k}, N={N}")
    a, b = hessian_eigenvalues(u)
    return tuple(
        float(np.min(_symmetric_function(a, b, l, N))) for l in range(1, k + 1)
    )
