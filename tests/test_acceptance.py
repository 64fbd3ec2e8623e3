"""End-to-end acceptance checks for the whole package.

Run with `pytest tests/test_acceptance.py -v -s`: every test prints exactly
one `criterion N: PASS/FAIL - detail` line before asserting, so the summary
is readable even when a criterion is red.

Criterion 10 gates full convexity only for systems whose degrees all equal
the dimension N.  Solutions of equations with degree k below N are
k-admissible but cannot be convex near the boundary, so for them it checks
the forced boundary concavity u''(1) = -((N-k)/k) u'(1) < 0 instead, and that
verify_solution reports convex_ok = False (see test_criterion_10).
"""

import math
import time

import numpy as np

from hessball import (
    GridFunction,
    IterationStatus,
    NonlinearitySpec,
    PowerSystemSpec,
    SystemSpec,
    apply_composite,
    apply_operator,
    chain_contraction_bound,
    cone_check,
    grid_points,
    hessian_eigenvalues,
    lower_bound_constant,
    multiplicity_thresholds,
    norm_profile_scan,
    normalized_power_iteration,
    picard_solve,
    rescale_to_solution,
    residual_tolerance,
    sublinearity_check,
    sup_norm,
    verify_solution,
)
from hessball.analysis import _window_quadrature
from richardson import richardson_order

# dimensionless Dirichlet ball eigenvalues of the squared Laplacian:
# pi^4 on the interval-symmetric 3-ball, (first J_0 zero)^4 on the disk
PI_4 = math.pi**4
BESSEL_J01_4 = 33.44523988202471

# quadrature-independent window constants, frozen to 1e-12
GAMMA_REF = {
    (1, 1): 0.125,
    (1, 2): 0.125 - math.log(3.0) / 32.0,
    (2, 2): 0.210079193756234,
    (1, 3): 5.0 / 72.0,
    (2, 3): 0.130460233340551,
    (3, 3): 0.233008673427687,
    (1, 4): 1.0 / 18.0,
    (2, 4): 0.095489486886981,
    (3, 4): 0.150302792452434,
    (4, 4): 0.241149751685355,
}

# fixed-point sup norms of the two uniqueness systems, frozen at M = 1001
UNIQUE_NORM_HALF_POWERS = 0.0435001680300493
UNIQUE_NORM_DISK_HESSIAN = 0.17903568416254662


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def dome(M, amplitude=1.0):
    t = grid_points(M)
    return GridFunction(amplitude * (1.0 - t * t))


def seeded_cone_starts(M, count, seed):
    rng = np.random.default_rng(seed)
    t = grid_points(M)
    starts = []
    for _ in range(count):
        a, b = rng.uniform(0.2, 2.0, size=2)
        scale = 10.0 ** rng.uniform(-1.0, 1.0)
        starts.append(GridFunction(scale * (a * (1.0 - t * t) + b * (1.0 - t))))
    return starts


def test_criterion_01_constant_forcing_closed_form():
    M = 2001
    t = grid_points(M)
    worst = 0.0
    f = NonlinearitySpec(((1.0, 0.0, 0.0),))
    for N, k in [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]:
        spec = SystemSpec(N, (k, k), (f, f))
        w = apply_operator(spec, 1, dome(M))
        amp = (k / (N * math.comb(N - 1, k - 1))) ** (1.0 / k)
        err = float(np.max(np.abs(w.values - amp * (1.0 - t * t) / 2.0)))
        worst = max(worst, err)
    ok = worst <= 1e-6
    assert report(1, ok, f"worst closed-form gap {worst:.3e} (bound 1e-6) at M={M}")


def test_criterion_02_window_constant():
    gap = abs(lower_bound_constant(1, 2) - GAMMA_REF[(1, 2)])
    closed_ok = gap <= 1e-8

    orders = {}
    all_orders_ok = True
    for N in range(1, 5):
        for k in range(1, N + 1):
            ref = GAMMA_REF[(k, N)]
            conv = richardson_order(
                lambda M, k=k, N=N, ref=ref: _window_quadrature(k, N, M) - ref,
                (251, 501, 1001, 2001),
            )
            # a saturated study means the rule is exact on this pair, which
            # can only overshoot the required order
            pair_ok = conv.saturated or conv.order >= 1.9
            orders[(k, N)] = "exact" if conv.saturated else f"{conv.order:.2f}"
            all_orders_ok = all_orders_ok and pair_ok

    ok = closed_ok and all_orders_ok
    assert report(
        2,
        ok,
        f"closed-form gap {gap:.2e} (bound 1e-8), orders {orders}",
    )


def test_criterion_03_classical_eigenvalues():
    M = 4001
    start = time.monotonic()
    pairs = {}
    ok = True
    for N, ref in ((3, PI_4), (2, BESSEL_J01_4)):
        spec = PowerSystemSpec(N, (1, 1), (1.0, 1.0))
        eig = normalized_power_iteration(spec, dome(M), tol=1e-12)
        rel = abs(eig.lambda0 - ref) / ref
        pairs[N] = rel
        ok = ok and rel <= 1e-3
    elapsed = time.monotonic() - start
    ok = ok and elapsed <= 60.0
    assert report(
        3,
        ok,
        f"relative gaps N=3 {pairs[3]:.2e}, N=2 {pairs[2]:.2e} "
        f"(bound 1e-3), {elapsed:.1f}s of 60s at M={M}",
    )


def test_criterion_04_eigenvalue_start_independence():
    M = 1001
    spec = PowerSystemSpec(3, (1, 1), (1.0, 1.0))
    values = [
        normalized_power_iteration(spec, init, tol=1e-10).lambda0
        for init in seeded_cone_starts(M, 5, seed=7)
    ]
    spread = (max(values) - min(values)) / min(values)
    ok = spread <= 1e-6
    assert report(4, ok, f"5-start relative spread {spread:.2e} (bound 1e-6)")


def test_criterion_05_critical_ratio_nonexistence():
    M = 1001
    specs = [
        PowerSystemSpec(2, (1, 1), (1.0, 1.0)),
        PowerSystemSpec(2, (2, 2), (2.0, 2.0)),
        PowerSystemSpec(3, (1, 2), (2.0, 1.0)),
    ]
    details = []
    ok = True
    for spec in specs:
        eig = normalized_power_iteration(spec, dome(M), tol=1e-10)
        bound = chain_contraction_bound(spec)
        collapsed = sum(
            picard_solve(spec, init, tol=1e-12).status
            is IterationStatus.COLLAPSED_TO_ZERO
            for init in seeded_cone_starts(M, 3, seed=3)
        )
        profile = norm_profile_scan(spec, 1e-3, 1e3, 32, grid_size=M)
        brackets = len(profile.sign_changes)
        spec_ok = eig.mu < 1.0 and eig.mu <= bound and collapsed == 3 and brackets == 0
        ok = ok and spec_ok
        details.append(
            f"k={spec.k}: mu={eig.mu:.4f}<=B={bound:.4f}, "
            f"{collapsed}/3 collapses, {brackets} brackets"
        )
    assert report(5, ok, "; ".join(details))


def test_criterion_06_sublinear_uniqueness():
    M = 1001
    cases = [
        (PowerSystemSpec(2, (1, 1), (0.5, 0.5)), UNIQUE_NORM_HALF_POWERS),
        (PowerSystemSpec(2, (2, 2), (1.0, 1.0)), UNIQUE_NORM_DISK_HESSIAN),
    ]
    details = []
    ok = True
    for spec, frozen_norm in cases:
        limits = []
        for init in seeded_cone_starts(M, 5, seed=11):
            rep = picard_solve(spec, init, tol=1e-11)
            assert rep.status is IterationStatus.CONVERGED
            limits.append(rep.solution.v[0].values)
        norms = [float(np.max(np.abs(v))) for v in limits]
        spread = max(
            float(np.max(np.abs(a - b))) / max(norms) for a in limits for b in limits
        )

        eig = normalized_power_iteration(spec, dome(M), tol=1e-11)
        rescaled = rescale_to_solution(spec, eig)
        rescale_gap = float(
            np.max(np.abs(rescaled.v[0].values - limits[0]))
        ) / max(norms)

        profile = norm_profile_scan(spec, 1e-3, 1e3, 32, grid_size=M)
        brackets = len(profile.sign_changes)

        xi = 0.5
        sub = sublinearity_check(spec, GridFunction(limits[0]), xi)
        gain_gap = abs(sub.gain - (xi ** (sub.rho - 1.0) - 1.0))

        norm_gap = abs(norms[0] - frozen_norm) / frozen_norm
        case_ok = (
            spread <= 1e-5
            and rescale_gap <= 1e-5
            and brackets == 1
            and sub.ratio_min > 0.0
            and gain_gap <= 1e-10
            and norm_gap <= 1e-6
        )
        ok = ok and case_ok
        details.append(
            f"gamma={spec.gamma},k={spec.k}: spread {spread:.1e}, rescale "
            f"{rescale_gap:.1e}, {brackets} bracket, theta1={sub.ratio_min:.3f}, "
            f"gain gap {gain_gap:.1e}, norm drift {norm_gap:.1e}"
        )
    assert report(6, ok, "; ".join(details))


def test_criterion_07_homogeneity():
    M = 1001
    t = grid_points(M)
    specs = [
        PowerSystemSpec(2, (1, 1), (0.5, 0.5)),
        PowerSystemSpec(3, (2, 1), (1.0, 1.5)),
        PowerSystemSpec(4, (4, 4), (2.0, 3.0)),
    ]
    v = GridFunction(1.2 * (1.0 - t * t) + 0.4 * (1.0 - t))
    worst = 0.0
    for spec in specs:
        rho = spec.homogeneity_ratio
        base = apply_composite(spec, v)[0]
        for c in (0.5, 2.0, 10.0):
            scaled = apply_composite(spec, GridFunction(c * v.values))[0]
            gap = float(np.max(np.abs(scaled - c**rho * base)))
            worst = max(worst, gap / sup_norm(scaled))
    ok = worst <= 1e-10
    assert report(7, ok, f"worst relative homogeneity defect {worst:.2e} (bound 1e-10)")


def test_criterion_08_cone_preservation():
    M = 401
    t = grid_points(M)
    rng = np.random.default_rng(2024)
    pairs = [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2), (4, 4)]
    forcing = NonlinearitySpec(((0.7, 0.0, 1.0), (0.3, 1.0, 2.0)))
    worst_margin = math.inf
    worst_concavity = -math.inf
    for draw in range(100):
        N, k = pairs[draw % len(pairs)]
        spec = SystemSpec(N, (k, k), (forcing, forcing))
        coeffs = rng.uniform(0.0, 2.0, size=5)
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        v = GridFunction(scale * np.polyval(coeffs, t))
        w = apply_operator(spec, 1, v).values

        margin = cone_check(GridFunction(w)).margin
        worst_margin = min(worst_margin, margin)
        d2 = w[2:] - 2.0 * w[1:-1] + w[:-2]
        worst_concavity = max(
            worst_concavity, float(np.max(d2)) / (1.0 + float(np.max(w)))
        )
    ok = worst_margin >= -1e-12 and worst_concavity <= 1e-12
    assert report(
        8,
        ok,
        f"100 draws: worst cone margin {worst_margin:.2e} (bound -1e-12), "
        f"worst scaled second difference {worst_concavity:.2e}",
    )


def test_criterion_09_two_solution_regime():
    M = 1001
    eps = 0.1
    f = NonlinearitySpec(((eps, 0.0, 0.5), (eps, 0.0, 3.0)))
    spec = SystemSpec(2, (1, 1), (f, f))

    thresholds = multiplicity_thresholds(spec, r0=1.0)
    anchor_ok = bool(thresholds.r0_condition)

    profile = norm_profile_scan(spec, 1e-4, 1e4, 48, grid_size=M)
    brackets = len(profile.sign_changes)
    verified = [
        bundle is not None and verify_solution(bundle).passed
        for bundle in profile.solutions
    ]
    ok = anchor_ok and brackets >= 2 and len(verified) >= 2 and all(verified)
    roots = ", ".join(f"{r:.4g}" for r in profile.roots)
    assert report(
        9,
        ok,
        f"small-radius condition {anchor_ok} (chain head "
        f"{thresholds.sup_chain[0]:.6f}), {brackets} brackets, roots [{roots}], "
        f"{sum(verified)}/{len(verified)} verified",
    )


def test_criterion_10_residual_and_admissibility_round_trip():
    # Residual and k_i-admissibility are gated for all seven systems.  Full
    # convexity is gated only where it is a property of the equations: when
    # every k_i = N, convexity and admissibility coincide.  For k < N and a
    # forcing that vanishes at the boundary, every solution profile u = -v_i
    # obeys u''(1) = -((N-k)/k) u'(1) < 0, so it cannot be convex; there the
    # test checks that the discrete solution reproduces this forced boundary
    # concavity and that verify_solution reports convex_ok = False.
    #
    # IDENTITY_DEFECT_BOUND caps |u''(1) + ((N-k)/k) u'(1)| / u'(1), the
    # truncation error of the one-sided stencils at t = 1.  For gamma = 1 the
    # profile is smooth and the defect is O(h^2): <= 3.3e-5 at M = 1001 and
    # 2.0e-6 at M = 4001.  For gamma < 1 the forcing behaves like (1-t)^gamma
    # at the boundary, so u'' is only Hoelder-gamma there and the defect is
    # O(h^gamma): 0.039-0.17 at M = 1001 (largest for the gamma = 0.25 term
    # of the mixed system), roughly halving at M = 4001.  0.25 sits above the
    # worst measured defect and below min (N-k)/k = 1/3, so the bound alone
    # forces u''(1) < 0.
    M = 1001
    IDENTITY_DEFECT_BOUND = 0.25
    family = [
        PowerSystemSpec(2, (1, 1), (0.5, 0.5)),
        PowerSystemSpec(3, (1, 1), (0.5, 0.5)),
        PowerSystemSpec(2, (2, 2), (1.0, 1.0)),
        PowerSystemSpec(3, (3, 3), (1.0, 1.0)),
        PowerSystemSpec(4, (2, 3), (1.0, 0.5)),
        PowerSystemSpec(4, (4, 4), (2.0, 1.0)),
        SystemSpec(
            2,
            (1, 1),
            (
                NonlinearitySpec(((1.0, 0.0, 0.5), (0.5, 1.0, 0.25))),
                NonlinearitySpec(((1.0, 0.0, 0.5), (0.5, 1.0, 0.25))),
            ),
        ),
    ]
    worst_residual_ratio = 0.0
    worst_admissibility = math.inf
    worst_convexity = math.inf
    worst_defect = 0.0
    convex_flags_ok = True
    boundary_concave_ok = True
    converged = 0
    for spec in family:
        rep = picard_solve(spec, dome(M), tol=1e-11)
        if rep.status is not IterationStatus.CONVERGED:
            continue
        converged += 1
        ver = verify_solution(rep.solution)
        worst_residual_ratio = max(
            worst_residual_ratio, max(ver.max_residual) / residual_tolerance(M)
        )
        worst_admissibility = min(worst_admissibility, min(ver.admissibility_margins))
        if all(k == spec.N for k in spec.k):
            worst_convexity = min(worst_convexity, min(ver.convexity_margins))
            convex_flags_ok = convex_flags_ok and ver.convex_ok
            continue
        convex_flags_ok = convex_flags_ok and not ver.convex_ok
        for vi, k in zip(rep.solution.v, spec.k):
            if k == spec.N:
                continue
            # at t = 1 the eigenvalue pair (u'', u'/t) is (u''(1), u'(1))
            upp, ratio = hessian_eigenvalues(GridFunction(-vi.values))
            curvature, slope = float(upp[-1]), float(ratio[-1])
            defect = (
                abs(curvature + (spec.N - k) / k * slope) / slope
                if slope > 0.0
                else math.inf
            )
            worst_defect = max(worst_defect, defect)
            boundary_concave_ok = (
                boundary_concave_ok
                and slope > 0.0
                and curvature < -1e-5
                and defect <= IDENTITY_DEFECT_BOUND
            )

    residual_ok = converged == len(family) and worst_residual_ratio <= 1.0
    admissibility_ok = worst_admissibility >= -1e-5
    convexity_ok = worst_convexity >= -1e-5
    ok = (
        residual_ok
        and admissibility_ok
        and convexity_ok
        and convex_flags_ok
        and boundary_concave_ok
    )
    report(
        10,
        ok,
        f"{converged}/{len(family)} converged, residual at "
        f"{worst_residual_ratio:.2f} of bound, admissibility margin "
        f"{worst_admissibility:.2e} (bound -1e-5), k = N convexity margin "
        f"{worst_convexity:.2e} (bound -1e-5), k < N boundary identity "
        f"defect {worst_defect:.2e} (bound {IDENTITY_DEFECT_BOUND}), "
        f"convex_ok flags {'right' if convex_flags_ok else 'wrong'}",
    )
    assert residual_ok and admissibility_ok, "residual or admissibility regressed"
    assert convexity_ok, "a solution with every k_i = N lost convexity"
    assert convex_flags_ok, (
        "convex_ok must be True when every k_i = N and False when a degree "
        "is below N"
    )
    assert boundary_concave_ok, (
        "a k < N solution no longer reproduces the forced boundary concavity "
        "u''(1) = -((N-k)/k) u'(1) < 0 within the stencil error bound"
    )

