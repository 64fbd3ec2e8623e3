import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hessball import (
    EigenResult,
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
    lambda_product_check,
    lambda_product_exponents,
    lambda_scaled_system,
    make_bundle,
    norm_profile_scan,
    normalized_power_iteration,
    picard_solve,
    rescale_to_solution,
    sublinearity_check,
    sup_norm,
    verify_solution,
)
from hessball import solver
from hessball.core import _values

SUBLINEAR = PowerSystemSpec(2, (1, 1), (0.5, 0.5))
CRITICAL = PowerSystemSpec(2, (1, 1), (1.0, 1.0))
LAPLACE_3D = PowerSystemSpec(3, (1, 1), (1.0, 1.0))
# the two-solution forcing of acceptance criterion 9
MULT_FORCING = NonlinearitySpec(((0.1, 0.0, 0.5), (0.1, 0.0, 3.0)))


def dome(M):
    t = grid_points(M)
    return GridFunction(1.0 - t * t)


class TestMakeBundle:
    def test_chain_structure(self):
        v1 = dome(101)
        bundle = make_bundle(SUBLINEAR, v1)
        chain = apply_composite(SUBLINEAR, v1, return_chain=True)
        for stored, computed in zip(bundle.v, chain):
            np.testing.assert_array_equal(stored.values, computed.values)


class TestPicardSolve:
    def test_sublinear_convergence(self):
        rep = picard_solve(SUBLINEAR, dome(401))
        assert rep.status is IterationStatus.CONVERGED
        assert rep.solution is not None
        assert abs(sup_norm(rep.solution.v[0]) - 0.0435) < 1e-3
        assert verify_solution(rep.solution).passed

    def test_critical_collapse(self):
        # contraction factor mu ~0.03 per step, so each update is about the
        # previous norm: the norm drops below the collapse cut at step 7
        # while the update (~8e-10) still exceeds tol (1 + norm)
        rep = picard_solve(CRITICAL, dome(301), tol=1e-12)
        assert rep.status is IterationStatus.COLLAPSED_TO_ZERO
        assert rep.solution is None
        assert rep.norm_history[-1] < 1e-9

    def test_superlinear_divergence_from_large_start(self):
        spec = PowerSystemSpec(2, (1, 1), (3.0, 3.0))
        big = GridFunction(50.0 * dome(301).values)
        rep = picard_solve(spec, big, tol=1e-12)
        assert rep.status is IterationStatus.DIVERGED
        assert rep.solution is None

    def test_overflowing_step_diverges(self):
        # from norm 1e9 the first composite overflows, below DIVERGENCE_NORM
        spec = PowerSystemSpec(2, (1, 1), (8.0, 8.0))
        big = GridFunction(1e9 * dome(301).values)
        with np.errstate(over="ignore", invalid="ignore"):
            rep = picard_solve(spec, big)
        assert rep.status is IterationStatus.DIVERGED
        assert rep.iterations == 1
        assert rep.norm_history == (math.inf,)
        assert rep.final_delta == math.inf
        assert rep.solution is None

    def test_superlinear_collapse_below_the_solution_radius(self):
        # the nonzero solution sits at norm ~3.57; a unit start decays
        spec = PowerSystemSpec(2, (1, 1), (3.0, 3.0))
        rep = picard_solve(spec, dome(301), tol=1e-12)
        assert rep.status is IterationStatus.COLLAPSED_TO_ZERO

    def test_zero_start_is_a_fixed_point(self):
        rep = picard_solve(SUBLINEAR, GridFunction(np.zeros(301)))
        assert rep.status is IterationStatus.CONVERGED
        assert sup_norm(rep.solution.v[0]) == 0.0

    def test_constant_forcing_from_zero(self):
        f = NonlinearitySpec(((1.0, 0.0, 0.0),))
        spec = SystemSpec(2, (1, 1), (f, f))
        M = 301
        rep = picard_solve(spec, GridFunction(np.zeros(M)))
        assert rep.status is IterationStatus.CONVERGED
        t = grid_points(M)
        np.testing.assert_allclose(
            rep.solution.v[0].values, 0.25 * (1.0 - t * t), atol=1e-12
        )

    def test_max_iter_exhaustion(self, monkeypatch):
        monkeypatch.setattr(solver, "PICARD_MAX_ITER", 2)
        rep = picard_solve(SUBLINEAR, dome(301), tol=1e-15)
        assert rep.status is IterationStatus.MAX_ITER
        assert rep.iterations == 2
        assert rep.solution is None

    def test_final_delta_is_the_fixed_point_defect(self, monkeypatch):
        monkeypatch.setattr(solver, "PICARD_MAX_ITER", 1)
        init = dome(301)
        rep = picard_solve(CRITICAL, init, tol=1e-12)
        assert rep.status is IterationStatus.MAX_ITER
        step = apply_composite(CRITICAL, init).values
        defect = float(np.max(np.abs(step - init.values)))
        assert rep.final_delta == defect

    def test_cone_start_required(self):
        t = grid_points(301)
        with pytest.raises(ValueError):
            picard_solve(SUBLINEAR, GridFunction(np.exp(-20.0 * t)))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            picard_solve(SUBLINEAR, dome(301), tol=-1.0)


class TestNormalizedPowerIteration:
    def test_laplacian_eigenvalue_3d(self):
        eig = normalized_power_iteration(LAPLACE_3D, dome(1001))
        assert abs(eig.lambda0 - math.pi**4) / math.pi**4 < 1e-3
        assert abs(eig.lambda0 - 97.40918711472358) < 1e-8

    def test_eigenpair_relation(self):
        eig = normalized_power_iteration(LAPLACE_3D, dome(401), tol=1e-12)
        w = apply_composite(LAPLACE_3D, eig.shape)
        assert sup_norm(eig.shape) == pytest.approx(1.0, abs=1e-12)
        assert float(np.max(np.abs(w.values - eig.mu * eig.shape.values))) < 1e-10
        assert eig.lambda0 == pytest.approx(1.0 / eig.mu, rel=1e-14)
        assert cone_check(eig.shape).in_cone

    def test_start_independence(self):
        t = grid_points(301)
        starts = [
            GridFunction(1.0 - t * t),
            GridFunction(2.0 * (1.0 - t)),
            GridFunction(0.3 * (1.0 - t * t) + 1.7 * (1.0 - t)),
        ]
        values = [
            normalized_power_iteration(LAPLACE_3D, s, tol=1e-12).lambda0
            for s in starts
        ]
        spread = (max(values) - min(values)) / min(values)
        assert spread < 1e-8

    def test_warm_start_converges_immediately(self):
        eig = normalized_power_iteration(LAPLACE_3D, dome(301), tol=1e-12)
        again = normalized_power_iteration(LAPLACE_3D, eig.shape, tol=1e-10)
        assert again.iterations <= 2

    def test_rejects_bad_starts(self):
        t = grid_points(301)
        with pytest.raises(ValueError):
            normalized_power_iteration(LAPLACE_3D, GridFunction(np.exp(-20.0 * t)))
        with pytest.raises(ValueError):
            normalized_power_iteration(LAPLACE_3D, GridFunction(np.zeros(301)))


class TestRescaleToSolution:
    def test_matches_picard_for_sublinear(self):
        M = 401
        eig = normalized_power_iteration(SUBLINEAR, dome(M), tol=1e-12)
        bundle = rescale_to_solution(SUBLINEAR, eig)
        rep = picard_solve(SUBLINEAR, dome(M), tol=1e-12)
        gap = np.max(np.abs(bundle.v[0].values - rep.solution.v[0].values))
        assert gap / sup_norm(rep.solution.v[0]) < 1e-5

    def test_superlinear_scale_algebra(self):
        # rho = 9: c = mu^{-1/8} must make c*shape a fixed point
        spec = PowerSystemSpec(2, (1, 1), (3.0, 3.0))
        eig = normalized_power_iteration(spec, dome(401), tol=1e-12)
        bundle = rescale_to_solution(spec, eig)
        w = apply_composite(spec, bundle.v[0])
        defect = np.max(np.abs(w.values - bundle.v[0].values))
        assert defect / (1.0 + sup_norm(bundle.v[0])) < 1e-8

    def test_critical_ratio_returns_none(self):
        eig = normalized_power_iteration(CRITICAL, dome(301))
        assert rescale_to_solution(CRITICAL, eig) is None

    @pytest.mark.parametrize("eps", [-1e-13, -1e-9, 1e-13])
    def test_ratio_near_one_has_no_scale(self, eps):
        # ratio 1 + eps: |eps| <= 1e-12 counts as 1, and at eps = -1e-9 the
        # scale mu^{1/(1-rho)} = mu^{1e9} underflows to 0
        spec = PowerSystemSpec(2, (1, 1), (1.0, 1.0 + eps))
        eig = normalized_power_iteration(spec, dome(301))
        assert eig.mu < 1.0
        assert rescale_to_solution(spec, eig) is None

    def test_unit_mu_means_no_rescaling(self):
        shape = dome(301)
        eig = EigenResult(
            shape=shape, mu=1.0, lambda0=1.0, shape_delta=0.0, iterations=1
        )
        bundle = rescale_to_solution(SUBLINEAR, eig)
        expected = make_bundle(SUBLINEAR, shape)
        np.testing.assert_array_equal(bundle.v[0].values, expected.v[0].values)


class TestNormProfileScan:
    def test_sublinear_single_crossing(self):
        prof = norm_profile_scan(SUBLINEAR, 1e-3, 1e3, 16, grid_size=301)
        assert len(prof.sign_changes) == 1
        assert len(prof.roots) == 1
        assert all(prof.converged)
        bundle = prof.solutions[0]
        assert bundle is not None
        assert verify_solution(bundle).passed

    def test_root_matches_picard_norm(self):
        prof = norm_profile_scan(SUBLINEAR, 1e-3, 1e3, 16, grid_size=301)
        rep = picard_solve(SUBLINEAR, dome(301), tol=1e-12)
        assert abs(prof.roots[0] - sup_norm(rep.solution.v[0])) < 1e-8

    def test_critical_contraction_has_no_crossing(self):
        prof = norm_profile_scan(CRITICAL, 1e-3, 1e3, 16, grid_size=301)
        assert prof.sign_changes == ()
        assert prof.roots == ()
        # G(r)/r is the constant contraction factor, below one
        ratios = np.array(prof.values) / np.array(prof.radii)
        assert np.all(ratios < 1.0)
        assert np.ptp(ratios) < 1e-6

    def test_annihilated_radii_are_not_converged(self):
        # at norms near 1e-200 the cube underflows: A(r shape) is exactly 0
        spec = PowerSystemSpec(2, (1, 1), (3.0, 3.0))
        prof = norm_profile_scan(spec, 1e-200, 1e-190, 8, grid_size=101)
        assert prof.values == (0.0,) * 8
        assert prof.converged == (False,) * 8

    @pytest.mark.parametrize(
        "spec, r_min, r_max, points",
        [
            (SystemSpec(2, (1, 1), (MULT_FORCING,) * 2), 1e-4, 1e4, 48),
            (PowerSystemSpec(2, (1, 1), (2.0, 2.0)), 1e-3, 1e3, 32),
        ],
        ids=["criterion9", "gamma22"],
    )
    def test_no_composite_input_repeats(self, monkeypatch, spec, r_min, r_max, points):
        seen = []
        apply = solver.apply_composite

        def hashing(spec, v1, return_chain=False):
            seen.append(hashlib.sha256(_values(v1).tobytes()).hexdigest())
            return apply(spec, v1, return_chain=return_chain)

        monkeypatch.setattr(solver, "apply_composite", hashing)
        prof = norm_profile_scan(spec, r_min, r_max, points, grid_size=301)
        assert prof.roots
        assert len(set(seen)) == len(seen)

    def test_large_ratio_root_is_accepted(self):
        # gamma = (20, 20): ratio 400, so G is steep at the root and a stop
        # on bracket width alone would leave a defect above acceptance
        spec = PowerSystemSpec(2, (1, 1), (20.0, 20.0))
        prof = norm_profile_scan(spec, 0.3, 3.0, 24, grid_size=1001)
        assert len(prof.roots) == 1
        assert prof.solutions[0] is not None

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            norm_profile_scan(SUBLINEAR, 0.0, 1.0, 16)
        with pytest.raises(ValueError):
            norm_profile_scan(SUBLINEAR, 2.0, 1.0, 16)
        with pytest.raises(ValueError):
            norm_profile_scan(SUBLINEAR, 1e-2, 1e2, 7)


class TestLambdaMachinery:
    def test_exponent_recursion(self):
        assert lambda_product_exponents(CRITICAL) == (1.0, 1.0)
        spec = PowerSystemSpec(4, (2, 1, 2), (4.0, 1.0, 1.0))
        assert lambda_product_exponents(spec) == (1.0, 4.0, 2.0)

    def test_product_check_accepts_matching_splits(self):
        eig = normalized_power_iteration(LAPLACE_3D, dome(401), tol=1e-12)
        lam0 = eig.lambda0
        assert bool(lambda_product_check(LAPLACE_3D, (lam0, 1.0), eig))
        assert bool(lambda_product_check(LAPLACE_3D, (1.0, lam0), eig))
        split = (math.sqrt(lam0), math.sqrt(lam0))
        assert bool(lambda_product_check(LAPLACE_3D, split, eig))

    def test_product_check_rejects_mismatch(self):
        eig = normalized_power_iteration(LAPLACE_3D, dome(401), tol=1e-12)
        chk = lambda_product_check(LAPLACE_3D, (1.1 * eig.lambda0, 1.0), eig)
        assert not chk.matches
        assert chk.target == pytest.approx(eig.lambda0)

    def test_product_check_domain(self):
        eig = normalized_power_iteration(LAPLACE_3D, dome(301))
        with pytest.raises(ValueError):
            lambda_product_check(SUBLINEAR, (1.0, 1.0), eig)
        with pytest.raises(ValueError):
            lambda_product_check(LAPLACE_3D, (1.0,), eig)
        with pytest.raises(ValueError):
            lambda_product_check(LAPLACE_3D, (1.0, -2.0), eig)

    def test_matching_multipliers_admit_the_eigenfunction(self):
        eig = normalized_power_iteration(LAPLACE_3D, dome(401), tol=1e-12)
        scaled = lambda_scaled_system(LAPLACE_3D, (1.0, eig.lambda0))
        w = apply_composite(scaled, eig.shape)
        assert float(np.max(np.abs(w.values - eig.shape.values))) < 1e-9

    def test_scaled_system_eigenvalue_is_one(self):
        eig = normalized_power_iteration(LAPLACE_3D, dome(401), tol=1e-12)
        scaled = lambda_scaled_system(LAPLACE_3D, (1.0, eig.lambda0))
        mu = normalized_power_iteration(scaled, dome(401), tol=1e-12).mu
        assert abs(mu - 1.0) < 1e-6

    def test_undersized_multipliers_collapse(self):
        eig = normalized_power_iteration(LAPLACE_3D, dome(401), tol=1e-12)
        scaled = lambda_scaled_system(LAPLACE_3D, (0.5 * eig.lambda0, 1.0))
        rep = picard_solve(scaled, dome(401), tol=1e-12)
        assert rep.status is IterationStatus.COLLAPSED_TO_ZERO

    def test_oversized_multipliers_diverge(self):
        eig = normalized_power_iteration(LAPLACE_3D, dome(401), tol=1e-12)
        scaled = lambda_scaled_system(LAPLACE_3D, (2.0 * eig.lambda0, 1.0))
        rep = picard_solve(scaled, dome(401), tol=1e-12)
        assert rep.status is IterationStatus.DIVERGED

    def test_scaling_factors_absorb_multipliers(self):
        eig = normalized_power_iteration(LAPLACE_3D, dome(401), tol=1e-12)
        lam = (1.0, eig.lambda0)
        # after the substitution the only multiplier is the collapsed product
        product = lambda_product_check(LAPLACE_3D, lam, eig).product
        single = lambda_scaled_system(LAPLACE_3D, (product, 1.0))
        w = apply_composite(single, eig.shape)
        assert float(np.max(np.abs(w.values - eig.shape.values))) < 1e-9


class TestPurePowerPreconditions:
    # 2 v^0.5 is a power of v, but not exactly v**gamma, so spec.gamma is None
    TWO_ROOT = SystemSpec(2, (1, 1), (NonlinearitySpec(((2.0, 0.0, 0.5),)),) * 2)
    EIG = EigenResult(
        shape=dome(101), mu=1.0, lambda0=1.0, shape_delta=0.0, iterations=1
    )

    @pytest.mark.parametrize(
        "call",
        [
            lambda spec, eig: rescale_to_solution(spec, eig),
            lambda spec, eig: lambda_product_exponents(spec),
            lambda spec, eig: lambda_product_check(spec, (1.0, 1.0), eig),
            lambda spec, eig: lambda_scaled_system(spec, (1.0, 1.0)),
            lambda spec, eig: sublinearity_check(spec, dome(101), 0.5),
            lambda spec, eig: chain_contraction_bound(spec),
        ],
        ids=[
            "rescale_to_solution",
            "lambda_product_exponents",
            "lambda_product_check",
            "lambda_scaled_system",
            "sublinearity_check",
            "chain_contraction_bound",
        ],
    )
    def test_needs_a_pure_power_system(self, call):
        assert self.TWO_ROOT.gamma is None
        with pytest.raises(ValueError, match="needs a pure-power system"):
            call(self.TWO_ROOT, self.EIG)


class TestCompositeMonotonicity:
    @given(
        st.lists(st.floats(0.0, 2.0), min_size=2, max_size=4),
        st.floats(0.05, 1.5),
    )
    def test_pointwise_order_is_preserved(self, coeffs, bump):
        spec = PowerSystemSpec(3, (2, 1), (1.0, 1.5))
        t = grid_points(101)
        lo = np.polyval(coeffs, t) * (1.0 - t)
        hi = lo + bump * (1.0 - t)
        a = apply_composite(spec, GridFunction(lo)).values
        b = apply_composite(spec, GridFunction(hi)).values
        assert np.all(a <= b + 1e-12)
