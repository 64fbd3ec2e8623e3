import math

import numpy as np
import pytest

from hessball import (
    GridFunction,
    IterationStatus,
    NonlinearitySpec,
    PowerSystemSpec,
    SolutionBundle,
    SystemSpec,
    grid_points,
    make_bundle,
    ode_residual,
    picard_solve,
    residual_tolerance,
    sup_norm,
    verify_solution,
)
from hessball import analysis, operators, verify
from oracle import constant_forcing_solution
from richardson import richardson_order


def constant_system(N=2, k=1):
    f = NonlinearitySpec(((1.0, 0.0, 0.0),))
    return SystemSpec(N, (k, k), (f, f))


def dome(M):
    t = grid_points(M)
    return GridFunction(1.0 - t * t)


class TestResidualTolerance:
    def test_grid_law(self):
        assert residual_tolerance(101) == 4000.0 / 101**2
        assert residual_tolerance(1001) == 4000.0 / 1001**2

    def test_floor(self):
        assert residual_tolerance(10**6) == 1e-6

    def test_monotone(self):
        values = [residual_tolerance(M) for M in (11, 101, 1001, 10001, 100001)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestConstantForcingSolution:
    def test_closed_form(self):
        M = 101
        t = grid_points(M)
        w = constant_forcing_solution(2, 1, M)
        np.testing.assert_allclose(w.values, 0.25 * (1.0 - t * t), atol=1e-15)

    def test_matches_operator_output(self):
        from hessball import apply_operator

        spec = constant_system(3, 2)
        M = 201
        w = apply_operator(spec, 1, dome(M))
        ref = constant_forcing_solution(3, 2, M)
        np.testing.assert_allclose(w.values, ref.values, atol=1e-13)

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            constant_forcing_solution(2, 3, 11)
        with pytest.raises(ValueError):
            constant_forcing_solution(2, 0, 11)


class TestOdeResidual:
    def test_exact_solution_has_tiny_residual(self):
        # exact quadrature: what is left is cumsum roundoff amplified by 1/h^2
        bundle = make_bundle(constant_system(), dome(101))
        res = ode_residual(bundle.spec, bundle.v)
        assert res.shape == (2,)
        assert float(np.max(res)) < 1e-10

    def test_profile_count_checked(self):
        spec = constant_system()
        with pytest.raises(ValueError):
            ode_residual(spec, (dome(101),))

    def test_shared_grid_checked(self):
        spec = constant_system()
        with pytest.raises(ValueError):
            ode_residual(spec, (dome(101), dome(51)))

    def test_minimum_grid(self):
        spec = constant_system()
        with pytest.raises(ValueError):
            ode_residual(spec, (dome(5), dome(5)))


class TestVerifySolution:
    def test_constant_forcing_bundle_passes(self):
        bundle = make_bundle(constant_system(), dome(201))
        report = verify_solution(bundle)
        assert report.passed
        assert report.cone_ok and report.convex_ok
        assert max(report.max_residual) < 1e-10
        assert max(report.boundary_errors) < 1e-13
        assert min(report.admissibility_margins) >= 0.0
        assert report.residual_tol == residual_tolerance(201)

    @pytest.mark.parametrize(
        "gamma, M", [((0.5, 0.5), 101), ((0.9, 1.0), 1001)], ids=["sublinear", "ratio-0.9"]
    )
    def test_zero_bundle_fails(self, gamma, M):
        # the trivial fixed point meets every tolerance exactly; only the
        # nontriviality gate on the sup norms turns it down
        spec = PowerSystemSpec(2, (1, 1), gamma)
        zeros = GridFunction(np.zeros(M))
        report = verify_solution(SolutionBundle(v=(zeros, zeros), spec=spec))
        assert report.sup_norms == (0.0, 0.0)
        assert max(report.max_residual) == 0.0 and max(report.boundary_errors) == 0.0
        assert min(report.admissibility_margins) == 0.0
        assert not report.passed

    def test_corrupted_sample_fails(self):
        good = make_bundle(constant_system(), dome(201))
        vals = good.v[0].values.copy()
        vals[100] += 0.01
        bad = SolutionBundle(v=(GridFunction(vals), good.v[1]), spec=good.spec)
        report = verify_solution(bad)
        assert not report.passed
        assert max(report.max_residual) > 1.0

    def test_nonzero_origin_slope_fails(self):
        t = grid_points(201)
        tent = GridFunction(1.0 - t)
        bundle = SolutionBundle(v=(tent, tent), spec=constant_system())
        report = verify_solution(bundle)
        assert not report.passed
        # slope at the origin shows up as the second boundary entry
        assert report.boundary_errors[1] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_hessian_per_profile_and_equation(self, monkeypatch, n):
        # one eigenvalue pair per profile, and one sigma_l per degree l <= N,
        # give its residual and its margins
        calls = {"hessian_eigenvalues": 0, "_symmetric_function": 0}
        for name in calls:
            original = getattr(operators, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            for module in (operators, analysis, verify):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        spec = PowerSystemSpec(3, (1, 2, 3)[:n], (0.5,) * n)
        verify_solution(make_bundle(spec, dome(201)))
        assert calls == {"hessian_eigenvalues": n, "_symmetric_function": n * 3}

    def test_tol_override(self, monkeypatch):
        # the gate is the tolerance law at the bundle's own grid size
        bundle = make_bundle(PowerSystemSpec(2, (1, 1), (0.5, 0.5)), dome(201))

        def law(tol):
            return lambda M: tol if M == 201 else math.nan

        monkeypatch.setattr(verify, "residual_tolerance", law(10.0))
        loose = verify_solution(bundle)
        monkeypatch.setattr(verify, "residual_tolerance", law(1e-20))
        tight = verify_solution(bundle)
        assert loose.residual_tol == 10.0 and loose.passed
        assert tight.residual_tol == 1e-20 and not tight.passed

    @pytest.mark.parametrize(
        "spec",
        [
            PowerSystemSpec(2, (1, 1), (0.5, 0.5)),
            PowerSystemSpec(3, (3, 3), (1.0, 1.0)),
            PowerSystemSpec(4, (2, 3), (1.0, 0.5)),
        ],
        ids=["laplace-sublinear", "monge-ampere", "mixed-degrees"],
    )
    def test_converged_solutions_verify(self, spec):
        M = 501
        rep = picard_solve(spec, dome(M), tol=1e-11)
        assert rep.status is IterationStatus.CONVERGED
        report = verify_solution(rep.solution)
        assert report.passed
        assert max(report.max_residual) <= residual_tolerance(M)


class TestRichardsonOrder:
    def test_recovers_synthetic_order(self):
        rep = richardson_order(lambda M: (1.0 / (M - 1)) ** 2, (101, 201, 401))
        assert not rep.saturated
        assert rep.order == pytest.approx(2.0, abs=1e-10)
        rep = richardson_order(lambda M: (1.0 / (M - 1)) ** 1.5, (101, 201, 401))
        assert rep.order == pytest.approx(1.5, abs=1e-10)

    def test_saturation_detected(self):
        rep = richardson_order(lambda M: 1e-16, (101, 201, 401))
        assert rep.saturated
        assert math.isnan(rep.order)
        assert rep.errors == (1e-16, 1e-16, 1e-16)

    def test_needs_three_sizes(self):
        with pytest.raises(ValueError):
            richardson_order(lambda M: 1.0 / M, (101, 201))

    def test_residual_order_of_determinant_system(self):
        # the k = N = 3 pair stresses the origin quadrature the hardest
        spec = PowerSystemSpec(3, (3, 3), (1.0, 1.0))

        def residual_at(M):
            rep = picard_solve(spec, dome(M), tol=1e-12)
            assert rep.status is IterationStatus.CONVERGED
            return max(verify_solution(rep.solution).max_residual)

        rep = richardson_order(residual_at, (251, 501, 1001))
        assert not rep.saturated
        assert 1.9 <= rep.order <= 2.1
