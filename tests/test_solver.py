import hashlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hessball import (
    EigenResult,
    GridFunction,
    IterationStatus,
    NonlinearitySpec,
    PowerSystemSpec,
    QuadratureTable,
    SystemSpec,
    apply_composite,
    apply_operator,
    chain_contraction_bound,
    classify_growth,
    cone_check,
    grid_points,
    lambda_product_check,
    lambda_product_exponents,
    make_bundle,
    norm_profile_scan,
    normalized_power_iteration,
    picard_solve,
    rescale_to_solution,
    sublinearity_check,
    sup_norm,
    verify_solution,
)
from hessball import operators, solver
from hessball.core import NonFiniteError, _values, unit_ratio_sign
from oracle import lambda_scaled_system
from richardson import richardson_order

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
        chain = apply_composite(SUBLINEAR, v1)
        for stored, computed in zip(bundle.v, chain):
            np.testing.assert_array_equal(stored.values, computed)


class TestPicardSolve:
    def test_sublinear_convergence(self):
        rep = picard_solve(SUBLINEAR, dome(401))
        assert rep.status is IterationStatus.CONVERGED
        assert rep.solution is not None
        assert abs(sup_norm(rep.solution.v[0]) - 0.0435) < 1e-3
        assert verify_solution(rep.solution).passed

    def test_critical_collapse(self):
        # the ratio-1 map is linear along the cone, contracting by mu ~0.03:
        # plain steps decay to the collapse cut at step 7, and the mixed
        # step lands on the trivial fixed point sooner.  Either way a decay
        # to zero reads as a collapse, not as convergence.
        rep = picard_solve(CRITICAL, dome(301), tol=1e-12)
        assert rep.status is IterationStatus.COLLAPSED_TO_ZERO
        assert rep.iterations <= 7
        assert rep.solution is None

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
        rep = picard_solve(spec, big)
        assert rep.status is IterationStatus.DIVERGED
        assert rep.iterations == 1
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
        monkeypatch.setattr(solver, "MAX_COMPOSITES", 2)
        rep = picard_solve(SUBLINEAR, dome(301), tol=1e-15)
        assert rep.status is IterationStatus.MAX_ITER
        assert rep.iterations == 2
        assert rep.solution is None

    def test_final_delta_is_the_fixed_point_defect(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_COMPOSITES", 1)
        init = dome(301)
        rep = picard_solve(CRITICAL, init, tol=1e-12)
        assert rep.status is IterationStatus.MAX_ITER
        step = apply_composite(CRITICAL, init)[0]
        defect = float(np.max(np.abs(step - init.values)))
        assert rep.final_delta == defect

    def test_cone_start_required(self):
        t = grid_points(301)
        with pytest.raises(ValueError):
            picard_solve(SUBLINEAR, GridFunction(np.exp(-20.0 * t)))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            picard_solve(SUBLINEAR, dome(301), tol=-1.0)


def two_term_system(N, k, b, shrink, c1, c2, p):
    """Forcing c1 v^(shrink b_i) + c2 t^p v^b_i in equation i."""
    return SystemSpec(
        N, k,
        tuple(NonlinearitySpec(((c1, 0.0, shrink * bi), (c2, p, bi))) for bi in b),
    )


def two_term_sample(count, seed=7):
    """count C1 two-term systems drawn as sublinear (ratio 0.2-0.95) forcings."""
    rng = np.random.default_rng(seed)
    systems = []
    for _ in range(count):
        N = int(rng.integers(2, 5))
        k = tuple(int(x) for x in rng.integers(1, N + 1, size=2))
        w = rng.uniform(0.3, 0.7)
        product = rng.uniform(0.2, 0.95) * k[0] * k[1]
        b = (product**w, product ** (1.0 - w))
        systems.append(two_term_system(
            N, k, b, rng.uniform(0.3, 0.8), *rng.uniform(0.5, 2.0, size=2),
            rng.uniform(0.0, 2.0),
        ))
    return systems


def plain_picard(spec, init, tol):
    """picard_solve without the mix: v <- A(v) under the same stops.

    Returns (status, iterations).
    """
    init_norm, v = sup_norm(init), init.values
    plan = QuadratureTable(v.size)
    for iterations in range(1, solver.MAX_COMPOSITES + 1):
        g = apply_composite(spec, v, plan=plan)[0]
        delta, norm, v = sup_norm(g - v), sup_norm(g), g
        if norm < solver.COLLAPSE_RELATIVE * init_norm:
            return IterationStatus.COLLAPSED_TO_ZERO, iterations
        if norm > solver.DIVERGENCE_NORM:
            return IterationStatus.DIVERGED, iterations
        if delta <= tol * (1.0 + norm):
            return IterationStatus.CONVERGED, iterations
    return IterationStatus.MAX_ITER, iterations


def settled_fixed_point(spec, v):
    """Plain steps from v until the defect stops falling: the fixed point to rounding."""
    plan, best = QuadratureTable(v.size), math.inf
    for _ in range(solver.MAX_COMPOSITES):
        g = apply_composite(spec, v, plan=plan)[0]
        defect = sup_norm(g - v)
        if defect >= best:
            break
        best, v = defect, g
    return v


# a two-term system that takes 34 plain steps at M = 4001
SLOW_TWO_TERM = SystemSpec(2, (2, 1), (
    NonlinearitySpec(((1.12, 0.0, 1.045), (1.36, 1.71, 1.337))),
    NonlinearitySpec(((1.12, 0.0, 0.987), (1.36, 1.71, 1.264))),
))


class TestAndersonMix:
    """picard_solve's depth-1 Anderson mix against the plain iteration."""

    @pytest.mark.parametrize("spec", two_term_sample(12))
    def test_same_fixed_point_as_plain_steps(self, spec):
        assert classify_growth(spec).condition == "C1"
        init = dome(1001)
        status, plain_iterations = plain_picard(spec, init, 1e-10)
        assert status is IterationStatus.CONVERGED
        rep = picard_solve(spec, init)
        assert rep.status is IterationStatus.CONVERGED
        assert rep.iterations <= plain_iterations
        got = rep.solution.v[0].values
        ref = settled_fixed_point(spec, got)
        assert sup_norm(got - ref) <= 1e-8 * sup_norm(ref)

    def test_slow_two_term_system(self):
        assert classify_growth(SLOW_TWO_TERM).condition == "C1"
        init = dome(4001)
        status, plain_iterations = plain_picard(SLOW_TWO_TERM, init, 1e-10)
        assert status is IterationStatus.CONVERGED and plain_iterations == 34
        rep = picard_solve(SLOW_TWO_TERM, init)
        assert rep.status is IterationStatus.CONVERGED
        assert rep.iterations <= 12
        assert verify_solution(rep.solution).passed

    def test_rising_defect_takes_the_plain_step(self, monkeypatch):
        # step 3's output is pushed up by a bump, so its defect rises above
        # step 2's: step 4 must start from that output itself
        calls = record_composites(monkeypatch)
        composite = solver._composite
        bump = 10.0 * dome(301).values

        def rising_at_step_3(spec, v, plan):
            chain = composite(spec, v, plan)
            if len(calls) == 3:
                chain = (chain[0] + bump,) + chain[1:]
            return chain

        monkeypatch.setattr(solver, "_composite", rising_at_step_3)
        rep = picard_solve(SUBLINEAR, dome(301))
        assert rep.status is IterationStatus.CONVERGED and rep.iterations > 4
        defects = [sup_norm(chain[0] - v) for v, chain in calls[:2]]
        assert defects[1] < defects[0]
        # step 3 took the mix (not its input's image), step 4 the plain step
        assert not np.array_equal(calls[2][0], calls[1][1][0])
        np.testing.assert_array_equal(calls[3][0], calls[2][1][0] + bump)

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).filter(any),
        st.floats(-3.0, 3.0),
        st.floats(0.3, 3.0),
        st.floats(0.3, 1.0),
        st.floats(0.0, 2.0),
    )
    def test_inputs_stay_nonnegative(self, weights, log_scale, gamma, shrink, p):
        # concave decreasing profiles vanishing at t = 1 lie in the cone;
        # sublinear, ratio-1 and superlinear systems, small to large starts
        t = grid_points(101)
        start = np.column_stack([1.0 - t, 1.0 - t * t, 1.0 - t**4]) @ weights
        init = GridFunction(10.0**log_scale * start)
        spec = two_term_system(2, (1, 1), (gamma, gamma), shrink, 1.0, 1.0, p)
        inputs = []
        composite = solver._composite

        def recording(spec, v, plan):
            inputs.append(float(v.min()))
            return composite(spec, v, plan)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_composite", recording)
            rep = picard_solve(spec, init)
        assert min(inputs) >= 0.0
        assert rep.status in set(IterationStatus)
        assert (rep.solution is not None) is (rep.status is IterationStatus.CONVERGED)


def reference_picard(spec, init, tol=1e-10):
    """picard_solve's loop with its depth-1 Anderson mix written out inline.

    The loop as it stood before the mix moved into solver._mix, kept as
    the reference that picard_solve must match bit for bit.  Returns
    (status, iterations, final_delta, chain), chain None unless converged.
    """
    init_norm = sup_norm(init)
    v = np.asarray(init.values, dtype=float)
    plan = QuadratureTable(v.size)
    delta = last_delta = math.inf
    last_g = last_f = None
    status = IterationStatus.MAX_ITER
    for iterations in range(1, solver.MAX_COMPOSITES + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                chain = apply_composite(spec, v, plan=plan)
            except NonFiniteError:
                chain = None
        if chain is None:
            delta = norm = math.inf
        else:
            g = chain[0]
            f = g - v
            delta, norm = sup_norm(f), sup_norm(g)
        if norm < solver.COLLAPSE_RELATIVE * init_norm:
            status = IterationStatus.COLLAPSED_TO_ZERO
        elif norm > solver.DIVERGENCE_NORM:
            status = IterationStatus.DIVERGED
        elif delta <= tol * (1.0 + norm):
            status = IterationStatus.CONVERGED
        else:
            v = g
            if last_f is not None and delta <= last_delta:
                df = f - last_f
                dd = float(df @ df)
                if dd > 0:
                    v = g - (float(df @ f) / dd) * (g - last_g)
                    np.maximum(v, 0.0, out=v)
            last_g, last_f, last_delta = g, f, delta
            continue
        break
    converged = status is IterationStatus.CONVERGED
    return status, iterations, delta, chain if converged else None


def draw_degrees(draw, ratios=st.floats(0.2, 1.5)):
    """(N, k, b): N = 2..4, k_i in 1..N, b_1 b_2 / (k_1 k_2) drawn from ratios."""
    N = draw(st.integers(2, 4))
    k = (draw(st.integers(1, N)), draw(st.integers(1, N)))
    product = draw(ratios) * k[0] * k[1]
    w = draw(st.floats(0.3, 0.7))
    return N, k, (product**w, product ** (1.0 - w))


@st.composite
def two_term_systems(draw):
    """A two-term system (two_term_system), sublinear to superlinear."""
    return two_term_system(
        *draw_degrees(draw), draw(st.floats(0.3, 0.8)), draw(st.floats(0.5, 2.0)),
        draw(st.floats(0.5, 2.0)), draw(st.floats(0.0, 2.0)),
    )


@st.composite
def pure_power_systems(draw):
    """A pure power system v^b_i, sublinear to superlinear."""
    return PowerSystemSpec(*draw_degrees(draw))


@st.composite
def rescalable_power_systems(draw):
    """A pure power system v^b_i with ratio in [0.2, 0.95] or [1.05, 4]."""
    ratios = st.floats(0.2, 0.95) | st.floats(1.05, 4.0)
    return PowerSystemSpec(*draw_degrees(draw, ratios))


class TestPicardMatchesReference:
    """The shared mix helper leaves picard_solve's arithmetic unchanged."""

    # sublinear to superlinear, small to large starts: every status, and
    # steps whose defect rises
    @given(two_term_systems(), st.integers(7, 2001), st.floats(-3.0, 3.0))
    def test_bit_identical(self, spec, M, log_scale):
        init = GridFunction(10.0**log_scale * dome(M).values)
        status, iterations, delta, chain = reference_picard(spec, init)
        rep = picard_solve(spec, init)
        assert rep.status is status
        assert rep.iterations == iterations
        assert rep.final_delta == delta
        assert (rep.solution is None) is (chain is None)
        if chain is not None:
            for got, want in zip(rep.solution.v, chain):
                assert np.array_equal(got.values, want)

    @pytest.mark.parametrize(
        "spec, scale, M, tol",
        [
            (SLOW_TWO_TERM, 1.0, 4001, 1e-10),
            # the clip at 0 decides these collapses
            (CRITICAL, 1.0, 301, 1e-12),
            (lambda_scaled_system(LAPLACE_3D, (48.0, 1.0)), 1.0, 401, 1e-12),
            # a rising defect takes the plain step on the way to divergence
            (lambda_scaled_system(LAPLACE_3D, (195.0, 1.0)), 1.0, 401, 1e-12),
            (PowerSystemSpec(2, (1, 1), (3.0, 3.0)), 50.0, 301, 1e-12),
        ],
        ids=["slow-two-term", "critical", "undersized", "oversized", "superlinear"],
    )
    def test_fixed_cases(self, spec, scale, M, tol):
        init = GridFunction(scale * dome(M).values)
        status, iterations, delta, chain = reference_picard(spec, init, tol)
        rep = picard_solve(spec, init, tol)
        assert (rep.status, rep.iterations, rep.final_delta) == (status, iterations, delta)
        if chain is not None:
            assert all(np.array_equal(g.values, w) for g, w in zip(rep.solution.v, chain))


def plain_shape_iteration(spec, start, tol):
    """The normalized step shape <- A(shape)/||A(shape)|| without the mix.

    Returns (shape, delta, iterations) of the last step, as
    solver._shape_iteration does at r = 1.
    """
    shape, plan = start, QuadratureTable(start.size)
    for iterations in range(1, solver.MAX_COMPOSITES + 1):
        g = apply_composite(spec, shape, plan=plan)[0]
        new = g / sup_norm(g)
        delta = sup_norm(new - shape)
        if delta <= tol:
            break
        shape = new
    return shape, delta, iterations


shape_systems = st.one_of(pure_power_systems(), two_term_systems())


class TestMixedShapeIteration:
    """_shape_iteration's mixed inputs keep every certificate read off them."""

    @given(shape_systems, st.integers(7, 2001), st.floats(-2.0, 2.0), st.integers(1, 12))
    def test_returns_a_unit_input_and_its_own_defect(self, spec, M, log_r, cap):
        # hypothesis rejects function-scoped fixtures, so no monkeypatch here
        r = 10.0**log_r
        with mock.patch.object(solver, "MAX_COMPOSITES", cap):
            shape, chain, delta, G, _ = solver._shape_iteration(
                spec, r, dome(M).values, QuadratureTable(M), solver.SCAN_INNER_TOL
            )
        assert chain is not None and 0 < G < math.inf
        assert shape.min() >= 0.0 and sup_norm(shape) == 1.0
        # G, delta and the chain all belong to the returned input
        assert np.array_equal(chain[0], apply_composite(spec, r * shape)[0])
        assert G == sup_norm(chain[0])
        image = chain[0] / G
        assert delta == sup_norm(image - shape)
        # the mix never takes the shape out of a cone the map's image lies in
        # (steep forcings bend the image itself out of it; see verify)
        assert cone_check(shape).in_cone or not cone_check(image).in_cone

    @given(shape_systems, st.integers(7, 2001))
    def test_power_iteration_bracket_holds_mu(self, spec, M):
        eig = normalized_power_iteration(spec, dome(M))
        assert eig.status is IterationStatus.CONVERGED
        lo, hi = eig.mu_bounds
        assert lo <= eig.mu <= hi
        assert sup_norm(eig.shape) == 1.0
        image = eig.solution.v[0].values / eig.mu
        assert eig.shape_delta == sup_norm(image - eig.shape.values)
        assert cone_check(eig.shape).in_cone or not cone_check(image).in_cone

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_fewer_composites_than_plain_steps(self, N):
        # the fine_grid systems' COARSE_GRID stage: the same shape in fewer steps
        spec = PowerSystemSpec(N, (1, 1), (1.0, 1.0))
        start = dome(solver.COARSE_GRID).values
        plain, plain_delta, plain_iterations = plain_shape_iteration(spec, start, 1e-12)
        shape, _, delta, _, iterations = solver._shape_iteration(
            spec, 1.0, start, QuadratureTable(start.size), 1e-12
        )
        assert delta <= 1e-12 and plain_delta <= 1e-12
        assert iterations < plain_iterations
        assert sup_norm(shape - plain) <= 1e-11

    def test_mix_is_rescaled_to_unit_norm(self, monkeypatch):
        # images of decreasing profiles peak at t = 0, so a true mix keeps
        # its peak there at 1; a raised mix shows the rescale
        calls = record_composites(monkeypatch)
        monkeypatch.setattr(solver, "_mix", lambda g, *rest: g + 0.25)
        monkeypatch.setattr(solver, "MAX_COMPOSITES", 4)
        r = 2.0
        solver._shape_iteration(SUBLINEAR, r, dome(301).values, QuadratureTable(301))
        assert len(calls) == 4
        for (_, chain), (v, _) in zip(calls, calls[1:]):
            np.testing.assert_array_equal(v, r * ((chain[0] / sup_norm(chain[0]) + 0.25) / 1.25))
            assert sup_norm(v) == r

    def test_all_zero_mix_takes_the_plain_step(self, monkeypatch):
        calls = record_composites(monkeypatch)
        monkeypatch.setattr(solver, "_mix", lambda g, *rest: np.zeros_like(g))
        r = 2.0
        shape, _, delta, _, iterations = solver._shape_iteration(
            SUBLINEAR, r, dome(301).values, QuadratureTable(301)
        )
        assert delta <= solver.SCAN_INNER_TOL and iterations == len(calls) > 2
        # every next input is the last image, normalized
        for (_, chain), (v, _) in zip(calls, calls[1:]):
            np.testing.assert_array_equal(v, r * (chain[0] / sup_norm(chain[0])))


class TestNormalizedPowerIteration:
    def test_laplacian_eigenvalue_3d(self):
        eig = normalized_power_iteration(LAPLACE_3D, dome(1001))
        assert abs(eig.lambda0 - math.pi**4) / math.pi**4 < 1e-3
        assert abs(eig.lambda0 - 97.40918711472358) < 1e-8

    def test_eigenpair_relation(self):
        eig = normalized_power_iteration(LAPLACE_3D, dome(401), tol=1e-12)
        w = apply_composite(LAPLACE_3D, eig.shape)[0]
        assert sup_norm(eig.shape) == pytest.approx(1.0, abs=1e-12)
        assert float(np.max(np.abs(w - eig.mu * eig.shape.values))) < 1e-10
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

    @pytest.mark.parametrize(
        "N, k, gamma",
        [(3, (1, 1), (1.0, 1.0)), (2, (2, 2), (2.0, 2.0)), (3, (1, 2), (2.0, 1.0)),
         (4, (2, 3), (2.0, 3.0))],
    )
    def test_bracket_holds_the_mu_of_other_starts(self, N, k, gamma):
        # Collatz-Wielandt: at ratio 1 the mu of every positive eigenfunction
        # lies in [lo, hi]; other starts stop within their own tol of theirs
        spec = PowerSystemSpec(N, k, gamma)
        t = grid_points(301)
        lo, hi = normalized_power_iteration(spec, dome(301), tol=1e-12).mu_bounds
        for start in (2.0 * (1.0 - t), 0.3 * (1.0 - t * t) + 1.7 * (1.0 - t), 1.0 - t**4):
            mu = normalized_power_iteration(spec, GridFunction(start), tol=1e-12).mu
            assert lo * (1.0 - 1e-10) <= mu <= hi * (1.0 + 1e-10)

    @given(
        st.integers(2, 4),
        st.integers(1, 4),
        st.integers(1, 4),
        st.floats(0.5, 2.0),
        st.integers(7, 101),
    )
    def test_bracket_holds_mu_exactly(self, N, k1, k2, g1, M):
        # the node where shape is 1 gives a ratio <= mu, and the node where
        # A(shape) peaks one >= mu, in floating point too
        k = (min(k1, N), min(k2, N))
        spec = PowerSystemSpec(N, k, (g1, k[0] * k[1] / g1))
        eig = normalized_power_iteration(spec, dome(M))
        lo, hi = eig.mu_bounds
        assert lo <= eig.mu <= hi

    def test_zero_node_opens_the_bracket(self, monkeypatch):
        # a cone start that is 0 near t = 1, stopped after its first step
        monkeypatch.setattr(solver, "MAX_COMPOSITES", 1)
        t = grid_points(301)
        eig = normalized_power_iteration(CRITICAL, GridFunction(np.where(t < 0.76, 1.0, 0.0)))
        assert eig.mu_bounds[1] == math.inf

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

    @pytest.mark.parametrize(
        "c, status",
        [(1e308, IterationStatus.DIVERGED), (1e-300, IterationStatus.COLLAPSED_TO_ZERO)],
        ids=["overflow", "annihilated"],
    )
    def test_degenerate_composite_ends_in_a_status(self, c, status):
        # two 1e308 terms overflow their sum; 1e-300 twice underflows to 0
        f = NonlinearitySpec(((c, 0.0, 1.0), (c, 0.0, 1.0)))
        spec = SystemSpec(2, (1, 1), (f, f))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eig = normalized_power_iteration(spec, dome(101))
        assert eig.status is status
        mu = math.inf if status is IterationStatus.DIVERGED else 0.0
        assert eig.mu == mu and eig.mu_bounds == (mu, mu)
        assert eig.lambda0 == (0.0 if mu else math.inf)
        assert eig.lambda0_bounds == (eig.lambda0, eig.lambda0)
        assert eig.shape_delta == math.inf
        assert eig.solution is None
        # no scale for ratios below and above 1; above, mu = 0 meets a negative power
        for rho_spec in (SUBLINEAR, PowerSystemSpec(2, (1, 1), (2.0, 2.0))):
            assert rescale_to_solution(rho_spec, eig) is None

    def test_converged_and_max_iter_statuses(self, monkeypatch):
        eig = normalized_power_iteration(LAPLACE_3D, dome(301), tol=1e-12)
        assert eig.status is IterationStatus.CONVERGED and eig.shape_delta <= 1e-12
        monkeypatch.setattr(solver, "MAX_COMPOSITES", 2)
        eig = normalized_power_iteration(LAPLACE_3D, dome(301), tol=1e-12)
        assert eig.status is IterationStatus.MAX_ITER and eig.shape_delta > 1e-12
        assert eig.solution is not None


# the first M at which the power iteration runs its coarse stages
NESTED_M = solver.COARSE_MIN_REFINEMENT * (solver.COARSE_GRID - 1) + 1
# the grid of the first coarse stage, twice the spacing of COARSE_GRID
LOW_GRID = (solver.COARSE_GRID + 1) // 2
# first Dirichlet eigenvalue of -Laplace on the unit ball, squared: j^4
LAMBDA0_REF = {2: 33.44523988202471, 3: math.pi**4, 4: 215.5602619361879}


def direct_iteration(spec, init, tol):
    """The fine stage alone from init, as a run below the threshold does it."""
    shape = init.values / sup_norm(init)
    return solver._shape_iteration(
        spec, 1.0, shape, QuadratureTable(shape.size), tol
    )


def fine_composites(calls, M):
    return sum(v1.size == M for v1, _ in calls)


def count_composites(monkeypatch):
    """The grid size of every input to solver.apply_composite, without copies."""
    sizes = []
    apply = solver.apply_composite

    def counting(spec, v1, **kwargs):
        sizes.append(v1.size)
        return apply(spec, v1, **kwargs)

    monkeypatch.setattr(solver, "apply_composite", counting)
    return sizes


def linear_start_fine_iterations(spec, init, tol):
    """Composites on init's grid after one coarse stage, linearly interpolated back.

    The start used before the two-stage extrapolation: init restricted to
    COARSE_GRID nodes, iterated there to tol and interpolated with np.interp.
    """
    t, t_coarse = grid_points(init.grid_size), grid_points(solver.COARSE_GRID)
    coarse, _, delta, _, _ = solver._shape_iteration(
        spec, 1.0, np.interp(t_coarse, t, init.values),
        QuadratureTable(solver.COARSE_GRID), tol,
    )
    assert delta <= tol
    _, _, delta, _, iterations = direct_iteration(
        spec, GridFunction(np.interp(t, t_coarse, coarse)), tol
    )
    assert delta <= tol
    return iterations


class TestProlong:
    """The cubic prolongation that carries coarse shapes to finer grids."""

    @given(
        st.integers(4, 2001),
        st.integers(2, 70001),
        st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    )
    def test_reproduces_cubics(self, m, M, coefs):
        cubic = np.polynomial.Polynomial(coefs)
        got = solver._prolong(cubic(grid_points(m)), M)
        np.testing.assert_allclose(got, cubic(grid_points(M)), rtol=0, atol=1e-13)

    def test_fourth_order(self):
        fine = grid_points(4001)

        def err(m):
            coarse = np.cos(0.5 * np.pi * grid_points(m))
            return np.max(np.abs(solver._prolong(coarse, 4001) - np.cos(0.5 * np.pi * fine)))

        rep = richardson_order(err, (11, 21, 41, 81))
        assert abs(rep.order - 4.0) < 0.2

    def test_cone_start_is_the_cubic_prolongation(self):
        # linear interpolation would err by about (pi h / 2)^2 / 8 = 3e-7 here
        start = solver._cone_start(np.cos(0.5 * np.pi * grid_points(1001)), 64001)
        exact = np.cos(0.5 * np.pi * grid_points(64001))
        assert np.max(np.abs(start - exact)) <= 1e-11
        assert sup_norm(start) == 1.0 and start.min() >= 0.0


class TestNestedPowerIteration:
    """The two coarse stages ahead of the fine iteration."""

    def test_nested_agrees_with_direct(self, monkeypatch):
        assert NESTED_M == 8001
        calls = record_composites(monkeypatch)
        nested = normalized_power_iteration(LAPLACE_3D, dome(NESTED_M), tol=1e-12)
        nested_fine = fine_composites(calls, NESTED_M)
        assert nested_fine == nested.iterations
        assert len(calls) - nested_fine == nested.coarse_iterations > 0
        calls.clear()
        monkeypatch.setattr(solver, "COARSE_MIN_REFINEMENT", 10**9)
        direct = normalized_power_iteration(LAPLACE_3D, dome(NESTED_M), tol=1e-12)
        assert direct.coarse_iterations == 0 and direct.coarse_lambda0 is None
        assert fine_composites(calls, NESTED_M) == len(calls) == direct.iterations

        assert nested.status is direct.status is IterationStatus.CONVERGED
        assert abs(nested.lambda0 - direct.lambda0) <= 1e-10 * direct.lambda0
        # both brackets hold the discrete eigenvalue, so they intersect
        (lo_n, hi_n), (lo_d, hi_d) = nested.mu_bounds, direct.mu_bounds
        assert max(lo_n, lo_d) <= min(hi_n, hi_d)
        assert nested.iterations <= direct.iterations - 3

    def test_each_stage_builds_its_own_plan(self, monkeypatch, built_plans):
        calls = record_composites(monkeypatch)
        eig = normalized_power_iteration(LAPLACE_3D, dome(NESTED_M), tol=1e-12)
        assert built_plans == [LOW_GRID, solver.COARSE_GRID, NESTED_M]
        assert eig.shape.grid_size == eig.solution.grid_size == NESTED_M
        assert_fresh_plan_chains(LAPLACE_3D, calls[-1:], [eig.solution])

    def test_coarse_stage_starts_from_init(self):
        # init restricted to the coarse grid: a settled shape settles there sooner
        eig = normalized_power_iteration(LAPLACE_3D, dome(NESTED_M), tol=1e-12)
        again = normalized_power_iteration(LAPLACE_3D, eig.shape, tol=1e-12)
        assert again.coarse_iterations < eig.coarse_iterations

    def test_prolonged_start_has_unit_norm(self):
        # a start that peaks between the first two nodes of the first
        # coarse grid, at a tol that the first step on each grid meets, so
        # the shape returned is the extrapolated, prolonged start itself
        t = grid_points(NESTED_M)
        values = 1.0 - t * t
        values[1:16] += 1e-4
        eig = normalized_power_iteration(LAPLACE_3D, GridFunction(values), tol=0.3)
        assert eig.iterations == 1 and eig.coarse_iterations == 2
        assert sup_norm(eig.shape) == 1.0

    @pytest.mark.parametrize("M", [401, NESTED_M - 1])
    def test_below_threshold_is_the_direct_iteration(self, M):
        init = dome(M)
        eig = normalized_power_iteration(LAPLACE_3D, init, tol=1e-12)
        shape, chain, delta, mu, iterations = direct_iteration(LAPLACE_3D, init, 1e-12)
        np.testing.assert_array_equal(eig.shape.values, shape)
        for got, want in zip(eig.solution.v, chain):
            np.testing.assert_array_equal(got.values, want)
        assert (eig.mu, eig.shape_delta, eig.iterations) == (mu, delta, iterations)
        assert eig.coarse_iterations == 0
        assert eig.coarse_lambda0 is None and eig.grid_error_estimate is None

    @pytest.mark.parametrize(
        "failure, grid",
        [(failure, grid) for grid in (solver.COARSE_GRID, LOW_GRID)
         for failure in ("overflow", "annihilated")],
        ids=["overflow", "annihilated", "overflow-on-low-grid", "annihilated-on-low-grid"],
    )
    def test_failed_coarse_stage_starts_from_init(self, monkeypatch, failure, grid):
        calls = record_composites(monkeypatch)
        apply = solver.apply_composite

        def broken_on_grid(spec, v1, **kwargs):
            if v1.size != grid:
                return apply(spec, v1, **kwargs)
            if failure == "overflow":
                raise NonFiniteError("overflow on a coarse grid")
            return tuple(np.zeros(v1.size) for _ in range(spec.n))

        monkeypatch.setattr(solver, "apply_composite", broken_on_grid)
        init = dome(NESTED_M)
        eig = normalized_power_iteration(LAPLACE_3D, init, tol=1e-12)
        # the stage ahead of the broken one ran to convergence and counts
        low_calls = sum(v1.size == LOW_GRID for v1, _ in calls)
        assert (low_calls > 0) is (grid == solver.COARSE_GRID)
        assert eig.coarse_iterations == low_calls + 1
        assert eig.coarse_lambda0 is None and eig.grid_error_estimate is None
        monkeypatch.undo()
        shape, chain, delta, mu, iterations = direct_iteration(LAPLACE_3D, init, 1e-12)
        np.testing.assert_array_equal(eig.shape.values, shape)
        assert (eig.mu, eig.shape_delta, eig.iterations) == (mu, delta, iterations)
        assert fine_composites(calls, NESTED_M) == iterations
        assert len(calls) == low_calls + iterations

    @pytest.mark.parametrize("N", [3, 2, 4])
    def test_fine_grid_systems_take_two_fine_composites(self, monkeypatch, N):
        # the benchmark's eigenvalue systems: the extrapolated start leaves
        # at most two composites on M, and lambda0 stays the direct run's
        spec, M = PowerSystemSpec(N, (1, 1), (1.0, 1.0)), 64001
        sizes = count_composites(monkeypatch)
        nested = normalized_power_iteration(spec, dome(M), tol=1e-12)
        assert sizes.count(M) == nested.iterations <= 2
        monkeypatch.setattr(solver, "COARSE_MIN_REFINEMENT", 10**9)
        direct = normalized_power_iteration(spec, dome(M), tol=1e-12)
        assert nested.status is direct.status is IterationStatus.CONVERGED
        assert abs(nested.lambda0 - direct.lambda0) <= 1e-10 * direct.lambda0
        (lo_n, hi_n), (lo_d, hi_d) = nested.mu_bounds, direct.mu_bounds
        assert max(lo_n, lo_d) <= min(hi_n, hi_d)

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_cubic_start_saves_a_fine_composite_at_the_default_tol(
        self, monkeypatch, N
    ):
        # the extrapolated shape prolonged by np.interp in _cone_start takes
        # 2 composites on M for each of these; the cubic prolongation takes 1
        spec = PowerSystemSpec(N, (1, 1), (1.0, 1.0))
        sizes = count_composites(monkeypatch)
        eig = normalized_power_iteration(spec, dome(NESTED_M), tol=1e-10)
        assert eig.status is IterationStatus.CONVERGED
        assert sizes.count(NESTED_M) == eig.iterations == 1

    @given(
        st.integers(2, 4),
        st.integers(1, 4),
        st.integers(1, 4),
        st.floats(0.1, 3.0),
        st.one_of(st.floats(0.2, 0.95), st.just(1.0), st.floats(1.05, 4.0)),
        st.sampled_from([1e-10, 1e-12]),
    )
    def test_never_more_fine_composites_than_the_linear_start(
        self, N, k1, k2, g1, ratio, tol
    ):
        # sublinear (C1), ratio 1 and superlinear pure powers
        k = (min(k1, N), min(k2, N))
        spec = PowerSystemSpec(N, k, (g1, ratio * k[0] * k[1] / g1))
        eig = normalized_power_iteration(spec, dome(16001), tol=tol)
        assert eig.status is IterationStatus.CONVERGED
        assert eig.iterations <= linear_start_fine_iterations(spec, dome(16001), tol)

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_grid_error_estimate_is_the_true_error(self, N):
        # Richardson on 1001 and 64001 nodes against the continuum j^4
        spec = PowerSystemSpec(N, (1, 1), (1.0, 1.0))
        eig = normalized_power_iteration(spec, dome(64001), tol=1e-12)
        error = eig.lambda0 - LAMBDA0_REF[N]
        assert eig.coarse_lambda0 > eig.lambda0 > LAMBDA0_REF[N]
        assert abs(eig.grid_error_estimate - error) <= 0.05 * error


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
        w = apply_composite(spec, bundle.v[0])[0]
        defect = np.max(np.abs(w - bundle.v[0].values))
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
        expected = make_bundle(SUBLINEAR, shape)
        eig = EigenResult(
            shape=shape, mu=1.0, mu_bounds=(1.0, 1.0), lambda0=1.0, shape_delta=0.0,
            iterations=1, coarse_iterations=0, coarse_lambda0=None,
            status=IterationStatus.CONVERGED, solution=expected,
        )
        bundle = rescale_to_solution(SUBLINEAR, eig)
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

        def hashing(spec, v1, **kwargs):
            seen.append(hashlib.sha256(_values(v1).tobytes()).hexdigest())
            return apply(spec, v1, **kwargs)

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

    @pytest.mark.parametrize("steps", [1, 4])
    def test_polish_cut_short_is_not_accepted(self, monkeypatch, steps):
        # the criterion-9 roots need 2 and 5 polish points at M = 301 over 32
        # radii; a root whose polish runs out of points before its defect
        # test passes is not accepted, though its defect can be below
        # 1e-8 (1 + r)
        spec = SystemSpec(2, (1, 1), (MULT_FORCING,) * 2)
        full = norm_profile_scan(spec, 1e-4, 1e4, 32, grid_size=301)
        assert full.polish_steps == (2, 5) and all(full.solutions)
        monkeypatch.setattr(solver, "POLISH_MAX_STEPS", steps)
        cut = norm_profile_scan(spec, 1e-4, 1e4, 32, grid_size=301)
        assert cut.polish_steps == tuple(min(n, steps) for n in full.polish_steps)
        for needed, bundle in zip(full.polish_steps, cut.solutions):
            assert (bundle is None) == (needed > steps)

    def test_overflowing_radii_read_as_infinite(self):
        # G = mu r^400 overflows above r ~ 2: those radii read inf and the
        # one bracket below them polishes to the root of the short range
        spec = PowerSystemSpec(2, (1, 1), (20.0, 20.0))
        short = norm_profile_scan(spec, 0.3, 3.0, 24, grid_size=1001)
        wide = norm_profile_scan(spec, 0.3, 1e3, 24, grid_size=1001)
        assert len(wide.roots) == 1 and wide.solutions[0] is not None
        assert abs(wide.roots[0] - short.roots[0]) <= 1e-9 * short.roots[0]
        overflowed = [j for j, g in enumerate(wide.values) if g == math.inf]
        assert overflowed and overflowed[-1] == len(wide.radii) - 1
        assert not any(wide.converged[j] for j in overflowed)

    def test_polish_ends_at_an_unsettled_shape(self):
        # radii 20 and 21 run out of composites, and the sign flips around
        # them open two brackets whose polish points cannot settle either:
        # each polish ends unaccepted at its first point, where it used to
        # run 47 and 39 points of MAX_COMPOSITES composites (26532 in all)
        f = NonlinearitySpec(((0.0816, 0.0, 0.4946), (0.0816, 0.0, 3.1625)))
        spec = SystemSpec(4, (1, 1), (f, f))
        with np.errstate(over="ignore", invalid="ignore"):
            prof = norm_profile_scan(spec, 1e-4, 1e4, 28, grid_size=301)
        r = prof.radii
        assert prof.sign_changes == tuple((r[j], r[j + 1]) for j in (20, 21, 23))
        assert [j for j, ok in enumerate(prof.converged) if not ok] == [20, 21]
        assert tuple(s is not None for s in prof.solutions) == (False, False, True)
        assert prof.polish_steps[:2] == (1, 1)
        assert sum(prof.inner_iterations) <= 2000

    # the seed-1 benchmark system whose fixed point has norm 1.7e-14 at M = 1001
    @given(rescalable_power_systems())
    @example(PowerSystemSpec(3, (1, 2), (1.39391119007645, 1.2288555668292651)))
    def test_pure_power_root_is_the_rescale(self, spec):
        # Two runs that share the power iteration's shapes agree; neither is
        # checked for accuracy.  The scan of a pure power runs every radius
        # to SCAN_INNER_TOL from the last radius's shape, so it follows the
        # power iteration's own shapes, and c is built from them.  G(r) =
        # r^rho mu along r phi, so around c the scan brackets one root and
        # accepts it.  The polish stops once |A(r phi) - r phi| <= tau r,
        # tau = SCAN_INNER_TOL, so |G(r)/r - 1| <= tau there; with
        # c^(rho-1) mu = 1, (r/c)^(rho-1) is within tau of 1, which puts r
        # within about tau/|1 - rho| of c, relative.  c itself, from a power
        # iteration at tol 1e-10, can lie up to 3.5 times that distance from
        # the c of a run at 1e-15, so the bound says nothing of the error.
        eig = normalized_power_iteration(spec, dome(301), tol=solver.SCAN_INNER_TOL)
        c = sup_norm(rescale_to_solution(spec, eig).v[0])
        prof = norm_profile_scan(spec, c / 30, 30 * c, 16, grid_size=301)
        assert len(prof.sign_changes) == 1 and prof.solutions[0] is not None
        (root,) = prof.roots
        rho = spec.homogeneity_ratio
        assert abs(root - c) <= solver.SCAN_INNER_TOL / abs(1.0 - rho) * c

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            norm_profile_scan(SUBLINEAR, 0.0, 1.0, 16)
        with pytest.raises(ValueError):
            norm_profile_scan(SUBLINEAR, 2.0, 1.0, 16)
        with pytest.raises(ValueError):
            norm_profile_scan(SUBLINEAR, 1e-2, 1e2, 7)
        # a log-r polish cannot start from an infinite or undefined end
        for r_min, r_max in [(1e-2, math.inf), (math.nan, 1.0), (1e-2, math.nan)]:
            with pytest.raises(ValueError):
                norm_profile_scan(SUBLINEAR, r_min, r_max, 16)


def full_coarse_pass(spec, r_min, r_max, points, grid_size):
    """The scan's coarse pass with every radius run to SCAN_INNER_TOL.

    Each radius's shape iteration starts from the last radius's shape.
    Returns (radii, values, converged, shapes, plan), plan the quadrature
    plan it shared.
    """
    radii = np.logspace(math.log10(r_min), math.log10(r_max), points)
    values = np.empty(points)
    converged, shapes = [], []
    shape = solver._default_shape(grid_size)
    plan = QuadratureTable(grid_size)
    for j, r in enumerate(radii):
        shape, _, delta, values[j], _ = solver._shape_iteration(spec, float(r), shape, plan)
        converged.append(delta <= solver.SCAN_INNER_TOL)
        shapes.append(shape)
    return radii, values, converged, shapes, plan


@np.errstate(over="ignore", invalid="ignore")
def reference_bisection_scan(spec, r_min, r_max, points, grid_size):
    """norm_profile_scan as first written, polishing by bisection in r.

    Returns (sign_changes, roots, solutions).
    """
    radii, values, _, shapes, plan = full_coarse_pass(
        spec, r_min, r_max, points, grid_size
    )
    negative = np.signbit(values - radii)
    crossings = np.flatnonzero(negative[:-1] != negative[1:])
    brackets = tuple((float(radii[j]), float(radii[j + 1])) for j in crossings)
    roots, solutions = [], []
    for j, (lo, hi) in zip(crossings, brackets):
        shape = shapes[j]
        mid = 0.5 * (lo + hi)
        while True:
            shape, chain, _, G, _ = solver._shape_iteration(spec, mid, shape, plan)
            defect = math.inf if chain is None else sup_norm(chain[0] - mid * shape)
            if defect <= solver.SCAN_INNER_TOL * mid:
                break
            lo, hi = (mid, hi) if np.signbit(G - mid) == negative[j] else (lo, mid)
            if not lo < 0.5 * (lo + hi) < hi:
                break
            mid = 0.5 * (lo + hi)
        roots.append(mid)
        accepted = defect <= solver.SCAN_INNER_TOL * mid
        solutions.append(chain if accepted else None)
    return brackets, tuple(roots), tuple(solutions)


@np.errstate(over="ignore", invalid="ignore")
def reference_full_scan(spec, r_min, r_max, points, grid_size):
    """norm_profile_scan before its sign-first pass.

    full_coarse_pass, then the same Illinois polish from the lower end's
    shape.  Returns (values, sign_changes, roots, accepted, converged).
    """
    radii, values, converged, shapes, plan = full_coarse_pass(
        spec, r_min, r_max, points, grid_size
    )
    negative = np.signbit(values - radii)
    crossings = np.flatnonzero(negative[:-1] != negative[1:])
    brackets = tuple((float(radii[j]), float(radii[j + 1])) for j in crossings)
    roots, accepted = [], []
    for j, (lo, hi) in zip(crossings, brackets):
        shape = shapes[j]
        x = [math.log(lo), math.log(hi)]
        psi = [math.log(g) - xe if 0 < g < math.inf else math.nan
               for g, xe in zip(values[j : j + 2], x)]
        step, last_end, ok = 0, None, False
        while step < solver.POLISH_MAX_STEPS:
            point = math.nan
            if psi[0] != psi[1]:
                point = x[0] - psi[0] * (x[1] - x[0]) / (psi[1] - psi[0])
            if not x[0] < point < x[1]:
                point = 0.5 * (x[0] + x[1])
            if step and not x[0] < point < x[1]:
                break
            r = math.exp(point)
            shape, chain, _, G, _ = solver._shape_iteration(spec, r, shape, plan)
            step += 1
            defect = math.inf if chain is None else sup_norm(chain[0] - r * shape)
            ok = defect <= solver.SCAN_INNER_TOL * r
            if ok:
                break
            end = 0 if np.signbit(G - r) == negative[j] else 1
            x[end] = point
            psi[end] = math.log(G) - point if 0 < G < math.inf else math.nan
            if end == last_end:
                psi[1 - end] *= 0.5
            last_end = end
        roots.append(r)
        accepted.append(ok)
    return values, brackets, tuple(roots), tuple(accepted), tuple(converged)


# a two-term forcing whose log G - log r bends strongly across a wide
# bracket, so plain regula falsi keeps one end and converges only linearly
STIFF_FORCING = NonlinearitySpec(((1.0, 0.0, 0.5), (0.01, 0.0, 4.0)))
POLISH_SCANS = {
    "criterion9": (SystemSpec(2, (1, 1), (MULT_FORCING,) * 2), 1e-4, 1e4, 48),
    "gamma22": (PowerSystemSpec(2, (1, 1), (2.0, 2.0)), 1e-3, 1e3, 32),
    "gamma2020": (PowerSystemSpec(2, (1, 1), (20.0, 20.0)), 0.3, 3.0, 24),
    "gamma2020-overflowing": (PowerSystemSpec(2, (1, 1), (20.0, 20.0)), 0.3, 1e3, 24),
    "sublinear": (SUBLINEAR, 1e-3, 1e3, 32),
    "N3-k12": (PowerSystemSpec(3, (1, 2), (0.5, 1.5)), 1e-3, 1e3, 32),
    "N3-k23-mixed": (SystemSpec(3, (2, 3), (MULT_FORCING,) * 2), 1e-4, 1e4, 48),
    "annihilated": (PowerSystemSpec(2, (1, 1), (3.0, 3.0)), 1e-200, 1e3, 16),
    # bracket ends where G = 0 and where G = inf start the polish by bisection
    "annihilated-end": (PowerSystemSpec(2, (1, 1), (3.0, 3.0)), 1e-300, 1e3, 8),
    "overflowing-end": (PowerSystemSpec(2, (1, 1), (20.0, 20.0)), 0.1, 1e7, 8),
    "stiff": (SystemSpec(2, (1, 1), (STIFF_FORCING,) * 2), 1e-4, 1e4, 16),
}


class TestPolishMatchesBisection:
    """The regula falsi polish against reference_bisection_scan."""

    @pytest.mark.parametrize("name", sorted(POLISH_SCANS))
    def test_same_brackets_verdicts_and_roots(self, monkeypatch, name):
        spec, r_min, r_max, points = POLISH_SCANS[name]
        calls = record_composites(monkeypatch)
        brackets, roots, solutions = reference_bisection_scan(
            spec, r_min, r_max, points, 301
        )
        reference_composites = len(calls)
        prof = norm_profile_scan(spec, r_min, r_max, points, grid_size=301)
        assert brackets and prof.sign_changes == brackets
        assert [s is not None for s in prof.solutions] == [
            s is not None for s in solutions
        ]
        # the defect stop is 1e-10 r, so two stops can sit 2e-10 apart
        np.testing.assert_allclose(prof.roots, roots, rtol=1e-9, atol=0)
        assert len(calls) - reference_composites <= reference_composites
        assert len(prof.polish_steps) == len(brackets)

    def test_bent_brackets_polish_superlinearly(self):
        # bisection takes about 30 points per bracket here; plain regula
        # falsi, without the Illinois halving, takes 16 on the stiff one
        crit9 = norm_profile_scan(*POLISH_SCANS["criterion9"], grid_size=301)
        assert sum(crit9.polish_steps) <= 12
        stiff = norm_profile_scan(*POLISH_SCANS["stiff"], grid_size=301)
        assert max(stiff.polish_steps) <= 12

    @pytest.mark.parametrize("name", ["annihilated-end", "overflowing-end"])
    def test_bisection_cases_have_a_zero_or_infinite_end(self, name):
        # the premise that makes these two scans exercise the fallback
        spec, r_min, r_max, points = POLISH_SCANS[name]
        prof = norm_profile_scan(spec, r_min, r_max, points, grid_size=301)
        ((lo, _),) = prof.sign_changes
        j = prof.radii.index(lo)
        assert prof.values[j] == 0.0 or prof.values[j + 1] == math.inf


# K = |G(r, phi) - G(r, phi*)| / (delta G) for a unit shape phi whose last
# change was delta, phi* the settled shape: at most 60 wherever SIGN_MARGIN's
# sweep measured it, and 60 on this forcing at N = 3, k = (1, 1), r = 28
SHAPE_SENSITIVITY = 100.0
STEEP_FORCING = NonlinearitySpec(((0.03, 0.0, 0.34), (0.03, 0.0, 3.99)))
# roots at r = 1.326 and 1.77829 on either side of the radius 1.77828 of 33
# over [1e-4, 1e4], where G/r - 1 = -1.0e-6 but its loose shape reads
# +1.4e-6: the scan finds neither root unless SIGN_MARGIN re-runs it
FOLD_FORCING = NonlinearitySpec(((13.042194084733172, 0.0, 0.6),
                                 (13.042194084733172, 0.0, 3.5)))


@st.composite
def criterion9_systems(draw):
    """Both equations forced by eps (v^a + v^b), a < 1 < b, as in criterion 9."""
    N = draw(st.integers(2, 4))
    k = (draw(st.integers(1, N)), draw(st.integers(1, N)))
    eps = 10.0 ** draw(st.floats(-2.0, 0.0))
    f = NonlinearitySpec(((eps, 0.0, draw(st.floats(0.2, 0.9))),
                          (eps, 0.0, draw(st.floats(1.5, 4.0)))))
    return SystemSpec(N, k, (f, f))


def log_slope(spec, r, grid_size, h=1e-4):
    """d log G / d log r at r: a central difference over converged shapes."""
    plan = QuadratureTable(grid_size)
    shape, logs = solver._default_shape(grid_size), []
    for x in (-h, h):
        shape, _, delta, G, _ = solver._shape_iteration(spec, r * math.exp(x), shape, plan)
        assert delta <= solver.SCAN_INNER_TOL
        logs.append(math.log(G))
    return (logs[1] - logs[0]) / (2.0 * h)


def assert_matches_full_scan(spec, r_min, r_max, points, grid_size):
    """The sign-first scan's brackets, verdicts and roots are the full pass's.

    Returns the scan, or None, comparing nothing, where the full pass's
    shape iteration ran out of composites at a finite positive G: its sign
    there is that of whatever iterate it stopped on, which no other pass
    repeats.
    """
    values, brackets, roots, accepted, converged = reference_full_scan(
        spec, r_min, r_max, points, grid_size
    )
    if not all(c or not 0 < g < math.inf for g, c in zip(values, converged)):
        return None
    prof = norm_profile_scan(spec, r_min, r_max, points, grid_size=grid_size)
    assert prof.sign_changes == brackets
    assert tuple(s is not None for s in prof.solutions) == accepted
    for got, want, ok in zip(prof.roots, roots, accepted):
        if ok:
            # an accepted stop has |A(v) - v| <= tau r for v = r phi, so
            # |psi| <= tau and phi's last change is at most 2 tau, which
            # moves G by at most 2 K tau G; psi = log G - log r has slope
            # s - 1, so each root is within (1 + 2K) tau / |1 - s| of the
            # zero of psi along settled shapes, and the two within twice that
            s = log_slope(spec, want, grid_size)
            bound = 2.0 * (1.0 + 2.0 * SHAPE_SENSITIVITY) * solver.SCAN_INNER_TOL
            assert abs(math.log(got / want)) <= bound / abs(1.0 - s)
    return prof


class TestSignFirstMatchesFullScan:
    """norm_profile_scan against reference_full_scan."""

    @given(criterion9_systems(), st.integers(16, 48), st.just(301))
    # the benchmark's multiplicity config
    @example(SystemSpec(2, (1, 1), (MULT_FORCING,) * 2), 48, 1001)
    @example(SystemSpec(3, (1, 1), (STEEP_FORCING,) * 2), 48, 301)
    @example(SystemSpec(4, (1, 2), (FOLD_FORCING,) * 2), 33, 301)
    def test_two_term_systems(self, spec, points, grid_size):
        assume(assert_matches_full_scan(spec, 1e-4, 1e4, points, grid_size))

    @given(rescalable_power_systems())
    def test_pure_powers(self, spec):
        eig = normalized_power_iteration(spec, dome(301), tol=solver.SCAN_INNER_TOL)
        c = sup_norm(rescale_to_solution(spec, eig).v[0])
        assume(assert_matches_full_scan(spec, c / 30, 30 * c, 16, 301))

    @pytest.mark.parametrize("name", sorted(POLISH_SCANS))
    def test_polish_scans(self, name):
        assert assert_matches_full_scan(*POLISH_SCANS[name], 301)

    def test_benchmark_scan_takes_fewer_composites(self):
        # 198 composites with every radius run to SCAN_INNER_TOL
        spec = SystemSpec(2, (1, 1), (MULT_FORCING,) * 2)
        prof = assert_matches_full_scan(spec, 1e-4, 1e4, 48, 1001)
        assert prof and sum(prof.inner_iterations) <= 130


def record_composites(monkeypatch):
    """Every (input, chain) that goes through solver.apply_composite."""
    calls = []
    apply = solver.apply_composite

    def recording(spec, v1, **kwargs):
        out = apply(spec, v1, **kwargs)
        calls.append((np.array(_values(v1)), out))
        return out

    monkeypatch.setattr(solver, "apply_composite", recording)
    return calls


class TestOneCompositePerStep:
    """Each solver reads its result from the last composite it computed."""

    def test_picard_bundle_is_the_last_chain(self, monkeypatch):
        calls = record_composites(monkeypatch)
        rep = picard_solve(SUBLINEAR, dome(301))
        assert rep.status is IterationStatus.CONVERGED
        assert len(calls) == rep.iterations
        last_input, last_chain = calls[-1]
        for stored, computed in zip(rep.solution.v, last_chain):
            np.testing.assert_array_equal(stored.values, computed)
        # the bundle's coupling back to the step input is the tested defect
        assert sup_norm(rep.solution.v[0].values - last_input) == rep.final_delta

    def test_power_iteration_solution_is_the_last_chain(self, monkeypatch):
        calls = record_composites(monkeypatch)
        eig = normalized_power_iteration(LAPLACE_3D, dome(401), tol=1e-12)
        assert len(calls) == eig.iterations
        np.testing.assert_array_equal(calls[-1][0], eig.shape.values)
        monkeypatch.undo()
        expected = make_bundle(LAPLACE_3D, eig.shape)
        for got, want in zip(eig.solution.v, expected.v):
            np.testing.assert_array_equal(got.values, want.values)
        assert eig.mu == sup_norm(eig.solution.v[0])

    @pytest.mark.parametrize(
        "spec, r_min, r_max, points",
        [
            (SystemSpec(2, (1, 1), (MULT_FORCING,) * 2), 1e-4, 1e4, 48),
            (PowerSystemSpec(2, (1, 1), (3.0, 3.0)), 1e-200, 1e3, 16),
            (PowerSystemSpec(2, (1, 1), (3.0, 3.0)), 1e-300, 1e3, 8),
        ],
        ids=["criterion9", "annihilated", "annihilated-end"],
    )
    def test_scan_composites_are_its_inner_iterations(
        self, monkeypatch, spec, r_min, r_max, points
    ):
        calls = record_composites(monkeypatch)
        inner = []  # (r, composites) of every shape iteration, in call order
        shape_iteration = solver._shape_iteration

        def counting(spec, r, *args, **kwargs):
            out = shape_iteration(spec, r, *args, **kwargs)
            inner.append((r, out[-1]))
            return out

        monkeypatch.setattr(solver, "_shape_iteration", counting)
        prof = norm_profile_scan(spec, r_min, r_max, points, grid_size=301)
        assert prof.roots
        assert len(calls) == sum(it for _, it in inner)
        # one shape iteration per coarse radius, at most one re-run of each
        # radius, then one per polish point; a re-run adds to its radius's entry
        coarse = inner[:points]
        assert [r for r, _ in coarse] == list(prof.radii)
        reruns = inner[points : len(inner) - sum(prof.polish_steps)]
        assert len({r for r, _ in reruns}) == len(reruns)
        per_radius = dict(coarse)
        for r, it in reruns:
            per_radius[r] += it
        polish = tuple(it for _, it in inner[points + len(reruns) :])
        assert prof.inner_iterations == tuple(per_radius.values()) + polish


@pytest.fixture
def built_plans(monkeypatch):
    """The grid size of every quadrature plan that solver or operator code builds."""
    sizes = []

    class CountingTable(QuadratureTable):
        __slots__ = ()

        def __init__(self, M):
            super().__init__(M)
            sizes.append(M)

    monkeypatch.setattr(solver, "QuadratureTable", CountingTable)
    # a composite that builds its own plan instead of the solver's counts too
    monkeypatch.setattr(operators, "QuadratureTable", CountingTable)
    return sizes


def assert_fresh_plan_chains(spec, calls, bundles):
    """Every recorded chain, and so every returned bundle, as a fresh plan gives it."""
    inputs = {}
    for v1, chain in calls:
        fresh = apply_composite(spec, v1)
        for got, want in zip(chain, fresh):
            np.testing.assert_array_equal(got, want)
        inputs[chain[0].tobytes()] = v1
    for bundle in bundles:
        v1 = inputs[bundle.v[0].values.tobytes()]
        fresh = apply_composite(spec, v1)
        for got, want in zip(bundle.v, fresh):
            np.testing.assert_array_equal(got.values, want)


class TestOnePlanPerSolverCall:
    """Each solver call builds one quadrature plan and shares it across its composites."""

    def test_picard(self, monkeypatch, built_plans):
        calls = record_composites(monkeypatch)
        rep = picard_solve(SUBLINEAR, dome(301))
        assert rep.status is IterationStatus.CONVERGED and rep.iterations > 1
        assert built_plans == [301]
        assert_fresh_plan_chains(SUBLINEAR, calls, [rep.solution])

    def test_power_iteration(self, monkeypatch, built_plans):
        calls = record_composites(monkeypatch)
        eig = normalized_power_iteration(LAPLACE_3D, dome(401), tol=1e-12)
        assert eig.iterations > 1
        assert built_plans == [401]
        assert_fresh_plan_chains(LAPLACE_3D, calls, [eig.solution])

    @pytest.mark.parametrize("name", ["criterion9", "gamma22", "overflowing-end"])
    def test_scan_with_polished_brackets(self, monkeypatch, built_plans, name):
        spec, r_min, r_max, points = POLISH_SCANS[name]
        calls = record_composites(monkeypatch)
        prof = norm_profile_scan(spec, r_min, r_max, points, grid_size=301)
        assert prof.roots and min(prof.polish_steps) >= 1
        assert built_plans == [301]
        accepted = [s for s in prof.solutions if s is not None]
        assert accepted
        assert_fresh_plan_chains(spec, calls, accepted)

    def test_each_call_builds_its_own(self, built_plans):
        picard_solve(SUBLINEAR, dome(101))
        picard_solve(SUBLINEAR, dome(201))
        normalized_power_iteration(LAPLACE_3D, dome(101))
        assert built_plans == [101, 201, 101]


class TestOneCompositeCap:
    """solver.MAX_COMPOSITES, read at call time, caps every fixed-point loop."""

    @pytest.mark.parametrize("cap", [1, 3])
    def test_picard_stops_at_the_cap(self, monkeypatch, cap):
        monkeypatch.setattr(solver, "MAX_COMPOSITES", cap)
        calls = record_composites(monkeypatch)
        rep = picard_solve(SUBLINEAR, dome(301), tol=1e-15)
        assert rep.status is IterationStatus.MAX_ITER
        assert rep.iterations == len(calls) == cap

    @pytest.mark.parametrize("cap", [1, 3])
    def test_each_power_iteration_stage_stops_at_the_cap(self, monkeypatch, cap):
        # the first coarse stage stops unconverged, so the fine stage starts
        # from the start itself and stops at the cap too
        monkeypatch.setattr(solver, "MAX_COMPOSITES", cap)
        sizes = count_composites(monkeypatch)
        eig = normalized_power_iteration(LAPLACE_3D, dome(NESTED_M), tol=1e-15)
        assert eig.status is IterationStatus.MAX_ITER
        assert (eig.coarse_iterations, eig.iterations) == (cap, cap)
        assert sizes == [LOW_GRID] * cap + [NESTED_M] * cap

    @pytest.mark.parametrize("cap", [1, 3])
    def test_each_scan_shape_iteration_stops_at_the_cap(self, monkeypatch, cap):
        monkeypatch.setattr(solver, "MAX_COMPOSITES", cap)
        runs = []
        shape_iteration = solver._shape_iteration

        def recorded(spec, r, start, plan, tol=solver.SCAN_INNER_TOL):
            shape, chain, delta, G, it = shape_iteration(spec, r, start, plan, tol)
            runs.append((delta > tol and 0 < G < math.inf, it))
            return shape, chain, delta, G, it

        monkeypatch.setattr(solver, "_shape_iteration", recorded)
        spec = SystemSpec(2, (1, 1), (MULT_FORCING, MULT_FORCING))
        prof = norm_profile_scan(spec, 1e-4, 1e4, 16, grid_size=301)
        # every radius and polish point that did not settle ran to the cap
        unsettled = [it for missed, it in runs if missed]
        assert unsettled and set(unsettled) == {cap}
        assert max(it for _, it in runs) == cap
        assert sum(it for _, it in runs) == sum(prof.inner_iterations)


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
        w = apply_composite(scaled, eig.shape)[0]
        assert float(np.max(np.abs(w - eig.shape.values))) < 1e-9

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
        w = apply_composite(single, eig.shape)[0]
        assert float(np.max(np.abs(w - eig.shape.values))) < 1e-9


class TestPurePowerPreconditions:
    # v^0.5 + t v^1.5 mixes exponents, so spec.gamma is None
    MIXED = SystemSpec(
        2, (1, 1), (NonlinearitySpec(((1.0, 0.0, 0.5), (1.0, 1.0, 1.5))),) * 2
    )
    EIG = EigenResult(
        shape=dome(101), mu=1.0, mu_bounds=(1.0, 1.0), lambda0=1.0, shape_delta=0.0,
        iterations=1, coarse_iterations=0, coarse_lambda0=None,
        status=IterationStatus.CONVERGED, solution=make_bundle(CRITICAL, dome(101)),
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
        assert self.MIXED.gamma is None
        with pytest.raises(ValueError, match="needs one exponent per equation"):
            call(self.MIXED, self.EIG)


@st.composite
def one_exponent_systems(draw, ratios=st.floats(0.2, 1.5)):
    """Forcings of 1-3 terms c t^p v^b_i sharing one exponent b_i per equation.

    c in [1e-2, 1e2], p in {0, 0.5, 1, 2}; draw_degrees draws N, k and b.
    """
    N, k, b = draw_degrees(draw, ratios)
    forcings = []
    for bi in b:
        terms = draw(st.lists(
            st.tuples(st.floats(1e-2, 1e2), st.sampled_from((0.0, 0.5, 1.0, 2.0))),
            min_size=1, max_size=3,
        ))
        forcings.append(NonlinearitySpec(tuple((c, p, bi) for c, p in terms)))
    return SystemSpec(N, k, tuple(forcings))


def with_term(spec, term):
    """spec with term appended to every forcing."""
    forcings = tuple(NonlinearitySpec(f.terms + (term,)) for f in spec.f)
    return SystemSpec(spec.N, spec.k, forcings)


class TestOneExponentPerEquation:
    """gamma is set by the shared exponent, whatever the coefficients and t-weights."""

    @given(one_exponent_systems())
    def test_gamma_is_the_shared_exponent(self, spec):
        gamma = tuple(f.terms[0][2] for f in spec.f)
        assert spec.gamma == gamma
        assert spec.homogeneity_ratio == float(np.prod(gamma) / np.prod(spec.k))
        # a zero-coefficient term with another exponent is not active
        assert with_term(spec, (0.0, 0.0, gamma[0] + 1.0)).gamma == gamma
        mixed = with_term(spec, (1.0, 0.0, gamma[0] + 1.0))
        assert mixed.gamma is None and mixed.homogeneity_ratio is None

    @given(one_exponent_systems(st.floats(0.2, 0.95) | st.floats(1.05, 4.0)))
    def test_rescaled_defect_is_shape_delta(self, spec):
        # A(c phi) = c^rho mu phi' = c phi' on the grid, so the relative
        # defect of the rescaled bundle is the shape's own last change
        eig = normalized_power_iteration(spec, dome(301), tol=1e-10)
        bundle = rescale_to_solution(spec, eig)
        assert eig.status is IterationStatus.CONVERGED and bundle is not None
        c = eig.mu ** (1.0 / (1.0 - spec.homogeneity_ratio))
        start = c * eig.shape.values
        defect = np.max(np.abs(bundle.v[0].values - start)) / np.max(start)
        assert abs(defect - eig.shape_delta) <= 1e-12

    @given(one_exponent_systems(st.just(1.0)))
    def test_unit_ratio_mu_is_within_the_bound(self, spec):
        assert unit_ratio_sign(spec.homogeneity_ratio) == 0
        eig = normalized_power_iteration(spec, dome(301), tol=1e-10)
        assert eig.mu <= chain_contraction_bound(spec)


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
        a = apply_composite(spec, GridFunction(lo))[0]
        b = apply_composite(spec, GridFunction(hi))[0]
        assert np.all(a <= b + 1e-12)


# the ratio-1 systems of acceptance criterion 5
CRITERION5_SPECS = [
    PowerSystemSpec(2, (1, 1), (1.0, 1.0)),
    PowerSystemSpec(2, (2, 2), (2.0, 2.0)),
    PowerSystemSpec(3, (1, 2), (2.0, 1.0)),
]


class TestCollapseCertificate:
    """The bracket end hi < 1 certifies that every cone start collapses.

    The composite is monotone and, at ratio 1, 1-homogeneous on the grid,
    and A(phi) <= hi phi off t = 1.  So a start v <= c phi, with
    c = max_{j < M-1} v_j / phi_j, has A^n(v) <= c hi^n phi.
    """

    @pytest.mark.parametrize("spec", CRITERION5_SPECS, ids=["k11", "k22", "N3-k12"])
    @settings(max_examples=20)
    @given(
        st.lists(st.floats(0.0, 2.0), min_size=4, max_size=4).filter(any),
        st.floats(-3.0, 3.0),
    )
    def test_plain_composites_fall_below_the_bound(self, spec, coeffs, log_scale):
        M = 1001
        eig = normalized_power_iteration(spec, dome(M), tol=1e-10)
        hi = eig.mu_bounds[1]
        assert eig.status is IterationStatus.CONVERGED and hi < 1.0
        t = grid_points(M)
        basis = (1.0 - t * t, 1.0 - t, 1.0 - t**4, np.sqrt(1.0 - t))
        v = 10.0**log_scale * sum(a * b for a, b in zip(coeffs, basis))
        phi = eig.shape.values
        c = float(np.max(v[:-1] / phi[:-1]))
        for n in range(1, 11):
            v = apply_composite(spec, v)[0]
            assert sup_norm(v) <= c * hi**n * (1.0 + 1e-9)
