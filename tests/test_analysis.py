import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hessball import (
    GridFunction,
    NonlinearitySpec,
    PowerSystemSpec,
    SystemSpec,
    admissibility_check,
    chain_contraction_bound,
    classify_growth,
    cone_check,
    eval_nonlinearity,
    grid_points,
    lower_bound_check,
    lower_bound_constant,
    multiplicity_thresholds,
    sublinearity_check,
    upper_bound_check,
    upper_bound_prefactor,
)
from hessball.analysis import _window_quadrature
from richardson import richardson_order

# window integrals, cross-checked against adaptive quadrature to 1e-14;
# the closed forms for k = 1 follow from a hand antiderivative
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


def dome(M=101):
    t = grid_points(M)
    return GridFunction(1.0 - t * t)


class TestConeCheck:
    def test_dome_margin(self):
        rep = cone_check(dome())
        assert rep.in_cone
        assert abs(rep.margin - 0.1875) < 1e-12
        assert rep.nonneg_margin == 0.0

    def test_zero_function(self):
        rep = cone_check(GridFunction(np.zeros(101)))
        assert rep.in_cone and rep.margin == 0.0

    def test_identity_sits_on_the_boundary(self):
        rep = cone_check(GridFunction(grid_points(101)))
        assert abs(rep.margin) < 1e-12
        assert rep.in_cone

    def test_sharp_decay_leaves_the_cone(self):
        t = grid_points(101)
        rep = cone_check(GridFunction(np.exp(-20.0 * t)))
        assert not rep.in_cone
        assert rep.margin < 0

    def test_negative_values_leave_the_cone(self):
        t = grid_points(101)
        rep = cone_check(GridFunction(t - 0.5))
        assert not rep.in_cone
        assert rep.nonneg_margin == -0.5


class TestLowerBoundConstant:
    @pytest.mark.parametrize("k,N", sorted(GAMMA_REF))
    def test_reference_values(self, k, N):
        assert abs(lower_bound_constant(k, N) - GAMMA_REF[(k, N)]) < 1e-7

    def test_positive_everywhere(self):
        for N in range(1, 7):
            for k in range(1, N + 1):
                assert lower_bound_constant(k, N) > 0.0

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            lower_bound_constant(3, 2)
        with pytest.raises(ValueError):
            lower_bound_constant(0, 2)

    def test_grid_convergence(self):
        ref = GAMMA_REF[(2, 3)]
        rep = richardson_order(
            lambda M: _window_quadrature(2, 3, M) - ref, (251, 501, 1001, 2001)
        )
        assert not rep.saturated and rep.order >= 1.9

    @pytest.mark.parametrize("M", [251, 501, 801, 1001, 2001, 4001])
    def test_matches_scipy_trapezoid_bit_for_bit(self, M):
        integrate = pytest.importorskip("scipy.integrate")
        s = np.linspace(0.0, 1.0, M)
        for N in range(1, 9):
            for k in range(1, N + 1):
                # the integrand of _window_quadrature, term for term
                tau = 0.25 + 0.5 * s**k
                inner = (tau**N - 0.25**N) / (N * math.comb(N - 1, k - 1))
                kernel = (k * inner / tau ** (N - k)) ** (1.0 / k)
                integrand = kernel * 0.5 * k * s ** (k - 1)
                ref = float(integrate.trapezoid(integrand, s))
                assert _window_quadrature(k, N, M) == ref, (k, N)

    def test_linear_case_is_exact(self):
        rep = richardson_order(
            lambda M: _window_quadrature(1, 1, M) - 0.125, (251, 501, 1001)
        )
        assert rep.saturated


class TestUpperBoundPrefactor:
    def test_examples(self):
        assert upper_bound_prefactor(1, 2) == 0.25
        assert upper_bound_prefactor(2, 2) == 0.5
        assert abs(upper_bound_prefactor(1, 3) - 1.0 / 6.0) < 1e-15

    def test_below_one(self):
        for N in range(1, 7):
            for k in range(1, N + 1):
                assert upper_bound_prefactor(k, N) < 1.0


class TestBoundChecks:
    def _power_spec(self, gamma=1.5):
        return PowerSystemSpec(3, (2, 2), (gamma, gamma))

    def test_lower_bound_holds_for_power_forcing(self):
        spec = self._power_spec()
        chk = lower_bound_check(spec, 1, dome(401), eta=1.0, m=1.5)
        assert chk.hypothesis_ok and chk.bound_holds
        assert bool(chk)
        assert chk.lhs >= chk.rhs - 1e-8

    def test_lower_bound_hypothesis_failure_is_silent(self):
        spec = self._power_spec()
        chk = lower_bound_check(spec, 1, dome(401), eta=2.0, m=1.5)
        assert not chk.hypothesis_ok
        assert chk.bound_holds is None
        assert not bool(chk)
        assert math.isnan(chk.lhs) and math.isnan(chk.rhs)

    def test_lower_bound_requires_cone_membership(self):
        spec = self._power_spec()
        t = grid_points(401)
        chk = lower_bound_check(
            spec, 1, GridFunction(np.exp(-20.0 * t)), eta=0.0, m=1.0
        )
        assert not chk.hypothesis_ok

    def test_lower_bound_zero_input(self):
        spec = self._power_spec()
        chk = lower_bound_check(spec, 1, GridFunction(np.zeros(401)), eta=1.0, m=1.5)
        assert bool(chk)
        assert chk.rhs == 0.0

    def test_upper_bound_holds_for_power_forcing(self):
        spec = self._power_spec()
        chk = upper_bound_check(spec, 1, dome(401), eps=1.0, d=1.5)
        assert bool(chk)
        assert chk.lhs < chk.rhs + 1e-8

    def test_upper_bound_hypothesis_failure(self):
        spec = self._power_spec()
        chk = upper_bound_check(spec, 1, dome(401), eps=0.5, d=1.5)
        assert not chk.hypothesis_ok
        assert chk.bound_holds is None

    def test_second_equation_index(self):
        spec = PowerSystemSpec(2, (1, 2), (1.0, 2.0))
        chk = lower_bound_check(spec, 2, dome(401), eta=1.0, m=2.0)
        assert bool(chk)


class TestChainContractionBound:
    def test_examples(self):
        assert chain_contraction_bound(PowerSystemSpec(2, (1, 1), (1.0, 2.0))) == 0.0625
        assert chain_contraction_bound(PowerSystemSpec(2, (2, 2), (2.0, 2.0))) == 0.25

    def test_exponent_weighting(self):
        # P(2,3) enters once with exponent 1 and once with gamma_1/k_1 = 3/2
        p = upper_bound_prefactor(2, 3)
        got = chain_contraction_bound(PowerSystemSpec(3, (2, 2), (3.0, 3.0)))
        assert abs(got - p ** 2.5) < 1e-15

    def test_below_one_at_critical_ratio(self):
        for spec in (
            PowerSystemSpec(2, (1, 1), (1.0, 1.0)),
            PowerSystemSpec(2, (2, 2), (2.0, 2.0)),
            PowerSystemSpec(3, (1, 2), (2.0, 1.0)),
        ):
            assert spec.homogeneity_ratio == 1.0
            assert chain_contraction_bound(spec) < 1.0


class TestClassifyGrowth:
    def test_pure_power_sublinear_is_c1(self):
        g = classify_growth(PowerSystemSpec(2, (1, 1), (0.5, 0.5)))
        assert g.condition == "C1"
        assert g.product_alpha == 0.25 and g.product_k == 1.0

    def test_pure_power_superlinear_is_c2(self):
        g = classify_growth(PowerSystemSpec(2, (1, 1), (2.0, 2.0)))
        assert g.condition == "C2"

    def test_critical_ratio_matches_nothing(self):
        g = classify_growth(PowerSystemSpec(2, (1, 1), (1.0, 1.0)))
        assert g.condition == "none"

    def test_straddling_growth_is_c3(self):
        f1 = NonlinearitySpec(((0.7, 0.0, 1.0), (0.3, 0.0, 3.0)))
        f2 = NonlinearitySpec(((1.0, 0.0, 1.0),))
        g = classify_growth(SystemSpec(2, (2, 1), (f1, f2)))
        assert g.condition == "C3"
        assert g.product_alpha < g.product_k < g.product_beta

    def test_t_weighted_dominant_term_blocks_c3(self):
        # the v^3 coefficient vanishes at t = 0, so its infimum functional is 0
        f1 = NonlinearitySpec(((0.7, 0.0, 1.0), (0.3, 1.0, 3.0)))
        f2 = NonlinearitySpec(((1.0, 0.0, 1.0),))
        g = classify_growth(SystemSpec(2, (2, 1), (f1, f2)))
        assert g.condition == "none"
        assert g.lower_inf[0] == 0.0

    def test_relabel_flag(self):
        # only the first forcing vanishes at zero; a cyclic shift would fix it
        f1 = NonlinearitySpec(((1.0, 0.0, 1.0),))
        f2 = NonlinearitySpec(((1.0, 0.0, 0.0), (1.0, 0.0, 1.0)))
        g = classify_growth(SystemSpec(2, (1, 1), (f1, f2)))
        assert g.condition == "none"
        assert g.vanishing_count == 1
        assert g.relabel_vanishing_ok

    @given(
        st.integers(2, 4),
        st.lists(st.floats(0.25, 4.0), min_size=2, max_size=3),
    )
    def test_pure_power_none_iff_critical(self, N, gamma):
        k = tuple(min(N, 1 + i % N) for i in range(len(gamma)))
        spec = PowerSystemSpec(N, k, tuple(gamma))
        g = classify_growth(spec)
        if g.condition == "none":
            assert math.isclose(g.product_alpha, g.product_k)
        else:
            assert g.condition in ("C1", "C2")

    @given(
        st.integers(2, 3),
        st.lists(
            st.tuples(st.floats(0.1, 2.0), st.floats(0.0, 1.0), st.floats(0.0, 3.0)),
            min_size=1,
            max_size=2,
        ),
        st.lists(
            st.tuples(st.floats(0.1, 2.0), st.floats(0.0, 1.0), st.floats(0.0, 3.0)),
            min_size=1,
            max_size=2,
        ),
    )
    def test_c4_cannot_occur(self, N, terms1, terms2):
        spec = SystemSpec(
            N, (1, min(2, N)),
            (NonlinearitySpec(tuple(terms1)), NonlinearitySpec(tuple(terms2))),
        )
        assert classify_growth(spec).condition != "C4"


def scanned_thresholds(spec, r0, R0):
    """(sup_chain, sup_chain_at_R0, inf_chain) with every box extremum taken
    over 64 values of t: the reference for the single corner evaluations."""

    def box(f, t_lo, t_hi, v, extremum):
        tgrid = np.linspace(t_lo, t_hi, 64)
        return float(extremum(eval_nonlinearity(f, tgrid, np.full_like(tgrid, v))))

    n, k, f = spec.n, spec.k, spec.f
    g = [0.0] * n
    g[n - 1] = box(f[n - 1], 0.0, 1.0, r0 / 4.0, np.max)
    for i in range(n - 2, -1, -1):
        g[i] = box(f[i], 0.0, 1.0, g[i + 1] ** (1.0 / k[i + 1]), np.max)
    gt = [0.0] * n
    gt[n - 1] = box(f[n - 1], 0.0, 1.0, R0, np.max)
    for i in range(n - 2, 0, -1):
        gt[i] = box(f[i], 0.0, 1.0, gt[i + 1] ** (1.0 / k[i + 1]), np.max)
    e = [0.0] * n
    e[n - 1] = box(f[n - 1], 0.25, 0.75, R0 / 4.0, np.min)
    for i in range(n - 2, -1, -1):
        v_lo = 0.25 * lower_bound_constant(k[i + 1], spec.N) * e[i + 1] ** (1.0 / k[i + 1])
        e[i] = box(f[i], 0.25, 0.75, v_lo, np.min)
    return tuple(g), tuple(gt[1:]), tuple(e)


forcings = st.lists(
    st.tuples(st.floats(0.01, 10.0), st.floats(0.0, 3.0), st.floats(0.0, 4.0)),
    min_size=1,
    max_size=3,
).map(lambda terms: NonlinearitySpec(tuple(terms)))


class TestMultiplicityThresholds:
    def _mixed_system(self):
        f1 = NonlinearitySpec(((0.7, 0.0, 1.0), (0.3, 1.0, 2.0)))
        f2 = NonlinearitySpec(((1.0, 0.0, 1.0),))
        return SystemSpec(3, (2, 1), (f1, f2))

    def test_small_radius_chain_values(self):
        rep = multiplicity_thresholds(self._mixed_system(), r0=0.5)
        assert rep.sup_chain == (0.09218749999999999, 0.125)
        assert rep.r0_condition is True
        assert rep.R0_condition is None

    def test_large_radius_chain_values(self):
        rep = multiplicity_thresholds(self._mixed_system(), R0=40.0)
        assert rep.sup_chain is None
        assert rep.sup_chain_at_R0 == (40.0,)
        gamma_13 = lower_bound_constant(1, 3)
        v_lo = 0.25 * gamma_13 * 10.0
        expected = 0.7 * v_lo + 0.3 * 0.25 * v_lo**2
        assert abs(rep.inf_chain[0] - expected) < 1e-12
        assert rep.inf_chain[1] == 10.0
        assert rep.R0_condition is False

    def test_pure_power_recursion(self):
        spec = PowerSystemSpec(2, (1, 2), (0.5, 3.0))
        r0 = 2.0
        rep = multiplicity_thresholds(spec, r0=r0)
        g2 = (r0 / 4.0) ** 3.0
        g1 = (g2 ** (1.0 / 2.0)) ** 0.5
        assert abs(rep.sup_chain[1] - g2) < 1e-12
        assert abs(rep.sup_chain[0] - g1) < 1e-12

    def test_needs_an_anchor(self):
        with pytest.raises(ValueError):
            multiplicity_thresholds(self._mixed_system())

    def test_anchor_domain(self):
        with pytest.raises(ValueError):
            multiplicity_thresholds(self._mixed_system(), r0=-1.0)
        with pytest.raises(ValueError):
            multiplicity_thresholds(self._mixed_system(), R0=math.inf)

    def test_overflowing_sup_chain_reads_inf(self):
        f = NonlinearitySpec(((1.0, 1.0, 3.0),))
        spec = SystemSpec(2, (1, 1), (f, f))
        with np.errstate(over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = multiplicity_thresholds(spec, r0=1e120)
        assert rep.sup_chain == (math.inf, math.inf)
        assert rep.r0_condition is False

    @given(
        st.integers(2, 4).flatmap(
            lambda N: st.lists(
                st.tuples(st.integers(1, N), forcings), min_size=2, max_size=3
            ).map(lambda eqs: SystemSpec(N, *zip(*eqs)))
        ),
        st.floats(1e-3, 1e3),
        st.floats(1e-3, 1e3),
    )
    def test_chains_match_a_t_scan(self, spec, r0, R0):
        with np.errstate(over="ignore", invalid="ignore"):
            expected = scanned_thresholds(spec, r0, R0)
            rep = multiplicity_thresholds(spec, r0=r0, R0=R0)
        assume(all(math.isfinite(x) for chain in expected for x in chain))
        assert (rep.sup_chain, rep.sup_chain_at_R0, rep.inf_chain) == expected

    @given(st.floats(0.01, 10.0), st.floats(1.0, 10.0))
    def test_sup_chain_monotone_in_r0(self, r0, factor):
        spec = self._mixed_system()
        small = multiplicity_thresholds(spec, r0=r0)
        large = multiplicity_thresholds(spec, r0=r0 * factor)
        assert all(
            a <= b + 1e-12 for a, b in zip(small.sup_chain, large.sup_chain)
        )


class TestSublinearityCheck:
    def test_gain_matches_homogeneity(self):
        spec = PowerSystemSpec(2, (1, 1), (0.5, 0.5))
        rep = sublinearity_check(spec, dome(201), xi=0.5)
        assert rep.hypothesis_ok
        expected = 2.0**0.75 - 1.0
        assert abs(rep.gain - expected) < 1e-10
        assert abs(rep.gain_expected - expected) < 1e-12

    def test_gain_vanishes_as_xi_tends_to_one(self):
        spec = PowerSystemSpec(2, (1, 1), (0.5, 0.5))
        rep = sublinearity_check(spec, dome(201), xi=0.999)
        assert 0.0 < rep.gain < 1e-3

    def test_sandwich_is_positive(self):
        spec = PowerSystemSpec(2, (2, 1), (1.0, 0.5))
        rep = sublinearity_check(spec, dome(201), xi=0.5)
        assert 0.0 < rep.ratio_min <= rep.ratio_max < math.inf

    def test_critical_ratio_disables_the_mechanism(self):
        spec = PowerSystemSpec(2, (1, 1), (1.0, 1.0))
        rep = sublinearity_check(spec, dome(201), xi=0.5)
        assert not rep.hypothesis_ok
        assert abs(rep.gain) < 1e-10

    def test_domain_errors(self):
        spec = PowerSystemSpec(2, (1, 1), (0.5, 0.5))
        with pytest.raises(ValueError):
            sublinearity_check(spec, dome(201), xi=1.0)
        with pytest.raises(ValueError):
            sublinearity_check(spec, dome(201), xi=0.0)
        with pytest.raises(ValueError):
            sublinearity_check(spec, GridFunction(np.zeros(201)), xi=0.5)


class TestAdmissibilityCheck:
    def test_paraboloid_margins(self):
        t = grid_points(101)
        u = GridFunction((t * t - 1.0) / 2.0)
        # S_l = C(N,l) for every l, so the margin of degree l is C(N,l)
        assert admissibility_check(u, 1, 2) == pytest.approx((2.0,), rel=0, abs=1e-10)
        assert admissibility_check(u, 2, 3) == pytest.approx((3.0, 3.0), rel=0, abs=1e-10)
        assert admissibility_check(u, 3, 3) == pytest.approx(
            (3.0, 3.0, 1.0), rel=0, abs=1e-10
        )

    def test_zero_profile(self):
        assert admissibility_check(GridFunction(np.zeros(51)), 2, 3) == (0.0, 0.0)

    def test_concave_profile_fails(self):
        t = grid_points(101)
        u = GridFunction((1.0 - t * t) / 2.0)
        assert admissibility_check(u, 1, 2) == pytest.approx((-2.0,), rel=0, abs=1e-10)

    def test_degree_validation(self):
        t = grid_points(101)
        u = GridFunction((t * t - 1.0) / 2.0)
        with pytest.raises(ValueError):
            admissibility_check(u, 0, 2)
        with pytest.raises(ValueError):
            admissibility_check(u, 3, 2)
