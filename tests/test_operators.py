import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hessball import (
    GridFunction,
    NonlinearitySpec,
    PowerSystemSpec,
    QuadratureTable,
    SystemSpec,
    apply_composite,
    apply_operator,
    grid_points,
    hessian_eigenvalues,
    radial_hessian,
)
from richardson import richardson_order

HESSIAN_PAIRS = [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2), (4, 4)]


def power_pair(N, k, gamma=1.0):
    return PowerSystemSpec(N, (k, k), (gamma, gamma))


def constant_system(N, k):
    f = NonlinearitySpec(((1.0, 0.0, 0.0),))
    return SystemSpec(N, (k, k), (f, f))


def dome(M):
    t = grid_points(M)
    return GridFunction(1.0 - t * t)


class TestQuadratureTable:
    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            QuadratureTable(2)

    def test_tail_of_ones(self):
        table = QuadratureTable(101)
        tail = table.tail(np.ones(101))
        np.testing.assert_allclose(tail, 1.0 - table.t)
        assert tail[-1] == 0.0

    @pytest.mark.parametrize("power", [0, 1, 2, 3, 5])
    def test_weighted_cumulative_exact_on_constants(self, power):
        table = QuadratureTable(101)
        got = table.weighted_cumulative(np.ones(101), power)
        exact = table.t ** (power + 1) / (power + 1)
        np.testing.assert_allclose(got, exact, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("power", [0, 1, 2, 4])
    def test_weighted_cumulative_exact_on_linear(self, power):
        table = QuadratureTable(101)
        got = table.weighted_cumulative(table.t, power)
        exact = table.t ** (power + 2) / (power + 2)
        np.testing.assert_allclose(got, exact, rtol=0, atol=1e-15)

    def test_weight_power_zero_is_plain_trapezoid(self):
        table = QuadratureTable(64)
        y = np.cos(3.0 * table.t) + 1.5
        tail = table.tail(y)
        np.testing.assert_allclose(
            table.weighted_cumulative(y, 0), tail[0] - tail, atol=1e-14
        )

    @pytest.mark.parametrize("M", [5, 64, 301, 1001, 4001, 64001])
    def test_tail_matches_scipy_bit_for_bit(self, M):
        integrate = pytest.importorskip("scipy.integrate")
        table = QuadratureTable(M)
        y = np.sqrt(table.t) * np.cos(3.0 * table.t) + 1.5
        c = integrate.cumulative_trapezoid(y, dx=1.0 / (M - 1), initial=0)
        np.testing.assert_array_equal(table.tail(y), c[-1] - c)


class TestApplyOperator:
    @pytest.mark.parametrize("N,k", HESSIAN_PAIRS)
    def test_constant_forcing_closed_form(self, N, k):
        # unit forcing: output is (k / (N C(N-1,k-1)))^{1/k} (1 - t^2)/2,
        # exact because the weighted panel rule integrates s^{N-1} exactly
        spec = constant_system(N, k)
        M = 301
        t = grid_points(M)
        w = apply_operator(spec, 1, dome(M))
        amp = (k / (N * math.comb(N - 1, k - 1))) ** (1.0 / k)
        np.testing.assert_allclose(
            w.values, amp * (1.0 - t * t) / 2.0, rtol=0, atol=1e-13
        )

    def test_linear_forcing_analytic_profile(self):
        # N=2, k=1, f = v, v = 1-t^2: output is 3/16 - t^2/4 + t^4/16
        spec = power_pair(2, 1)
        M = 1001
        t = grid_points(M)
        w = apply_operator(spec, 1, dome(M))
        exact = 3.0 / 16.0 - t * t / 4.0 + t**4 / 16.0
        assert float(np.max(np.abs(w.values - exact))) < 5e-7

    def test_zero_input_vanishing_forcing_gives_zero(self):
        spec = power_pair(3, 2, gamma=1.5)
        w = apply_operator(spec, 1, GridFunction(np.zeros(51)))
        assert np.all(w.values == 0.0)

    @pytest.mark.parametrize("N,k", [(2, 1), (3, 2), (4, 4)])
    def test_homogeneity(self, N, k):
        gamma = 1.75
        spec = power_pair(N, k, gamma)
        M = 201
        v = dome(M)
        c = 3.7
        w1 = apply_operator(spec, 1, GridFunction(c * v.values))
        w2 = apply_operator(spec, 1, v)
        np.testing.assert_allclose(
            w1.values, c ** (gamma / k) * w2.values, rtol=1e-12, atol=1e-14
        )

    def test_output_shape_invariants(self):
        spec = power_pair(3, 2)
        w = apply_operator(spec, 1, dome(401)).values
        assert w[-1] == 0.0
        assert np.all(w >= 0.0)
        assert np.all(np.diff(w) <= 1e-15)

    def test_equation_index_validation(self):
        spec = power_pair(2, 1)
        with pytest.raises(ValueError):
            apply_operator(spec, 0, dome(51))
        with pytest.raises(ValueError):
            apply_operator(spec, 3, dome(51))

    def test_negative_input_rejected(self):
        spec = power_pair(2, 1)
        t = grid_points(51)
        with pytest.raises(ValueError):
            apply_operator(spec, 1, GridFunction(t * t - 1.0))

    @given(
        st.lists(st.floats(0.0, 2.0), min_size=2, max_size=5),
        st.floats(0.1, 2.0),
        st.sampled_from(HESSIAN_PAIRS),
    )
    def test_monotone_in_input(self, coeffs, bump, pair):
        # f nondecreasing in v and all quadrature weights nonnegative,
        # so v <= w pointwise forces A(v) <= A(w)
        N, k = pair
        spec = SystemSpec(
            N,
            (k, k),
            (
                NonlinearitySpec(((0.7, 0.0, 1.0), (0.3, 1.0, 2.0))),
                NonlinearitySpec(((1.0, 0.0, 1.0),)),
            ),
        )
        t = grid_points(101)
        lo = np.polyval(coeffs, t) * (1.0 - t)
        hi = lo + bump * (1.0 - t * t)
        a = apply_operator(spec, 1, GridFunction(lo)).values
        b = apply_operator(spec, 1, GridFunction(hi)).values
        assert np.all(a <= b + 1e-12)


class TestApplyComposite:
    def test_constant_forcing_fixed_point(self):
        spec = constant_system(2, 1)
        M = 201
        t = grid_points(M)
        w = apply_composite(spec, dome(M))
        np.testing.assert_allclose(w.values, 0.25 * (1.0 - t * t), atol=1e-13)

    def test_return_chain_structure(self):
        spec = PowerSystemSpec(3, (1, 2, 3), (1.0, 1.0, 1.0))
        v1 = dome(101)
        chain = apply_composite(spec, v1, return_chain=True)
        assert len(chain) == 3
        innermost = apply_operator(spec, 3, v1)
        np.testing.assert_array_equal(chain[2], innermost.values)
        w = apply_composite(spec, v1)
        np.testing.assert_array_equal(chain[0], w.values)

    def test_composite_homogeneity(self):
        spec = PowerSystemSpec(3, (2, 1), (1.0, 0.5))
        rho = spec.homogeneity_ratio
        v = dome(201)
        c = 2.5
        w1 = apply_composite(spec, GridFunction(c * v.values))
        w2 = apply_composite(spec, v)
        np.testing.assert_allclose(
            w1.values, c**rho * w2.values, rtol=1e-12, atol=1e-14
        )


def reference_forcing(f, t, v):
    """The forcing as first written: zeros, plus every term with its t**p."""
    out = np.zeros(np.broadcast_shapes(t.shape, v.shape))
    for c, p, g in f.active_terms:
        out = out + c * np.power(t, p) * np.power(v, g)
    return out


def reference_operator(spec, i, v):
    """A_i as first written: its own panel weights from four powers per call."""
    N = spec.N
    k = spec.k[i - 1]
    M = v.size
    h = 1.0 / (M - 1)
    t = grid_points(M)
    fvals = reference_forcing(spec.f[i - 1], t, v)
    power = N - 1
    s0 = t[:-1]
    s1 = t[1:]
    dp = (s1 ** (power + 1) - s0 ** (power + 1)) / (power + 1)
    dp1 = (s1 ** (power + 2) - s0 ** (power + 2)) / (power + 2)
    left = (s1 * dp - dp1) / h
    right = (dp1 - s0 * dp) / h
    inner = np.empty(M)
    inner[0] = 0.0
    np.cumsum(left * fvals[:-1] + right * fvals[1:], out=inner[1:])
    inner = inner / math.comb(N - 1, k - 1)
    core = np.empty_like(inner)
    if N == k:
        core[:] = k * inner
    else:
        core[0] = 0.0
        core[1:] = k * inner[1:] / t[1:] ** (N - k)
    assert not np.any(core < -1e-14)
    np.clip(core, 0.0, None, out=core)
    y = core ** (1.0 / k)
    cum = np.empty(M)
    cum[0] = 0.0
    np.cumsum(h * (y[1:] + y[:-1]) / 2.0, out=cum[1:])
    return cum[-1] - cum


KERNEL_FORCINGS = {
    "p0": NonlinearitySpec(((1.0, 0.0, 1.5),)),
    "p-positive": NonlinearitySpec(((0.7, 1.3, 0.8),)),
    "several": NonlinearitySpec(((0.1, 0.0, 0.5), (0.1, 0.0, 3.0), (0.4, 2.0, 1.0))),
    "constant": NonlinearitySpec(((1.0, 0.0, 0.0), (0.5, 0.5, 2.0))),
}


def assert_kernel_matches_reference(N, k, f, M):
    """apply_operator and apply_composite against reference_operator, bit for bit."""
    spec = SystemSpec(N, (k, N + 1 - k), (f, f))
    t = grid_points(M)
    v = 2.5 * (1.0 - t * t) + (1.0 - t) * np.sin(3.0 * t) ** 2
    w2 = reference_operator(spec, 2, v)
    w1 = reference_operator(spec, 1, w2)
    np.testing.assert_array_equal(apply_operator(spec, 2, v).values, w2)
    np.testing.assert_array_equal(apply_operator(spec, 1, GridFunction(w2)).values, w1)
    chain = apply_composite(spec, v, return_chain=True)
    np.testing.assert_array_equal(chain[1], w2)
    np.testing.assert_array_equal(chain[0], w1)
    np.testing.assert_array_equal(apply_composite(spec, GridFunction(v)).values, w1)


class TestKernelMatchesReference:
    @pytest.mark.parametrize("forcing", sorted(KERNEL_FORCINGS))
    @pytest.mark.parametrize("M", [7, 301, 1001, 4001])
    def test_every_degree(self, M, forcing):
        for N in range(2, 6):
            for k in range(1, N + 1):
                assert_kernel_matches_reference(N, k, KERNEL_FORCINGS[forcing], M)

    def test_fine_grid(self):
        assert_kernel_matches_reference(3, 2, KERNEL_FORCINGS["several"], 64001)

    @pytest.mark.parametrize("wrap", [np.asarray, GridFunction], ids=["ndarray", "grid"])
    def test_negative_input_rejected(self, wrap):
        spec = power_pair(2, 1)
        v = grid_points(51) ** 2 - 1.0
        for call in (lambda x: apply_operator(spec, 1, x), lambda x: apply_composite(spec, x)):
            with pytest.raises(ValueError, match="operator input must be nonnegative"):
                call(wrap(v))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_array_input_rejected(self, bad):
        spec = power_pair(2, 1)
        v = 1.0 - grid_points(51) ** 2
        v[7] = bad
        for call in (lambda x: apply_operator(spec, 1, x), lambda x: apply_composite(spec, x)):
            with pytest.raises(ValueError, match="grid function samples must be finite"):
                call(v)
            with pytest.raises(ValueError, match="grid function samples must be finite"):
                call(GridFunction(v))

    def test_overflowing_operator_output_rejected(self):
        # v^40 overflows from 1e9; a constant forcing after it would turn
        # the NaNs back into a finite profile, so every output is checked
        v = 1e9 * (1.0 - grid_points(301) ** 2)
        power = NonlinearitySpec(((1.0, 0.0, 40.0),))
        constant = NonlinearitySpec(((1.0, 0.0, 0.0),))
        for forcings in ((power, power), (constant, power)):
            spec = SystemSpec(2, (1, 1), forcings)
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(ValueError, match="grid function samples must be finite"):
                    apply_composite(spec, v)
                with pytest.raises(ValueError, match="grid function samples must be finite"):
                    apply_composite(spec, v, return_chain=True)


class TestRadialHessian:
    @pytest.mark.parametrize("N,k", HESSIAN_PAIRS)
    def test_paraboloid_gives_binomial(self, N, k):
        # u = (t^2-1)/2 has u'' = u'/t = 1, so S_k = C(N,k) everywhere
        t = grid_points(101)
        sk = radial_hessian(GridFunction((t * t - 1.0) / 2.0), k, N)
        np.testing.assert_allclose(sk.values, math.comb(N, k), atol=1e-10)

    def test_zero_profile(self):
        sk = radial_hessian(GridFunction(np.zeros(51)), 2, 3)
        assert np.all(sk.values == 0.0)

    def test_cosine_boundary_value(self):
        # u = -cos(pi t / 2): at t = 1, u'' = 0 and u'/t = pi/2
        M = 2001
        t = grid_points(M)
        sk = radial_hessian(GridFunction(-np.cos(0.5 * np.pi * t)), 1, 2)
        assert abs(sk.values[-1] - 0.5 * np.pi) < 1e-5

    def test_degree_validation(self):
        u = dome(51)
        with pytest.raises(ValueError):
            radial_hessian(u, 0, 3)
        with pytest.raises(ValueError):
            radial_hessian(u, 4, 3)

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            hessian_eigenvalues(GridFunction([0.0, 1.0, 0.0, 1.0]))

    def test_eigenvalue_pair_at_origin(self):
        t = grid_points(101)
        u = GridFunction((t * t - 1.0) / 2.0)
        upp, ratio = hessian_eigenvalues(u)
        assert abs(upp[0] - 1.0) < 1e-10
        assert ratio[0] == upp[0]

    @pytest.mark.parametrize("N,k", [(2, 1), (3, 2), (3, 3), (4, 2)])
    def test_round_trip_through_operator(self, N, k):
        # S_k(D^2(-A(v))) recovers the forcing up to the stencil error
        spec = power_pair(N, k)
        M = 1001
        v = dome(M)
        w = apply_operator(spec, 1, v)
        sk = radial_hessian(GridFunction(-w.values), k, N)
        gap = np.abs(sk.values[2 : M - 2] - v.values[2 : M - 2])
        assert float(np.max(gap)) < 1e-5


class TestGridConvergence:
    def test_constant_forcing_is_exact(self):
        spec = constant_system(3, 2)
        amp = (2.0 / (3.0 * math.comb(2, 1))) ** 0.5

        def err(M):
            t = grid_points(M)
            w = apply_operator(spec, 1, dome(M))
            return float(np.max(np.abs(w.values - amp * (1.0 - t * t) / 2.0)))

        rep = richardson_order(err, (51, 101, 201))
        assert rep.saturated and math.isnan(rep.order)

    def test_linear_forcing_second_order(self):
        spec = power_pair(2, 1)

        def err(M):
            t = grid_points(M)
            w = apply_operator(spec, 1, dome(M))
            return float(
                np.max(np.abs(w.values - (3.0 / 16.0 - t * t / 4.0 + t**4 / 16.0)))
            )

        rep = richardson_order(err, (101, 201, 401, 801))
        assert not rep.saturated
        assert 1.85 <= rep.order <= 2.15
