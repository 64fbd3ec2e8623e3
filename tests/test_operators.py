import math

import numpy as np
import pytest
from hypothesis import given, settings
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
    picard_solve,
    radial_hessian,
    sup_norm,
)
from hessball.core import NonFiniteError, _grid_samples
from hessball.solver import IterationStatus
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
        w = apply_composite(spec, dome(M))[0]
        np.testing.assert_allclose(w, 0.25 * (1.0 - t * t), atol=1e-13)

    def test_return_chain_structure(self):
        spec = PowerSystemSpec(3, (1, 2, 3), (1.0, 1.0, 1.0))
        v1 = dome(101)
        innermost = apply_operator(spec, 3, v1)
        middle = apply_operator(spec, 2, innermost)
        outer = apply_operator(spec, 1, middle)
        for given in (v1.values, v1):  # a raw array or a GridFunction
            chain = apply_composite(spec, given)
            assert type(chain) is tuple and len(chain) == spec.n
            assert all(type(w) is np.ndarray and w.shape == (101,) for w in chain)
            np.testing.assert_array_equal(chain[2], innermost.values)
            np.testing.assert_array_equal(chain[1], middle.values)
            np.testing.assert_array_equal(chain[0], outer.values)

    def test_composite_homogeneity(self):
        spec = PowerSystemSpec(3, (2, 1), (1.0, 0.5))
        rho = spec.homogeneity_ratio
        v = dome(201)
        c = 2.5
        w1 = apply_composite(spec, GridFunction(c * v.values))[0]
        w2 = apply_composite(spec, v)[0]
        np.testing.assert_allclose(
            w1, c**rho * w2, rtol=1e-12, atol=1e-14
        )

    def test_shared_plan_gives_the_fresh_plan_chain(self):
        spec = PowerSystemSpec(3, (1, 2, 3), (0.5, 1.0, 2.0))
        plan = QuadratureTable(201)
        for c in (1.0, 2.5, 0.1):  # later calls reuse the plan's panel weights
            v = GridFunction(c * dome(201).values)
            shared = apply_composite(spec, v, plan=plan)
            fresh = apply_composite(spec, v)
            for got, want in zip(shared, fresh):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("offset", [2, -2])
    def test_plan_of_another_size_rejected(self, offset):
        spec = power_pair(2, 1)
        M = 101
        v = dome(M)
        with pytest.raises(ValueError, match="quadrature plan has M"):
            apply_composite(spec, v, plan=QuadratureTable(M + offset))


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
    for chain in (apply_composite(spec, v), apply_composite(spec, GridFunction(v))):
        np.testing.assert_array_equal(chain[1], w2)
        np.testing.assert_array_equal(chain[0], w1)


def reference_chain(spec, v):
    """apply_composite's chain (w1, ..., wn) from reference_operator."""
    chain = [np.asarray(v, dtype=float)]
    for i in range(spec.n, 0, -1):
        chain.append(reference_operator(spec, i, chain[-1]))
    return tuple(reversed(chain[1:]))


def assert_chain_matches_reference(spec, v):
    want = reference_chain(spec, v)
    got = apply_composite(spec, v)
    assert len(got) == len(want)
    for w_got, w_want in zip(got, want):
        assert np.array_equal(w_got, w_want)


# a term (c, p, gamma): zero and unit coefficients, p = 0 or p > 0, gamma = 1
# or not, so every identity the kernel skips is drawn
kernel_terms = st.tuples(
    st.sampled_from([0.0, 1.0, 0.3, 2.5]),
    st.sampled_from([0.0, 1.0, 0.5, 2.0]),
    st.sampled_from([1.0, 0.0, 0.5, 2.0]),
)


@st.composite
def kernel_systems(draw):
    """A system of 2 or 3 equations on N = 2..5 with k_i in 1..N and one- or
    two-term forcings that have a positive coefficient."""
    N = draw(st.integers(2, 5))
    n = draw(st.integers(2, 3))
    k = tuple(draw(st.integers(1, N)) for _ in range(n))
    forcings = []
    for _ in range(n):
        terms = draw(st.lists(kernel_terms, min_size=1, max_size=2))
        if not any(c > 0 for c, _, _ in terms):
            terms[0] = (1.0,) + terms[0][1:]
        forcings.append(NonlinearitySpec(tuple(terms)))
    return SystemSpec(N, k, tuple(forcings))


class TestKernelMatchesReference:
    @pytest.mark.parametrize("forcing", sorted(KERNEL_FORCINGS))
    @pytest.mark.parametrize("M", [7, 301, 1001, 4001])
    def test_every_degree(self, M, forcing):
        for N in range(2, 6):
            for k in range(1, N + 1):
                assert_kernel_matches_reference(N, k, KERNEL_FORCINGS[forcing], M)

    @given(kernel_systems(), st.integers(7, 1001), st.floats(0.05, 20.0))
    def test_chain_bit_identical(self, spec, M, scale):
        t = grid_points(M)
        assert_chain_matches_reference(spec, scale * (1.0 - t * t) + (1.0 - t) * t)

    def test_fine_grid(self):
        assert_kernel_matches_reference(3, 2, KERNEL_FORCINGS["several"], 64001)
        # the fine_grid benchmark's system, where k = 1, C = 1, c = 1 and gamma = 1
        assert_chain_matches_reference(PowerSystemSpec(3, (1, 1), (1.0, 1.0)), dome(64001).values)

    @pytest.mark.parametrize(
        "spec",
        [
            PowerSystemSpec(3, (1, 1), (1.0, 1.0)),
            SystemSpec(
                3,
                (1, 2, 3),
                (
                    NonlinearitySpec(((0.3, 1.0, 1.0), (1.0, 0.0, 1.0))),
                    NonlinearitySpec(((1.0, 0.0, 0.5),)),
                    NonlinearitySpec(((2.5, 0.0, 1.0),)),
                ),
            ),
            SystemSpec(2, (2, 1), (KERNEL_FORCINGS["several"], KERNEL_FORCINGS["constant"])),
        ],
        ids=["identity-forcing", "scaled-identities", "sums"],
    )
    def test_chain_owns_its_memory(self, spec):
        v = 2.0 * dome(301).values
        before = v.copy()
        chain = apply_composite(spec, v)
        np.testing.assert_array_equal(v, before)
        for j, w in enumerate(chain):
            assert not np.shares_memory(w, v)
            for other in chain[j + 1 :]:
                assert not np.shares_memory(w, other)

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


def reference_eval_nonlinearity(f, t, v):
    """eval_nonlinearity as it stood before the operator program: every call
    checks v, computes each t**p and builds each term."""
    t_arr = np.asarray(t, dtype=float)
    v_arr = np.asarray(v, dtype=float)
    if (v_arr < 0).any():
        raise ValueError("eval_nonlinearity requires v >= 0")
    out = None
    for c, p, g in f.active_terms:
        if p == 0:
            term = np.power(v_arr, g)
            if c != 1.0:
                term *= c
        else:
            weight = np.power(t_arr, p)
            term = (weight if c == 1.0 else c * weight) * np.power(v_arr, g)
        out = term if out is None else out + term
    return out


def reference_apply(spec, i, vals, plan):
    """A_i as operators._apply computed it before the operator program."""
    N = spec.N
    k = spec.k[i - 1]
    fvals = reference_eval_nonlinearity(spec.f[i - 1], plan.t, vals)
    inner = plan.weighted_cumulative(fvals, N - 1)
    C = math.comb(N - 1, k - 1)
    if C != 1:
        inner /= C
    core = np.empty_like(inner)
    core[0] = 0.0
    if k == 1:
        np.divide(inner[1:], plan.power(N - 1)[1:], out=core[1:])
    else:
        np.multiply(k, inner[1:], out=core[1:])
        if N != k:
            core[1:] /= plan.power(N - k)[1:]
    if (core < -1e-14).any():
        raise ValueError("inner integral went negative beyond round-off")
    np.maximum(core, 0.0, out=core)
    return plan.tail(core ** (1.0 / k))


def reference_composite(spec, v1, plan=None):
    """apply_composite as it stood before the operator program.

    Every operator re-derives its constants (reference_apply), and every
    output gets the full finiteness check of _grid_samples.
    """
    w = v1.values if isinstance(v1, GridFunction) else _grid_samples(v1)
    if (w < 0).any():
        raise ValueError("operator input must be nonnegative")
    if plan is None:
        plan = QuadratureTable(w.size)
    chain = []
    for i in range(spec.n, 0, -1):
        w = _grid_samples(reference_apply(spec, i, w, plan))
        chain.append(w)
    return tuple(reversed(chain))


def program_input(M, scale, bump):
    """A nonnegative profile: a scaled dome plus a bump that may break monotonicity."""
    t = grid_points(M)
    return scale * (1.0 - t * t) + (1.0 - t) * t + bump * np.exp(-50.0 * (t - 0.5) ** 2)


class TestOperatorProgram:
    """The bound operator program against the path it replaced, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        kernel_systems(),
        st.sampled_from([3, 4, 301, 4001]),
        st.floats(0.05, 20.0),
        st.sampled_from([0.0, 3.0]),
    )
    def test_matches_reference_composite(self, spec, M, scale, bump):
        v = program_input(M, scale, bump)
        want = reference_composite(spec, v)
        got = apply_composite(spec, v)
        assert len(got) == len(want) == spec.n
        for w_got, w_want in zip(got, want):
            assert np.array_equal(w_got, w_want)
        # apply_operator runs equation i alone on the output of equation i + 1
        for i in range(1, spec.n + 1):
            vi = want[i] if i < spec.n else v
            plan = QuadratureTable(M)
            expected = _grid_samples(reference_apply(spec, i, vi, plan))
            assert np.array_equal(apply_operator(spec, i, vi).values, expected)

    def test_shared_plan_rebinds_another_system(self):
        # a plan keeps the program of the last system it met, never a stale one
        M = 301
        plan = QuadratureTable(M)
        v = program_input(M, 2.0, 3.0)
        specs = [
            SystemSpec(3, (2, 1), (KERNEL_FORCINGS["several"], KERNEL_FORCINGS["p-positive"])),
            SystemSpec(4, (4, 3), (KERNEL_FORCINGS["constant"], KERNEL_FORCINGS["p0"])),
        ]
        for spec in specs + specs:
            got = apply_composite(spec, v, plan=plan)
            want = reference_composite(spec, v)
            for w_got, w_want in zip(got, want):
                assert np.array_equal(w_got, w_want)

    @settings(max_examples=100, deadline=None)
    @given(
        kernel_systems(),
        st.sampled_from([3, 4, 301, 4001]),
        st.floats(1e-3, 1e3),
        st.sampled_from([0.0, 3.0]),
    )
    def test_first_sample_is_the_sup_norm(self, spec, M, scale, bump):
        # every output is nonnegative and nonincreasing, which is why the
        # solvers and the finiteness check read w[0]
        for w in apply_composite(spec, program_input(M, scale, bump)):
            assert sup_norm(w) == w[0]
            assert w.min() >= 0.0
            assert (np.diff(w) <= 0.0).all()


class FixedInner(QuadratureTable):
    """A plan whose inner integral is a given array, whatever the forcing."""

    __slots__ = ("inner",)

    def weighted_cumulative(self, y, power):
        return self.inner.copy()


def outcome(call):
    """A call's result, or the type and message of the ValueError it raised."""
    try:
        return call()
    except ValueError as exc:
        return type(exc), str(exc)


INNER_SAMPLES = [0.0, 1e-3, 2.0, -1e-15, -1e-13, -0.5, math.nan, math.inf, -math.inf]


class TestOperatorProgramErrors:
    @pytest.mark.parametrize("wrap", [np.asarray, GridFunction], ids=["ndarray", "grid"])
    @pytest.mark.parametrize("node", [0, 25, 50])
    def test_one_tiny_negative_sample_rejected(self, wrap, node):
        spec = power_pair(2, 1)
        v = dome(51).values.copy()
        v[node] = -5e-324
        for call in (lambda x: apply_operator(spec, 1, x), lambda x: apply_composite(spec, x)):
            with pytest.raises(ValueError, match="operator input must be nonnegative"):
                call(wrap(v))

    def test_nan_input_before_a_v_free_forcing(self):
        # the innermost forcing reads NaN**0 = 1 and returns a finite
        # profile, so only the input check sees the NaN
        constant = NonlinearitySpec(((1.0, 0.0, 0.0),))
        spec = SystemSpec(2, (1, 1), (constant, constant))
        v = dome(51).values.copy()
        v[20] = math.nan
        for call in (lambda x: apply_operator(spec, 2, x), lambda x: apply_composite(spec, x)):
            with pytest.raises(ValueError, match="grid function samples must be finite"):
                call(v)

    def test_overflow_before_a_v_free_forcing(self):
        # the innermost v^40 overflows; the constant forcing after it would
        # read inf**0 = 1 and return a finite profile, so the innermost
        # output's own check must raise, and Picard reads it as divergence
        M = 301
        init = GridFunction(1e9 * (1.0 - grid_points(M) ** 2))
        power = NonlinearitySpec(((1.0, 0.0, 40.0),))
        constant = NonlinearitySpec(((1.0, 0.0, 0.0),))
        spec = SystemSpec(2, (1, 1), (constant, power))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError, match="grid function samples must be finite"):
                apply_composite(spec, init)
            with pytest.raises(NonFiniteError):
                reference_composite(spec, init)
            with pytest.raises(NonFiniteError):
                apply_operator(spec, 2, init)
        report = picard_solve(spec, init)
        assert report.status is IterationStatus.DIVERGED
        assert report.iterations == 1 and report.solution is None

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(
            [power_pair(2, 1), PowerSystemSpec(3, (2, 3), (1.0, 0.5)), power_pair(4, 2)]
        ),
        st.lists(st.sampled_from(INNER_SAMPLES), min_size=5, max_size=12),
    )
    def test_floor_and_finiteness_match_reference(self, spec, samples):
        # the inner integral is forced, NaNs, infs and values either side of
        # the round-off floor included; the program must raise the same
        # error as the old path, or return the same chain
        inner = np.array([0.0] + samples)
        M = inner.size
        v = dome(M).values

        def plan():
            table = FixedInner(M)
            table.inner = inner
            return table

        with np.errstate(all="ignore"):
            got = outcome(lambda: apply_composite(spec, v, plan=plan()))
            want = outcome(lambda: reference_composite(spec, v, plan=plan()))
        if isinstance(want, tuple) and isinstance(want[0], type):
            assert got == want
        else:
            for w_got, w_want in zip(got, want):
                assert np.array_equal(w_got, w_want)

    def test_nan_cannot_hide_a_value_below_the_floor(self):
        # core.min() is NaN here, so only the per-sample compare sees -0.5
        spec = power_pair(2, 1)
        table = FixedInner(6)
        table.inner = np.array([0.0, 1e-3, -0.5, 2.0, math.nan, 1.0])
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="inner integral went negative"):
                apply_composite(spec, dome(6).values, plan=table)


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
