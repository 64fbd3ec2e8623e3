import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hessball import (
    GridFunction,
    NonlinearitySpec,
    PowerSystemSpec,
    SolutionBundle,
    SystemSpec,
    apply_composite,
    eval_nonlinearity,
    grid_points,
    sup_norm,
)
from oracle import lambda_scaled_system

# the two-solution forcing 0.1 v^0.5 + 0.1 v^3 on both equations
MULT_TERMS = [[[0.1, 0.0, 0.5], [0.1, 0.0, 3.0]]] * 2


class TestGrid:
    def test_endpoints_and_spacing(self):
        t = grid_points(5)
        assert t[0] == 0.0
        assert t[-1] == 1.0
        np.testing.assert_allclose(np.diff(t), 0.25)

    def test_read_only(self):
        t = grid_points(11)
        with pytest.raises(ValueError):
            t[0] = 5.0


class TestGridFunction:
    def test_basic_properties(self):
        v = GridFunction([0.0, 1.0, 0.0])
        assert v.grid_size == 3

    def test_values_are_isolated(self):
        arr = np.array([1.0, 2.0, 3.0])
        v = GridFunction(arr)
        arr[0] = 99.0
        assert v.values[0] == 1.0
        with pytest.raises(ValueError):
            v.values[0] = 7.0

    def test_rejects_short_or_nonfinite(self):
        with pytest.raises(ValueError):
            GridFunction([1.0, 2.0])
        with pytest.raises(ValueError):
            GridFunction([1.0, math.nan, 0.0])
        with pytest.raises(ValueError):
            GridFunction([1.0, math.inf, 0.0])
        with pytest.raises(ValueError):
            GridFunction(np.ones((3, 3)))


class TestSupNorm:
    def test_examples(self):
        assert sup_norm(GridFunction(np.zeros(11))) == 0.0
        t = grid_points(101)
        assert sup_norm(GridFunction(1.0 - t * t)) == 1.0
        assert sup_norm(GridFunction(t * (1.0 - t))) == 0.25

    def test_accepts_plain_arrays_and_signs(self):
        assert sup_norm(np.array([1.0, -3.0, 2.0])) == 3.0


class TestNonlinearitySpec:
    def test_requires_a_positive_coefficient(self):
        with pytest.raises(ValueError):
            NonlinearitySpec(((0.0, 0.0, 1.0),))
        with pytest.raises(ValueError):
            NonlinearitySpec(())

    def test_rejects_bad_triples(self):
        with pytest.raises(ValueError):
            NonlinearitySpec(((-1.0, 0.0, 1.0),))
        with pytest.raises(ValueError):
            NonlinearitySpec(((1.0, -0.5, 1.0),))
        with pytest.raises(ValueError):
            NonlinearitySpec(((1.0, 0.0, math.inf),))

    def test_terms_drop_zero_coefficients(self):
        f = NonlinearitySpec(((1.0, 0.0, 2.0), (0.0, 3.0, 1.0)))
        assert f.terms == ((1.0, 0.0, 2.0),)

    def test_vanishes_at_zero(self):
        assert NonlinearitySpec(((1.0, 0.0, 2.0),)).vanishes_at_zero
        assert not NonlinearitySpec(((1.0, 0.0, 0.0),)).vanishes_at_zero
        # a dropped zero-coefficient constant term does not spoil vanishing
        f = NonlinearitySpec(((1.0, 0.0, 2.0), (0.0, 0.0, 0.0)))
        assert f.vanishes_at_zero


class TestEvalNonlinearity:
    def test_single_power_term(self):
        f = NonlinearitySpec(((1.0, 0.0, 2.0),))
        assert eval_nonlinearity(f, 0.5, 3.0) == 9.0

    def test_t_weight(self):
        f = NonlinearitySpec(((2.0, 1.0, 1.0),))
        assert eval_nonlinearity(f, 0.5, 4.0) == 4.0

    def test_two_term_sum(self):
        f = NonlinearitySpec(((1.0, 0.0, 0.5), (1.0, 0.0, 3.0)))
        assert eval_nonlinearity(f, 0.0, 4.0) == 66.0

    def test_zero_exponent_at_zero_input(self):
        # v^0 must evaluate to 1 at v = 0 so constant forcing stays constant
        f = NonlinearitySpec(((3.0, 0.0, 0.0),))
        assert eval_nonlinearity(f, 0.2, 0.0) == 3.0

    def test_array_broadcast(self):
        f = NonlinearitySpec(((1.0, 1.0, 1.0),))
        t = np.array([0.0, 0.5, 1.0])
        v = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(eval_nonlinearity(f, t, v), [0.0, 1.0, 3.0])

    def test_t_free_forcing_broadcasts_over_t(self):
        # no term reads t, yet the result still takes the broadcast shape
        f = NonlinearitySpec(((2.0, 0.0, 1.0), (1.0, 0.0, 0.0)))
        t = np.array([0.0, 0.5, 1.0])
        np.testing.assert_array_equal(eval_nonlinearity(f, t, 3.0), [7.0, 7.0, 7.0])
        out = eval_nonlinearity(f, t, np.array([[1.0], [2.0]]))
        np.testing.assert_array_equal(out, [[3.0] * 3, [5.0] * 3])
        with pytest.raises(ValueError):
            eval_nonlinearity(f, t, np.ones(2))

    def test_negative_input_rejected(self):
        f = NonlinearitySpec(((1.0, 0.0, 0.5),))
        with pytest.raises(ValueError):
            eval_nonlinearity(f, 0.5, -1.0)
        with pytest.raises(ValueError):
            eval_nonlinearity(f, 0.5, np.array([1.0, -2.0]))

    @given(
        st.lists(
            st.tuples(
                st.floats(0.1, 3.0),
                st.floats(0.0, 2.0),
                st.floats(0.0, 3.0),
            ),
            min_size=1,
            max_size=3,
        ),
        st.floats(0.0, 1.0),
        st.floats(0.0, 5.0),
        st.floats(0.0, 5.0),
    )
    def test_monotone_in_v(self, triples, t, v1, v2):
        f = NonlinearitySpec(tuple(triples))
        lo, hi = sorted((v1, v2))
        assert eval_nonlinearity(f, t, lo) <= eval_nonlinearity(f, t, hi) + 1e-12

    @given(
        st.lists(
            st.tuples(
                st.floats(0.1, 3.0),
                st.floats(0.0, 2.0),
                st.floats(0.0, 3.0),
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_vanishes_at_zero_matches_evaluation(self, triples):
        f = NonlinearitySpec(tuple(triples))
        value = eval_nonlinearity(f, 0.5, 0.0)
        assert f.vanishes_at_zero == (value == 0.0)


# a positive term with an exponent from a short list, so that forcings often
# share one exponent, or a (0, p, q) term with any q, a zero constant included
FORCING_TERMS = st.lists(
    st.one_of(
        st.tuples(st.floats(0.1, 3.0), st.floats(0.0, 2.0), st.sampled_from((0.0, 0.5, 2.5))),
        st.tuples(st.just(0.0), st.floats(0.0, 2.0), st.floats(0.0, 4.0)),
    ),
    min_size=1,
    max_size=5,
).filter(lambda terms: any(c > 0 for c, _, _ in terms))


class TestZeroCoefficientTerms:
    """A term with c = 0 never contributes, so a forcing given with extra
    (0, p, q) terms is the forcing without them."""

    @given(
        st.integers(2, 4), st.integers(1, 4), st.integers(1, 4),
        FORCING_TERMS, FORCING_TERMS, st.integers(7, 201),
    )
    def test_padded_forcing_is_the_same_forcing(self, N, k1, k2, terms1, terms2, M):
        k = (min(k1, N), min(k2, N))
        given_terms = (terms1, terms2)
        padded = SystemSpec(N, k, tuple(NonlinearitySpec(tuple(ts)) for ts in given_terms))
        plain = SystemSpec(N, k, tuple(
            NonlinearitySpec(tuple(term for term in ts if term[0] > 0)) for ts in given_terms
        ))
        assert padded.f == plain.f and padded == plain
        assert padded.gamma == plain.gamma
        assert [f.vanishes_at_zero for f in padded.f] == [f.vanishes_at_zero for f in plain.f]
        v = 1.0 - grid_points(M) ** 2
        for got, want in zip(apply_composite(padded, v), apply_composite(plain, v)):
            assert np.array_equal(got, want)


class TestSystemSpec:
    def _forcings(self, n):
        return tuple(NonlinearitySpec(((1.0, 0.0, 1.0),)) for _ in range(n))

    def test_valid_construction(self):
        spec = SystemSpec(3, (1, 2), self._forcings(2))
        assert spec.n == 2

    def test_dimension_and_order_validation(self):
        with pytest.raises(ValueError):
            SystemSpec(1, (1, 1), self._forcings(2))
        with pytest.raises(ValueError):
            SystemSpec(2, (1,), self._forcings(1))  # need at least 2 equations
        with pytest.raises(ValueError):
            SystemSpec(2, (0, 1), self._forcings(2))
        with pytest.raises(ValueError):
            SystemSpec(2, (3, 1), self._forcings(2))  # k above N

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SystemSpec(2, (1, 1), self._forcings(3))

    def test_forcing_type_enforced(self):
        with pytest.raises(ValueError):
            SystemSpec(2, (1, 1), (((1.0, 0.0, 1.0),), ((1.0, 0.0, 1.0),)))


class TestPowerSystemSpec:
    def test_homogeneity_ratio(self):
        spec = PowerSystemSpec(3, (2, 2), (0.5, 2.0))
        assert spec.homogeneity_ratio == 0.25

    def test_power_system_is_a_system_spec(self):
        spec = PowerSystemSpec(2, (1, 2), (1.5, 0.5))
        assert spec == SystemSpec(
            2,
            (1, 2),
            (NonlinearitySpec(((1.0, 0.0, 1.5),)), NonlinearitySpec(((1.0, 0.0, 0.5),))),
        )
        assert spec.gamma == (1.5, 0.5)
        # two exponents per forcing: no gamma
        mult = SystemSpec(2, (1, 1), tuple(NonlinearitySpec(eq) for eq in MULT_TERMS))
        assert mult.gamma is None and mult.homogeneity_ratio is None
        # a constant factor keeps one exponent per equation
        scaled = lambda_scaled_system(PowerSystemSpec(3, (1, 1), (1.0, 1.0)), (2.0, 1.0))
        assert scaled.gamma == (1.0, 1.0)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            PowerSystemSpec(2, (1, 1), (1.0, 0.0))
        with pytest.raises(ValueError):
            PowerSystemSpec(2, (1, 1), (1.0, -2.0))
        with pytest.raises(ValueError):
            PowerSystemSpec(2, (1, 1), (1.0,))


class TestSolutionBundle:
    def _spec(self):
        return SystemSpec(
            2, (1, 1), tuple(NonlinearitySpec(((1.0, 0.0, 1.0),)) for _ in range(2))
        )

    def _profile(self, M=11):
        t = grid_points(M)
        return GridFunction(1.0 - t * t)

    def test_valid_bundle(self):
        b = SolutionBundle(
            v=(self._profile(), self._profile()),
            spec=self._spec(),
        )
        assert b.grid_size == 11

    def test_boundary_value_must_vanish(self):
        t = grid_points(11)
        bad = GridFunction(1.0 - 0.5 * t)
        with pytest.raises(ValueError):
            SolutionBundle(
                v=(self._profile(), bad),
                spec=self._spec(),
            )

    def test_profiles_must_share_grid(self):
        with pytest.raises(ValueError):
            SolutionBundle(
                v=(self._profile(11), self._profile(21)),
                spec=self._spec(),
            )

    def test_profile_count_matches_system(self):
        with pytest.raises(ValueError):
            SolutionBundle(
                v=(self._profile(),),
                spec=self._spec(),
            )

    def test_negative_profile_rejected(self):
        t = grid_points(11)
        with pytest.raises(ValueError):
            SolutionBundle(
                v=(self._profile(), GridFunction(-(1.0 - t * t))),
                spec=self._spec(),
            )
