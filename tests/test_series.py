import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    dense_fibonacci_ogf,
    dense_ilpk_one_ogf,
    dense_invert,
    dense_mul,
    dense_sqrt,
)
from permfib import oracle, regex
from permfib.compositions import fib
from permfib.permutations import contains_ascending_run, letter_tuples
from permfib.errors import InvalidInputError, ResourceLimitError, SingularSeriesError
from permfib.series import (
    TruncatedSeries,
    evaluate_polynomial,
    fibonacci_ogf,
    first_mismatch,
    format_series,
    from_coeffs,
    ilpk_gf_coeff,
    ilpk_gf_coeff_prime,
    ilpk_one_ogf,
    ilpk_polynomial,
    ipk_gf_coeff,
    ipk_gf_coeff_prime,
    ipk_gf_sides,
    ipk_polynomial,
    one_series,
    rational_series,
    t_substitution,
    t_substitution_inverse,
    variable,
    verify_ilpk_gf,
    verify_ipk_gf,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)


def series_strategy(constant=None):
    base = st.lists(rationals, min_size=4, max_size=7)

    def fix(coeffs):
        if constant is not None:
            coeffs = [Fraction(constant)] + coeffs[1:]
        return TruncatedSeries(tuple(coeffs))

    return base.map(fix)


class TestRingLaws:
    @settings(max_examples=60, deadline=None)
    @given(series_strategy(), series_strategy(), series_strategy())
    def test_add_mul_laws(self, a, b, c):
        order = min(a.order, b.order, c.order)
        a, b, c = a.truncate(order), b.truncate(order), c.truncate(order)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(series_strategy(constant=1))
    def test_invert_and_sqrt(self, s):
        assert s.invert() * s == s.one_like()
        root = s.sqrt()
        assert root * root == s

    def test_mismatched_orders_truncate(self):
        a = from_coeffs([1, 2, 3, 4])
        b = from_coeffs([1, 1])
        assert (a + b).order == 1
        assert (a * b).coeffs == (Fraction(1), Fraction(3))


nonzero_rationals = rationals.filter(bool)


@st.composite
def sparse_series(draw, max_order=30, leading_zeros=False):
    """A series whose nonzero coefficients sit at random positions."""
    order = draw(st.integers(0, max_order))
    support = draw(st.sets(st.integers(0, order)))
    coeffs = [draw(nonzero_rationals) if i in support else Fraction(0) for i in range(order + 1)]
    if leading_zeros:
        lead = draw(st.integers(0, order + 1))
        coeffs[:lead] = [Fraction(0)] * lead
    return TruncatedSeries(tuple(coeffs))


def with_constant(s, value):
    """s with its constant coefficient replaced by the constant ``value``."""
    return TruncatedSeries((Fraction(value),) + s.coeffs[1:])


class TestKernelsAgainstDenseReference:
    """The sparse kernels against the schoolbook loops in tests/oracles.py."""

    @settings(max_examples=150, deadline=None)
    @given(sparse_series(), sparse_series())
    @example(from_coeffs([3]), from_coeffs([0, 2, 5]))
    @example(from_coeffs([0, 1]), from_coeffs([0, 1]))
    def test_mul(self, a, b):
        assert a * b == dense_mul(a, b)
        assert (a * b).order == min(a.order, b.order)

    @settings(max_examples=100, deadline=None)
    @given(sparse_series(leading_zeros=True), sparse_series(leading_zeros=True))
    def test_mul_with_leading_zeros(self, a, b):
        assert a * b == dense_mul(a, b)

    @settings(max_examples=150, deadline=None)
    @given(sparse_series(), nonzero_rationals)
    @example(from_coeffs([0]), Fraction(2))
    @example(from_coeffs([0, 3]), Fraction(-1))
    def test_invert(self, s, constant):
        s = with_constant(s, constant)
        assert s.invert() == dense_invert(s)

    @settings(max_examples=150, deadline=None)
    @given(sparse_series())
    @example(from_coeffs([0]))
    @example(from_coeffs([0, Fraction(-3, 7)]))
    def test_sqrt(self, s):
        s = with_constant(s, 1)
        assert s.sqrt() == dense_sqrt(s)


class TestDivisionKernel:
    """``/`` and ``rational_series`` share the quotient kernel with
    ``invert`` (checked above); each is checked against the schoolbook
    inverse and product."""

    @settings(max_examples=150, deadline=None)
    @given(sparse_series(), sparse_series(), nonzero_rationals)
    @example(from_coeffs([1, 2, 3]), from_coeffs([3, 1]), Fraction(3))
    @example(from_coeffs([Fraction(1, 2), 0, Fraction(-2, 3)]), from_coeffs([0, 5]), Fraction(-2))
    @example(from_coeffs([Fraction(5, 7)]), from_coeffs([0, Fraction(1, 3), 1]), Fraction(2, 3))
    def test_quotient(self, a, b, constant):
        b = with_constant(b, constant)
        quotient = a / b
        assert quotient == dense_mul(a, dense_invert(b))
        assert quotient.order == min(a.order, b.order)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(rationals, max_size=12),
        st.lists(rationals, max_size=12),
        nonzero_rationals,
        st.integers(0, 10),
    )
    @example([1, -1], [-2, 0, 1], Fraction(1), 6)
    @example([Fraction(1, 3), 2, Fraction(-5, 4), 1, 1, 1, 1, 1], [0, 4], Fraction(3), 3)
    @example([], [0, 1], Fraction(-1, 2), 4)
    def test_rational_series(self, numerator, denominator, constant, order):
        denominator = [constant] + denominator
        p, q = from_coeffs(numerator, order), from_coeffs(denominator, order)
        assert rational_series(numerator, denominator, order) == dense_mul(p, dense_invert(q))

    def test_numerator_longer_than_the_order_is_truncated(self):
        assert rational_series([1, 2, 3, 4, 5], [1, -1], 2) == from_coeffs([1, 3, 6])
        assert rational_series([0, 0, 0, 7], [2], 2) == from_coeffs([0, 0, 0])

    def test_unit_free_constant_terms(self):
        # q_0 = 2 and q_0 = -3/2 scale every coefficient; P = 1/3 - t/4 is rational
        assert rational_series([1], [2, -1], 3) == from_coeffs(
            [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)]
        )
        assert rational_series([Fraction(1, 3), Fraction(-1, 4)], [Fraction(-3, 2)], 2) == (
            from_coeffs([Fraction(-2, 9), Fraction(1, 6), 0])
        )

    def test_zero_constant_term_is_singular(self):
        with pytest.raises(SingularSeriesError, match="zero constant term"):
            rational_series([1], [0, 1], 3)
        with pytest.raises(SingularSeriesError, match="zero constant term"):
            rational_series([1], [], 3)
        with pytest.raises(SingularSeriesError, match="zero constant term"):
            from_coeffs([1, 2, 3]) / from_coeffs([0, 0, 1])
        with pytest.raises(SingularSeriesError, match="zero constant term"):
            from_coeffs([Fraction(0), 1]).invert()

    def test_order_and_coefficient_checks(self):
        with pytest.raises(InvalidInputError, match="order must be >= 0, got -1"):
            rational_series([1], [1], -1)
        for bad in (1.5, "x", one_series(2)):
            with pytest.raises(InvalidInputError, match="ints or Fractions"):
                rational_series([1, bad], [1], 3)
            with pytest.raises(InvalidInputError, match="ints or Fractions"):
                rational_series([1], [1, bad], 3)

    @pytest.mark.parametrize("order", [*range(13), 300])
    def test_closed_forms_match_product_with_inverse(self, order):
        def monomials(*terms):
            out = [0] * (max(e for e, _ in terms) + 1)
            for e, c in terms:
                out[e] += c
            return out

        def times(a, b):
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return out

        def product_with_inverse(p, q):
            return from_coeffs(p, order) * from_coeffs(q, order).invert()

        for m in range(2, 7):
            q = monomials((0, 1), (1, -2), (m, 1))
            assert fibonacci_ogf(m, order) == product_with_inverse([1, -1], q), m
        for m in range(3, 7):
            p = monomials((2, -1), (m, 1))
            q = times([1, -2, 1], monomials((0, -1), (1, 3), (m, -3), (m + 1, 1)))
            assert ilpk_one_ogf(m, order) == product_with_inverse(p, q), m


class TestKernelsAtHighOrder:
    """Unreduced numerators grow with the order, through the powers of
    invert's scale and the lcm of an operand's denominators, so the integer
    kernels are checked well past the orders the property tests reach."""

    ORDER = 300
    HARMONIC = from_coeffs([Fraction(1, k + 1) for k in range(ORDER + 1)])

    @pytest.mark.parametrize(
        "s",
        [
            from_coeffs([3, 1, 2], ORDER),
            from_coeffs([Fraction(-5, 3), Fraction(1, 2), 0, Fraction(-7, 4)], ORDER),
            from_coeffs(
                [1, Fraction(1, 2), Fraction(1, 3), 0, Fraction(-1, 5), Fraction(1, 7)], ORDER
            ),
            from_coeffs([1, -1], ORDER).sqrt(),
            from_coeffs([Fraction(2, 3), Fraction(1, 6), Fraction(-1, 27)], ORDER),
        ],
        ids=[
            "integer-lead-3", "negative-rational-lead", "denominators-differ",
            "root-of-one-minus-t", "denominator-powers",
        ],
    )
    def test_invert(self, s):
        assert s.invert() == dense_invert(s)

    def test_inverse_root_is_central_binomials_over_powers_of_four(self):
        # coefficient i >= 1 of sqrt(1 - t) has a denominator dividing
        # 2^(2i - 1), so invert's scale is 4 and its integers are binomial(2n, n)
        inverse = from_coeffs([1, -1], self.ORDER).sqrt().invert()
        assert inverse.coeffs == tuple(
            Fraction(math.comb(2 * n, n), 4**n) for n in range(self.ORDER + 1)
        )

    @pytest.mark.parametrize(
        "a, b",
        [
            (HARMONIC, HARMONIC),
            (HARMONIC, from_coeffs([3, 1, 2], ORDER).invert()),
            (from_coeffs([Fraction(-5, 3), 0, Fraction(2, 9)], ORDER), HARMONIC),
        ],
        ids=["harmonic-squared", "harmonic-times-inverse", "negative-rational-lead"],
    )
    def test_mul(self, a, b):
        assert a * b == dense_mul(a, b)


class TestBasicOperations:
    def test_geometric_series(self):
        assert from_coeffs([1, -1], 5).invert() == from_coeffs([1] * 6)

    def test_sqrt_expansion(self):
        root = from_coeffs([1, -1], 3).sqrt()
        assert root.coeffs == (
            Fraction(1),
            Fraction(-1, 2),
            Fraction(-1, 8),
            Fraction(-1, 16),
        )

    def test_compose_example(self):
        outer = from_coeffs([0, 0, 1], 4)
        inner = from_coeffs([0, 1, 1], 4)
        assert outer.compose(inner) == from_coeffs([0, 0, 1, 2, 1])

    def test_singularities(self):
        with pytest.raises(SingularSeriesError):
            from_coeffs([0, 1]).invert()
        with pytest.raises(SingularSeriesError):
            from_coeffs([2, 1]).sqrt()
        with pytest.raises(SingularSeriesError):
            from_coeffs([1, 1]).compose(from_coeffs([1, 1]))

    @pytest.mark.parametrize("zero", [0, Fraction(0)], ids=["int", "Fraction"])
    def test_division_by_zero_is_singular(self, zero):
        with pytest.raises(SingularSeriesError, match="divide a series by zero"):
            from_coeffs([1, 2]) / zero
        with pytest.raises(SingularSeriesError):
            from_coeffs([1, 2]) / from_coeffs([zero, 1])

    def test_coefficient_accessor(self):
        s = from_coeffs([3, 1, 4])
        assert s.coefficient(1) == 1
        with pytest.raises(InvalidInputError):
            s.coefficient(7)

    def test_format(self):
        assert (
            format_series(from_coeffs([0, Fraction(1, 4), Fraction(1, 8)]))
            == "0 + 1/4*t + 1/8*t^2"
        )

    def test_negative_order_is_rejected(self):
        with pytest.raises(InvalidInputError, match="order must be >= 0"):
            from_coeffs([1, 2], -1)
        with pytest.raises(InvalidInputError):
            ilpk_one_ogf(3, -3)
        assert from_coeffs([1, 2], 0).coeffs == (1,)

    def test_coefficients_are_rational(self):
        assert TruncatedSeries((1, Fraction(1, 3))).coeffs == (Fraction(1), Fraction(1, 3))
        with pytest.raises(
            InvalidInputError, match="^a series needs at least the constant coefficient$"
        ):
            TruncatedSeries(())
        for bad in (1.5, "x", one_series(2)):
            with pytest.raises(InvalidInputError, match="ints or Fractions"):
                TruncatedSeries((1, bad))
            with pytest.raises(InvalidInputError, match="ints or Fractions"):
                from_coeffs([1, bad], 3)


class TestSubstitution:
    def test_inverse_coefficients(self):
        v = t_substitution_inverse(3)
        assert v.coeffs == (
            Fraction(0),
            Fraction(1, 4),
            Fraction(1, 8),
            Fraction(5, 64),
        )

    def test_inverse_is_catalan_over_powers_of_four(self):
        v = t_substitution_inverse(2000)
        assert v.coeffs[0] == 0
        for n in range(1, 2001):
            assert v.coeffs[n] == Fraction(math.comb(2 * n, n) // (n + 1), 4**n)

    def test_defining_property(self):
        for order in (1, 3, 6, 10):
            v = t_substitution_inverse(order)
            one = one_series(order)
            assert (v * 4) * ((one + v) ** 2).invert() == variable(order)

    def test_displayed_expansions(self):
        v = t_substitution_inverse(3)
        one = one_series(3)
        two_over = (one + v).invert() * 2
        assert two_over.coeffs == (
            Fraction(2),
            Fraction(-1, 2),
            Fraction(-1, 8),
            Fraction(-1, 16),
        )
        ratio = (one - v) * (one + v).invert()
        assert ratio.coeffs == (
            Fraction(1),
            Fraction(-1, 2),
            Fraction(-1, 8),
            Fraction(-1, 16),
        )

    def test_substitution_composes_with_inverse(self):
        order = 8
        u = t_substitution(order)
        v = t_substitution_inverse(order)
        assert u.compose(v) == variable(order)


class TestBracketCoefficients:
    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_collapse_at_k_one(self, m, j):
        assert ipk_gf_coeff(m, j, 1) == 2
        assert ipk_gf_coeff_prime(m, j, 1) == 2
        assert ilpk_gf_coeff(m, j, 1) == 4
        assert ilpk_gf_coeff_prime(m, j, 1) == 4

    def test_out_of_range(self):
        for bad in [(1, 1, 1), (2, 0, 1), (2, 1, 0)]:
            with pytest.raises(InvalidInputError):
                ipk_gf_coeff(*bad)
            with pytest.raises(InvalidInputError):
                ilpk_gf_coeff_prime(*bad)


class TestStatisticPolynomials:
    def test_boundary_cases(self):
        assert ipk_polynomial(3, 0) == (1,)
        assert ipk_polynomial(3, 1) == (0, 1)
        assert ilpk_polynomial(3, 2) == (1, 1)

    def test_polynomials_count_avoiders(self):
        # the coefficient sum is the number of avoiders
        for m in (3, 4):
            for n in range(1, 7):
                total = sum(ipk_polynomial(m, n))
                by_hand = sum(
                    1
                    for p in letter_tuples(n)
                    if not contains_ascending_run(p, m)
                )
                assert total == by_hand

    def test_resource_limit(self):
        with pytest.raises(ResourceLimitError, match="^S_13 exceeds the cap of 12$"):
            ipk_polynomial(3, 13)


class TestClosedFormExpansions:
    def test_fibonacci_ogf(self):
        assert [c for c in fibonacci_ogf(3, 6).coeffs] == [1, 1, 2, 3, 5, 8, 13]
        assert [c for c in fibonacci_ogf(4, 6).coeffs] == [1, 1, 2, 4, 7, 13, 24]
        for m in (2, 3, 4, 5):
            expansion = fibonacci_ogf(m, 2000)
            assert list(expansion.coeffs) == [fib(m - 1, n) for n in range(2001)]

    def test_expansions_match_dense_reference(self):
        for order in range(16):
            for m in range(2, 13):
                assert fibonacci_ogf(m, order) == dense_fibonacci_ogf(m, order), (m, order)
            for m in range(3, 13):
                assert ilpk_one_ogf(m, order) == dense_ilpk_one_ogf(m, order), (m, order)

    def test_ilpk_one_ogf_small_coefficients(self):
        expansion = ilpk_one_ogf(3, 6)
        assert list(expansion.coeffs[1:]) == [0, 1, 4, 13, 37, 101]

    def test_ilpk_one_ogf_closed_form(self):
        expansion = ilpk_one_ogf(3, 2000)
        for n in range(1, 2001):
            assert expansion.coeffs[n] == fib(2, n - 1) * fib(2, n) - (n + 1) // 2

    def test_low_coefficients_vanish(self):
        for m in (3, 4, 5, 6):
            expansion = ilpk_one_ogf(m, 4)
            assert expansion.coeffs[0] == 0
            assert expansion.coeffs[1] == 0

    def test_word_counts_match_ogf(self):
        for m in (3, 4):
            expansion = ilpk_one_ogf(m, 10)
            dfa = regex.block_word_dfa(m)
            for n in range(11):
                assert expansion.coeffs[n] == dfa.count_words(n)

    def test_fibonacci_ogf_matches_enumeration(self):
        for m in (3, 4, 5):
            expansion = fibonacci_ogf(m, 7)
            for n in range(1, 8):
                assert expansion.coeffs[n] == oracle.count_ipk0_avoiders(n, m)

    def test_ilpk_ogf_matches_enumeration(self):
        for m in (3, 4):
            expansion = ilpk_one_ogf(m, 7)
            for n in range(1, 8):
                assert expansion.coeffs[n] == oracle.count_ilpk1_avoiders(n, m)


class TestMasterIdentities:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_ipk_identity_small(self, m):
        assert verify_ipk_gf(m, 5, 3)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_ilpk_identity_small(self, m):
        assert verify_ilpk_gf(m, 5, 3)

    def test_mismatch_reporting(self):
        lhs, rhs = ipk_gf_sides(3, 5, 3)
        assert first_mismatch(lhs, rhs) is None
        # perturb one coefficient and the locator pinpoints it
        rows = list(lhs)
        row = list(rows[2].coeffs)
        row[1] += 1
        rows[2] = TruncatedSeries(tuple(row))
        assert first_mismatch(tuple(rows), rhs) == (2, 1, row[1], row[1] - 1)

    def test_sides_of_different_orders_disagree(self):
        lhs, rhs = ipk_gf_sides(3, 5, 3)
        fewer_x = lhs[:3]
        assert first_mismatch(fewer_x, rhs) == (3, 0, None, rhs[3].coeffs[0])
        fewer_t = (lhs[0].truncate(2), *lhs[1:])
        assert first_mismatch(fewer_t, rhs) == (0, 3, None, rhs[0].coeffs[3])
        assert first_mismatch(rhs, fewer_t) == (0, 3, rhs[0].coeffs[3], None)

    def test_order_preconditions(self):
        with pytest.raises(ResourceLimitError, match="^S_13 exceeds the cap of 12$"):
            verify_ipk_gf(3, 13, 5)
        with pytest.raises(InvalidInputError):
            verify_ilpk_gf(3, 5, 6)


def test_evaluate_polynomial_matches_compose():
    point = from_coeffs([0, 1, 1], 5)
    poly = (2, 0, 1, 3)
    direct = evaluate_polynomial(poly, point)
    lifted = from_coeffs(list(poly), 5)
    assert direct == lifted.compose(point)
