"""Exact truncated power series and the generating-function identity checks.

Coefficients are rationals (stdlib :class:`~fractions.Fraction`).  All
arithmetic is exact; floating point is deliberately absent from this module.
Every rational function here is one :func:`rational_series` expansion of an
integer numerator over an integer denominator with constant term 1 or -1,
which is an integer recurrence (Knuth, TAOCP Vol. 2, §4.7) building one
Fraction per output coefficient.  The product runs on ints too: each operand
is read once as integer numerators over one common denominator.  The square
root stays on Fractions.
Operations on series of different orders truncate to the smaller order.  A
bivariate series in x and t is held as rows: a tuple whose entry n is the
coefficient of x^n, a series in t.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import oracle
from ._value import Value
from .errors import InvalidInputError, ResourceLimitError, SingularSeriesError

#: Largest order the closed-form expansions accept.  At this order their
#: numerators and denominators reach about 3,000 digits, below the
#: 4,300-digit limit of Python's int-to-str conversion that printing uses.
MAX_SERIES_ORDER = 5000


def _terms(coeffs: Sequence[Fraction | int]) -> list[tuple[int, Fraction | int]]:
    """The (index, coefficient) pairs of the nonzero coefficients, in order."""
    return [(i, c) for i, c in enumerate(coeffs) if c]


def _numerators(coeffs: Sequence[Fraction | int]) -> tuple[list[tuple[int, int]], int]:
    """The nonzero coefficients, ints or Fractions, as (index, integer
    numerator) pairs over one common denominator, the lcm of theirs, returned
    beside them."""
    scale = math.lcm(*(c.denominator for c in coeffs))
    return [(i, c.numerator * (scale // c.denominator)) for i, c in _terms(coeffs)], scale


def _rational(value) -> Fraction:
    if isinstance(value, int):
        return Fraction(value)
    raise InvalidInputError(
        f"series coefficients are ints or Fractions, got {type(value).__name__}"
    )


class TruncatedSeries(Value):
    """Power series in one variable with rational coefficients, kept exactly
    up to a fixed order.

    Ints are stored as Fractions; any other coefficient type is refused.
    Binary operations between two series treat both operands as series in
    the same variable; plain ints and Fractions act as constants.

    The kernels loop over nonzero coefficients only.  With nnz(s) the number
    of nonzero coefficients of s and N the order of the result, ``a * b``
    costs at most min(nnz(a) * nnz(b), min(nnz(a), nnz(b)) * (N + 1))
    coefficient products and ``sqrt`` at most N * nnz(self).  The rational
    generating functions have at most seven nonzero terms in any operand, so
    their expansions are linear in N.

    ``a * b`` scales each operand to the lcm of its denominators, multiplies
    and adds integer numerators, and reduces once per output coefficient.
    ``sqrt``, ``+`` and scalar products stay on Fractions: the 1/(2n) factor
    of each root coefficient would make unreduced denominators grow
    factorially.
    """

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Sequence[Fraction | int]) -> None:
        if not coeffs:
            raise InvalidInputError("a series needs at least the constant coefficient")
        coeffs = tuple(c if isinstance(c, Fraction) else _rational(c) for c in coeffs)
        super().__init__(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    # -- ring operations ----------------------------------------------------

    def _paired(self, other: "TruncatedSeries") -> tuple[tuple, tuple]:
        order = min(self.order, other.order)
        return self.coeffs[: order + 1], other.coeffs[: order + 1]

    def __add__(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            a, b = self._paired(other)
            return TruncatedSeries(tuple(x + y for x, y in zip(a, b)))
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries((self.coeffs[0] + other, *self.coeffs[1:]))
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            a, b = self._paired(other)
            (a_terms, a_scale), (b_terms, b_scale) = _numerators(a), _numerators(b)
            sparse, dense = sorted((a_terms, b_terms), key=len)
            size = len(a)
            out = [0] * size
            for i, x in sparse:
                for j, y in dense:
                    if i + j >= size:
                        break
                    out[i + j] += x * y
            scale = a_scale * b_scale
            for n, c in enumerate(out):
                out[n] = Fraction(c, scale)
            return TruncatedSeries(tuple(out))
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries(tuple(c * other for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    # -- the interesting operations ------------------------------------------

    def sqrt(self) -> "TruncatedSeries":
        """Square root of a series with constant term 1.

        The root s of a solves 2·a·s' = a'·s.  Read at t^(n-1) this is
        2n·s_n = sum over i >= 1 of a_i·(3i - 2n)·s_(n-i), one term per
        nonzero a_i (Knuth, TAOCP Vol. 2, §4.7).
        """
        a = self.coeffs
        if a[0] != 1:
            raise SingularSeriesError("sqrt requires constant term 1")
        out = [a[0]]
        tail = _terms(a)[1:]
        for n in range(1, len(a)):
            acc = Fraction(0)
            for i, c in tail:
                if i > n:
                    break
                acc = acc + c * (3 * i - 2 * n) * out[n - i]
            out.append(acc * Fraction(1, 2 * n))
        return TruncatedSeries(tuple(out))


def _divide(p: Sequence[int], q: Sequence[int], order: int) -> TruncatedSeries:
    """P/Q to the given order, for integer coefficient lists p and q with
    q_0 = 1 or -1.

    Coefficient n of the quotient is q_0 (p_n - sum over i >= 1 of
    q_i out_(n-i)) (Knuth, TAOCP Vol. 2, §4.7), as 1/q_0 = q_0.  The sign
    q_0 is folded into p and the weights once, so the recurrence runs on
    ints and builds one Fraction per coefficient, without a gcd.
    """
    lead = q[0]
    tail = [(i, lead * c) for i, c in _terms(q[: order + 1])[1:]]
    out = [lead * c for c in p[: order + 1]]
    out += [0] * (order + 1 - len(out))
    for n in range(1, order + 1):
        acc = out[n]
        for i, w in tail:
            if i > n:
                break
            acc -= w * out[n - i]
        out[n] = acc
    return TruncatedSeries(tuple(map(Fraction, out)))


#: A bivariate series in x and t as rows: entry n is the coefficient of x^n.
Rows = tuple[TruncatedSeries, ...]


def from_coeffs(values: Sequence, order: int | None = None) -> TruncatedSeries:
    """Univariate rational series from leading coefficients, zero padded.

    >>> from_coeffs([1, 2]).coeffs
    (Fraction(1, 1), Fraction(2, 1))
    """
    coeffs = list(values)
    if order is None:
        order = max(len(coeffs) - 1, 0)
    if order < 0:
        raise InvalidInputError(f"order must be >= 0, got {order}")
    if len(coeffs) < order + 1:
        coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
    return TruncatedSeries(tuple(coeffs[: order + 1]))


def evaluate_polynomial(coefficients: Sequence, point: TruncatedSeries) -> TruncatedSeries:
    """Horner evaluation of an exact polynomial at a series."""
    result = from_coeffs([], point.order)
    for c in reversed(tuple(coefficients)):
        result = result * point + c
    return result


def format_series(s: TruncatedSeries, var: str = "t") -> str:
    """Render as "c0 + c1*t + c2*t^2 + ..." with rationals as p/q.

    >>> format_series(from_coeffs([0, Fraction(1, 4), Fraction(1, 8)]))
    '0 + 1/4*t + 1/8*t^2'
    """
    parts = []
    for i, c in enumerate(s.coeffs):
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(f"{c}*{var}")
        else:
            parts.append(f"{c}*{var}^{i}")
    return " + ".join(parts)


def rational_series(
    numerator: Sequence[int], denominator: Sequence[int], order: int
) -> TruncatedSeries:
    """Expand numerator/denominator to the given order.  Both are lists of
    int coefficients, of any length; the denominator's constant term must be
    1 or -1, which every closed form here has.

    >>> [int(c) for c in rational_series([1], [1, -1, -1], 9).coeffs]
    [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    """
    if order < 0:
        raise InvalidInputError(f"order must be >= 0, got {order}")
    for c in itertools.chain(numerator, denominator):
        if not isinstance(c, int):
            raise InvalidInputError(
                f"rational_series coefficients are ints, got {type(c).__name__}"
            )
    if not denominator or denominator[0] not in (1, -1):
        got = denominator[0] if denominator else "an empty denominator"
        raise SingularSeriesError(
            f"rational_series needs a denominator with constant term 1 or -1, got {got}"
        )
    return _divide(numerator, denominator, order)


# ---------------------------------------------------------------------------
# The substitution t <-> 4t/(1+t)^2 and the closed-form generating functions


def t_substitution(order: int) -> TruncatedSeries:
    """The series 4t/(1+t)^2."""
    return rational_series([0, 4], [1, 2, 1], order)


def t_substitution_inverse(order: int) -> TruncatedSeries:
    """The series v with 4v/(1+v)^2 = t, i.e. 2(1 - sqrt(1-t))/t - 1.

    The division by t is a coefficient shift: 1 - sqrt(1-t) has no constant
    term, so v_n = -2 root_(n+1) for the root of 1 - t, less 1 at n = 0.

    >>> t_substitution_inverse(3).coeffs
    (Fraction(0, 1), Fraction(1, 4), Fraction(1, 8), Fraction(5, 64))
    """
    if order < 1:
        raise InvalidInputError("order must be >= 1")
    _check_order_cap(order)
    root = from_coeffs([1, -1], order + 1).sqrt().coeffs
    shifted = [-2 * c for c in root[1:]]
    shifted[0] -= 1
    return TruncatedSeries(tuple(shifted))


def fibonacci_ogf(m: int, order: int) -> TruncatedSeries:
    """Expansion of (1-x)/(1-2x+x^m): counts order-(m-1) Fibonacci numbers."""
    if m < 2:
        raise InvalidInputError(f"m must be >= 2, got {m}")
    _check_order_cap(order)
    denominator = _truncated_terms(((0, 1), (1, -2), (m, 1)), order)
    return rational_series([1, -1], denominator, order)


def ilpk_one_ogf(m: int, order: int) -> TruncatedSeries:
    """Expansion of x^2 (x^(m-2) - 1) / ((1-x)^2 (x^(m+1) - 3x^m + 3x - 1)).

    The coefficient of x^n counts the descending-m-run avoiders whose inverse
    has exactly one left peak, and equally the avoiding block words of
    length n.
    """
    if m < 3:
        raise InvalidInputError(f"m must be >= 3, got {m}")
    _check_order_cap(order)
    numerator = _truncated_terms(((2, -1), (m, 1)), order)
    factor = ((0, -1), (1, 3), (m, -3), (m + 1, 1))
    denominator = _truncated_terms(
        ((i + e, x * c) for i, x in enumerate((1, -2, 1)) for e, c in factor), order
    )
    return rational_series(numerator, denominator, order)


def _check_order_cap(order: int) -> None:
    if order > MAX_SERIES_ORDER:
        raise ResourceLimitError(f"series order {order} exceeds the cap {MAX_SERIES_ORDER}")


def _truncated_terms(terms: Iterable[tuple[int, int]], order: int) -> list[int]:
    """Coefficient list of the sum of c*x^e over the (e, c) terms with e <= order.

    Terms above x^order cannot reach an expansion truncated there, so the
    list is no longer than the largest exponent kept, whatever m is.
    """
    kept = [(exponent, c) for exponent, c in terms if exponent <= order]
    out = [0] * (1 + max((exponent for exponent, _ in kept), default=-1))
    for exponent, c in kept:
        out[exponent] += c
    return out


# ---------------------------------------------------------------------------
# Bracket coefficients for the two master identities


def _validate_mjk(m: int, j: int, k: int) -> None:
    if m < 2 or j < 1 or k < 1:
        raise InvalidInputError(f"need m >= 2, j >= 1, k >= 1, got ({m}, {j}, {k})")


def _bracket_sum(scale: int, top: int, bottom: int, k: int) -> int:
    """scale * sum over 1 <= l <= k of C(l+top, l-1) C(bottom, k-l); 0 at k = 0."""
    return scale * sum(
        math.comb(l + top, l - 1) * math.comb(bottom, k - l) for l in range(1, k + 1)
    )


def ipk_gf_coeff(m: int, j: int, k: int) -> int:
    """2 * sum_l C(l+jm-1, l-1) C(jm-1, k-l)."""
    _validate_mjk(m, j, k)
    return _bracket_sum(2, j * m - 1, j * m - 1, k)


def ipk_gf_coeff_prime(m: int, j: int, k: int) -> int:
    """2 * sum_l C(l+jm, l-1) C(jm, k-l)."""
    _validate_mjk(m, j, k)
    return _bracket_sum(2, j * m, j * m, k)


def ilpk_gf_coeff(m: int, j: int, k: int) -> int:
    """4 * sum_l C(l+jm-1, l-1) C(jm-2, k-l)."""
    _validate_mjk(m, j, k)
    return _bracket_sum(4, j * m - 1, j * m - 2, k)


def ilpk_gf_coeff_prime(m: int, j: int, k: int) -> int:
    """4 * sum_l C(l+jm, l-1) C(jm-1, k-l)."""
    _validate_mjk(m, j, k)
    return _bracket_sum(4, j * m, j * m - 1, k)


# ---------------------------------------------------------------------------
# Statistic polynomials, read from the S_n sweep


def ipk_polynomial(m: int, n: int) -> tuple[int, ...]:
    """Coefficients of sum over ascending-m-run avoiders of t^(ipk+1); 1 at n=0."""
    return _polynomial(m, n, lambda swept: swept.ipk_counts(m), shift=1)


def ilpk_polynomial(m: int, n: int) -> tuple[int, ...]:
    """Coefficients of sum over descending-m-run avoiders of t^(ilpk); 1 at n=0."""
    return _polynomial(m, n, lambda swept: swept.ilpk_counts(m), shift=0)


def _polynomial(
    m: int, n: int, tally: Callable[[oracle.Sweep], dict[int, int]], shift: int
) -> tuple[int, ...]:
    """Coefficients of t^(statistic + shift) over the permutations tallied;
    n is bounded only by the cap of :func:`oracle.sweep`."""
    if m < 2:
        raise InvalidInputError(f"m must be >= 2, got {m}")
    if n < 0:
        raise InvalidInputError("n must be nonnegative")
    if n == 0:
        return (1,)
    counts = [0] * (n + 2)
    for power, count in tally(oracle.sweep(n)).items():
        counts[power + shift] += count
    return _trim(counts)


def _trim(counts: list[int]) -> tuple[int, ...]:
    last = max((i for i, c in enumerate(counts) if c), default=0)
    return tuple(counts[: last + 1])


# ---------------------------------------------------------------------------
# The two identity checks


def _check_orders(m: int, x_order: int, t_order: int) -> None:
    if m < 2:
        raise InvalidInputError(f"m must be >= 2, got {m}")
    if not 1 <= t_order <= x_order:
        raise InvalidInputError("need 1 <= t_order <= x_order")
    # The left side reads S_n for every n up to x_order; the largest is swept
    # first, so an x_order past the cap is refused before any series work.
    oracle.sweep(x_order)


def ipk_gf_sides(m: int, x_order: int, t_order: int) -> tuple[Rows, Rows]:
    """Both sides of the ipk master identity as rows by power of x.

    Left side: 1/(1-t) at x^0 plus, for n >= 1, half of
    ((1+t)/(1-t))^(n+1) times the ipk polynomial evaluated at 4t/(1+t)^2.
    Right side: 1 plus, for each k >= 1, t^k times the inverse of
    1 - 2kx + sum_j (c_(m,j,k) x^(jm) - c'_(m,j,k) x^(jm+1)).
    """
    return _gf_sides(
        m, x_order, t_order, polynomial=ipk_polynomial, lead=(1, 1), scale=Fraction(1, 2),
        slope=0, coeff=ipk_gf_coeff, coeff_prime=ipk_gf_coeff_prime,
    )


def ilpk_gf_sides(m: int, x_order: int, t_order: int) -> tuple[Rows, Rows]:
    """Both sides of the ilpk master identity as rows by power of x.

    Left side, for n >= 0: (1+t)^n / (1-t)^(n+1) times the ilpk polynomial
    at 4t/(1+t)^2.  Right side: 1/(1-x) plus, for each k >= 1, t^k times the
    inverse of 1 - (2k+1)x + sum_j (e_(m,j,k) x^(jm) - e'_(m,j,k) x^(jm+1)).
    """
    return _gf_sides(
        m, x_order, t_order, polynomial=ilpk_polynomial, lead=(1,), scale=1,
        slope=1, coeff=ilpk_gf_coeff, coeff_prime=ilpk_gf_coeff_prime,
    )


def _gf_sides(
    m: int, x_order: int, t_order: int, *, polynomial: Callable[[int, int], tuple[int, ...]],
    lead: Sequence[int], scale: Fraction | int, slope: int, coeff: Callable[[int, int, int], int],
    coeff_prime: Callable[[int, int, int], int],
) -> tuple[Rows, Rows]:
    """Both sides of a master identity.

    Left side: 1/(1-t) at x^0, and at x^n for n >= 1 the polynomial at
    4t/(1+t)^2 times scale lead(t) (1+t)^n / (1-t)^(n+1), for an integer
    polynomial lead(t): ipk's (1+t)/2 is scale 1/2 times lead 1 + t.  Right
    side: at t^k, the inverse of the k-th bracket 1 - (2k+slope)x + sum_j
    (coeff x^(jm) - coeff_prime x^(jm+1)), whose sum is empty at k = 0.
    """
    _check_orders(m, x_order, t_order)
    ratio = rational_series([1, 1], [1, -1], t_order)
    u = t_substitution(t_order)

    lhs = [rational_series([1], [1, -1], t_order)]
    factor = rational_series(lead, [1, -1], t_order) * scale
    for n in range(1, x_order + 1):
        factor = factor * ratio
        lhs.append(evaluate_polynomial(polynomial(m, n), u) * factor)

    columns = []
    for k in range(t_order + 1):
        terms = [(0, 1), (1, -(2 * k + slope))]
        for j in range(1, x_order // m + 1) if k else ():
            terms += [(j * m, coeff(m, j, k)), (j * m + 1, -coeff_prime(m, j, k))]
        columns.append(rational_series([1], _truncated_terms(terms, x_order), x_order).coeffs)
    return tuple(lhs), tuple(TruncatedSeries(row) for row in zip(*columns))


def first_mismatch(lhs: Rows, rhs: Rows) -> tuple[int, int, Fraction | None, Fraction | None] | None:
    """Lowest (x power, t power) where two bivariate series differ.  A
    coefficient past one side's order reads as None there, so series of
    different orders never agree."""
    for n, rows in enumerate(itertools.zip_longest(lhs, rhs)):
        left_row, right_row = (() if row is None else row.coeffs for row in rows)
        for i, (left, right) in enumerate(itertools.zip_longest(left_row, right_row)):
            if left != right:
                return n, i, left, right
    return None


def verify_ipk_gf(m: int, x_order: int, t_order: int) -> bool:
    """True when both sides of the ipk identity agree to the given orders."""
    return first_mismatch(*ipk_gf_sides(m, x_order, t_order)) is None


def verify_ilpk_gf(m: int, x_order: int, t_order: int) -> bool:
    """True when both sides of the ilpk identity agree to the given orders."""
    return first_mismatch(*ilpk_gf_sides(m, x_order, t_order)) is None
