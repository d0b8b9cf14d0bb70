"""Exact truncated power series and the generating-function identity checks.

Coefficients are rationals (stdlib :class:`~fractions.Fraction`).  All
arithmetic is exact; floating point is deliberately absent from this module.
The two quadratic kernels, the product and the quotient, run on ints: each
operand is read once as integer numerators over one common denominator, and
one Fraction is built per output coefficient.  The quotient kernel
:func:`_divide` serves ``/``, ``invert`` and :func:`rational_series` alike.
Every denominator polynomial of the closed forms has integer coefficients
and constant term 1 or -1, so their expansions are integer recurrences
(Knuth, TAOCP Vol. 2, §4.7) whose coefficients need no reduction.  The
square root stays on Fractions.
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
    coefficient products, ``a / b`` at most N * nnz(b) beyond reading a, and
    ``invert`` and ``sqrt`` at most N * nnz(self).  The rational generating
    functions have at most seven nonzero terms in any operand, so their
    expansions are linear in N.

    ``a * b``, ``a / b`` and ``invert`` multiply and add integer numerators
    and reduce once per output coefficient: ``a * b`` scales each operand to
    the lcm of its denominators, and :func:`_divide` scales the dividend the
    same way and each term b_i / b_0 of the divisor by δ^i for one scale δ;
    for integral operands every scale is 1.  ``sqrt``, ``+``, ``-`` and scalar
    products stay on Fractions: the 1/(2n) factor of each root coefficient
    would make unreduced denominators grow factorially.
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

    def coefficient(self, index: int) -> Fraction:
        """The coefficient of the index-th power; errors beyond the order."""
        if not 0 <= index <= self.order:
            raise InvalidInputError(f"coefficient {index} beyond order {self.order}")
        return self.coeffs[index]

    def zero_like(self) -> "TruncatedSeries":
        return from_coeffs([], self.order)

    def one_like(self) -> "TruncatedSeries":
        return one_series(self.order)

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise InvalidInputError(f"cannot extend order {self.order} to {order}")
        return TruncatedSeries(self.coeffs[: order + 1])

    # -- ring operations ----------------------------------------------------

    def _paired(self, other: "TruncatedSeries") -> tuple[tuple, tuple]:
        order = min(self.order, other.order)
        return self.coeffs[: order + 1], other.coeffs[: order + 1]

    def __add__(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            a, b = self._paired(other)
            return TruncatedSeries(tuple(x + y for x, y in zip(a, b)))
        if isinstance(other, (int, Fraction)):
            return self.add_constant(Fraction(other))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            a, b = self._paired(other)
            return TruncatedSeries(tuple(x - y for x, y in zip(a, b)))
        if isinstance(other, (int, Fraction)):
            return self.add_constant(Fraction(-other))
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

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

    def __truediv__(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            return _divide(self.coeffs, other.coeffs, min(self.order, other.order))
        if isinstance(other, (int, Fraction)):
            if not other:
                raise SingularSeriesError("cannot divide a series by zero")
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if exponent < 0:
            raise InvalidInputError("negative powers go through invert()")
        result = self.one_like()
        for _ in range(exponent):
            result = result * self
        return result

    def add_constant(self, value: Fraction) -> "TruncatedSeries":
        """Add a rational constant onto the constant term."""
        coeffs = list(self.coeffs)
        coeffs[0] = coeffs[0] + value
        return TruncatedSeries(tuple(coeffs))

    # -- the interesting operations ------------------------------------------

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be nonzero.

        >>> geometric = from_coeffs([1, -1], order=4).invert()
        >>> geometric == from_coeffs([1, 1, 1, 1, 1])
        True
        """
        return _divide((1,), self.coeffs, self.order)

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

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """Substitute ``inner`` (zero constant term) into this series."""
        if inner.coeffs[0]:
            raise SingularSeriesError("composition requires inner constant term 0")
        order = min(self.order, inner.order)
        inner_t = inner.truncate(order)
        result = inner_t.zero_like().add_constant(self.coeffs[order])
        for k in range(order - 1, -1, -1):
            result = (result * inner_t).add_constant(self.coeffs[k])
        return result


def _divide(p: Sequence, q: Sequence, order: int) -> TruncatedSeries:
    """P/Q to the given order, for coefficient sequences p and q of ints or
    Fractions of any length; q_0 must be nonzero.

    Coefficient n of the quotient solves q_0 out_n = p_n - sum over i >= 1
    of q_i out_(n-i) (Knuth, TAOCP Vol. 2, §4.7), and the recurrence runs on
    ints.  With S the lcm of P's denominators, r_i = q_i / q_0 and a scale δ
    such that every denominator of r_i divides δ^i, y_n = S q_0 δ^n out_n is
    an integer: y_n = S p_n δ^n - sum over i >= 1 of r_i δ^i y_(n-i).  δ
    grows only by the factors some r_i needs, so for an integral P over an
    integral Q with constant term 1 or -1, as every closed form here, S = 1,
    δ = 1 and y_n is the coefficient itself up to sign, which Fraction's int
    constructor takes without a gcd; for 1/sqrt(1 - t), δ = 4 and y_n =
    binomial(2n, n).
    """
    divisor = _terms(q[: order + 1])
    if not divisor or divisor[0][0]:
        raise SingularSeriesError("cannot divide by a series with zero constant term")
    lead = Fraction(divisor[0][1])
    ratios = [(i, c / lead) for i, c in divisor[1:]]
    delta = 1
    for i, r in ratios:
        d = r.denominator
        # afterwards d divides delta^i, and each earlier d_j still divides delta^j
        delta *= d // math.gcd(d, pow(delta, i, d))
    tail = [(i, r.numerator * (delta**i // r.denominator)) for i, r in ratios]
    dividend, scale = _numerators(p[: order + 1])
    out = [0] * (order + 1)
    for n, a in dividend:
        out[n] = a * delta**n
    for n in range(1, order + 1):
        acc = out[n]
        for i, w in tail:
            if i > n:
                break
            acc -= w * out[n - i]
        out[n] = acc
    unit = scale * lead.numerator
    if delta == 1 and unit in (1, -1):
        factor = unit * lead.denominator
        return TruncatedSeries(tuple(Fraction(y * factor) for y in out))
    power = 1
    for n, y in enumerate(out):
        out[n] = Fraction(y * lead.denominator, unit * power)
        power *= delta
    return TruncatedSeries(tuple(out))


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


def variable(order: int) -> TruncatedSeries:
    """The series t, truncated at the given order >= 1."""
    if order < 1:
        raise InvalidInputError("the variable needs order >= 1")
    return from_coeffs([0, 1], order)


def one_series(order: int) -> TruncatedSeries:
    return from_coeffs([1], order)


def evaluate_polynomial(coefficients: Sequence, point: TruncatedSeries) -> TruncatedSeries:
    """Horner evaluation of an exact polynomial at a series."""
    result = point.zero_like()
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


def rational_series(numerator: Sequence, denominator: Sequence, order: int) -> TruncatedSeries:
    """Expand numerator/denominator to the given order.  Both are coefficient
    lists of ints or Fractions, of any length; the denominator's constant
    term must be nonzero.

    >>> [int(c) for c in rational_series([1], [1, -1, -1], 9).coeffs]
    [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    """
    if order < 0:
        raise InvalidInputError(f"order must be >= 0, got {order}")
    for c in itertools.chain(numerator, denominator):
        if not isinstance(c, Fraction):
            _rational(c)  # refuses what TruncatedSeries refuses
    return _divide(numerator, denominator, order)


# ---------------------------------------------------------------------------
# The substitution t <-> 4t/(1+t)^2 and the closed-form generating functions


def t_substitution(order: int) -> TruncatedSeries:
    """The series 4t/(1+t)^2."""
    t = variable(order)
    return (t * 4) * ((t + 1) ** 2).invert()


def t_substitution_inverse(order: int) -> TruncatedSeries:
    """The series v with 4v/(1+v)^2 = t, i.e. 2(1 - sqrt(1-t))/t - 1.

    The division by t is a coefficient shift: 1 - sqrt(1-t) has no constant
    term, so no Laurent machinery is needed.

    >>> t_substitution_inverse(3).coeffs
    (Fraction(0, 1), Fraction(1, 4), Fraction(1, 8), Fraction(5, 64))
    """
    if order < 1:
        raise InvalidInputError("order must be >= 1")
    _check_order_cap(order)
    root = (one_series(order + 1) - variable(order + 1)).sqrt()
    numerator = one_series(order + 1) - root
    assert numerator.coeffs[0] == 0
    shifted = [2 * numerator.coeffs[i + 1] for i in range(order + 1)]
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
        m, x_order, t_order, polynomial=ipk_polynomial, lead=(Fraction(1, 2), Fraction(1, 2)),
        slope=0, coeff=ipk_gf_coeff, coeff_prime=ipk_gf_coeff_prime,
    )


def ilpk_gf_sides(m: int, x_order: int, t_order: int) -> tuple[Rows, Rows]:
    """Both sides of the ilpk master identity as rows by power of x.

    Left side, for n >= 0: (1+t)^n / (1-t)^(n+1) times the ilpk polynomial
    at 4t/(1+t)^2.  Right side: 1/(1-x) plus, for each k >= 1, t^k times the
    inverse of 1 - (2k+1)x + sum_j (e_(m,j,k) x^(jm) - e'_(m,j,k) x^(jm+1)).
    """
    return _gf_sides(
        m, x_order, t_order, polynomial=ilpk_polynomial, lead=(1,),
        slope=1, coeff=ilpk_gf_coeff, coeff_prime=ilpk_gf_coeff_prime,
    )


def _gf_sides(
    m: int, x_order: int, t_order: int, *, polynomial: Callable[[int, int], tuple[int, ...]],
    lead: Sequence, slope: int, coeff: Callable[[int, int, int], int],
    coeff_prime: Callable[[int, int, int], int],
) -> tuple[Rows, Rows]:
    """Both sides of a master identity.

    Left side: 1/(1-t) at x^0, and at x^n for n >= 1 the polynomial at
    4t/(1+t)^2 times lead(t) (1+t)^n / (1-t)^(n+1).  Right side: at t^k,
    the inverse of the k-th bracket 1 - (2k+slope)x + sum_j (coeff x^(jm) -
    coeff_prime x^(jm+1)), whose sum is empty at k = 0.
    """
    _check_orders(m, x_order, t_order)
    t = variable(t_order)
    inv_one_minus_t = (one_series(t_order) - t).invert()
    ratio = (one_series(t_order) + t) * inv_one_minus_t
    u = t_substitution(t_order)

    lhs = [inv_one_minus_t]
    factor = from_coeffs(lead, t_order) * inv_one_minus_t
    for n in range(1, x_order + 1):
        factor = factor * ratio
        lhs.append(evaluate_polynomial(polynomial(m, n), u) * factor)

    columns = []
    for k in range(t_order + 1):
        terms = [(0, 1), (1, -(2 * k + slope))]
        for j in range(1, x_order // m + 1) if k else ():
            terms += [(j * m, coeff(m, j, k)), (j * m + 1, -coeff_prime(m, j, k))]
        bracket = from_coeffs(_truncated_terms(terms, x_order), x_order)
        columns.append(bracket.invert().coeffs)
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
