"""The value types: field binding, equality, hashing, repr and immutability
from their fields."""

from fractions import Fraction

import pytest

from permfib import regex
from permfib.bijections import CanonicalDecomposition, TilingTriple
from permfib.compositions import Composition
from permfib.oracle import Sweep, VerificationReport
from permfib.permutations import Permutation, StatReport, statistics
from permfib.regex import Concat, Dfa, Lit, Plus, Repeat, Star, Union
from permfib.series import TruncatedSeries
from permfib.tilings import Tiling

A, B = Lit("a"), Lit("b")

STATS = dict(
    des=1, pk=0, lpk=1, rpk=1, valleys=1, right_valleys=1, ipk=0, ilpk=1,
    descent_positions=(1,), peak_positions=(), left_peak_positions=(1,),
    valley_positions=(2,), right_valley_positions=(2,),
)

#: One instance of each frozen value type, built from keywords where the
#: type has more than one field, beside its repr.
FROZEN = [
    (lambda: Lit(symbol="a"), "Lit(symbol='a')"),
    (lambda: Concat(parts=(A, B)), "Concat(parts=(Lit(symbol='a'), Lit(symbol='b')))"),
    (lambda: Union(options=(A, B)), "Union(options=(Lit(symbol='a'), Lit(symbol='b')))"),
    (lambda: Star(inner=Lit("c")), "Star(inner=Lit(symbol='c'))"),
    (lambda: Plus(inner=Lit("c")), "Plus(inner=Lit(symbol='c'))"),
    (lambda: Repeat(inner=A, most=2), "Repeat(inner=Lit(symbol='a'), most=2)"),
    (
        lambda: Dfa(table=((1, 1, 1), (1, 1, 1)), start=0, accepting=frozenset({0})),
        "Dfa(table=((1, 1, 1), (1, 1, 1)), start=0, accepting=frozenset({0}))",
    ),
    (lambda: Permutation(letters=(2, 1, 3)), "Permutation(letters=(2, 1, 3))"),
    (
        lambda: StatReport(**STATS),
        "StatReport(des=1, pk=0, lpk=1, rpk=1, valleys=1, right_valleys=1, ipk=0, "
        "ilpk=1, descent_positions=(1,), peak_positions=(), left_peak_positions=(1,), "
        "valley_positions=(2,), right_valley_positions=(2,))",
    ),
    (lambda: Composition(parts=(1, 2)), "Composition(parts=(1, 2))"),
    (
        lambda: CanonicalDecomposition(alpha=(1,), beta=(3, 2), gamma=(4,)),
        "CanonicalDecomposition(alpha=(1,), beta=(3, 2), gamma=(4,))",
    ),
    (
        lambda: TilingTriple(j=0, k=1, tiling=Tiling((1,), (1,))),
        "TilingTriple(j=0, k=1, tiling=Tiling(top=(1,), bottom=(1,)))",
    ),
    (lambda: Sweep(n=2, histogram={(1, 1, 0, 0): 2}), "Sweep(n=2, histogram={(1, 1, 0, 0): 2})"),
    (
        lambda: TruncatedSeries(coeffs=(1, Fraction(1, 2))),
        "TruncatedSeries(coeffs=(Fraction(1, 1), Fraction(1, 2)))",
    ),
    (lambda: Tiling(top=(1, 2), bottom=(2, 1)), "Tiling(top=(1, 2), bottom=(2, 1))"),
    (
        lambda: VerificationReport(claim="x", params={"n": 3}),
        "VerificationReport(claim='x', params={'n': 3}, passed=False, "
        "counterexample=None, millis=0)",
    ),
]


@pytest.mark.parametrize("make, text", FROZEN)
def test_frozen_values(make, text):
    value, same = make(), make()
    assert value is not same
    assert value == same and not value != same
    assert repr(value) == text
    if isinstance(value, (Sweep, VerificationReport)):
        # a dict field has no hash
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(same) == hash(tuple(vars(same).values()))
    assert value != object() and value != text
    name = next(iter(vars(value)))
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
        setattr(value, name, None)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
        delattr(value, name)
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        value.extra = 1
    assert value == same


@pytest.mark.parametrize("make, text", FROZEN)
def test_positional_and_keyword_construction_agree(make, text):
    value = make()
    cls, fields = type(value), vars(value)
    names, values = list(fields), list(fields.values())
    for k in range(len(values) + 1):
        # the first k fields by position, the rest by keyword
        built = cls(*values[:k], **dict(zip(names[k:], values[k:])))
        assert built == value and repr(built) == text


def test_binding_errors_name_the_class_and_the_field():
    table, none = ((0, 0, 0),), frozenset()
    with pytest.raises(
        TypeError,
        match=r"^Dfa\(\) takes 3 fields \('table', 'start', 'accepting'\), got 4 values$",
    ):
        Dfa(table, 0, none, 1)
    with pytest.raises(TypeError, match=r"^Dfa\(\) has no field 'stop'$"):
        Dfa(table, 0, accepting=none, stop=1)
    with pytest.raises(TypeError, match=r"^Dfa\(\) got field 'start' by position and by keyword$"):
        Dfa(table, 0, none, start=0)
    with pytest.raises(TypeError, match=r"^Dfa\(\) missing field 'accepting'$"):
        Dfa(table, start=0)
    with pytest.raises(TypeError, match=r"^TilingTriple\(\) missing field 'j'$"):
        TilingTriple()
    with pytest.raises(TypeError, match=r"^VerificationReport\(\) missing field 'params'$"):
        VerificationReport("x", passed=True)


def test_defaults_are_bound_on_the_instance():
    assert vars(VerificationReport("x", {})) == {
        "claim": "x", "params": {}, "passed": False, "counterexample": None, "millis": 0
    }
    report = VerificationReport("x", {}, millis=5)
    assert (report.passed, report.counterexample, report.millis) == (False, None, 5)


def test_hash_is_the_hash_of_the_field_values():
    assert hash(Permutation((2, 1, 3))) == hash(((2, 1, 3),))
    assert hash(Repeat(A, 2)) == hash((A, 2))
    assert hash(Tiling((1, 2), (2, 1))) == hash(((1, 2), (2, 1)))


def test_different_fields_or_classes_are_unequal():
    assert Permutation((2, 1, 3)) != Permutation((1, 2, 3))
    assert Repeat(A, 2) != Repeat(A, 3)
    # equal field values in two classes: still unequal
    assert Star(A) != Plus(A)
    assert Concat((A, B)) != Union((A, B))
    assert Composition((1, 2)) != Permutation((1, 2))
    assert len({Star(A), Plus(A), Star(Lit("a"))}) == 2


def test_statistics_report_equals_one_built_from_keywords():
    assert statistics(Permutation((2, 1, 3))) == StatReport(**STATS)


def test_cached_properties_are_kept_outside_the_fields():
    node = Star(A)
    assert regex.ast_matches(node, "aaa") and "_kernel" in vars(node)
    dfa = Dfa(table=((0, 0, 0),), start=0, accepting=frozenset({0}))
    assert dfa.accepts("abc") and "_rows" in vars(dfa)
    assert node == Star(A) and hash(node) == hash(Star(A))
    assert dfa == Dfa(table=((0, 0, 0),), start=0, accepting=frozenset({0}))
    assert repr(node) == "Star(inner=Lit(symbol='a'))"
