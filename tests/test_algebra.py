"""Scalar arithmetic and formal-sum normalization."""

import json
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umpair.algebra import (FormalSum, I, Scalar, UniverseMismatchError,
                            ZERO, canonical_key, descriptor_to_json, sum_combine)

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=24)
scalars = st.builds(Scalar, fractions, fractions)


def test_conj_examples():
    assert Scalar(2, 3).conj() == Scalar(2, -3)
    assert ZERO.conj() == ZERO
    assert Scalar(Fraction(1, 2), Fraction(-1, 3)).conj() == \
        Scalar(Fraction(1, 2), Fraction(1, 3))


@given(scalars)
def test_conj_involutive(s):
    assert s.conj().conj() == s


@given(scalars, scalars)
def test_conj_is_ring_homomorphism(a, b):
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()


@given(scalars)
def test_norm_is_real_nonneg_and_definite(s):
    product = s * s.conj()
    assert product.im == 0
    assert product.re >= 0
    assert (product.re == 0) == s.is_zero()
    assert product.re == s.norm2()


@given(scalars, scalars, scalars)
def test_scalar_ring_laws(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


class Half(Fraction):
    """A Fraction subclass: Scalar must still convert it to a plain Fraction."""


def test_scalar_normalizes_fractions():
    s = Scalar(Fraction(2, 4), Fraction(3, -9))
    assert s.re == Fraction(1, 2) and s.im == Fraction(-1, 3)
    assert s.to_json() == {"re": "1/2", "im": "-1/3"}
    for re, im in ((3, -4), (Decimal("0.25"), Decimal(-2)), (Half(2, 4), Half(-6, 3)),
                   (Fraction(1, 4), 7), (-2, Fraction(-3, 9))):
        s = Scalar(re, im)
        assert type(s.re) is Fraction and type(s.im) is Fraction
        assert (s.re, s.im) == (Fraction(re), Fraction(im))
        assert s.to_json() == {"re": str(Fraction(re)), "im": str(Fraction(im))}
    kept = Fraction(-5, 3)
    assert Scalar(kept, kept).re is kept


def test_scalar_rejects_floats():
    for re, im in ((0.1, 0), (0, 1.5), (0.5, Fraction(1)), (Fraction(1), -0.0),
                   (Half(1), 2.0)):
        with pytest.raises(TypeError):
            Scalar(re, im)


@given(scalars)
def test_scalar_json_round_trip(s):
    assert Scalar.from_json(s.to_json()) == s


def test_scalar_json_rejects_garbage():
    with pytest.raises(ValueError):
        Scalar.from_json({"re": "1"})
    with pytest.raises(ValueError):
        Scalar.from_json("1+2i")


def test_scalar_json_rejects_zero_denominators():
    for data in ({"re": "1/0", "im": "0"}, {"re": "0", "im": "-0/0"}):
        with pytest.raises(ValueError, match="zero denominator"):
            Scalar.from_json(data)


@pytest.mark.parametrize("data,message", [
    ({"re": "1/0", "im": "x"}, "scalar part 'x' must be a 'p' or 'p/q' string or an integer"),
    ({"re": "x", "im": "1/0"}, "scalar part 'x' must be a 'p' or 'p/q' string or an integer"),
    ({"re": "1/0", "im": "1"}, "scalar {'re': '1/0', 'im': '1'} has a zero denominator"),
])
def test_scalar_json_reports_a_bad_part_before_a_zero_denominator(data, message):
    with pytest.raises(ValueError) as error:
        Scalar.from_json(data)
    assert str(error.value) == message


@pytest.mark.parametrize("data", [
    {"re": 0.1, "im": "0"}, {"re": "1", "im": 1.0}, {"re": True, "im": "0"},
    {"re": "0", "im": False}, {"re": None, "im": "0"}, {"re": ["1"], "im": "0"},
])
def test_scalar_json_accepts_only_strings_and_ints(data):
    with pytest.raises(ValueError):
        Scalar.from_json(data)
    assert Scalar.from_json({"re": "-3/6", "im": 2}) == Scalar(Fraction(-1, 2), 2)


@pytest.mark.parametrize("text", [
    "1e400000", "1.5", " 5 ", "1_000", "\u0663", "0x10", "inf", "nan", "1/2/3",
    "", "+", "3/-4", "-/2", "1 /2",
])
def test_scalar_json_accepts_only_integer_and_fraction_strings(text):
    with pytest.raises(ValueError, match="scalar part"):
        Scalar.from_json({"re": text, "im": "0"})
    for good, value in (("+2", 2), ("-7", -7), ("0042", 42), ("-3/4", Fraction(-3, 4)),
                        ("10/5", 2)):
        assert Scalar.from_json({"re": "0", "im": good}) == Scalar(0, value)


@given(st.integers(min_value=-10**30, max_value=10**30),
       st.integers(min_value=0, max_value=10**30), st.booleans())
def test_scalar_json_parts_equal_fraction_of_the_string(num, den, plus):
    text = f"+{num}" if plus and num >= 0 else str(num)
    for part in (text, f"{text}/{den}"):
        data = {"re": part, "im": str(den)}
        if part.endswith("/0"):
            with pytest.raises(ValueError, match="zero denominator"):
                Scalar.from_json(data)
        else:
            assert Scalar.from_json(data) == Scalar(Fraction(part), Fraction(den))


def _descriptors():
    """Basis and closed descriptors of every theory, fourdim included."""
    from umpair.dim1 import Dim1Theory, enumerate1, standard_boundary
    from umpair.dim2 import Dim2Theory, enumerate2
    from umpair.fourdim import build_mazur_table
    from umpair.monomial import Involution, MonomialTheory, enumerate_monomials

    sigma = Involution(("p1", "p2", "p3"), swaps=(("p1", "p2"),))
    boundary = standard_boundary(3)
    mazur = build_mazur_table()
    for theory, basis in ((Dim1Theory(boundary), enumerate1(boundary, 1)),
                          (Dim2Theory(2), enumerate2(2, 1, 1)),
                          (MonomialTheory(sigma), enumerate_monomials(sigma.alphabet, 3)),
                          (mazur, list(mazur.labels))):
        yield from basis
        yield from theory.glue_table(tuple(basis))[0]


def test_canonical_key_is_the_sorted_compact_json_dump():
    seen = 0
    for d in _descriptors():
        assert canonical_key(d) == json.dumps(descriptor_to_json(d), sort_keys=True,
                                              separators=(",", ":"))
        seen += 1
    assert seen > 100
    for text in ("M'", "S\u00b2\u00d7S\u00b2", 'quote"', "\u2603"):
        assert canonical_key(text) == json.dumps(text)
    # Values a user's to_json may return but package descriptors never do.
    escapes = 'q"b\\c\x00\x1f\n\t\u00e9\u2603\U0001d11e'
    for value in (2**64 + 1, -2**70, 2**64, True, False, None, [], {}, [[]], [{}],
                  {"b": [1, {"d": None, "c": [True, False]}], "a": {}},
                  {"z": 0, "a": [2**80, -1], escapes: escapes}, [escapes, {escapes: []}],
                  escapes, "", 0.5, -0.0):
        assert canonical_key(_Raw(value)) == json.dumps(value, sort_keys=True,
                                                        separators=(",", ":"))


def test_json_keys_equal_the_encoder():
    """Descriptors that write their canonical key themselves (``json_key``)
    write the encoder's bytes, escapes and wide integers included."""
    from umpair.dim2 import ClosedSurface
    from umpair.monomial import Monomial

    names = ("p1", "p2", 'q"b', "back\\slash", "S\u00b2", "\u2603", "\U0001d11e", "\n", "")
    descriptors = [ClosedSurface(()), ClosedSurface((0,)), ClosedSurface((3, 0, 2**70, 1, 1)),
                   Monomial(()), Monomial(tuple((p, 1 + k) for k, p in enumerate(names))),
                   Monomial((("a", 2**64 + 1), ("b", 1)))]
    descriptors += [d for d in _descriptors() if hasattr(d, "json_key")]
    assert len(descriptors) > 50
    for d in descriptors:
        expected = json.dumps(d.to_json(), sort_keys=True, separators=(",", ":"))
        assert d.json_key() == expected == canonical_key(d)


@dataclass(frozen=True)
class _Raw:
    """A descriptor whose JSON form is any given value."""

    value: Any

    def to_json(self) -> Any:
        return self.value


def test_canonical_key_of_a_circular_to_json_raises():
    loop: list = []
    loop.append(loop)
    cycle: dict = {"a": []}
    cycle["a"].append(cycle)
    for value in (loop, cycle):
        with pytest.raises(RecursionError):
            canonical_key(_Raw(value))


def test_sum_combine_examples():
    m = FormalSum.single("M", Scalar(1, 1))
    m2 = FormalSum.single("M", Scalar(1, -1))
    assert sum_combine(m, m2) == FormalSum.single("M", 2)

    x = FormalSum([("M", Scalar(1, 2)), ("N", 3)])
    assert sum_combine(x, x, 1, -1).is_zero()

    combined = sum_combine(FormalSum.single("M"), FormalSum.single("N"),
                           Scalar(2, 0), Scalar(0, 3))
    assert combined.coefficient("M") == Scalar(2, 0)
    assert combined.coefficient("N") == Scalar(0, 3)
    assert len(combined) == 2


def test_construction_merges_and_drops_zeros():
    s = FormalSum([("A", 1), ("A", -1), ("B", I)])
    assert s.support() == ("B",)
    assert s.coefficient("A") == ZERO


def test_iteration_order_is_canonical():
    s = FormalSum([("zeta", 1), ("alpha", 2), ("mid", 3)])
    assert [d for d, _ in s.items()] == sorted(["alpha", "mid", "zeta"],
                                               key=canonical_key)


small_sums = st.dictionaries(st.sampled_from(["A", "B", "C", "D"]), scalars,
                             max_size=4).map(lambda d: FormalSum(d.items()))


@given(small_sums, small_sums, small_sums, scalars, scalars)
@settings(max_examples=60)
def test_combine_is_bilinear_and_commutative(x, y, z, a, b):
    assert sum_combine(x, y) == sum_combine(y, x)
    assert sum_combine(sum_combine(x, y), z) == sum_combine(x, sum_combine(y, z))
    left = sum_combine(x, y, a, b)
    right = sum_combine(x.scaled(a), y.scaled(b))
    assert left == right


@given(small_sums)
def test_normalization_is_idempotent(x):
    assert FormalSum(x.items()) == x


@given(small_sums)
def test_formal_sum_json_round_trip(x):
    assert FormalSum.from_json(x.to_json(), str) == x


def test_formal_sum_json_rejects_malformed_terms():
    with pytest.raises(ValueError):
        FormalSum.from_json({"basis": "M"}, str)
    with pytest.raises(ValueError, match="term #0"):
        FormalSum.from_json([{"basis": "M"}], str)


def test_universe_mismatch_is_rejected():
    from umpair.dim1 import enumerate1, standard_boundary

    a = enumerate1(standard_boundary(1), 0)[0]
    b = enumerate1(standard_boundary(2), 0)[0]
    with pytest.raises(UniverseMismatchError):
        FormalSum([(a, 1), (b, 1)])
    with pytest.raises(UniverseMismatchError):
        sum_combine(FormalSum.single(a), FormalSum.single(b))
