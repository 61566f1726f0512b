"""Monomial rings with involution: conjugation, pairing, complexity order."""

import itertools
import random

import pytest

from umpair import engine
from umpair.algebra import FormalSum, I
from umpair.monomial import (Involution, Monomial, MonomialTheory, UNIT,
                             complexity_mono, enumerate_monomials,
                             manifold3_to_monomial, mono_conj)

from oracles import (MonomialComplexity, as_raw, convolution_oracle,
                     random_poly, raw_terms)

SWAP12 = Involution(("p1", "p2", "p3"), swaps=(("p1", "p2"),))
KNOT = Involution(("T", "T~"), swaps=(("T", "T~"),))


def mono(**exps):
    return Monomial.from_dict(exps)


def test_involution_validation():
    with pytest.raises(ValueError):
        Involution(("a", "b"), swaps=(("a", "a"),))
    with pytest.raises(ValueError):
        Involution(("a", "b", "c"), swaps=(("a", "b"), ("b", "c")))
    with pytest.raises(ValueError):
        Involution(("a",), swaps=(("a", "z"),))
    assert SWAP12.fixed == ("p3",)


def test_involution_fixed_is_kept_out_of_equality_and_json():
    computed = Involution(("p1", "p2", "p3"), swaps=(("p1", "p2"),))
    fresh = Involution(("p1", "p2", "p3"), swaps=(("p2", "p1"),))
    assert computed.fixed is computed.fixed
    assert computed == fresh and hash(computed) == hash(fresh)
    assert repr(computed) == repr(fresh)
    assert computed.to_json() == {"swaps": [["p1", "p2"]], "fixed": ["p3"]}
    assert Involution.from_json(computed.to_json()) == fresh


def test_conj_examples():
    m = mono(p1=2, p2=1, p3=4)
    assert mono_conj(m, SWAP12) == mono(p2=2, p1=1, p3=4)
    assert mono_conj(UNIT, SWAP12) == UNIT
    identity = Involution(("p1", "p2"))
    assert mono_conj(m := mono(p1=3, p2=1), identity) == m


def test_conj_is_involutive_and_multiplicative():
    monos = enumerate_monomials(SWAP12.alphabet, 3)
    for m in monos:
        assert mono_conj(mono_conj(m, SWAP12), SWAP12) == m
    for m1, m2 in itertools.product(monos[:12], monos[:12]):
        assert mono_conj(m1 * m2, SWAP12) == \
            mono_conj(m1, SWAP12) * mono_conj(m2, SWAP12)


def test_conj_rejects_unknown_prime():
    with pytest.raises(ValueError):
        mono_conj(mono(zz=1), SWAP12)
    with pytest.raises(ValueError):
        complexity_mono(mono(zz=1), SWAP12)


def test_pair_poly_examples():
    sigma = Involution(("p1", "p2"), swaps=(("p1", "p2"),))
    x = FormalSum([(mono(p1=1), 1), (mono(p2=1), -1)])
    expanded = engine.pair(x, x, MonomialTheory(sigma))
    assert expanded == FormalSum([(mono(p1=2), -1), (mono(p1=1, p2=1), 2),
                                  (mono(p2=2), -1)])

    unit = FormalSum.single(UNIT)
    assert engine.pair(unit, unit, MonomialTheory(sigma)) == unit

    identity = Involution(("p1",))
    left = FormalSum.single(mono(p1=1), I)
    right = FormalSum.single(mono(p1=1))
    assert engine.pair(left, right, MonomialTheory(identity)) == \
        FormalSum.single(mono(p1=2), I)


def test_pair_poly_conjugates_the_second_slot():
    identity = Involution(("p1",))
    x = FormalSum.single(mono(p1=1))
    y = FormalSum.single(mono(p1=1), I)
    assert engine.pair(x, y, MonomialTheory(identity)) == \
        FormalSum.single(mono(p1=2), -I)


def test_complexity_examples():
    assert complexity_mono(mono(p1=2, p2=1, p3=4), SWAP12) == ((4, 0), (3, 1))
    assert complexity_mono(UNIT, SWAP12) == ()
    diag = complexity_mono(mono(T=2, **{"T~": 2}), KNOT)
    off = complexity_mono(mono(T=3, **{"T~": 1}), KNOT)
    assert diag == ((4, 2),) and off == ((4, 1),)
    assert off < diag


@pytest.mark.parametrize("swaps", [(), (("p1", "p2"),), (("p1", "p2"), ("p3", "p4"))])
def test_plain_tuple_order_matches_the_padded_order(swaps):
    sigma = Involution(("p1", "p2", "p3", "p4"), swaps=swaps)
    values = [complexity_mono(m, sigma) for m in enumerate_monomials(sigma.alphabet, 4)]
    padded = [MonomialComplexity(v) for v in values]
    for a, pa in zip(values, padded):
        for b, pb in zip(values, padded):
            assert (a < b, a == b) == (pa < pb, pa == pb)


def test_complexity_order_is_total_and_transitive():
    values = [complexity_mono(m, SWAP12)
              for m in enumerate_monomials(SWAP12.alphabet, 3)]
    for a in values:
        for b in values:
            assert (a < b) + (b < a) + (a == b) == 1
            for c in values:
                if a < b and b < c:
                    assert a < c


def test_diagonal_dominance_small_exhaustive():
    sigma = Involution(("T", "T~"), swaps=(("T", "T~"),))
    basis = enumerate_monomials(sigma.alphabet, 4)
    report = engine.verify_lemma(basis, MonomialTheory(sigma))
    assert report.passed


def test_granny_square_fixture():
    granny = manifold3_to_monomial(["T", "T"], KNOT)
    square = manifold3_to_monomial(["T", "T~"], KNOT)
    assert granny == mono(T=2) and square == mono(T=1, **{"T~": 1})
    x = FormalSum([(granny, 1), (square, -1)])
    product = engine.pair(x, x, MonomialTheory(KNOT))
    assert product == FormalSum([
        (mono(T=2, **{"T~": 2}), 2),
        (mono(T=3, **{"T~": 1}), -1),
        (mono(T=1, **{"T~": 3}), -1),
    ])
    certificate = engine.certify_positive(x, MonomialTheory(KNOT))
    assert isinstance(certificate, engine.PositivityCertificate)
    (form,) = certificate.forms
    assert form.closed == mono(T=2, **{"T~": 2})
    assert form.mass == 2
    assert form.witnesses == (0, 1)


def test_manifold_encoding_examples():
    sigma = Involution(("p", "q"))
    assert manifold3_to_monomial(["p", "p", "q"], sigma) == mono(p=2, q=1)
    assert manifold3_to_monomial([], sigma) == UNIT
    assert manifold3_to_monomial({"p": 2}, sigma) == mono(p=2)
    with pytest.raises(ValueError):
        manifold3_to_monomial(["mystery"], sigma)


def test_enumerate_monomials_counts_and_order():
    basis = enumerate_monomials(("a", "b", "c", "d"), 6)
    assert len(basis) == 210
    assert basis[0] == UNIT
    assert basis == enumerate_monomials(("a", "b", "c", "d"), 6)
    degrees = [m.degree() for m in basis]
    assert degrees == sorted(degrees)


def test_enumerate_monomials_rejects_a_negative_degree():
    with pytest.raises(ValueError, match="bound max_degree must be nonnegative"):
        enumerate_monomials(("a",), -1)


def test_pair_poly_matches_convolution_oracle():
    rng = random.Random(3401)
    for _ in range(200):
        x = random_poly(rng, SWAP12)
        y = random_poly(rng, SWAP12)
        product = engine.pair(x, y, MonomialTheory(SWAP12))
        assert as_raw(product) == convolution_oracle(raw_terms(x), raw_terms(y),
                                                     SWAP12)


def test_monomial_json_round_trip():
    m = mono(p1=2, p3=7)
    assert Monomial.from_json(m.to_json()) == m
    sigma = Involution.from_json(SWAP12.to_json())
    assert sigma.swaps == SWAP12.swaps
    assert set(sigma.alphabet) == set(SWAP12.alphabet)


def test_monomial_rejects_negative_exponents():
    with pytest.raises(ValueError):
        Monomial((("p", -1),))
    assert mono(p=0) == UNIT
