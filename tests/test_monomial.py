"""Monomial rings with involution: conjugation, pairing, complexity order."""

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

from umpair import engine
from umpair.algebra import FormalSum, I, UniverseMismatchError, canonical_key
from umpair.monomial import (Involution, Monomial, MonomialTheory, UNIT,
                             complexity_mono, enumerate_monomials,
                             manifold3_to_monomial, mono_conj)

from umpair import monomial
from umpair.monomial import _Packing

from oracles import (MonomialComplexity, as_raw, convolution_oracle, counted_whole_orbits,
                     loop_lemma, random_poly, raw_terms)
from test_engine import TABLE_CASES

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


def test_involution_fixed_is_kept_out_of_equality():
    computed = Involution(("p1", "p2", "p3"), swaps=(("p1", "p2"),))
    fresh = Involution(("p1", "p2", "p3"), swaps=(("p2", "p1"),))
    assert computed.fixed is computed.fixed
    assert computed == fresh and hash(computed) == hash(fresh)
    assert repr(computed) == repr(fresh)


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


def test_enumerate_monomials_rejects_a_repeated_letter():
    with pytest.raises(ValueError, match="alphabet letters must be distinct"):
        enumerate_monomials(("a", "b", "a"), 2)


def _descriptor_monomials(alphabet, max_degree):
    """The reference enumeration: checked monomials in
    ``combinations_with_replacement`` order, degree by degree."""
    return [Monomial(tuple(Counter(combo).items())) for degree in range(max_degree + 1)
            for combo in itertools.combinations_with_replacement(alphabet, degree)]


@pytest.mark.parametrize("alphabet", [("a", "b", "c"), ("T", "T~", "P"), ("b", "a"), ()],
                         ids=["sorted", "T-T~-P", "b-a", "empty"])
@pytest.mark.parametrize("degree", range(4))
def test_coded_basis_decodes_every_element_in_order(alphabet, degree):
    basis, expected = enumerate_monomials(alphabet, degree), _descriptor_monomials(alphabet, degree)
    assert isinstance(basis, engine.CodedBasis) and len(basis) == len(expected)
    assert [basis[k] for k in range(len(basis))] == expected
    assert list(basis) == expected and basis == expected
    assert [canonical_key(m) for m in basis] == [canonical_key(m) for m in expected]
    assert basis[::-2] == expected[::-2] and isinstance(basis[::-2], engine.CodedBasis)


def _foreign_letter_case():
    """A theory over a, b and a coded basis that also uses c."""
    return MonomialTheory(Involution(("a", "b"), (("a", "b"),))), enumerate_monomials(
        ("c", "b", "a"), 2)


def test_a_coded_basis_with_a_foreign_letter_raises_the_element_message():
    theory, basis = _foreign_letter_case()
    with pytest.raises(UniverseMismatchError) as listed:
        engine.verify_lemma(list(basis), theory)
    with pytest.raises(UniverseMismatchError) as coded:
        engine.verify_lemma(basis, theory)
    assert str(coded.value) == str(listed.value) == "prime 'c' not in alphabet"
    # A basis whose rows never use c is inside the theory's universe.
    assert engine.verify_lemma(basis[np.array([0, 2, 3, 7, 8, 9])], theory).passed


def test_a_coded_basis_with_a_foreign_letter_is_caught_only_by_name_without_the_check(
        monkeypatch):
    """Without ``validate_coded`` the foreign letter is not a universe error:
    the exponent rows look it up by name and raise KeyError."""
    theory, basis = _foreign_letter_case()
    monkeypatch.setattr(MonomialTheory, "validate_coded", lambda self, basis: None)
    with pytest.raises(KeyError):
        engine.verify_lemma(basis, theory)


@pytest.mark.parametrize("rows", [slice(2, None), slice(None, -1), slice(None, None, 2)])
def test_a_sliced_coded_basis_is_not_whole_orbits(rows):
    # The unit alone is a whole orbit, so the slices drop more than it.
    sigma = Involution(P4, (("p1", "p2"),))
    theory, basis = MonomialTheory(sigma), enumerate_monomials(P4, 3)[rows]
    assert isinstance(basis, engine.CodedBasis) and theory.orbits(basis) is None
    assert engine.verify_lemma(basis, theory) == loop_lemma(basis, theory)


def test_a_coded_basis_reports_as_its_plain_list(monkeypatch):
    monkeypatch.setattr(MonomialTheory, "complexity", _ignoring_p4)
    theory, basis = MonomialTheory(Involution(P4)), enumerate_monomials(P4, 3)
    report = engine.verify_lemma(basis, theory)
    assert report.violations and report == engine.verify_lemma(list(basis), theory)


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


def test_monomial_rejects_negative_exponents():
    with pytest.raises(ValueError):
        Monomial((("p", -1),))
    assert mono(p=0) == UNIT


@pytest.mark.parametrize("alphabet", [("T",), ("T", "T~"), ("T", "T~", "P"),
                                      ("p4", "p1", "p3", "p2")])
def test_enumerate_monomials_equals_a_checked_rebuild(alphabet):
    # enumerate_monomials builds its elements without the checked constructor;
    # the exponents must come out sorted by prime name, not in alphabet order.
    for fast in enumerate_monomials(alphabet, 4):
        checked = Monomial(fast.exponents[::-1])
        assert fast.exponents == checked.exponents
        assert fast == checked and hash(fast) == hash(checked)
        assert fast.to_json() == checked.to_json()
        assert canonical_key(fast) == canonical_key(checked)


# ---- relabelling symmetry and the orbit rows of verify_lemma ------------------

def _shapes(max_primes):
    """One involution of every shape on up to ``max_primes`` primes: k swaps,
    each pairing p_i with p_{i+k}, and the rest fixed."""
    for n in range(1, max_primes + 1):
        alphabet = tuple(f"p{i}" for i in range(1, n + 1))
        for k in range(n // 2 + 1):
            yield Involution(alphabet, swaps=tuple(zip(alphabet[:k], alphabet[k:2 * k])))


def _commuting_relabellings(sigma):
    """Every permutation g of the alphabet with g∘sigma == sigma∘g, as a dict."""
    group = []
    for image in itertools.permutations(sigma.alphabet):
        g = dict(zip(sigma.alphabet, image))
        if all(g[sigma.apply(p)] == sigma.apply(g[p]) for p in sigma.alphabet):
            group.append(g)
    return group


def _relabel(m, g):
    return Monomial(tuple((g[p], e) for p, e in m.exponents))


def _shape_id(sigma):
    return f"{len(sigma.alphabet)}-primes-{len(sigma.swaps)}-swaps"


@pytest.mark.parametrize("sigma", list(_shapes(5)), ids=_shape_id)
def test_orbit_labels_partition_the_basis_into_brute_force_orbits(sigma):
    theory, group = MonomialTheory(sigma), _commuting_relabellings(sigma)
    k, f = len(sigma.swaps), len(sigma.fixed)
    assert len(group) == 2 ** k * math.factorial(k) * math.factorial(f)
    for degree in range(5):
        basis = enumerate_monomials(sigma.alphabet, degree)
        labels = theory.orbits(basis)
        assert labels is not None and len(labels) == len(basis)
        by_label = {}
        for m, label in zip(basis, labels):
            by_label.setdefault(label, set()).add(m)
        orbits = {frozenset(_relabel(m, g) for g in group) for m in basis}
        assert set(map(frozenset, by_label.values())) == orbits


def _group(sigma):
    """The relabellings that commute with sigma, built from their shape:
    a permutation of the swaps, each kept or flipped, and a permutation of
    the fixed primes, as dicts."""
    swaps, fixed = sigma.swaps, sigma.fixed
    group = []
    for order in itertools.permutations(range(len(swaps))):
        for flips in itertools.product((False, True), repeat=len(swaps)):
            for image in itertools.permutations(fixed):
                g = dict(zip(fixed, image))
                for (a, b), k, flip in zip(swaps, order, flips):
                    c, d = swaps[k][::-1] if flip else swaps[k]
                    g[a], g[b] = c, d
                group.append(g)
    return group


@pytest.mark.parametrize("sigma", list(_shapes(5)), ids=_shape_id)
def test_the_group_built_from_its_shape_is_the_commuting_relabellings(sigma):
    def key(g):
        return tuple(sorted(g.items()))

    assert sorted(map(key, _group(sigma))) == sorted(map(key, _commuting_relabellings(sigma)))


def _orbit_partition(basis, labels):
    """The basis split by equal labels, as a set of frozensets."""
    by_label = {}
    for m, label in zip(basis, labels):
        by_label.setdefault(label, set()).add(m)
    return set(map(frozenset, by_label.values()))


@pytest.mark.parametrize("sigma", list(_shapes(5)), ids=_shape_id)
def test_closure_agrees_with_the_orbit_count_on_drop_one_bases(sigma):
    """Every basis of degree <= 3, whole and with each element dropped in
    turn: the generators' closure gives labels exactly when counting each
    label against its orbit size finds whole orbits."""
    theory = MonomialTheory(sigma)
    for degree in range(4):
        full = enumerate_monomials(sigma.alphabet, degree)
        outcomes = set()
        for drop in range(-1, len(full)):
            basis = full if drop < 0 else full[np.arange(len(full)) != drop]
            whole = counted_whole_orbits(basis, sigma)
            assert (theory.orbits(basis) is not None) == whole
            outcomes.add(whole)
        # The whole basis is whole; past one prime and degree 0 some
        # element lies in a larger orbit, and dropping it is not.
        assert outcomes == ({True, False} if len(sigma.alphabet) > 1 and degree else {True})


@pytest.mark.parametrize("sigma", [s for s in _shapes(5) if len(s.alphabet) >= 3],
                         ids=_shape_id)
def test_closure_accepts_seeded_unions_of_brute_force_orbits(sigma):
    """Unions of orbits found by applying the whole group, shuffled: labels
    that split them into those orbits.  Without one element of a larger
    orbit the union is not whole."""
    theory, group, rng = MonomialTheory(sigma), _group(sigma), random.Random(_shape_id(sigma))
    full = enumerate_monomials(sigma.alphabet, 4)
    orbits = sorted({frozenset(_relabel(m, g) for g in group) for m in full},
                    key=lambda orbit: min(map(str, orbit)))
    for _ in range(6):
        chosen = rng.sample(orbits, rng.randint(1, len(orbits)))
        basis = sorted((m for orbit in chosen for m in orbit), key=str)
        rng.shuffle(basis)
        labels = theory.orbits(basis)
        assert labels is not None and counted_whole_orbits(basis, sigma)
        assert _orbit_partition(basis, labels) == set(chosen)
        larger = [m for m in basis if any(m in orbit and len(orbit) > 1 for orbit in chosen)]
        if larger:
            cut = [m for m in basis if m != larger[0]]
            assert theory.orbits(cut) is None and not counted_whole_orbits(cut, sigma)


def test_closure_on_nine_primes_past_int64():
    """Exponents below 300 over nine primes pack past int64 (300**9 > 2**63),
    so the codes and labels are Python ints: three seeded orbits are whole,
    and are not with any one element dropped."""
    alphabet = tuple(f"p{k}" for k in range(9))
    sigma = Involution(alphabet, (("p0", "p1"), ("p2", "p3"), ("p4", "p5")))
    theory, group = MonomialTheory(sigma), _group(sigma)
    rng = np.random.default_rng(20530)
    seeds = [Monomial(tuple(zip(alphabet, rng.integers(0, 300, size=9).tolist())))
             for _ in range(3)]
    orbits = {frozenset(_relabel(m, g) for g in group) for m in seeds}
    basis = sorted((m for orbit in orbits for m in orbit), key=str)
    labels = theory.orbits(basis)
    assert labels is not None and labels.dtype == object and max(labels) > 2**63
    assert counted_whole_orbits(basis, sigma) and _orbit_partition(basis, labels) == orbits
    for drop in rng.choice(len(basis), size=8, replace=False).tolist():
        cut = basis[:drop] + basis[drop + 1:]
        assert theory.orbits(cut) is None and not counted_whole_orbits(cut, sigma)


@pytest.mark.parametrize("sigma", [s for s in _shapes(4) if len(s.alphabet) == 4] + [KNOT],
                         ids=_shape_id)
def test_relabelling_commutes_with_gluing_and_keeps_complexity(sigma):
    """glue(g·a, g·b) == g·glue(a, b) and complexity(g·c) == complexity(c)
    for seeded relabellings g that commute with the involution."""
    theory, rng = MonomialTheory(sigma), random.Random(f"relabel-{sigma.swaps}")
    group, basis = _commuting_relabellings(sigma), enumerate_monomials(sigma.alphabet, 3)
    pairs = list(itertools.product(basis, repeat=2))
    for _ in range(4):
        g = rng.choice(group)
        for a, b in rng.sample(pairs, min(len(pairs), 200)):
            closed = theory.glue(a, b)
            assert theory.glue(_relabel(a, g), _relabel(b, g)) == _relabel(closed, g)
            assert complexity_mono(_relabel(closed, g), sigma) == complexity_mono(closed, sigma)


P4 = ("p1", "p2", "p3", "p4")
P6 = ("p1", "p2", "p3", "p4", "p5", "p6")


def _recording_tables(monkeypatch):
    """(rows, cols) sizes of every ``MonomialTheory.glue_table`` call, as a list."""
    calls = []
    table = MonomialTheory.glue_table

    def recording(self, rows, cols=None):
        calls.append((len(rows), len(rows if cols is None else cols)))
        return table(self, rows, cols)

    monkeypatch.setattr(MonomialTheory, "glue_table", recording)
    return calls


# The monomial bases that tier-1 tests and golden cases run verify_lemma on:
# (involution, degree, orbit rows), the rows asserted where a benchmark
# workload runs the basis.
TIER1_BASES = {
    "knot-4": (KNOT, 4, None),
    "swap12-3": (SWAP12, 3, None),
    "knots-3": (Involution(("T", "T~", "P"), (("T", "T~"),)), 3, None),
    "ab-3": (Involution(("a", "b"), (("a", "b"),)), 3, None),
    "p4-swap-4": (Involution(P4, (("p1", "p2"),)), 4, None),
    "p4-none-6": (Involution(P4), 6, 27),
    "p4-swap-6": (Involution(P4, (("p1", "p2"),)), 6, 80),
    "p4-two-swaps-6": (Involution(P4, (("p1", "p2"), ("p3", "p4"))), 6, 43),
}


@pytest.mark.parametrize("name", list(TIER1_BASES))
def test_orbit_rows_agree_with_the_loop_lemma(monkeypatch, name):
    sigma, degree, rows = TIER1_BASES[name]
    theory, basis = MonomialTheory(sigma), enumerate_monomials(sigma.alphabet, degree)
    labels = theory.orbits(basis)
    assert labels is not None
    reps = len(set(labels))
    assert rows is None or reps == rows
    calls = _recording_tables(monkeypatch)
    report = engine.verify_lemma(basis, theory)
    assert report.passed and report == loop_lemma(basis, theory)
    assert calls == [(reps, len(basis))]


@pytest.mark.parametrize("swaps,rows", [((), 30), ((("p1", "p2"), ("p3", "p4")), 147)])
def test_verify_lemma_glues_one_row_per_orbit_at_six_primes(monkeypatch, swaps, rows):
    """Degree 6 over six primes: 924 monomials, one glued row per orbit."""
    sigma = Involution(P6, swaps)
    basis = enumerate_monomials(P6, 6)
    calls = _recording_tables(monkeypatch)
    assert engine.verify_lemma(basis, MonomialTheory(sigma)).passed
    assert calls == [(rows, 924)]


def _partial_bases():
    """Bases that are not unions of whole orbits, named."""
    swap = Involution(P4, (("p1", "p2"),))
    full = enumerate_monomials(P4, 4)
    return {
        "one-dropped": (swap, full[:7] + full[8:]),
        "duplicate": (swap, full + full[5:6]),
        # Each power of p1 is one of an orbit of 4 under S_4.
        "single-prime": (Involution(P4), [m for m in full if set(m.primes()) <= {"p1"}]),
    }


@pytest.mark.parametrize("name", list(_partial_bases()))
def test_bases_that_are_not_whole_orbits_take_the_full_sweep(monkeypatch, name):
    sigma, basis = _partial_bases()[name]
    theory = MonomialTheory(sigma)
    assert theory.orbits(basis) is None
    calls = _recording_tables(monkeypatch)
    assert engine.verify_lemma(basis, theory) == loop_lemma(basis, theory)
    assert calls == [(len(basis), len(basis))]


def test_a_basis_closed_within_each_swap_but_not_across_them_takes_the_full_sweep(
        monkeypatch):
    """1, p1, p2, p1*p2 and p3*p4 are closed under p1 <-> p2 and p3 <-> p4,
    but exchanging the swap p1:p2 with p3:p4 sends p1 to p3."""
    sigma = Involution(P4, (("p1", "p2"), ("p3", "p4")))
    theory = MonomialTheory(sigma)
    basis = [UNIT, mono(p1=1), mono(p2=1), mono(p1=1, p2=1), mono(p3=1, p4=1)]
    assert theory.orbits(basis) is None and not counted_whole_orbits(basis, sigma)
    calls = _recording_tables(monkeypatch)
    assert engine.verify_lemma(basis, theory) == loop_lemma(basis, theory)
    assert calls == [(5, 5)]


def _ignoring_p4(self, closed):
    """complexity_mono with p4 left out: not invariant under relabelling."""
    kept = Monomial(tuple((p, e) for p, e in closed.exponents if p != "p4"))
    return complexity_mono(kept, self.involution)


class IgnoringP4(MonomialTheory):
    complexity = _ignoring_p4


@pytest.mark.parametrize("how", ["patched", "subclass"])
def test_a_complexity_not_its_own_takes_the_full_sweep(monkeypatch, how):
    """Such a complexity need not be invariant, so no orbit labels: the
    report is the full sweep's, violations included."""
    sigma, basis = Involution(P4), enumerate_monomials(P4, 3)
    if how == "patched":
        monkeypatch.setattr(MonomialTheory, "complexity", _ignoring_p4)
        theory = MonomialTheory(sigma)
    else:
        theory = IgnoringP4(sigma)
    assert theory.orbits(basis) is None
    calls = _recording_tables(monkeypatch)
    report = engine.verify_lemma(basis, theory)
    assert report.violations and report == loop_lemma(basis, theory)
    assert calls == [(len(basis), len(basis))]


def test_orbit_rows_would_pass_a_complexity_that_is_not_invariant(monkeypatch):
    """Why the hook checks the complexity: given the labels anyway, the
    orbit rows of a complexity that ignores p4 all pass, while the full
    sweep finds violations."""
    sigma, basis = Involution(P4), enumerate_monomials(P4, 3)
    labels = MonomialTheory(sigma).orbits(basis)
    monkeypatch.setattr(IgnoringP4, "orbits", lambda self, basis: labels)
    theory = IgnoringP4(sigma)
    assert engine.verify_lemma(basis, theory).passed
    assert not loop_lemma(basis, theory).passed


# ---- complexity ranks read from packed codes -----------------------------------

def _rank_cases():
    """name -> (involution, rows, cols or None, whether the ranks are read
    from the codes), for ``complexity_ranks`` against the per-form ranks."""
    cases = {}
    for name, (theory, basis) in TABLE_CASES.items():
        if isinstance(theory, MonomialTheory):
            sigma, fast = theory.involution, name not in (
                "letters41-degree1", "monomial-huge", "empty-monomial")
            cases[f"{name}-square"] = (sigma, basis, None, fast)
            cases[f"{name}-rectangular"] = (sigma, basis[::-2], basis, fast and bool(basis))
    for shape, swaps in (("none", ()), ("swap", (("p1", "p2"),)),
                         ("two-swaps", (("p1", "p2"), ("p3", "p4")))):
        for degree in range(7):
            cases[f"p4-{shape}-{degree}"] = (Involution(P4, swaps),
                                             enumerate_monomials(P4, degree), None, True)
    knots = Involution(("T", "T~", "P"), (("T", "T~"),))
    five = Involution(("p5", "p3", "p1", "p4", "p2"), (("p1", "p4"), ("p2", "p5")))
    a, b, m = "a", "b", 2**30
    cases.update({
        "T-T~-P-4": (knots, enumerate_monomials(knots.alphabet, 4), None, True),
        "five-letters-two-swaps-4": (five, enumerate_monomials(five.alphabet, 4), None, True),
        "empty": (SWAP12, [], None, False),
        "unit-only": (SWAP12, [UNIT], None, True),
        # Base 2**41 + 1: a fixed prime's key is its exponent, top being 1.
        "p-2-40": (Involution(("p",)), [mono(p=2**40), mono(p=3), UNIT], None, True),
        # int64 codes whose keys, total * top + smaller, pass 2**63.
        "a-b-swapped-2-30": (Involution((a, b), ((a, b),)),
                             [mono(a=m), mono(b=m), mono(a=m, b=m), mono(a=m - 1, b=1), UNIT],
                             None, False),
        # The same without a^m b^m: every key fits int64.
        "a-b-swapped-2-30-fits": (Involution((a, b), ((a, b),)),
                                  [mono(a=m), mono(b=m), mono(a=m - 1, b=1), UNIT],
                                  None, True),
        "codes-past-int64": (Involution((a, b), ((a, b),)),
                             [mono(a=10**20), mono(a=1, b=1), UNIT], None, False),
    })
    return cases


RANK_CASES = _rank_cases()


def _counting_complexity_mono(monkeypatch):
    """The arguments of every ``complexity_mono`` call, as a list."""
    calls = []

    def counting(m, sigma):
        calls.append(m)
        return complexity_mono(m, sigma)

    monkeypatch.setattr(monomial, "complexity_mono", counting)
    return calls


@pytest.mark.parametrize("name", list(RANK_CASES))
def test_complexity_ranks_equal_the_per_form_ranks(monkeypatch, name):
    """The ranks read from the codes against ``dense_ranks`` of
    ``complexity_mono``, the reference; the per-form path where codes are
    Python ints or keys pass int64."""
    sigma, rows, cols, fast = RANK_CASES[name]
    theory = MonomialTheory(sigma)
    forms, _ = theory.glue_table(rows, cols)
    calls = _counting_complexity_mono(monkeypatch)
    ranks = theory.complexity_ranks(forms)
    path_calls = len(calls)
    assert ranks.tolist() == engine.dense_ranks([complexity_mono(c, sigma)
                                                 for c in forms]).tolist()
    assert ranks.dtype == np.int32 and path_calls == (0 if fast else len(forms))


def test_complexity_ranks_past_int64_packing_equal_the_per_form_ranks(monkeypatch):
    # Nine primes with one swap give eight keys per form.  Exponents up to 25
    # keep the codes int64 (51**9 < 2**63), but the keys reach 1,000-4,000
    # per column, so the radix product of their packing passes 2**63 and
    # the packed keys are Python ints.
    sigma = Involution(tuple(f"p{k}" for k in range(9)), (("p0", "p1"),))
    rng = np.random.default_rng(20524)
    rows = [Monomial(tuple(zip(sigma.alphabet, rng.integers(0, 26, size=9).tolist())))
            for _ in range(12)]
    theory = MonomialTheory(sigma)
    forms, _ = theory.glue_table(rows)
    packed = []

    def recording(digits, radix):
        packed.append(engine._packed(digits, radix))
        return packed[-1]

    monkeypatch.setattr(monomial, "_packed", recording)
    ranks = theory.complexity_ranks(forms)
    assert forms.codes.dtype == np.int64
    assert [codes.dtype for codes in packed] == [object] and max(packed[0]) > 2**63
    assert ranks.tolist() == engine.dense_ranks([complexity_mono(c, sigma)
                                                 for c in forms]).tolist()
    assert ranks.dtype == np.int32


def _counting_decodes(monkeypatch):
    """The codes of every packed monomial decoded, as a list."""
    calls = []
    decode = _Packing.__call__

    def counting(self, code):
        calls.append(code)
        return decode(self, code)

    monkeypatch.setattr(_Packing, "__call__", counting)
    return calls


@pytest.mark.parametrize("name", ["p4-none-6", "p4-swap-6", "p4-two-swaps-6"])
def test_a_passing_verify_lemma_decodes_no_form(monkeypatch, name):
    sigma, degree, _ = TIER1_BASES[name]
    basis = enumerate_monomials(sigma.alphabet, degree)
    decoded, calls = _counting_decodes(monkeypatch), _counting_complexity_mono(monkeypatch)
    assert engine.verify_lemma(basis, MonomialTheory(sigma)).passed
    assert decoded == [] and calls == []


@pytest.mark.parametrize("how", ["patched", "subclass", "foreign-forms"])
def test_ranks_not_read_from_codes_call_complexity_once_per_form(monkeypatch, how):
    """A complexity not its own, or forms not packed over the theory's own
    alphabet, rank through one ``complexity`` call per form."""
    sigma, basis = Involution(P4), enumerate_monomials(P4, 3)
    theory = MonomialTheory(sigma)
    if how == "patched":
        monkeypatch.setattr(MonomialTheory, "complexity", _ignoring_p4)
        theory = MonomialTheory(sigma)
    elif how == "subclass":
        theory = IgnoringP4(sigma)
    forms, _ = theory.glue_table(basis)
    if how == "foreign-forms":
        wider = Involution((*P4, "p5"))
        forms, _ = MonomialTheory(wider).glue_table(basis)
    complexity, calls = type(theory).complexity, []

    def counting(self, closed):
        calls.append(closed)
        return complexity(self, closed)

    monkeypatch.setattr(type(theory), "complexity", counting)
    ranks = theory.complexity_ranks(forms)
    assert calls == list(forms)
    assert ranks.tolist() == engine.dense_ranks([complexity(theory, c)
                                                 for c in forms]).tolist()


def test_complexity_patched_between_builds_is_honored(monkeypatch):
    """Ranks are read afresh from the reused table: a complexity patched in
    after a build ranks its forms, one call each."""
    sigma, basis = Involution(P4), enumerate_monomials(P4, 3)
    theory = MonomialTheory(sigma)
    assert engine.verify_lemma(basis, theory).passed
    # Built after verify_lemma, whose orbit rows are a table of their own.
    before = engine.GramTensor(basis, theory)
    own = before.ranks
    monkeypatch.setattr(MonomialTheory, "complexity", _ignoring_p4)
    after = engine.GramTensor(basis, theory)
    assert after.ids is before.ids and after.forms is before.forms
    expected = engine.dense_ranks([_ignoring_p4(theory, c) for c in after.forms])
    assert after.ranks.tolist() == expected.tolist() != own.tolist()
    assert not engine.verify_lemma(basis, theory).passed
