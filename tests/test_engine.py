"""The pairing engine across all four gluing theories."""

import gc
import itertools
import random
import weakref
from dataclasses import dataclass, field
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np
from oracles import (_is_canonical_nonzero, fraction_null_search, integer_null_scan,
                     loop_pair)

from umpair import dim1, engine, monomial
from umpair.algebra import (FormalSum, I, ONE, Scalar, UniverseMismatchError, ZERO,
                            canonical_key)
from umpair.dim1 import (Bounded1Manifold, Closed1Manifold, Dim1Theory, enumerate1,
                         standard_boundary)
from umpair.dim2 import Bounded2Manifold, Dim2Theory, enumerate2
from umpair.fourdim import (FourDimTheory, _constant_table, build_mazur_table,
                            build_scob_table)
from umpair.monomial import Involution, Monomial, MonomialTheory, enumerate_monomials

B2 = standard_boundary(2)
D1 = Dim1Theory(B2)
BASIS2 = enumerate1(B2, 0)               # identity matching, swap matching
KNOT = Involution(("T", "T~"), swaps=(("T", "T~"),))
MAZUR = build_mazur_table()
FOURD = MAZUR

fractions = st.fractions(min_value=-6, max_value=6, max_denominator=8)
scalars = st.builds(Scalar, fractions, fractions)


def vec(theory_basis, *coeffs):
    return FormalSum(zip(theory_basis, coeffs))


def _dim1_case(j, max_closed):
    boundary = standard_boundary(j)
    return Dim1Theory(boundary), enumerate1(boundary, max_closed)


def test_pair_single_term_squares_the_coefficient_norm():
    m = BASIS2[0]
    x = FormalSum.single(m, I)
    assert engine.pair(x, x, D1) == FormalSum.single(D1.glue(m, m), 1)


def test_pair_two_matchings_expansion():
    x = vec(BASIS2, ONE, -ONE)
    result = engine.pair(x, x, D1)
    two, one = D1.glue(BASIS2[0], BASIS2[0]), D1.glue(BASIS2[0], BASIS2[1])
    assert two.circles == 2 and one.circles == 1
    assert result == FormalSum([(two, 2), (one, -2)])


def test_pair_fourdim_difference_vanishes():
    x = FormalSum([("M", 1), ("M'", -1)])
    assert engine.pair(x, x, FOURD).is_zero()


def test_pair_rejects_foreign_descriptors():
    other = enumerate1(standard_boundary(3), 0)[0]
    with pytest.raises(UniverseMismatchError):
        engine.pair(FormalSum.single(other), FormalSum.single(other), D1)
    with pytest.raises(UniverseMismatchError):
        engine.pair(FormalSum.single(BASIS2[0]), FormalSum.single(BASIS2[0]),
                    Dim2Theory(2))


@given(scalars, scalars, scalars, scalars, scalars)
@settings(max_examples=40, deadline=None)
def test_pair_is_sesquilinear(alpha, a0, a1, b0, b1):
    x = vec(BASIS2, a0, a1)
    y = vec(BASIS2, b0, b1)
    assert engine.pair(x.scaled(alpha), y, D1) == \
        engine.pair(x, y, D1).scaled(alpha)
    assert engine.pair(x, y.scaled(alpha), D1) == \
        engine.pair(x, y, D1).scaled(alpha.conj())


@given(scalars, scalars, scalars, scalars)
@settings(max_examples=40, deadline=None)
def test_pair_conjugate_symmetry(a0, a1, b0, b1):
    x = vec(BASIS2, a0, a1)
    y = vec(BASIS2, b0, b1)
    forward = engine.pair(x, y, D1)
    backward = engine.pair(y, x, D1)
    # reverse is the identity on closed 1-manifolds, so only coefficients flip
    assert backward == FormalSum((d, c.conj()) for d, c in forward.items())


def test_conjugate_symmetry_with_nontrivial_reverse():
    theory = MonomialTheory(KNOT)
    basis = enumerate_monomials(KNOT.alphabet, 2)
    rng = random.Random(77)
    for _ in range(25):
        x = FormalSum((m, Scalar(rng.randint(-3, 3), rng.randint(-3, 3)))
                      for m in rng.sample(basis, 3))
        y = FormalSum((m, Scalar(rng.randint(-3, 3), rng.randint(-3, 3)))
                      for m in rng.sample(basis, 3))
        backward = engine.pair(y, x, theory)
        expected = FormalSum((theory.reverse(d), c.conj())
                             for d, c in engine.pair(x, y, theory).items())
        assert backward == expected


@given(scalars, scalars)
@settings(max_examples=40, deadline=None)
def test_diagonal_coefficients_are_real_at_reverse_fixed_forms(a0, a1):
    x = vec(BASIS2, a0, a1)
    squared = engine.pair(x, x, D1)
    for closed, coeff in squared.items():
        assert D1.reverse(closed) == closed
        assert coeff.im == 0


def test_glue_level_conjugate_symmetry_in_every_theory():
    from umpair.dim2 import enumerate2

    cases = [
        (D1, BASIS2),
        (Dim2Theory(2), enumerate2(2, 1, 1)),
        (MonomialTheory(KNOT), enumerate_monomials(KNOT.alphabet, 2)),
        (FOURD, list(MAZUR.labels)),
    ]
    for theory, basis in cases:
        for a in basis:
            for b in basis:
                glued = theory.glue(a, b)
                assert theory.glue(b, a) == theory.reverse(glued)
                assert theory.reverse(theory.reverse(glued)) == glued


def test_verify_lemma_passes_on_small_bases():
    assert engine.verify_lemma(BASIS2, D1).passed
    dim2_basis = [Bounded2Manifold(1, (((0,), 0),)),
                  Bounded2Manifold(1, (((0,), 1),))]
    assert engine.verify_lemma(dim2_basis, Dim2Theory(1)).passed


def _recording(monkeypatch, cls, name):
    """The positional arguments of every call of method ``name`` of ``cls``."""
    calls, method = [], getattr(cls, name)

    def recording(self, *args):
        calls.append(args)
        return method(self, *args)

    monkeypatch.setattr(cls, name, recording)
    return calls


def _orbit_case(name):
    """(theory, basis) of a verify_lemma run whose orbit rows pass."""
    if name == "dim1":
        return _dim1_case(6, 0)
    sigma = Involution(("p1", "p2", "p3", "p4"), swaps=(("p1", "p2"),))
    return MonomialTheory(sigma), enumerate_monomials(sigma.alphabet, 6)


@pytest.mark.parametrize("name", ["dim1", "monomial"])
def test_verify_lemma_validates_each_element_once(monkeypatch, name):
    """A plain list is validated element by element (a coded basis once as
    a whole: ``test_a_coded_basis_is_validated_once_and_decodes_nothing``)."""
    theory, coded = _orbit_case(name)
    basis = list(coded)
    validated = _recording(monkeypatch, type(theory), "validate_basis")
    tables = _recording(monkeypatch, type(theory), "glue_table")
    assert engine.verify_lemma(basis, theory).passed
    assert validated == [(d,) for d in basis]
    assert len(tables) == 1 and len(tables[0][0]) < len(basis)


def test_a_failing_orbit_row_validates_each_element_once(monkeypatch):
    monkeypatch.setattr(Dim1Theory, "complexity", lambda self, c: c.circles % 2)
    theory, coded = _dim1_case(3, 2)
    basis = list(coded)
    validated = _recording(monkeypatch, Dim1Theory, "validate_basis")
    tables = _recording(monkeypatch, Dim1Theory, "glue_table")
    assert not engine.verify_lemma(basis, theory).passed
    assert validated == [(d,) for d in basis] and len(tables) == 2


@pytest.mark.parametrize("name", ["dim1", "monomial"])
def test_verify_lemma_rejects_a_foreign_element_before_any_glue(monkeypatch, name):
    theory, basis = _orbit_case(name)
    foreign = BASIS2[0] if name == "monomial" else Monomial.from_dict({"p1": 1})
    calls = [_recording(monkeypatch, type(theory), method)
             for method in ("orbits", "glue_table", "glue")]
    for at in (0, len(basis) // 2, len(basis)):
        with pytest.raises(UniverseMismatchError):
            engine.verify_lemma([*basis[:at], foreign, *basis[at:]], theory)
    assert calls == [[], [], []]


def test_verify_lemma_reports_fourdim_violation():
    report = engine.verify_lemma(list(MAZUR.labels), FOURD)
    assert not report.passed
    (violation,) = report.violations
    assert (violation.left, violation.right) == ("M", "M'")
    assert violation.off_complexity == 0


def test_certificate_for_a_singleton_support():
    m = BASIS2[0]
    cert = engine.certify_positive(FormalSum.single(m, Scalar(2, 1)), D1)
    assert isinstance(cert, engine.PositivityCertificate)
    (form,) = cert.forms
    assert form.closed.circles == 2
    assert form.mass == Fraction(5)
    assert form.witnesses == (0,)


def test_certificate_for_difference_of_matchings():
    cert = engine.certify_positive(vec(BASIS2, ONE, -ONE), D1)
    assert isinstance(cert, engine.PositivityCertificate)
    (form,) = cert.forms
    assert form.closed.circles == 2
    assert form.mass == Fraction(2)


def test_certificate_failure_names_the_fourdim_pair():
    failure = engine.certify_positive(FormalSum([("M", 1), ("M'", -1)]), FOURD)
    assert isinstance(failure, engine.CertificateFailure)
    assert (failure.left, failure.right) == ("M", "M'")


def test_certify_rejects_the_zero_vector():
    with pytest.raises(ValueError):
        engine.certify_positive(FormalSum.zero(), D1)


def test_certificate_with_two_distinct_maximal_forms():
    # Under two swapped orbits, p*q and r*s have diagonal products p^2 q^2
    # and r^2 s^2: different closed forms, the same complexity (4,2).  The
    # certificate must list both forms, each carrying its own mass.
    from umpair.monomial import Monomial

    sigma = Involution(("p", "q", "r", "s"), swaps=(("p", "q"), ("r", "s")))
    theory = MonomialTheory(sigma)
    pq = Monomial.from_dict({"p": 1, "q": 1})
    rs = Monomial.from_dict({"r": 1, "s": 1})
    cert = engine.certify_positive(FormalSum([(pq, 1), (rs, Scalar(2, 1))]), theory)
    assert isinstance(cert, engine.PositivityCertificate)
    masses = {engine.canonical_key(f.closed): f.mass for f in cert.forms}
    assert masses == {
        engine.canonical_key(Monomial.from_dict({"p": 2, "q": 2})): Fraction(1),
        engine.canonical_key(Monomial.from_dict({"r": 2, "s": 2})): Fraction(5),
    }


@pytest.mark.parametrize("part", ["re", "im"])
def test_certificate_cross_check_catches_a_wrong_sum(monkeypatch, part):
    # Off by one at the top form, in either part, must not certify.
    sums = engine._hermitian_sums
    x = vec(BASIS2, Scalar(1, 2), Fraction(-1, 3))
    top = engine.GramTensor(x.support(), D1).ids[0, 0]

    def off_by_one(count, ids, a, b):
        scale, re, im = sums(count, ids, a, b)
        {"re": re, "im": im}[part][top] += 1
        return scale, re, im

    assert isinstance(engine.certify_positive(x, D1), engine.PositivityCertificate)
    monkeypatch.setattr(engine, "_hermitian_sums", off_by_one)
    # The sums are scaled by 3 * 3; the top form's true value is 5 + 1/9.
    value = "46/9[+]1/9i" if part == "im" else "47/9"
    with pytest.raises(AssertionError, match=f"cross-check failed at .*"
                       f"expected mass 46/9, pairing has {value}$"):
        engine.certify_positive(x, D1)


def _fuzz_certificates(rng, basis, theory, rounds):
    for _ in range(rounds):
        support = rng.sample(basis, rng.randint(1, min(5, len(basis))))
        coeffs = [Scalar(rng.randint(-3, 3), rng.randint(-3, 3))
                  for _ in support]
        x = FormalSum(zip(support, coeffs))
        if x.is_zero():
            continue
        cert = engine.certify_positive(x, theory)
        assert isinstance(cert, engine.PositivityCertificate)
        assert not engine.pair(x, x, theory).is_zero()


def test_certificates_are_sound_under_fuzzing():
    rng = random.Random(991)
    boundary = standard_boundary(3)
    _fuzz_certificates(rng, enumerate1(boundary, 1), Dim1Theory(boundary), 120)
    _fuzz_certificates(rng, enumerate2(2, 2, 1), Dim2Theory(2), 120)
    _fuzz_certificates(rng, enumerate_monomials(KNOT.alphabet, 3),
                       MonomialTheory(KNOT), 120)


SWAP12 = Involution(("p1", "p2", "p3"), swaps=(("p1", "p2"),))
LETTERS41 = Involution(tuple(f"q{k}" for k in range(41)),
                       swaps=(("q0", "q1"), ("q2", "q3")))
B16 = standard_boundary(16)
P2P1P3 = Involution(("p2", "p1", "p3"), swaps=(("p1", "p2"),))


def _shapes(letters):
    """The three involution shapes on four letters: none, one and two swaps."""
    a, b, c, d = letters
    return {"fixed": Involution(letters), "swap12": Involution(letters, swaps=((a, b),)),
            "swap12-34": Involution(letters, swaps=((a, b), (c, d)))}


def _matching(boundary, perm, closed=0):
    """The bounded 1-manifold sending pos[k] to neg[perm[k]]."""
    return Bounded1Manifold(boundary, tuple(perm), closed)


def _sampled_dim1(j, n):
    """n seeded random matchings over j points, each carrying 0 to 2 circles."""
    rng, boundary = random.Random(j), standard_boundary(j)
    return Dim1Theory(boundary), [_matching(boundary, rng.sample(range(j), j), rng.randrange(3))
                                  for _ in range(n)]


TABLE_CASES = {
    **{f"dim1-j{j}": _dim1_case(j, 1) for j in range(4)},
    "dim2-221": (Dim2Theory(2), enumerate2(2, 2, 1)),
    "knot-3": (MonomialTheory(KNOT), enumerate_monomials(KNOT.alphabet, 3)),
    "swap12-3": (MonomialTheory(SWAP12), enumerate_monomials(SWAP12.alphabet, 3)),
    "mazur": (FOURD, list(MAZUR.labels)),
    "scob2": (build_scob_table(2), ["M", "M'"]),
    **{f"dim1-j{j}-mc{mc}": _dim1_case(j, mc) for j, mc in ((0, 0), (5, 0), (3, 2))},
    **{f"p1-p4-degree4-{shape}": (MonomialTheory(sigma),
                                  enumerate_monomials(sigma.alphabet, 4))
       for shape, sigma in _shapes(("p1", "p2", "p3", "p4")).items()},
    # Packed codes of 41 letters reach 3**41 > 2**63, so they are Python ints.
    "letters41-degree1": (MonomialTheory(LETTERS41),
                          enumerate_monomials(LETTERS41.alphabet, 1)),
    # The alphabet out of sorted order: codes are packed in sorted prime order.
    "p2-p1-p3-degree3": (MonomialTheory(P2P1P3), enumerate_monomials(P2P1P3.alphabet, 3)),
    "empty-dim1": (D1, []),
    "empty-monomial": (MonomialTheory(KNOT), []),
    # j**j > 2**63 at j = 16, so the codes are Python ints.
    "dim1-j16": (Dim1Theory(B16), [_matching(B16, p) for p in (
        range(16), range(15, -1, -1), [*range(1, 16), 0],
        random.Random(16).sample(range(16), 16))]),
    # Both sides of the cycle table's bound (j = 8), with carried circles.
    "dim1-j8": _sampled_dim1(8, 30),
    "dim1-j9": _sampled_dim1(9, 12),
    # Circle counts and packed exponents past int64 are Python ints too.
    "dim1-huge-closed": (D1, [_matching(B2, [0, 1], 2**62), _matching(B2, [1, 0], 2**63)]),
    "monomial-huge": (MonomialTheory(KNOT), [Monomial.from_dict({"T": 2**63}),
                                             Monomial.from_dict({"T~": 1})]),
}


@pytest.mark.parametrize("case", TABLE_CASES)
def test_glue_table_agrees_with_the_default(case):
    """Every theory's glue_table against the base-class loop, the reference."""
    theory, basis = TABLE_CASES[case]
    forms, ids = theory.glue_table(tuple(basis))
    ref_forms, ref_ids = engine.GluingTheory.glue_table(theory, tuple(basis))
    assert len(set(forms)) == len(forms)
    assert set(forms) == set(ref_forms)
    assert ids.dtype == ref_ids.dtype and ids.shape == ref_ids.shape
    position = {form: k for k, form in enumerate(forms)}
    relabel = np.array([position[form] for form in ref_forms], dtype=np.intp)
    assert (ids == relabel[ref_ids]).all()


def _ascending(forms, ids):
    """(codes, ids) of a coded table with its forms relabelled in ascending
    code order, the order of a table of one chunk."""
    order = np.argsort(forms.codes, kind="stable")
    slot = np.empty(len(order), dtype=np.intp)
    slot[order] = np.arange(len(order))
    return forms.codes[order], slot[ids].astype(ids.dtype)


@pytest.mark.parametrize("case", TABLE_CASES)
def test_one_chunk_tables_agree_with_the_chunked_loop(monkeypatch, case):
    """A table of one chunk skips the chunk loop; one row per chunk takes it
    for every table of two rows or more.  Both list the same codes, give
    each cell the same form and the same ids dtype.  The loop lists forms
    chunk by chunk, so they are compared in ascending code order."""
    theory, basis = TABLE_CASES[case]
    for rows in (tuple(basis), tuple(basis[::-2])):
        monkeypatch.setattr(engine, "_CHUNK", 1 << 40)
        forms, ids = theory.glue_table(rows, tuple(basis))
        if not isinstance(forms, engine.CodedForms):
            return
        monkeypatch.setattr(engine, "_CHUNK", 1)
        chunked_forms, chunked_ids = theory.glue_table(rows, tuple(basis))
        codes, relabelled = _ascending(chunked_forms, chunked_ids)
        assert (forms.codes[1:] > forms.codes[:-1]).all()
        assert forms.codes.dtype == chunked_forms.codes.dtype
        assert forms.codes.tolist() == codes.tolist()
        assert ids.dtype == chunked_ids.dtype and (ids == relabelled).all()
        if len(rows) <= 1:
            assert chunked_forms.codes.tolist() == forms.codes.tolist()


@pytest.mark.parametrize("case", TABLE_CASES)
def test_rectangular_glue_table_agrees_with_glue(case):
    """A row subset, in another order, against every column."""
    theory, basis = TABLE_CASES[case]
    rows, cols = tuple(basis[::-2]), tuple(basis)
    forms, ids = theory.glue_table(rows, cols)
    ref_forms, ref_ids = engine.GluingTheory.glue_table(theory, rows, cols)
    assert ids.shape == ref_ids.shape == (len(rows), len(cols))
    assert len(set(forms)) == len(forms) and set(forms) == set(ref_forms)
    assert ids.dtype == ref_ids.dtype == np.min_scalar_type(max(len(forms) - 1, 0))
    for i, a in enumerate(rows):
        for k, b in enumerate(cols):
            assert forms[ids[i, k]] == ref_forms[ref_ids[i, k]] == theory.glue(a, b)


@pytest.mark.parametrize("case", TABLE_CASES)
def test_glue_table_agrees_with_glue_and_complexity(case):
    theory, basis = TABLE_CASES[case]
    table = engine.GramTensor(basis, theory)
    assert table.ids.shape == (len(basis), len(basis))
    assert len(set(table.forms)) == len(table.forms)
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            assert table.forms[table.ids[i, j]] == theory.glue(a, b)
    values = [theory.complexity(c) for c in table.forms]
    for f, u in enumerate(values):
        for g, v in enumerate(values):
            assert (table.ranks[f] < table.ranks[g], table.ranks[f] == table.ranks[g]) \
                == (u < v, u == v)


@pytest.mark.parametrize("case", TABLE_CASES)
def test_reversal_keeps_complexity(case):
    theory, basis = TABLE_CASES[case]
    for closed in theory.glue_table(tuple(basis))[0]:
        assert theory.complexity(theory.reverse(closed)) == theory.complexity(closed)


@pytest.mark.parametrize("case", [c for c, (theory, _) in TABLE_CASES.items()
                                  if isinstance(theory, MonomialTheory)])
def test_decoded_monomials_are_canonical(case):
    """Forms decoded from packed codes equal, and hash like, checked monomials."""
    theory, basis = TABLE_CASES[case]
    forms, ids = theory.glue_table(tuple(basis))
    for form in forms:
        checked = Monomial(tuple(reversed(form.exponents)))
        assert form.exponents == checked.exponents and hash(form) == hash(checked)
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            glued = theory.glue(a, b)
            assert forms[ids[i, j]] == glued and hash(forms[ids[i, j]]) == hash(glued)


def test_glue_table_widens_its_ids_past_256_forms():
    sigma = Involution(("p1", "p2", "p3", "p4"), swaps=(("p1", "p2"),))
    theory = MonomialTheory(sigma)
    basis = enumerate_monomials(sigma.alphabet, 6)
    table = engine.GramTensor(basis, theory)
    assert len(table.forms) == 1820 and table.ids.dtype == np.uint16
    for i in range(0, len(basis), 7):
        for j in range(len(basis)):
            assert table.forms[table.ids[i, j]] == theory.glue(basis[i], basis[j])


@pytest.mark.parametrize("dtype,count,widened", [
    (np.uint8, 1, np.uint8), (np.uint8, 256, np.uint8), (np.uint8, 257, np.uint16),
    (np.uint16, 65_536, np.uint16), (np.uint16, 65_537, np.uint32),
    (np.uint8, 65_537, np.uint32), (np.uint32, 2**32, np.uint32),
    (np.uint32, 2**32 + 1, np.uint64)])
def test_fit_ids_widens_exactly_where_the_dtype_overflows(dtype, count, widened):
    ids = engine._fit_ids(np.zeros((1, 1), dtype=dtype), count)
    assert ids.dtype == widened
    # The np.iinfo rule: widen when count - 1 ids overflow the dtype.
    expected = dtype if count - 1 <= np.iinfo(dtype).max else np.min_scalar_type(count - 1)
    assert ids.dtype == expected


def _first_cells(ids, count):
    """The first (i, j) cell, row-major, of each of ``count`` form ids."""
    flat = ids.reshape(-1)
    first = {}
    for k, f in enumerate(flat.tolist()):
        first.setdefault(f, divmod(k, ids.shape[1]))
    return [first[f] for f in range(count)]


# Reads of a form sequence, given a form that is in it.
READS = {
    "int": lambda forms, form: forms[0],
    "slice": lambda forms, form: forms[1:3],
    "iteration": lambda forms, form: next(iter(forms)),
    "index": lambda forms, form: forms.index(form),
    "equality": lambda forms, form: forms == (form,),
}


@pytest.mark.parametrize("case", ["dim1-j3-mc2", "dim1-j16", "p1-p4-degree4-swap12",
                                  "letters41-degree1", "monomial-huge"])
@pytest.mark.parametrize("read", READS)
def test_coded_forms_decode_every_form_once_on_first_read(case, read):
    """``len`` reads the codes only; any other read decodes every form once,
    in id order, and the sequence equals the default table's forms."""
    theory, basis = TABLE_CASES[case]
    coded, ids = theory.glue_table(tuple(basis))
    assert isinstance(coded, engine.CodedForms) and not coded.codes.flags.writeable
    decoded = []

    def decode(code):
        decoded.append(code)
        return coded.decode(code)

    forms = engine.CodedForms(coded.codes, decode)
    assert len(forms) == len(coded.codes) > 2 and decoded == []
    READS[read](forms, coded.decode(coded.codes.tolist()[-1]))
    assert decoded == coded.codes.tolist()
    ref_forms, ref_ids = engine.GluingTheory.glue_table(theory, tuple(basis))
    expected = tuple(ref_forms[ref_ids[i, j]] for i, j in _first_cells(ids, len(forms)))
    assert forms == expected and expected == forms and forms == coded
    assert forms != expected[::-1] and forms != list(expected)
    assert list(forms) == list(expected) and forms[1:3] == expected[1:3]
    assert all(forms.index(c) == k for k, c in enumerate(expected))
    assert expected[-1] in forms and forms.count(expected[0]) == 1
    assert len(decoded) == len(forms)


def _recording_decodes(monkeypatch):
    """The rows decoded by the dim1 and monomial basis decoders, as a list."""
    decoded = []
    for cls in (dim1._Matchings, monomial._Digits):
        def recording(self, *row, decode=cls.__call__):
            decoded.append(row)
            return decode(self, *row)

        monkeypatch.setattr(cls, "__call__", recording)
    return decoded


@pytest.mark.parametrize("name", ["dim1", "monomial"])
def test_a_coded_basis_is_validated_once_and_decodes_nothing(monkeypatch, name):
    theory, basis = _orbit_case(name)
    decoded = _recording_decodes(monkeypatch)
    validated = _recording(monkeypatch, type(theory), "validate_basis")
    coded = _recording(monkeypatch, type(theory), "validate_coded")
    assert engine.verify_lemma(basis, theory).passed
    assert validated == [] and coded == [(basis,)] and decoded == []


CODED_TABLE_CASES = [case for case, (_, basis) in TABLE_CASES.items()
                     if isinstance(basis, engine.CodedBasis)]


@pytest.mark.parametrize("case", CODED_TABLE_CASES)
def test_coded_and_listed_glue_tables_agree(case):
    """The kernels read a coded basis's arrays and a tuple's descriptors into
    the same arrays: the same forms and ids, square and rectangular."""
    theory, basis = TABLE_CASES[case]
    for rows, cols in ((basis, None), (basis[::-2], basis), (basis, basis[1::3])):
        listed = (tuple(rows), None if cols is None else tuple(cols))
        forms, ids = theory.glue_table(rows, cols)
        ref_forms, ref_ids = theory.glue_table(*listed)
        assert forms.codes.tolist() == ref_forms.codes.tolist()
        assert ids.dtype == ref_ids.dtype and (ids == ref_ids).all()


def test_gram_tensor_compares_coded_bases_by_their_arrays(monkeypatch):
    boundary = standard_boundary(3)
    theory = CountingDim1(boundary)
    first = engine.GramTensor(enumerate1(boundary, 1), theory)
    decoded = _recording_decodes(monkeypatch)
    again = engine.GramTensor(enumerate1(boundary, 1), theory)
    assert again.ids is first.ids and len(theory.calls) == 1 and decoded == []
    listed = engine.GramTensor(list(enumerate1(boundary, 1)), theory)
    assert listed.ids is not first.ids and (listed.ids == first.ids).all()
    assert len(theory.calls) == 2 and isinstance(theory.calls[1], tuple)


def _circle_table_case(columns):
    """A dim1 theory over one point and rows carrying 0 and 1 circles against
    columns carrying 0..columns-1: columns + 1 forms, each row of one chunk
    a different slice of them."""
    boundary = standard_boundary(1)
    return (Dim1Theory(boundary), [_matching(boundary, [0], c) for c in (0, 1)],
            [_matching(boundary, [0], c) for c in range(columns)])


@pytest.mark.parametrize("columns,dtype", [(254, np.uint8), (255, np.uint8), (256, np.uint16),
                                           (65_535, np.uint16), (65_536, np.uint32)])
def test_chunked_tables_widen_their_ids_past_each_dtype(monkeypatch, columns, dtype):
    monkeypatch.setattr(engine, "_CHUNK", 1)
    theory, rows, cols = _circle_table_case(columns)
    forms, ids = theory.glue_table(rows, cols)
    # glue(rows[r], cols[c]) has 1 + r + c circles: the form of id r + c.
    assert forms.codes.tolist() == list(range(1, columns + 2)) and ids.dtype == dtype
    assert ids.tolist() == [list(range(columns)), list(range(1, columns + 1))]
    assert forms[ids[1, -1]] == theory.glue(rows[1], cols[-1]) == Closed1Manifold(columns + 1)


@pytest.mark.parametrize("name", ["dim1", "monomial", "mazur", "scob"])
def test_tables_of_many_chunks_ascend_and_equal_glue(monkeypatch, name):
    """With 64-cell chunks every table of more than 64 cells spans several.
    The code kernels list their forms in ascending code order; the default
    table, which fourdim uses, does not chunk."""
    theory, basis = {"dim1": _dim1_case(4, 2), "monomial": _orbit_case("monomial"),
                     "mazur": (FOURD, list(MAZUR.labels)),
                     "scob": (build_scob_table(3), list(build_scob_table(3).labels))}[name]
    monkeypatch.setattr(engine, "_CHUNK", 64)
    for rows, cols in ((basis, None), (basis[::-3], basis)):
        forms, ids = theory.glue_table(rows, cols)
        cols = rows if cols is None else cols
        if isinstance(forms, engine.CodedForms):
            assert (forms.codes[1:] > forms.codes[:-1]).all()
        assert ids.dtype == np.min_scalar_type(max(len(forms) - 1, 0))
        assert [[forms[f] for f in row] for row in ids.tolist()] == [
            [theory.glue(a, b) for b in cols] for a in rows]


def _bounded_code_tables():
    """name -> (int64 code table, low, high) with every code in [low, high),
    seeded.  With 64-cell chunks every table but 3 x 7 and 0 x 5 spans
    several chunks and takes the mask path when given its bound."""
    rng = np.random.default_rng(20530)
    cases = {}
    for rows, cols in ((2, 40), (3, 7), (10, 7), (40, 3), (130, 1), (5, 64)):
        low = int(rng.integers(-2**40, 2**40))
        high = low + int(rng.integers(1, 4 * rows * cols + 1))
        table = rng.integers(low, high, size=(rows, cols))
        table.flat[0], table.flat[-1] = low, high - 1
        cases[f"random-{rows}x{cols}"] = (table, low, high)
    cases["all-equal"] = (np.full((9, 20), 7), 7, 8)
    for count in (256, 257):
        # count distinct codes, both ends of the bound among them.
        values = np.concatenate(([0, 599], rng.choice(np.arange(1, 599), count - 2,
                                                       replace=False))) + 10**12
        table = rng.permutation(np.resize(values, 400)).reshape(20, 20)
        cases[f"{count}-forms"] = (table, 10**12, 10**12 + 600)
    cases["no-rows"] = (np.zeros((0, 5), dtype=np.int64), 3, 3)
    cases["no-columns"] = (np.zeros((100, 0), dtype=np.int64), 3, 3)
    return cases


BOUNDED_CODE_TABLES = _bounded_code_tables()


def _recording_helpers(monkeypatch):
    """The ``table_from_codes`` helper each table of several chunks calls,
    "masked" or "merged", as a list."""
    taken = []
    for name in ("masked", "merged"):
        def helper(*args, _name=name, _helper=getattr(engine, f"_{name}_table")):
            taken.append(_name)
            return _helper(*args)
        monkeypatch.setattr(engine, f"_{name}_table", helper)
    return taken


def _recording_branches(monkeypatch):
    """The branch of every ``table_from_codes`` call that dim1 and monomial
    make, as a list of ((rows, cols), branch): "masked", "merged", or
    "one-chunk" when it calls neither helper."""
    branches, taken = [], _recording_helpers(monkeypatch)
    for module in (dim1, monomial):
        def recording(rows, cols, *args, _table=module.table_from_codes):
            taken.clear()
            result = _table(rows, cols, *args)
            branches.append(((rows, cols), taken[0] if taken else "one-chunk"))
            return result
        monkeypatch.setattr(module, "table_from_codes", recording)
    return branches


@pytest.mark.parametrize("case", BOUNDED_CODE_TABLES)
def test_masked_tables_equal_the_unique_tables(monkeypatch, case):
    """Ranked by a presence mask over their bound or by ``np.unique``, a
    table of bounded int64 codes has the same forms, ids and ids dtype: one
    ``np.unique`` of the whole table, with the narrowest unsigned ids.  A
    table of one chunk never asks for its bound."""
    table, low, high = BOUNDED_CODE_TABLES[case]
    monkeypatch.setattr(engine, "_CHUNK", 64)
    rows, cols = table.shape

    def codes(lo, hi):
        return table[lo:hi].reshape(-1)

    def bound():
        bounds.append((low, high))
        return low, high

    taken, bounds = _recording_helpers(monkeypatch), []
    masked, masked_ids = engine.table_from_codes(rows, cols, codes, int, bound)
    plain, plain_ids = engine.table_from_codes(rows, cols, codes, int)
    one_chunk = rows <= engine._chunk_rows(cols)
    assert taken == ([] if one_chunk else ["masked", "merged"])
    assert len(bounds) == (0 if one_chunk else 1)
    forms, inverse = np.unique(table, return_inverse=True)
    dtype = np.min_scalar_type(max(len(forms) - 1, 0))
    for result, ids in ((masked, masked_ids), (plain, plain_ids)):
        assert result.codes.dtype == np.int64 and result.codes.tolist() == forms.tolist()
        assert ids.dtype == dtype and ids.shape == table.shape
        assert ids.tolist() == inverse.reshape(table.shape).tolist()


@pytest.mark.parametrize("count,dtype", [(256, np.uint8), (257, np.uint16)])
def test_masked_tables_widen_their_ids_past_256_forms(count, dtype):
    table, low, high = BOUNDED_CODE_TABLES[f"{count}-forms"]
    forms, ids = engine._masked_table(20, 20, lambda lo, hi: table[lo:hi].reshape(-1),
                                      low, high)
    assert len(forms) == count and ids.dtype == dtype
    assert forms[0] == low and forms[-1] == high - 1


def test_a_span_past_the_mask_width_takes_the_merged_path(monkeypatch):
    """Four codes per cell of span are the widest the mask covers."""
    monkeypatch.setattr(engine, "_CHUNK", 64)
    table = np.arange(0, 2 * 130, 2).reshape(130, 1)
    taken = _recording_helpers(monkeypatch)
    for high in (4 * 130, 4 * 130 + 1):
        forms, ids = engine.table_from_codes(130, 1, lambda lo, hi: table[lo:hi].reshape(-1),
                                             int, lambda: (0, high))
        assert forms.codes.tolist() == table.ravel().tolist()
        assert ids.ravel().tolist() == list(range(130))
    assert taken == ["masked", "merged"]


def _path_cases():
    """name -> (run, the ((rows, cols), branch) of each table it builds)."""
    p4 = ("p1", "p2", "p3", "p4")
    d5, swap = standard_boundary(5), Involution(p4, (("p1", "p2"),))
    dim1_basis, monomial_basis = enumerate1(d5, 2), enumerate_monomials(p4, 6)

    def certify(theory, basis):
        rng = random.Random(len(basis))
        x = FormalSum((b, Scalar(rng.randint(1, 9), rng.randint(-9, 9)))
                      for b in rng.sample(list(basis), 12))
        engine.pair(x, x, theory)
        assert isinstance(engine.certify_positive(x, theory), engine.PositivityCertificate)

    cases = {
        f"verify-lemma-p1-p4-degree-6-{len(swaps)}-swaps": (
            lambda swaps=swaps: engine.verify_lemma(enumerate_monomials(p4, 6),
                                                    MonomialTheory(Involution(p4, swaps))),
            [((rows, 210), "masked")])
        for swaps, rows in (((), 27), ((("p1", "p2"),), 80),
                            ((("p1", "p2"), ("p3", "p4")), 43))}
    cases["verify-lemma-dim1-j8-max-closed-2"] = (
        lambda: engine.verify_lemma(enumerate1(standard_boundary(8), 2),
                                    Dim1Theory(standard_boundary(8))),
        [((3, 120_960), "masked")])
    cases["certify-dim1-12"] = (lambda: certify(Dim1Theory(d5), dim1_basis),
                                [((12, 12), "one-chunk")])
    cases["certify-monomial-12"] = (lambda: certify(MonomialTheory(swap), monomial_basis),
                                    [((12, 12), "one-chunk")])
    cases["null-search-dim1-j3"] = (
        lambda: engine.null_search(enumerate1(standard_boundary(3)), [0, 1],
                                   Dim1Theory(standard_boundary(3))),
        [((6, 6), "one-chunk")])
    return cases


PATH_CASES = _path_cases()


@pytest.mark.parametrize("case", PATH_CASES)
def test_each_workload_table_keeps_its_branch(monkeypatch, case):
    """The degree-6 orbit-row tables and the dim1 j = 8 rows rank by the
    presence mask; certify-size and null-search tables stay in one chunk."""
    run, expected = PATH_CASES[case]
    branches = _recording_branches(monkeypatch)
    run()
    assert branches == expected


@pytest.mark.parametrize("name", ["dim1", "dim2", "mazur"])
def test_ranks_call_complexity_once_per_form(monkeypatch, name):
    theory, basis = _agreement_case(name)
    calls, complexity = [], type(theory).complexity

    def counting(self, closed):
        calls.append(closed)
        return complexity(self, closed)

    monkeypatch.setattr(type(theory), "complexity", counting)
    table = engine.GramTensor(basis, theory)
    assert calls == []
    ranks = table.ranks
    assert calls == list(table.forms)
    assert ranks.tolist() == engine.dense_ranks([complexity(theory, c)
                                                 for c in table.forms]).tolist()


def test_dense_ranks_need_only_an_order():
    class Opaque:  # ordered but not hashable
        __hash__ = None

        def __init__(self, v):
            self.v = v

        def __lt__(self, other):
            return self.v < other.v

    ranks = engine.dense_ranks([Opaque(v) for v in (5, 1, 5, 3, 1)])
    assert ranks.tolist() == [2, 0, 2, 1, 0]
    assert engine.dense_ranks([]).tolist() == []


def test_dominance_failures_match_a_pairwise_loop(monkeypatch):
    # Parity of the circle count fails about half the pairs; 120 rows span
    # several chunks of the numpy comparison.
    monkeypatch.setattr(Dim1Theory, "complexity", lambda self, c: c.circles % 2)
    theory, basis = _dim1_case(5, 0)
    table = engine.GramTensor(basis, theory)
    rank = table.ranks[table.ids].tolist()
    expected = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))
                if rank[i][j] >= max(rank[i][i], rank[j][j])]
    assert len(basis) > engine._chunk_rows(len(basis))
    assert expected and list(engine._dominance_failures(table)) == expected


def gram_matrix(gram, closed):
    """The 0/1 Gram matrix of one closed form, as nested lists."""
    return (gram.ids == gram.forms.index(closed)).astype(int).tolist()


def test_gram_tensor_dim1():
    gram = engine.GramTensor(BASIS2, D1)
    two, one = D1.glue(BASIS2[0], BASIS2[0]), D1.glue(BASIS2[0], BASIS2[1])
    assert gram_matrix(gram, two) == [[1, 0], [0, 1]]
    assert gram_matrix(gram, one) == [[0, 1], [1, 0]]


def test_gram_tensor_fourdim_and_singleton():
    gram = engine.GramTensor(list(MAZUR.labels), FOURD)
    assert gram_matrix(gram, "S4") == [[1, 1], [1, 1]]
    single = engine.GramTensor([BASIS2[0]], D1)
    assert gram_matrix(single, D1.glue(BASIS2[0], BASIS2[0])) == [[1]]


def test_gram_transpose_is_the_reversed_form():
    theory = MonomialTheory(KNOT)
    basis = enumerate_monomials(KNOT.alphabet, 2)
    gram = engine.GramTensor(basis, theory)
    for closed in gram.forms:
        matrix = gram_matrix(gram, closed)
        transposed = [list(row) for row in zip(*matrix)]
        assert transposed == gram_matrix(gram, theory.reverse(closed))


def test_gram_reproduces_the_pairing():
    rng = random.Random(515)
    boundary = standard_boundary(3)
    basis = enumerate1(boundary, 0)
    theory = Dim1Theory(boundary)
    gram = engine.GramTensor(basis, theory)
    for _ in range(30):
        coeffs = [Scalar(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in basis]
        x = FormalSum(zip(basis, coeffs))
        squared = loop_pair(x, x, theory)
        for closed in gram.forms:
            cells = np.argwhere(np.array(gram_matrix(gram, closed)) == 1).tolist()
            assert squared.coefficient(closed) == \
                sum((coeffs[i] * coeffs[j].conj() for i, j in cells), ZERO)


def _agreement_case(name):
    """(theory, basis) of one theory for the pairing agreement tests."""
    if name == "dim1":
        boundary = standard_boundary(3)
        return Dim1Theory(boundary), enumerate1(boundary, 1)
    if name == "dim2":
        return Dim2Theory(2), enumerate2(2, 1, 1)
    if name == "monomial":
        sigma = Involution(("p1", "p2", "p3", "p4"), swaps=(("p1", "p2"),))
        return MonomialTheory(sigma), enumerate_monomials(sigma.alphabet, 3)
    if name == "knot":
        return MonomialTheory(KNOT), enumerate_monomials(KNOT.alphabet, 4)
    table = MAZUR if name == "mazur" else build_scob_table(2)
    return table, list(table.labels)


def _gaussian_rational(rng, denominator):
    return Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, denominator)),
                  Fraction(rng.randint(-9, 9), rng.randint(1, denominator)))


@pytest.mark.parametrize("name", ["dim1", "dim2", "monomial", "knot", "mazur", "scob"])
def test_pair_agrees_with_the_loop_oracle(name):
    theory, basis = _agreement_case(name)
    rng = random.Random(f"pair-{name}")
    zero = FormalSum.zero()
    # Denominators past 2**64 make the scaled products hundreds of bits wide.
    for denominator in (6, 2**64 + 13, 2**70):
        for _ in range(8):
            k = rng.randint(1, min(6, len(basis) // 2))
            picked = rng.sample(basis, 2 * k)

            def vector(support):
                return FormalSum((d, _gaussian_rational(rng, denominator)) for d in support)

            x, disjoint = vector(picked[:k]), vector(picked[k:])
            overlap = vector(picked[k // 2:k + (k + 1) // 2])
            assert not x.is_zero() and not disjoint.is_zero()
            for left, right in ((x, x), (x, FormalSum(x.items())), (x, disjoint),
                                (disjoint, x), (x, overlap), (overlap, x),
                                (x, zero), (zero, x), (zero, zero)):
                assert engine.pair(left, right, theory).to_json() == \
                    loop_pair(left, right, theory).to_json()


@pytest.mark.parametrize("name", ["dim1", "dim2", "monomial", "knot", "mazur", "scob"])
def test_pair_builds_its_result_canonical_without_the_checked_constructor(
        monkeypatch, name):
    """pair's result comes from the table's distinct forms: no
    ``FormalSum.__init__``, keys ascending and each the key of its form."""
    theory, basis = _agreement_case(name)
    rng = random.Random(f"pair-canonical-{name}")
    init = FormalSum.__init__
    calls = []

    def counting(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    for _ in range(10):
        k = rng.randint(1, min(6, len(basis) // 2))
        picked = rng.sample(basis, 2 * k)
        x = FormalSum((d, _gaussian_rational(rng, 6)) for d in picked[:k])
        y = FormalSum((d, _gaussian_rational(rng, 6)) for d in picked[k // 2:k + k // 2 + 1])
        for left, right in ((x, x), (x, y)):
            expected = loop_pair(left, right, theory)
            monkeypatch.setattr(FormalSum, "__init__", counting)
            result = engine.pair(left, right, theory)
            monkeypatch.setattr(FormalSum, "__init__", init)
            assert not calls
            keys = result.keys()
            assert all(a < b for a, b in zip(keys, keys[1:]))
            assert list(keys) == [canonical_key(c) for c in result.support()]
            assert result.to_json() == expected.to_json() and result == expected
            for closed in {*result.support(), *expected.support()}:
                assert result.coefficient(closed) == expected.coefficient(closed)


@pytest.mark.parametrize("n,cells", [(1, 1), (3, 9), (12, 144)])
def test_dim2_pair_of_disjoint_supports_glues_only_their_product(monkeypatch, n, cells):
    """pair(x, y) glues supp x by supp y; pair(x, x) then certify(x) glue the
    upper triangle of supp x once between them."""
    rng = random.Random(f"dim2-disjoint-{n}")
    picked = rng.sample(enumerate2(2, 2, 1), 2 * n)
    x, y = (FormalSum((d, Scalar(rng.randint(1, 9), rng.randint(-9, 9))) for d in side)
            for side in (picked[:n], picked[n:]))
    expected = loop_pair(x, y, Dim2Theory(2)), loop_pair(x, x, Dim2Theory(2))
    glued = []
    glue = Dim2Theory.glue
    monkeypatch.setattr(Dim2Theory, "glue", lambda self, a, b: glued.append(1) or glue(self, a, b))
    assert engine.pair(x, y, Dim2Theory(2)) == expected[0]
    assert len(glued) == cells
    glued.clear()
    theory = Dim2Theory(2)
    assert engine.pair(x, x, theory) == expected[1]
    assert isinstance(engine.certify_positive(x, theory), engine.PositivityCertificate)
    assert len(glued) == n * (n + 1) // 2


def test_pair_drops_forms_that_cancel():
    two, one = D1.glue(BASIS2[0], BASIS2[0]), D1.glue(BASIS2[0], BASIS2[1])
    # The one-circle terms are (1/3)(2i/5) + (2/3)(-i/5) = 0.
    x = vec(BASIS2, Fraction(1, 3), Fraction(2, 3))
    y = vec(BASIS2, Scalar(0, Fraction(1, 5)), Scalar(0, Fraction(-2, 5)))
    for left, right in ((x, y), (y, x)):
        result = engine.pair(left, right, D1)
        assert result == loop_pair(left, right, D1)
        assert result.coefficient(one) == ZERO and len(result) == 1
    assert engine.pair(x, y, D1).coefficient(two) == Scalar(0, Fraction(1, 5))
    assert engine.pair(vec(BASIS2, 1, 1), vec(BASIS2, 1, -1), D1).is_zero()
    difference = FormalSum([("M", 1), ("M'", -1)])
    other = FormalSum([("M", Scalar(2, 3)), ("M'", Fraction(1, 7))])
    for left, right in ((difference, other), (other, difference)):
        assert engine.pair(left, right, FOURD).is_zero()
        assert loop_pair(left, right, FOURD).is_zero()


@dataclass(frozen=True)
class CountingDim1(Dim1Theory):
    """A dim1 theory that records the rows (and columns, when given) of each
    ``glue_table`` call."""

    calls: list = field(default_factory=list, compare=False, repr=False)

    def glue_table(self, rows, cols=None):
        self.calls.append(rows if cols is None else (rows, cols))
        return super().glue_table(rows, cols)


def _dim1_vectors(theory, seed, count):
    """``count`` seeded vectors on supports of 1 to 5 matchings, j = 3."""
    rng = random.Random(seed)
    basis = enumerate1(theory.boundary, 1)
    return [FormalSum((d, _gaussian_rational(rng, 6))
                      for d in rng.sample(basis, rng.randint(1, 5))) for _ in range(count)]


def test_gram_tensor_ids_are_read_only():
    table = engine.GramTensor(BASIS2, D1)
    with pytest.raises(ValueError):
        table.ids[0, 0] = 0


def test_pair_then_certify_glues_the_support_once():
    theory = CountingDim1(standard_boundary(3))
    fresh = Dim1Theory(standard_boundary(3))
    for x in _dim1_vectors(theory, 71, 10):
        theory.calls.clear()
        squared = engine.pair(x, x, theory)
        cert = engine.certify_positive(x, theory)
        assert theory.calls == [x.support()]
        assert squared == engine.pair(x, x, fresh)
        assert cert.to_json() == engine.certify_positive(x, fresh).to_json()


def test_gram_tensor_rebuilds_for_another_theory_object_or_basis():
    boundary = standard_boundary(3)
    first, second = CountingDim1(boundary), CountingDim1(boundary)
    assert first == second and first is not second
    basis = tuple(enumerate1(boundary, 0))
    engine.GramTensor(basis, first)
    engine.GramTensor(list(basis), first)
    assert first.calls == [basis]
    engine.GramTensor(basis, second)
    assert second.calls == [basis]
    engine.GramTensor(basis[:3], second)
    engine.GramTensor(basis, second)
    assert second.calls == [basis, basis[:3], basis] and first.calls == [basis]
    # A rectangular table is never served as a square one, even with every row.
    second.calls.clear()
    rect = engine.GramTensor(basis, second, rows=basis)
    engine.GramTensor(basis, second, rows=list(basis))
    square = engine.GramTensor(basis, second)
    engine.GramTensor(basis, second, rows=basis[:2])
    assert second.calls == [(basis, basis), basis, (basis[:2], basis)]
    assert rect.rows == square.rows == basis
    assert [rect.forms[f] for f in rect.ids.flat] == [square.forms[f] for f in square.ids.flat]


def test_pair_of_two_vectors_after_a_square_matches_a_fresh_theory():
    theory = CountingDim1(standard_boundary(3))
    xs = _dim1_vectors(theory, 72, 12)
    for x, y in zip(xs, xs[1:]):
        engine.pair(x, x, theory)
        assert engine.pair(x, y, theory) == \
            engine.pair(x, y, Dim1Theory(standard_boundary(3)))


def test_complexity_patched_between_builds_is_honored(monkeypatch):
    theory, basis = _dim1_case(3, 1)
    assert engine.verify_lemma(basis, theory).passed
    # Built after verify_lemma, whose orbit rows are a table of their own.
    before = engine.GramTensor(basis, theory)
    monkeypatch.setattr(Dim1Theory, "complexity", lambda self, c: c.circles % 2)
    after = engine.GramTensor(basis, theory)
    assert after.ids is before.ids
    assert after.ranks.tolist() == [c.circles % 2 for c in after.forms]
    assert not engine.verify_lemma(basis, theory).passed


@pytest.mark.parametrize("name", ["dim1", "dim2", "monomial", "mazur"])
def test_reused_tables_equal_fresh_ones(name):
    theory, basis = _agreement_case(name)
    rng = random.Random(f"memo-{name}")
    for _ in range(10):
        x = FormalSum((d, _gaussian_rational(rng, 6))
                      for d in rng.sample(basis, rng.randint(1, min(6, len(basis)))))
        if x.is_zero():
            continue
        engine.pair(x, x, theory)
        last = engine.GramTensor._last
        table = engine.GramTensor(x.support(), theory)
        assert table.ids is last[3]
        forms, ids = theory.glue_table(table.basis)
        assert table.forms == forms and (table.ids == ids).all()
        assert table.ids.dtype == ids.dtype


def test_gram_tensor_keeps_only_the_last_table():
    theory = Dim1Theory(standard_boundary(3))
    basis = enumerate1(theory.boundary, 0)
    first = engine.GramTensor(basis, theory)
    freed = weakref.ref(first.ids)
    second = engine.GramTensor(basis[:2], theory)
    del first
    gc.collect()
    assert freed() is None and second.ids.shape == (2, 2)


def _counting_sums(monkeypatch):
    """Patch engine._hermitian_sums with a wrapper; returns its call list."""
    calls, sums = [], engine._hermitian_sums

    def counted(count, ids, a, b):
        calls.append((list(a), list(b)))
        return sums(count, ids, a, b)

    monkeypatch.setattr(engine, "_hermitian_sums", counted)
    return calls


@pytest.mark.parametrize("name", ["dim1", "dim2", "monomial", "knot"])
def test_certify_after_pair_sums_the_table_once(monkeypatch, name):
    theory, basis = _agreement_case(name)
    x = FormalSum((d, _gaussian_rational(random.Random(name), 6))
                  for d in basis[:min(5, len(basis))])
    calls = _counting_sums(monkeypatch)
    squared = engine.pair(x, x, theory)
    cert = engine.certify_positive(x, theory)
    assert len(calls) == 1
    assert isinstance(cert, engine.PositivityCertificate)
    # Pairing again reads the kept sums too; a new table sums afresh.
    assert engine.pair(x, x, theory) == squared and len(calls) == 1
    engine.GramTensor(basis[:1], theory)
    assert engine.certify_positive(x, theory) == cert and len(calls) == 2


def _fresh_theory(theory):
    """An equal theory object that no kept table belongs to."""
    return type(theory)(*(getattr(theory, f) for f in theory.__dataclass_fields__))


@pytest.mark.parametrize("name", ["dim1", "dim2", "monomial", "knot"])
def test_kept_sums_are_never_served_to_other_coefficients(monkeypatch, name):
    """certify_positive(y), y on the support of x with other coefficients,
    after pair(x, x), pair(x, y) and a rectangular pair(wide, y), sums y
    itself and equals the certificate of a fresh theory object."""
    theory, basis = _agreement_case(name)
    rng = random.Random(f"kept-{name}")
    support = rng.sample(basis, min(4, len(basis)))
    other = rng.sample([d for d in basis if d not in support], min(2, len(basis) - 4))
    calls = _counting_sums(monkeypatch)
    for _ in range(6):
        x = FormalSum((d, _gaussian_rational(rng, 6)) for d in support)
        y = FormalSum((d, _gaussian_rational(rng, 6)) for d in support)
        wide = FormalSum((d, _gaussian_rational(rng, 6)) for d in support + other)
        if x == y or len(x) != len(support) or len(y) != len(support):
            continue
        y_coeffs = [c for _, c in y.items()]
        for before in (lambda: engine.pair(x, x, theory),
                       lambda: engine.pair(x, y, theory),
                       lambda: engine.pair(wide, y, theory)):
            before()
            calls.clear()
            cert = engine.certify_positive(y, theory)
            assert calls == [(y_coeffs, y_coeffs)]
            assert cert == engine.certify_positive(y, _fresh_theory(theory))
            assert engine.pair(y, y, theory) == engine.pair(y, y, _fresh_theory(theory))


def test_null_search_finds_the_fourdim_vector():
    result = engine.null_search(list(MAZUR.labels), engine.PM_ONE_GRID, FOURD)
    assert result.vector == FormalSum([("M", 1), ("M'", -1)])
    assert result.vector.coefficient("M") == ONE


def test_null_search_negative_on_dim1():
    result = engine.null_search(BASIS2, engine.PM_ONE_GRID, D1)
    assert result.vector is None
    assert result.assignments_tested == 9


def test_null_search_empty_basis():
    assert engine.null_search([], engine.PM_ONE_GRID, D1).vector is None


def test_null_search_validates_the_grid():
    with pytest.raises(ValueError):
        engine.null_search(BASIS2, [ONE], D1)
    with pytest.raises(ValueError):
        engine.null_search(BASIS2, [ZERO], D1)


def test_null_search_covers_rays_without_a_lead_representative():
    # On {0, 1, 2, -2} the only null assignments for a constant table are
    # (2, -2) and (-2, 2); neither rescales to lead coefficient 1 inside the
    # grid, so canonicalization must not skip them.
    grid = [Scalar(-2, 0), ZERO, ONE, Scalar(2, 0)]
    result = engine.null_search(list(MAZUR.labels), grid, FOURD)
    assert result.vector == FormalSum([("M", -2), ("M'", 2)])


def test_scalar_division_supports_the_ray_check():
    assert Scalar(1, 1) / Scalar(2, 0) == Scalar(Fraction(1, 2), Fraction(1, 2))
    assert (I * I.inverse()) == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_null_hit_past_the_first_block(monkeypatch):
    """The hit's digits and both counts come back right with blocks of 1
    and 3 prefixes, where the hit's prefix lies past the first block."""
    labels = [f"L{k}" for k in range(5)] + ["M", "M'"]
    closed = {label: "M" if label == "M'" else label for label in labels}
    names = {(a, b): "+".join(sorted((closed[a], closed[b])))
             for a in labels for b in labels}
    theory = FourDimTheory(labels, names, {name: name for name in names.values()})
    scanned = integer_null_scan(labels, engine.PM_ONE_GRID, theory)
    assert scanned.vector == FormalSum([("M", 1), ("M'", -1)])
    assert (scanned.assignments_tested, scanned.assignments_skipped) == (1096, 1094)
    for block in (1024, 3, 1):
        monkeypatch.setattr(engine, "_BLOCK", block)
        assert engine.null_search(labels, engine.PM_ONE_GRID, theory) == scanned


def test_gaussian_grid_contents():
    grid = engine.gaussian_integer_grid(2)
    assert len(grid) == 13
    assert ZERO in grid and ONE in grid
    assert Scalar(1, 1) in grid and Scalar(2, 0) in grid
    assert Scalar(2, 1) not in grid


NULL_CASES = {
    **{f"dim1-j{j}-mc{mc}": _dim1_case(j, mc) for j in range(4) for mc in (0, 1)},
    "dim2-j1": (Dim2Theory(1), enumerate2(1, 1, 0)),
    "dim2-j2": (Dim2Theory(2), enumerate2(2, 1, 0)),
    "mazur": (FOURD, list(MAZUR.labels)),
    "scob2": (build_scob_table(2), ["M", "M'"]),
    "constant4": (_constant_table(("A", "B", "M", "M'"), "S4"),
                  ["A", "B", "M", "M'"]),
}
NULL_GRIDS = {
    "pm1": engine.PM_ONE_GRID,
    "gauss1": engine.gaussian_integer_grid(1),
    "gauss2": engine.gaussian_integer_grid(2),
    "m2-0-1-2": (Scalar(-2, 0), ZERO, ONE, Scalar(2, 0)),
    "rational": (ZERO, ONE, Scalar(Fraction(1, 2), Fraction(-1, 3)),
                 Scalar(Fraction(-2, 3), 0), Scalar(0, Fraction(1, 2))),
    # Scaled by 3**20, its entries overflow int64 and take the object path.
    "huge": (ZERO, ONE, -ONE, Scalar(Fraction(1, 3**20), 0)),
}
# The oracle spends up to about 0.7 ms per assignment; larger grids are
# checked by the kernel alone (criterion 6 in the acceptance sweep).
ORACLE_BUDGET = 2000


@pytest.mark.parametrize("case,grid", [
    (case, grid) for case, (_, basis) in NULL_CASES.items()
    for grid, values in NULL_GRIDS.items()
    if len(values) ** len(basis) <= ORACLE_BUDGET])
def test_null_kernel_agrees_with_fraction_oracle(case, grid):
    theory, basis = NULL_CASES[case]
    kernel = engine.null_search(basis, NULL_GRIDS[grid], theory)
    oracle = fraction_null_search(basis, NULL_GRIDS[grid], theory)
    assert kernel == oracle
    assert kernel.to_json() == oracle.to_json()


@pytest.mark.parametrize("theory,basis,grid", [
    (*_dim1_case(3, 0), "gauss1"),
    (*NULL_CASES["dim2-j1"], "gauss1"),
    (MonomialTheory(Involution(("a", "b"))), enumerate_monomials(("a", "b"), 2), "pm1"),
    (FOURD, list(MAZUR.labels), "pm1"),
], ids=["dim1", "dim2", "monomial", "mazur"])
def test_null_search_never_calls_complexity(theory, basis, grid, monkeypatch):
    """A null vector and the pairing depend on gluing alone, not on complexity."""
    x = FormalSum((b, (ONE, -ONE, I)[k % 3]) for k, b in enumerate(basis))
    y = FormalSum((b, (I, ONE)[k % 2]) for k, b in enumerate(reversed(basis)))
    expected = (engine.null_search(basis, NULL_GRIDS[grid], theory),
                engine.pair(x, x, theory), engine.pair(x, y, theory))

    def refuse(self, closed):
        raise AssertionError("complexity was called")

    monkeypatch.setattr(type(theory), "complexity", refuse)
    assert (engine.null_search(basis, NULL_GRIDS[grid], theory),
            engine.pair(x, x, theory), engine.pair(x, y, theory)) == expected


def test_null_kernel_ray_rule_matches_scalar_division():
    """``keep``, worked out in Gaussian integers, is the ray rule in Scalar
    arithmetic: every value for the lead, else whether lead / f * c leaves
    the grid; on the fixed grids and 30 seeded random ones."""
    rng = random.Random(11)
    table = engine.GramTensor(list(MAZUR.labels), FOURD)
    for values in [*NULL_GRIDS.values(), *(_random_grid(rng) for _ in range(30))]:
        grid = engine._canonical_grid(values)
        lead = ONE if ONE in grid else next(c for c in grid if not c.is_zero())
        expected = [[f == lead or (not f.is_zero() and lead / f * c not in grid)
                     for c in grid] for f in grid]
        assert engine._null_kernel(table, grid).keep.tolist() == expected


def test_null_kernel_falls_back_to_python_ints():
    labels = list(MAZUR.labels)
    table = engine.GramTensor(labels, FOURD)
    assert engine._null_kernel(table, NULL_GRIDS["gauss2"]).re.dtype == np.int64
    # Group size 4 times the largest entry, 1.69e18, stays below 2**63.
    big = engine._canonical_grid((0, 1_300_000_000, -1_300_000_000))
    assert engine._null_kernel(table, big).re.dtype == np.int64
    result = engine.null_search(labels, big, FOURD)
    assert result == fraction_null_search(labels, big, FOURD)
    assert result.vector == FormalSum([("M", -1_300_000_000), ("M'", 1_300_000_000)])
    huge = engine._canonical_grid(NULL_GRIDS["huge"])
    assert engine._null_kernel(table, huge).re.dtype == object
    result = engine.null_search(labels, huge, FOURD)
    assert result.vector == FormalSum([("M", 1), ("M'", -1)])


def _random_grid(rng):
    """0 and two to five more Gaussian rationals with small parts."""
    parts = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(10)]
    return (ZERO, *(Scalar(parts[2 * k], parts[2 * k + 1]) for k in range(rng.randint(2, 5))))


def _planted_table(rng, size):
    """A random symmetric label table on ``size`` labels whose last two rows
    coincide (so L{size-2} - L{size-1} is null), or, one time in four, none."""
    labels = [f"L{k}" for k in range(size)]
    names = [f"N{k}" for k in range(rng.randint(2, size * size))]
    table = {}
    for a in range(size):
        for b in range(a, size):
            table[labels[a], labels[b]] = table[labels[b], labels[a]] = rng.choice(names)
    if rng.random() < 0.75:
        p, q = labels[-2], labels[-1]
        for x in labels:
            table[q, x] = table[x, q] = table[p, x if x != q else p]
    return FourDimTheory(labels, table, {name: name for name in names}), labels


WALK_CASES = {
    **NULL_CASES,
    "monomial-ab": (MonomialTheory(Involution(("a", "b"))),
                    enumerate_monomials(("a", "b"), 2)),
    "monomial-abc-swap": (MonomialTheory(Involution(("a", "b", "c"), swaps=(("a", "b"),))),
                          enumerate_monomials(("a", "b", "c"), 2)),
    **{f"fourdim-seed{seed}": _planted_table(random.Random(seed), 3 + seed % 6)
       for seed in range(12)},
}
# Assignments per case the brute-force scan may take, about 0.2 s; with
# blocks of 1 and 3 prefixes, the walk of every coordinate may take a few ms.
SCAN_BUDGET = 600_000
DEEP_BUDGET = 5_000


@pytest.mark.parametrize("case", sorted(WALK_CASES))
def test_null_walk_agrees_with_the_full_scan(case, monkeypatch):
    """The pruned search reports what a scan of every assignment does: the
    same hit, assignments_tested and assignments_skipped, on fixed and
    seeded grids; small grids again with blocks of 1 and 3 prefixes, so
    that a hit's prefix sits in a later block at nearly every coordinate."""
    theory, basis = WALK_CASES[case]
    rng = random.Random(case)
    grids = [*NULL_GRIDS.values(), _random_grid(rng), _random_grid(rng)]
    scanned = {}
    for grid in grids:
        if len(set(grid)) ** len(basis) <= SCAN_BUDGET:
            scanned[grid] = integer_null_scan(basis, grid, theory)
            walked = engine.null_search(basis, grid, theory)
            assert walked == scanned[grid]
            assert walked.to_json() == scanned[grid].to_json()
    assert scanned
    for block in (1, 3):
        monkeypatch.setattr(engine, "_BLOCK", block)
        for grid, expected in scanned.items():
            if len(set(grid)) ** len(basis) <= DEEP_BUDGET:
                walked = engine.null_search(basis, grid, theory)
                assert walked == expected and walked.to_json() == expected.to_json()


def test_null_walk_agrees_on_random_tables():
    """200 seeded random label tables of 2 to 6 labels, most with a planted
    null vector, on three grids: the walk reports what the full scan does,
    and what the Fraction oracle does where it is affordable."""
    rng = random.Random(20050303)
    grids = [NULL_GRIDS["pm1"], NULL_GRIDS["gauss1"], NULL_GRIDS["rational"]]
    found = 0
    for k in range(200):
        theory, labels = _planted_table(rng, rng.randint(2, 6))
        grid = grids[k % 3] if len(grids[k % 3]) ** len(labels) <= 5**5 else grids[0]
        walked = engine.null_search(labels, grid, theory)
        assert walked == integer_null_scan(labels, grid, theory)
        if len(grid) ** len(labels) <= 30:
            assert walked == fraction_null_search(labels, grid, theory)
        found += walked.vector is not None
    assert 50 < found < 200


def test_null_walk_prunes_far_below_the_grid(monkeypatch):
    """dim1 j = 4 on gauss1: of 5**24 assignments the walk keeps one live
    prefix per coordinate, the all-zero one, so it tries 5 * 24 children."""
    levels = []

    class Recorded(engine._Level):
        def __init__(self, *args):
            super().__init__(*args)
            levels.append((self.k, self.at.tolist()))

    monkeypatch.setattr(engine, "_Level", Recorded)
    theory, basis = _dim1_case(4, 0)
    result = engine.null_search(basis, NULL_GRIDS["gauss1"], theory)
    zero = NULL_GRIDS["gauss1"].index(ZERO)
    assert levels == [(k, [zero]) for k in range(23)]
    assert result.vector is None
    assert result.assignments_tested == 5**24


def _brute_ray_skips(grid, n):
    """Assignments of n coordinates that the ray rule skips, one at a time."""
    grid = engine._canonical_grid(grid)
    lead = ONE if ONE in grid else next(c for c in grid if not c.is_zero())
    on_grid = frozenset(grid)
    return sum(not _is_canonical_nonzero(coeffs, lead, on_grid)
               for coeffs in itertools.product(grid, repeat=n))


def _closed_form_ray_skips(grid, n):
    """The same count in closed form: the all-zero assignment, plus, for each
    first nonzero position t and value f other than the lead, the s_f**(n-1-t)
    completions that rescale by lead / f onto the grid."""
    grid = engine._canonical_grid(grid)
    lead = ONE if ONE in grid else next(c for c in grid if not c.is_zero())
    on_grid = frozenset(grid)
    skips = 1
    for f in grid:
        if not f.is_zero() and f != lead:
            spare = sum(lead / f * c in on_grid for c in grid)
            skips += sum(spare ** (n - 1 - t) for t in range(n))
    return skips


@pytest.mark.parametrize("grid", ["pm1", "gauss1", "m2-0-1-2", "rational"])
def test_null_none_skips_every_off_ray_assignment(grid):
    """A "none" search skips exactly the assignments the ray rule skips, a
    count of the grid and n alone: checked one assignment at a time for
    n <= 4 on label tables with no null vector, and in closed form at n = 24
    on dim1 j = 4."""
    values = NULL_GRIDS[grid]
    for n in range(1, 5):
        labels = [f"L{k}" for k in range(n)]
        theory = FourDimTheory(labels, {(a, b): "+".join(sorted((a, b)))
                                        for a in labels for b in labels},
                               {"+".join(sorted((a, b))): "+".join(sorted((a, b)))
                                for a in labels for b in labels})
        result = engine.null_search(labels, values, theory)
        assert result.vector is None
        assert result.assignments_skipped == _brute_ray_skips(values, n)
        assert _closed_form_ray_skips(values, n) == _brute_ray_skips(values, n)
    if grid == "gauss1":
        theory, basis = _dim1_case(4, 0)
        result = engine.null_search(basis, values, theory)
        assert result.vector is None
        assert result.assignments_skipped == _closed_form_ray_skips(values, 24)


def test_null_hit_past_int64():
    """43 labels on pm1: the hit, M - M', is assignment 1.64e20, past 2**63."""
    labels = [f"L{k}" for k in range(41)] + ["M", "M'"]
    closed = {label: "M" if label == "M'" else label for label in labels}
    names = {(a, b): "+".join(sorted((closed[a], closed[b])))
             for a in labels for b in labels}
    theory = FourDimTheory(labels, names, {name: name for name in names.values()})
    result = engine.null_search(labels, engine.PM_ONE_GRID, theory)
    assert result.vector == FormalSum([("M", 1), ("M'", -1)])
    # Digits on (-1, 0, 1): every L at 0, M at 1 and M' at -1.
    index = 0
    for digit in [1] * 41 + [2, 0]:
        index = index * 3 + digit
    assert result.assignments_tested == index + 1 > 2**63
    # Before it, only (0, ..., 0, 1) has the lead 1 as its first nonzero value.
    assert result.assignments_skipped == index - 1
