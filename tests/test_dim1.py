"""Bounded and closed 1-manifolds: gluing, complexity, enumeration."""

import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import arc_walk_circles, loop_lemma

import umpair
from umpair import dim1, engine
from umpair.algebra import FormalSum, UniverseMismatchError, canonical_key
from umpair.dim1 import (Boundary0, Bounded1Manifold, Closed1Manifold,
                         Dim1Theory, complexity1, enumerate1, glue1,
                         points_to_monomial0, standard_boundary,
                         zero_dim_involution)
from umpair.monomial import Monomial, mono_conj


def matching_of(boundary, mapping, closed=0):
    """The bounded 1-manifold sending each positive label p to mapping[p]."""
    return Bounded1Manifold.from_json({"dim": 1, "boundary": boundary.to_json(),
                                       "matching": mapping, "closed_circles": closed})


def test_glue_identity_with_itself_gives_one_circle_per_pair():
    b = standard_boundary(2)
    m = matching_of(b, {"p1": "n1", "p2": "n2"})
    assert glue1(m, m) == Closed1Manifold(2)


def test_glue_identity_with_swap_gives_one_circle():
    b = standard_boundary(2)
    identity = matching_of(b, {"p1": "n1", "p2": "n2"})
    swap = matching_of(b, {"p1": "n2", "p2": "n1"})
    # Derived by walking the arcs end to end; the arc-walk oracle agrees.
    assert glue1(identity, swap) == Closed1Manifold(1)
    assert arc_walk_circles(identity, swap) == 1


def test_glue_carries_closed_circles():
    b = standard_boundary(1)
    m = matching_of(b, {"p1": "n1"}, closed=1)
    n = matching_of(b, {"p1": "n1"}, closed=2)
    assert glue1(m, n) == Closed1Manifold(4)


def test_complexity_is_component_count():
    assert complexity1(Closed1Manifold(2)) == 2
    assert complexity1(Closed1Manifold(0)) == 0
    assert complexity1(Closed1Manifold(5)) == 5


def test_enumerate_counts():
    assert len(enumerate1(standard_boundary(2), 0)) == 2
    assert len(enumerate1(standard_boundary(3), 1)) == 12
    assert len(enumerate1(standard_boundary(1), 0)) == 1


def test_enumerate_is_deterministic_and_duplicate_free():
    basis = enumerate1(standard_boundary(3), 1)
    assert basis == enumerate1(standard_boundary(3), 1)
    assert len(set(basis)) == len(basis)


@pytest.mark.parametrize("j", range(6))
def test_enumerate1_equals_a_checked_rebuild(j):
    # enumerate1 builds its elements without the checked constructor.
    basis = enumerate1(standard_boundary(j), 2)
    for fast in basis:
        checked = Bounded1Manifold(fast.boundary, fast.targets, fast.closed_circles)
        assert fast == checked and hash(fast) == hash(checked)
        assert fast.to_json() == checked.to_json()
        assert canonical_key(fast) == canonical_key(checked)


@pytest.mark.parametrize("j,max_closed", [(j, m) for j in range(5) for m in range(3)])
def test_enumerate1_keeps_the_label_order(j, max_closed):
    """The order and JSON of a basis built from the negative labels: violation
    order is part of every report."""
    boundary = standard_boundary(j)
    basis = enumerate1(boundary, max_closed)
    expected = [{"dim": 1, "boundary": boundary.to_json(),
                 "matching": dict(zip(boundary.pos, negs)), "closed_circles": closed}
                for negs in itertools.permutations(boundary.neg)
                for closed in range(max_closed + 1)]
    assert [json.dumps(b.to_json()) for b in basis] == list(map(json.dumps, expected))
    assert [Bounded1Manifold.from_json(e) for e in expected] == basis
    assert all(Bounded1Manifold.from_json(b.to_json()) == b for b in basis)


def test_a_basis_too_large_to_index_names_j_and_its_size():
    """21 * 21! int8 entries pass int64: refused before numpy is asked."""
    with pytest.raises(ValueError, match=r"j = 21 points has 51,090,942,171,709,440,000 "):
        enumerate1(standard_boundary(21), 0)


def test_unbalanced_boundary_has_empty_basis():
    boundary = Boundary0(("p1", "p2"), ("n1",))
    assert enumerate1(boundary, 3) == []


def _descriptor_basis(boundary, max_closed):
    """The reference enumeration: checked descriptors from the labels."""
    if len(boundary.pos) != len(boundary.neg):
        return []
    return [matching_of(boundary, dict(zip(boundary.pos, negs)), closed)
            for negs in itertools.permutations(boundary.neg)
            for closed in range(max_closed + 1)]


CODED_CASES = {**{f"j{j}-mc{m}": (standard_boundary(j), m) for j in range(5) for m in range(3)},
               "unequal": (Boundary0(("p1", "p2"), ("n1",)), 2)}


@pytest.mark.parametrize("name", list(CODED_CASES))
def test_coded_basis_decodes_every_element_in_order(name):
    boundary, max_closed = CODED_CASES[name]
    basis, expected = enumerate1(boundary, max_closed), _descriptor_basis(boundary, max_closed)
    assert isinstance(basis, engine.CodedBasis) and len(basis) == len(expected)
    assert [basis[k] for k in range(len(basis))] == expected
    assert [basis[k - len(basis)] for k in range(len(basis))] == expected
    assert list(basis) == expected and basis == expected and basis == tuple(expected)
    assert basis[1::2] == expected[1::2] and isinstance(basis[1::2], engine.CodedBasis)
    assert basis[np.arange(len(basis))[::-1]] == expected[::-1]
    with pytest.raises(IndexError):
        basis[len(basis)]


def test_coded_bases_compare_by_their_arrays():
    boundary = standard_boundary(3)
    basis = enumerate1(boundary, 1)
    assert basis == enumerate1(boundary, 1) and basis != enumerate1(boundary, 0)
    assert basis != enumerate1(Boundary0(boundary.pos, ("m1", "m2", "m3")), 1)
    assert basis[::-1] != basis and basis[:0] == [] and basis + basis[:1] == [*basis, basis[0]]


def _foreign_boundary_case():
    """A theory over one boundary and a coded basis over another of the same size."""
    theory = Dim1Theory(Boundary0(("a", "b", "c"), ("x", "y", "z")))
    return theory, enumerate1(standard_boundary(3), 1)


def test_a_coded_basis_over_another_boundary_raises_the_element_message():
    theory, basis = _foreign_boundary_case()
    with pytest.raises(UniverseMismatchError) as listed:
        engine.verify_lemma(list(basis), theory)
    with pytest.raises(UniverseMismatchError) as coded:
        engine.verify_lemma(basis, theory)
    assert str(coded.value) == str(listed.value)
    assert str(coded.value).startswith("boundary mismatch: Boundary0(pos=('p1', ")


def test_a_coded_basis_over_another_boundary_passes_without_the_universe_check(monkeypatch):
    """Why ``validate_coded`` compares the boundary: the kernels read the
    arrays, which carry no labels, so the foreign basis would pass."""
    theory, basis = _foreign_boundary_case()
    monkeypatch.setattr(Dim1Theory, "validate_coded", lambda self, basis: None)
    assert engine.verify_lemma(basis, theory).passed


@pytest.mark.parametrize("rows", [slice(1, None), slice(None, -1), slice(None, None, 3)])
def test_a_sliced_coded_basis_is_not_whole_orbits(rows):
    boundary = standard_boundary(4)
    theory, basis = Dim1Theory(boundary), enumerate1(boundary, 1)[rows]
    assert isinstance(basis, engine.CodedBasis) and theory.orbits(basis) is None
    assert engine.verify_lemma(basis, theory) == loop_lemma(basis, theory)


@pytest.mark.parametrize("j,max_closed", [(3, 2), (4, 1)])
def test_a_coded_basis_reports_as_its_plain_list(monkeypatch, j, max_closed):
    """Circle parity as complexity: the same violations, in the same order,
    with only their own elements decoded."""
    monkeypatch.setattr(Dim1Theory, "complexity", lambda self, c: c.circles % 2)
    boundary = standard_boundary(j)
    theory, basis = Dim1Theory(boundary), enumerate1(boundary, max_closed)
    plain = engine.verify_lemma(list(basis), theory)
    decoded, decode = [], dim1._Matchings.__call__
    monkeypatch.setattr(dim1._Matchings, "__call__",
                        lambda self, *row: decoded.append(row) or decode(self, *row))
    report = engine.verify_lemma(basis, theory)
    assert report.violations and report == plain
    assert len(decoded) == 2 * len(report.violations)


def test_boundary_mismatch_raises():
    m = enumerate1(standard_boundary(2), 0)[0]
    n = enumerate1(standard_boundary(3), 0)[0]
    with pytest.raises(UniverseMismatchError):
        glue1(m, n)


def test_matching_must_be_a_bijection():
    b = standard_boundary(2)
    for targets in ((0, 0), (0,), (0, 1, 2), (0, 2), (-1, 0)):
        with pytest.raises(ValueError, match="exactly once"):
            Bounded1Manifold(b, targets)


@pytest.mark.parametrize("j,max_closed", [(0, 2), (1, 2), (2, 2), (3, 1), (4, 1)])
def test_self_gluing_circle_count(j, max_closed):
    boundary = standard_boundary(j)
    for m in enumerate1(boundary, max_closed):
        assert glue1(m, m).circles == j + 2 * m.closed_circles


def test_glue_agrees_with_arc_walk_oracle_up_to_j5():
    for j in range(1, 6):
        boundary = standard_boundary(j)
        basis = enumerate1(boundary, 1 if j <= 3 else 0)
        for m, n in itertools.combinations_with_replacement(basis, 2):
            walked = arc_walk_circles(m, n)
            assert glue1(m, n).circles == walked
            assert glue1(n, m).circles == walked


def test_glue_is_symmetric():
    basis = enumerate1(standard_boundary(3), 1)
    for m, n in itertools.combinations(basis, 2):
        assert glue1(m, n) == glue1(n, m)


@pytest.mark.parametrize("j,max_closed", [(1, 2), (2, 2), (3, 1)])
def test_complexity_dominance_holds_exhaustively(j, max_closed):
    boundary = standard_boundary(j)
    basis = enumerate1(boundary, max_closed)
    report = engine.verify_lemma(basis, Dim1Theory(boundary))
    assert report.passed
    assert report.pairs_checked == len(basis) * (len(basis) - 1) // 2


@pytest.mark.parametrize("j", range(dim1._MAX_CODED_J + 1))
def test_cycle_table_holds_the_cycles_of_every_permutation(j):
    table = dim1._cycle_table(j)
    assert table.shape == (j ** j,)
    for perm in itertools.permutations(range(j)):
        assert table[sum(p * j ** k for k, p in enumerate(perm))] == dim1._cycles(perm)


def test_glue_table_past_the_coded_bound_builds_no_cycle_table(monkeypatch):
    def refuse(j):
        raise AssertionError(f"cycle table built at j = {j}")

    monkeypatch.setattr(dim1, "_cycle_table", refuse)
    j = dim1._MAX_CODED_J + 1
    boundary, rng = standard_boundary(j), random.Random(j)
    basis = [Bounded1Manifold(boundary, tuple(rng.sample(range(j), j)))
             for _ in range(6)]
    forms, ids = Dim1Theory(boundary).glue_table(tuple(basis))
    assert [[forms[ids[r, s]] for s in range(6)] for r in range(6)] == [
        [glue1(a, b) for b in basis] for a in basis]


@pytest.mark.parametrize("j", range(8))
def test_cycle_counts_equal_the_scalar_count_on_every_permutation(j):
    perms = list(itertools.permutations(range(j)))
    counts = dim1._cycle_counts(np.array(perms, dtype=np.int64).reshape(len(perms), j))
    assert counts.tolist() == [dim1._cycles(perm) for perm in perms]


@pytest.mark.parametrize("j", [8, 9, 12, 15, 16, 17, 20])
def test_cycle_counts_equal_the_scalar_count_on_random_permutations(j):
    rng = random.Random(f"cycles-{j}")
    perms = [rng.sample(range(j), j) for _ in range(300)]
    # Long cycles need every doubling round: one j-cycle and one (j-1)-cycle.
    perms += [list(range(1, j)) + [0], [0] + list(range(2, j)) + [1]]
    counts = dim1._cycle_counts(np.array(perms, dtype=np.int64))
    assert counts.tolist() == [dim1._cycles(perm) for perm in perms]


@pytest.mark.parametrize("chunk", [engine._CHUNK, 40])
@pytest.mark.parametrize("j", [9, 12, 16, 20])
def test_glue_table_past_the_coded_bound_equals_glue1(monkeypatch, j, chunk):
    # A 40-cell chunk splits the 11-column table into chunks of 3 rows.
    monkeypatch.setattr(engine, "_CHUNK", chunk)
    boundary, rng = standard_boundary(j), random.Random(f"wide-{j}")
    basis = [Bounded1Manifold(boundary, tuple(rng.sample(range(j), j)),
                              rng.randrange(3)) for _ in range(10)]
    basis.append(basis[0])  # a repeated element glues to its own reversal
    theory = Dim1Theory(boundary)
    for rows in (basis, basis[:5]):
        forms, ids = theory.glue_table(tuple(rows), tuple(basis))
        assert forms.codes.dtype == np.int64
        assert [[forms[ids[r, s]] for s in range(len(basis))] for r in range(len(rows))] == [
            [glue1(a, b) for b in basis] for a in rows]
    forms, ids = theory.glue_table(tuple(basis))
    assert [[forms[ids[r, s]] for s in range(len(basis))] for r in range(len(basis))] == [
        [glue1(a, b) for b in basis] for a in basis]


def test_glue_table_past_the_coded_bound_carries_counts_past_int64():
    j, big = 10, 2 ** 63
    boundary, rng = standard_boundary(j), random.Random("wide-carried")
    basis = [Bounded1Manifold(boundary, tuple(rng.sample(range(j), j)),
                              closed) for closed in (0, 1, big, big + 5)]
    forms, ids = Dim1Theory(boundary).glue_table(tuple(basis))
    assert forms.codes.dtype == object
    assert [[forms[ids[r, s]] for s in range(4)] for r in range(4)] == [
        [glue1(a, b) for b in basis] for a in basis]


def test_verify_lemma_does_not_import_numpy_ma():
    # np.unique's values-only path imports numpy.ma, about 3 MB of peak RSS
    # in a fresh process; the dim1 table must not take it.
    src = str(Path(umpair.__file__).resolve().parents[1])
    script = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from umpair import engine; "
              "from umpair.dim1 import Dim1Theory, enumerate1, standard_boundary; "
              "b = standard_boundary(4); "
              "assert engine.verify_lemma(enumerate1(b, 1), Dim1Theory(b)).passed; "
              "print('numpy.ma' in sys.modules)")
    result = subprocess.run([sys.executable, "-I", "-c", script, src],
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_dim1_positivity_j7():
    # 5,040 matchings in one orbit: 12.7M pairs covered by one row of 5,040 cells.
    boundary = standard_boundary(7)
    report = engine.verify_lemma(enumerate1(boundary, 0), Dim1Theory(boundary))
    assert report.passed
    assert report.basis_size == 5040
    assert report.pairs_checked == 5040 * 5039 // 2


def test_dim1_positivity_j7_max_closed_2():
    # Three orbits of 5,040: 114M pairs covered by 3 x 15,120 cells.
    boundary = standard_boundary(7)
    report = engine.verify_lemma(enumerate1(boundary, 2), Dim1Theory(boundary))
    assert report.passed
    assert report.basis_size == 15120
    assert report.pairs_checked == 15120 * 15119 // 2


def _fresh_dim1_lemma(j):
    """(seconds, peak RSS in kB) of ``verify_lemma`` on the dim1 basis over j
    points with no carried circles, in a fresh interpreter; the time covers
    the lemma, the RSS the whole process.  The RSS is the interpreter's own
    VmHWM: Linux carries ``ru_maxrss`` across exec, so there it would read
    at least the RSS of the test process that started it."""
    src = str(Path(umpair.__file__).resolve().parents[1])
    script = ("import math, resource, sys, time; sys.path.insert(0, sys.argv[1]); "
              "from umpair import engine; "
              "from umpair.dim1 import Dim1Theory, enumerate1, standard_boundary; "
              "j = int(sys.argv[2]); n = math.factorial(j); "
              "b = standard_boundary(j); basis = enumerate1(b, 0); "
              "start = time.perf_counter(); "
              "report = engine.verify_lemma(basis, Dim1Theory(b)); "
              "seconds = time.perf_counter() - start; "
              "assert report.passed and report.pairs_checked == n * (n - 1) // 2; "
              "from pathlib import Path; status = Path('/proc/self/status'); "
              "print(seconds, status.read_text().split('VmHWM:')[1].split()[0] "
              "if status.exists() else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    result = subprocess.run([sys.executable, "-I", "-c", script, src, str(j)],
                            capture_output=True, text=True, check=True)
    seconds, max_rss_kb = result.stdout.split()
    return float(seconds), int(max_rss_kb)


@pytest.mark.slow
def test_dim1_positivity_j8_in_a_fresh_process():
    """40,320 matchings, one orbit: under 1 s and 59 MB peak RSS (53 MB
    measured on a 2-vCPU VM)."""
    seconds, max_rss_kb = _fresh_dim1_lemma(8)
    assert seconds < 1.0
    assert max_rss_kb < 59 * 1024


@pytest.mark.slow
def test_dim1_positivity_j9_in_a_fresh_process():
    """362,880 matchings, one orbit row counted in column blocks: under 5 s
    and 150 MB peak RSS (0.15-0.2 s and 79 MB measured on a 2-vCPU VM)."""
    seconds, max_rss_kb = _fresh_dim1_lemma(9)
    assert seconds < 5.0
    assert max_rss_kb < 150 * 1024


def relabelled(m, pos_perm, neg_perm):
    """g·m for the boundary relabelling g that moves positive point k to
    pos_perm[k] and negative point k to neg_perm[k]."""
    targets = [0] * len(m.targets)
    for k, t in enumerate(m.targets):
        targets[pos_perm[k]] = neg_perm[t]
    return Bounded1Manifold(m.boundary, tuple(targets), m.closed_circles)


@pytest.mark.parametrize("j", range(6))
def test_relabelling_the_boundary_keeps_every_gluing(j):
    """glue(g·a, g·b) == glue(a, b) for seeded relabellings g of both signs,
    and g permutes the enumerated basis, so its circle counts are whole orbits."""
    boundary, rng = standard_boundary(j), random.Random(f"relabel-{j}")
    theory, basis = Dim1Theory(boundary), enumerate1(boundary, 2)
    forms, ids = theory.glue_table(tuple(basis))
    pairs = list(itertools.product(range(len(basis)), repeat=2))
    for _ in range(3):
        pos, neg = rng.sample(range(j), j), rng.sample(range(j), j)
        moved = [relabelled(m, pos, neg) for m in basis]
        assert sorted(map(canonical_key, moved)) == sorted(map(canonical_key, basis))
        moved_forms, moved_ids = theory.glue_table(tuple(moved))
        assert [moved_forms[f] for f in moved_ids.flat] == [forms[f] for f in ids.flat]
        for a, b in rng.sample(pairs, min(len(pairs), 300)):
            assert glue1(moved[a], moved[b]) == glue1(basis[a], basis[b])
            assert arc_walk_circles(moved[a], moved[b]) == arc_walk_circles(basis[a], basis[b])


def _recording_tables(monkeypatch):
    """(rows, cols) sizes of every ``Dim1Theory.glue_table`` call, as a list."""
    calls = []
    table = Dim1Theory.glue_table

    def recording(self, rows, cols=None):
        calls.append((len(rows), len(rows if cols is None else cols)))
        return table(self, rows, cols)

    monkeypatch.setattr(Dim1Theory, "glue_table", recording)
    return calls


@pytest.mark.parametrize("j,max_closed", [(j, m) for j in range(6) for m in range(3)])
def test_orbit_rows_agree_with_the_loop_lemma(monkeypatch, j, max_closed):
    boundary = standard_boundary(j)
    theory, basis = Dim1Theory(boundary), enumerate1(boundary, max_closed)
    assert theory.orbits(basis).tolist() == [b.closed_circles for b in basis]
    calls = _recording_tables(monkeypatch)
    assert engine.verify_lemma(basis, theory) == loop_lemma(basis, theory)
    assert calls == [(max_closed + 1, len(basis))]


def test_verify_lemma_glues_one_row_at_j6(monkeypatch):
    """The whole j = 6 basis is one orbit: 720 cells glued, not 720 x 720."""
    boundary = standard_boundary(6)
    calls = _recording_tables(monkeypatch)
    assert engine.verify_lemma(enumerate1(boundary, 0), Dim1Theory(boundary)).passed
    assert calls == [(1, 720)]


@pytest.mark.parametrize("j,max_closed", [(3, 2), (4, 1)])
def test_a_failing_orbit_row_reruns_the_full_sweep(monkeypatch, j, max_closed):
    """Circle parity as complexity: the orbit rows fail, and the report is the
    full sweep's, violations included."""
    monkeypatch.setattr(Dim1Theory, "complexity", lambda self, c: c.circles % 2)
    boundary = standard_boundary(j)
    theory, basis = Dim1Theory(boundary), enumerate1(boundary, max_closed)
    calls = _recording_tables(monkeypatch)
    report = engine.verify_lemma(basis, theory)
    assert calls == [(max_closed + 1, len(basis)), (len(basis), len(basis))]
    assert report.violations and report == loop_lemma(basis, theory)


def _partial_bases():
    """Bases that are not unions of whole orbits, named."""
    b3, b4 = standard_boundary(3), standard_boundary(4)
    full = enumerate1(b4, 1)
    return {
        "one-matching-dropped": (b4, [m for m in full if m.targets != full[6].targets]),
        "seeded-subset": (b4, random.Random(4).sample(full, 17)),
        "duplicate": (b4, full + full[3:4]),
        "short-of-one-count": (b4, full[:-1]),
        # The identity and two transpositions, whose composite is a 3-cycle.
        "three-matchings": (b3, [matching_of(b3, dict(zip(b3.pos, targets))) for targets in
                                 (("n1", "n2", "n3"), ("n2", "n1", "n3"), ("n3", "n2", "n1"))]),
    }


@pytest.mark.parametrize("parity", [False, True], ids=["circles", "parity"])
@pytest.mark.parametrize("name", list(_partial_bases()))
def test_bases_that_are_not_whole_orbits_take_the_full_sweep(monkeypatch, name, parity):
    boundary, basis = _partial_bases()[name]
    theory = Dim1Theory(boundary)
    assert theory.orbits(basis) is None
    if parity:
        monkeypatch.setattr(Dim1Theory, "complexity", lambda self, c: c.circles % 2)
    calls = _recording_tables(monkeypatch)
    assert engine.verify_lemma(basis, theory) == loop_lemma(basis, theory)
    assert calls == [(len(basis), len(basis))]


def test_whole_orbits_need_not_be_every_count():
    boundary = standard_boundary(3)
    basis = [m for m in enumerate1(boundary, 2) if m.closed_circles != 1]
    theory = Dim1Theory(boundary)
    assert theory.orbits(basis).tolist() == [m.closed_circles for m in basis]
    assert engine.verify_lemma(basis, theory) == loop_lemma(basis, theory)


def test_points_encoding():
    assert points_to_monomial0(2, 1) == Monomial.from_dict({"u": 2, "v": 1})
    assert points_to_monomial0(0, 0) == Monomial()


def test_points_reversal_is_the_involution():
    sigma = zero_dim_involution()
    assert points_to_monomial0(1, 2) == mono_conj(points_to_monomial0(2, 1), sigma)


def test_points_disjoint_union_is_the_product():
    assert points_to_monomial0(2, 1) * points_to_monomial0(1, 1) == \
        points_to_monomial0(3, 2)


def test_zero_dim_pairing_is_disjoint_union_with_reversal():
    from umpair.monomial import MonomialTheory

    theory = MonomialTheory(zero_dim_involution())
    a = points_to_monomial0(2, 1)
    b = points_to_monomial0(1, 0)
    # gluing appends the reversal of b: (2,1) joined with (0,1) is (2,2)
    assert theory.glue(a, b) == points_to_monomial0(2, 2)
    basis = [points_to_monomial0(p, q) for p in range(3) for q in range(3)]
    assert engine.verify_lemma(basis, theory).passed


def test_descriptor_json_round_trip():
    b = standard_boundary(2)
    m = matching_of(b, {"p1": "n2", "p2": "n1"}, closed=3)
    assert Bounded1Manifold.from_json(m.to_json()) == m
    closed = Closed1Manifold(4)
    assert Closed1Manifold.from_json(closed.to_json()) == closed


def _terms(*descriptors):
    return [{"basis": d.to_json(), "coeff": {"re": str(k + 1), "im": "0"}}
            for k, d in enumerate(descriptors)]


def test_decoded_terms_share_one_parsed_boundary():
    basis = enumerate1(standard_boundary(3), 1)
    x = FormalSum.from_json(_terms(*basis), Bounded1Manifold.from_json)
    assert list(x.support()) == sorted(basis, key=canonical_key)
    assert len({id(d.boundary) for d in x.support()}) == 1


@pytest.mark.parametrize("at", [0, 1, 3])
def test_a_boundary_that_changes_mid_vector_still_raises_the_mismatch(at):
    basis = list(enumerate1(standard_boundary(2), 1))
    other = Boundary0(("p1", "p2"), ("n2", "n1"))
    terms = _terms(*basis[:at], Bounded1Manifold(other, (0, 1)), *basis[at:])
    with pytest.raises(UniverseMismatchError, match="incompatible descriptor universes"):
        FormalSum.from_json(terms, Bounded1Manifold.from_json)


def test_a_reused_boundary_keeps_the_checks_of_each_term():
    """Each term is checked against the boundary it shares with the last:
    the matching messages are those of a fresh parse, and a bad boundary
    after a good one is still refused."""
    good = _terms(*enumerate1(standard_boundary(2), 0))
    bad_matching = {**good[0]["basis"], "matching": {"p1": "n1", "p2": "n1"}}
    bad_boundary = {**good[0]["basis"], "boundary": {"pos": ["p1", "p1"], "neg": ["n1", "n2"]}}
    for data, message in ((bad_matching, "exactly once"), (bad_boundary, "distinct")):
        Bounded1Manifold.from_json(good[0]["basis"])
        with pytest.raises(ValueError, match=message):
            Bounded1Manifold.from_json(data)


def test_bounded_json_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        Bounded1Manifold.from_json({"dim": 2, "parts": []})
