"""Bounded and closed 1-manifolds: gluing, complexity, enumeration."""

import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest
from oracles import arc_walk_circles

import umpair
from umpair import dim1, engine
from umpair.algebra import UniverseMismatchError
from umpair.dim1 import (Boundary0, Bounded1Manifold, Closed1Manifold,
                         Dim1Theory, complexity1, enumerate1, glue1,
                         points_to_monomial0, standard_boundary,
                         zero_dim_involution)
from umpair.monomial import Monomial, mono_conj


def matching_of(boundary, mapping, closed=0):
    return Bounded1Manifold(boundary, tuple((p, mapping[p]) for p in boundary.pos),
                            closed)


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


def test_unbalanced_boundary_has_empty_basis():
    boundary = Boundary0(("p1", "p2"), ("n1",))
    assert enumerate1(boundary, 3) == []


def test_boundary_mismatch_raises():
    m = enumerate1(standard_boundary(2), 0)[0]
    n = enumerate1(standard_boundary(3), 0)[0]
    with pytest.raises(UniverseMismatchError):
        glue1(m, n)


def test_matching_must_be_a_bijection():
    b = standard_boundary(2)
    with pytest.raises(ValueError):
        Bounded1Manifold(b, (("p1", "n1"), ("p2", "n1")))
    with pytest.raises(ValueError):
        Bounded1Manifold(b, (("p2", "n1"), ("p1", "n2")))


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
    basis = [Bounded1Manifold(boundary, tuple(zip(boundary.pos, rng.sample(boundary.neg, j))))
             for _ in range(6)]
    forms, ids = Dim1Theory(boundary).glue_table(tuple(basis))
    assert [[forms[ids[r, s]] for s in range(6)] for r in range(6)] == [
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


@pytest.mark.slow
def test_dim1_positivity_j7():
    # 5,040 matchings and 12.7M pairs through the cycle table: about 1 s.
    boundary = standard_boundary(7)
    report = engine.verify_lemma(enumerate1(boundary, 0), Dim1Theory(boundary))
    assert report.passed
    assert report.basis_size == 5040
    assert report.pairs_checked == 5040 * 5039 // 2


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


def test_bounded_json_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        Bounded1Manifold.from_json({"dim": 2, "parts": []})
