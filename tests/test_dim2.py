"""Surfaces: gluing, the lexicographic complexity, and the cell-count oracle."""

import itertools
import random

import numpy as np
import pytest
from oracles import euler_oracle

from umpair import engine
from umpair.algebra import UniverseMismatchError
from umpair.dim2 import (Bounded2Manifold, ClosedSurface, ComplexityTuple,
                         Dim2Theory, _unique_rows, closed_multisets,
                         compare_complexity, complexity2, core_gluing_table,
                         enumerate2, glue2, verify_lemma_grid)

ANNULUS = Bounded2Manifold(2, (((0, 1), 0),))
DISK = Bounded2Manifold(1, (((0,), 0),))
PANTS = Bounded2Manifold(3, (((0, 1, 2), 0),))


def chi_bounded(m):
    parts = sum(2 - 2 * g - len(circles) for circles, g in m.parts)
    return parts + sum(2 - 2 * g for g in m.closed_genera)


def test_glue_examples():
    assert glue2(ANNULUS, ANNULUS) == ClosedSurface((1,))      # torus
    assert glue2(DISK, DISK) == ClosedSurface((0,))            # sphere
    # Derived by counting cells of the identified complex: chi = -2.
    assert glue2(PANTS, PANTS) == ClosedSurface((2,))


def test_euler_oracle_examples():
    assert euler_oracle(ANNULUS, ANNULUS) == 0
    assert euler_oracle(DISK, DISK) == 2
    assert euler_oracle(PANTS, PANTS) == -2


def test_complexity_examples():
    assert complexity2(ClosedSurface((1, 0))).entries == (2, -2, 0, -2)
    assert complexity2(ClosedSurface((0,))).entries == (1, -2, -2)
    assert complexity2(ClosedSurface(())).entries == (0, 0)


def test_compare_examples():
    torus = ComplexityTuple((1, 0, 0))
    sphere = ComplexityTuple((1, -2, -2))
    assert compare_complexity(torus, sphere) == 1
    two_tori = ComplexityTuple((2, 0, 0, 0))
    genus2 = ComplexityTuple((1, 2, 2))
    assert compare_complexity(two_tori, genus2) == 1
    assert compare_complexity(sphere, sphere) == 0


def test_compare_pads_with_minus_three():
    shorter = ComplexityTuple((1, 0))
    longer = ComplexityTuple((1, 0, 0))
    assert shorter < longer           # implicit -3 entry loses to 0
    assert ComplexityTuple((0, 0)) == ComplexityTuple((0, 0))
    assert max(shorter, longer) is longer


def test_complexity_order_is_total_and_transitive():
    surfaces = [ClosedSurface(g) for g in
                [(), (0,), (1,), (2,), (0, 0), (0, 1), (1, 1), (0, 0, 0), (3,)]]
    values = [complexity2(s) for s in surfaces]
    for a in values:
        for b in values:
            assert (a < b) + (b < a) + (a == b) == 1
            for c in values:
                if a < b and b < c:
                    assert a < c


def test_complexity_tuple_validation():
    with pytest.raises(ValueError):
        ComplexityTuple((1,))
    with pytest.raises(ValueError):
        ComplexityTuple((1, 0, -5))


def test_enumerate_counts():
    assert len(enumerate2(1, 1, 0)) == 2      # disk, genus-1 with one circle
    assert len(enumerate2(2, 0, 0)) == 2      # annulus; two disks
    assert len(enumerate2(0, 0, 1)) == 2      # empty; one closed sphere
    assert len(enumerate2(4, 3, 0)) == 756
    assert len(closed_multisets(3, 3)) == 18


def test_enumerate_is_deterministic_and_duplicate_free():
    basis = enumerate2(3, 2, 1)
    assert basis == enumerate2(3, 2, 1)
    assert len(set(basis)) == len(basis)


def test_parts_must_partition_the_circles():
    with pytest.raises(ValueError):
        Bounded2Manifold(2, (((0,), 0),))            # circle 1 uncovered
    with pytest.raises(ValueError):
        Bounded2Manifold(2, (((0, 1), 0), ((1,), 0)))  # circle 1 twice
    with pytest.raises(ValueError):
        Bounded2Manifold(1, (((0,), -1),))


def test_canonical_form_ignores_input_order():
    a = Bounded2Manifold(3, (((2,), 1), ((1, 0), 0)), (2, 0))
    b = Bounded2Manifold(3, (((0, 1), 0), ((2,), 1)), (0, 2))
    assert a == b


def test_boundary_mismatch_raises():
    with pytest.raises(UniverseMismatchError):
        glue2(DISK, ANNULUS)
    with pytest.raises(UniverseMismatchError):
        euler_oracle(DISK, ANNULUS)


def test_oracle_and_additivity_on_enumerated_pairs():
    basis = enumerate2(3, 2, 1)
    for m, n in itertools.combinations_with_replacement(basis, 2):
        glued = glue2(m, n)
        chi = glued.euler_characteristic()
        assert chi == chi_bounded(m) + chi_bounded(n)
        assert euler_oracle(m, n) == chi


def test_component_count_matches_an_independent_graph_count():
    rng = random.Random(20260207)
    basis = enumerate2(4, 2, 2)
    for _ in range(300):
        m, n = rng.choice(basis), rng.choice(basis)
        left = {c: i for i, (circles, _) in enumerate(m.parts) for c in circles}
        right = {c: i for i, (circles, _) in enumerate(n.parts) for c in circles}
        edges = [(("m", left[c]), ("n", right[c])) for c in range(4)]
        nodes = {v for e in edges for v in e}
        components = 0
        seen = set()
        for start in sorted(nodes):
            if start in seen:
                continue
            components += 1
            stack = [start]
            while stack:
                v = stack.pop()
                if v in seen:
                    continue
                seen.add(v)
                stack.extend(w for e in edges for w in e if v in e)
        expected = components + len(m.closed_genera) + len(n.closed_genera)
        assert len(glue2(m, n).genera) == expected


def test_self_gluing_doubles_the_genus_formula():
    for g in range(4):
        for b in range(1, 4):
            m = Bounded2Manifold(b, ((tuple(range(b)), g),))
            assert glue2(m, m) == ClosedSurface((2 * g + b - 1,))


@pytest.mark.parametrize("j,gmax,budget", [(1, 2, 1), (2, 2, 1)])
def test_complexity_dominance_holds_exhaustively(j, gmax, budget):
    basis = enumerate2(j, gmax, budget)
    report = engine.verify_lemma(basis, Dim2Theory(j))
    assert report.passed


@pytest.mark.parametrize("j,gmax,budget", [(2, 1, 1), (1, 3, 2), (2, 2, 2)])
def test_grid_verifier_matches_generic_verifier(j, gmax, budget):
    grid_report = verify_lemma_grid(j, gmax, budget)
    basis = enumerate2(j, gmax, budget)
    generic = engine.verify_lemma(basis, Dim2Theory(j))
    assert grid_report.passed == generic.passed
    assert grid_report.basis_size == generic.basis_size == len(basis)
    assert grid_report.pairs_checked == generic.pairs_checked
    assert grid_report.violations == generic.violations == ()


def test_grid_verifier_is_not_vacuous(monkeypatch):
    # Flatten the complexity order; every pair must then be reported, and the
    # grid sweep must agree with the generic pairwise check on the details.
    import umpair.dim2 as dim2_module

    flat = lambda surface: ComplexityTuple((0, 0))
    monkeypatch.setattr(dim2_module, "complexity2", flat)
    grid_report = dim2_module.verify_lemma_grid(1, 1, 1)
    generic = engine.verify_lemma(enumerate2(1, 1, 1), Dim2Theory(1))
    assert not grid_report.passed and not generic.passed
    assert grid_report.pairs_checked == len(grid_report.violations) == 15
    assert grid_report.violations == generic.violations


def test_grid_verifier_matches_generic_verifier_on_partial_failures(monkeypatch):
    # Count components as lighter, not heavier: some triples of core gluings
    # then fail and others pass, and the failing ones must expand to exactly
    # the pairs the generic check reports, in the same order.
    import umpair.dim2 as dim2_module

    def reversed_count(surface):
        entries = complexity2(surface).entries
        return ComplexityTuple((9 - entries[0],) + entries[1:])

    monkeypatch.setattr(dim2_module, "complexity2", reversed_count)
    grid_report = dim2_module.verify_lemma_grid(2, 2, 2)
    generic = engine.verify_lemma(enumerate2(2, 2, 2), Dim2Theory(2))
    assert 0 < len(grid_report.violations) < grid_report.pairs_checked
    assert grid_report.violations == generic.violations


@pytest.mark.parametrize("j", range(4))
def test_core_table_matches_glue2_on_every_core_pair(j):
    cores = enumerate2(j, 3, 0)
    gid, genera = core_gluing_table(j, 3)
    assert gid.shape == (len(cores), len(cores))
    for a, m in enumerate(cores):
        for b, n in enumerate(cores):
            assert genera[gid[a, b]] == glue2(m, n).genera


def test_unique_rows_agrees_with_numpy_when_packed_and_when_not():
    rng = np.random.default_rng(20503)
    for high in (6, 2**40):  # packs into int64; 3 digits base 2**40 do not
        rows = rng.integers(0, high, size=(400, 3))
        rows[::5] = rows[1]
        first, inverse = _unique_rows(rows)
        assert (rows[first][inverse] == rows).all()
        assert len(first) == len(np.unique(rows, axis=0))


@pytest.mark.slow
def test_dim2_positivity_j5():
    report = verify_lemma_grid(5, 3, 3)
    assert report.passed
    assert report.basis_size == 97704


def test_descriptor_json_round_trip():
    m = Bounded2Manifold(3, (((0, 2), 1), ((1,), 0)), (0, 3))
    assert Bounded2Manifold.from_json(m.to_json()) == m
    s = ClosedSurface((0, 2, 2))
    assert ClosedSurface.from_json(s.to_json()) == s


def test_json_rejects_wrong_shape():
    with pytest.raises(ValueError):
        Bounded2Manifold.from_json({"dim": 1, "circles": 2})
    with pytest.raises(ValueError):
        ClosedSurface.from_json({"dim": 2})


@pytest.mark.parametrize("decode,data", [
    (Bounded2Manifold.from_json, [0]),
    (Bounded2Manifold.from_json,
     {"dim": 2, "boundary_circles": 1, "parts": [[0]], "closed": []}),
    (Bounded2Manifold.from_json,
     {"dim": 2, "boundary_circles": 1, "parts": [{"circles": 0, "genus": 0}]}),
    (Bounded2Manifold.from_json,
     {"dim": 2, "boundary_circles": 1, "parts": [{"circles": [0], "genus": 1.5}]}),
    (Bounded2Manifold.from_json,
     {"dim": 2, "boundary_circles": "1", "parts": [{"circles": [0], "genus": 0}]}),
    (Bounded2Manifold.from_json,
     {"dim": 2, "boundary_circles": 1, "parts": [{"circles": [0], "genus": 0}],
      "closed": 2}),
    (ClosedSurface.from_json, [1]),
    (ClosedSurface.from_json, {"dim": 2, "genera": 1}),
    (ClosedSurface.from_json, {"dim": 2, "genera": [True]}),
])
def test_json_rejects_wrong_types(decode, data):
    with pytest.raises(ValueError):
        decode(data)
