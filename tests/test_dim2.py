"""Surfaces: gluing, the lexicographic complexity, and the cell-count oracle."""

import itertools
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import ComplexityTuple, euler_oracle, glued_genera, sorted_chi_complexity

import umpair
from umpair import engine
from umpair.algebra import UniverseMismatchError, canonical_key
from umpair.dim2 import (Bounded2Manifold, ClosedSurface, Dim2Theory, _packed,
                         _passes_by_count, _rank_table, closed_multisets, complexity2,
                         core_gluing_table, core_orbits, enumerate2, glue2,
                         verify_lemma_grid)

ANNULUS = Bounded2Manifold(2, (((0, 1), 0),))
DISK = Bounded2Manifold(1, (((0,), 0),))
PANTS = Bounded2Manifold(3, (((0, 1, 2), 0),))


def chi_bounded(m):
    parts = sum(2 - 2 * g - len(circles) for circles, g in m.parts)
    return parts + sum(2 - 2 * g for g in m.closed_genera)


def checked_rebuild(m):
    """m through the checked constructor, from its parts, circles and closed
    genera all reversed, so the constructor must put them in order itself."""
    return Bounded2Manifold(m.boundary_circles,
                            tuple((circles[::-1], g) for circles, g in m.parts[::-1]),
                            m.closed_genera[::-1])


def assert_same_descriptor(fast, checked):
    """fast, built without the checked constructor, is checked in every
    form a basis descriptor is read in."""
    assert fast == checked and hash(fast) == hash(checked)
    assert fast.to_json() == checked.to_json()
    assert canonical_key(fast) == canonical_key(checked)


@pytest.fixture(scope="module")
def reachable_surfaces():
    """Every closed surface glue2 reaches over enumerate2(j, 3, 3), j <= 3.

    glue2 appends both closed multisets to the core gluing's genera, so the
    reachable set is core gluings times unions of two closed multisets.
    """
    closeds = closed_multisets(3, 3)
    unions = {tuple(sorted(p + q)) for p in closeds for q in closeds}
    genera = {glue2(m, n).genera for j in range(4)
              for m in enumerate2(j, 3, 0) for n in enumerate2(j, 3, 0)}
    return [ClosedSurface(t) for t in
            sorted({tuple(sorted(g + u)) for g in genera for u in unions})]


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
    assert complexity2(ClosedSurface((1, 0))) == (2, -2, 0, -2)
    assert complexity2(ClosedSurface((0,))) == (1, -2, -2)
    assert complexity2(ClosedSurface(())) == (0, 0)
    torus, sphere = complexity2(ClosedSurface((1,))), complexity2(ClosedSurface((0,)))
    assert torus == (1, 0, 0) and torus > sphere
    two_tori, genus2 = complexity2(ClosedSurface((1, 1))), complexity2(ClosedSurface((2,)))
    assert two_tori == (2, 0, 0, 0) and genus2 == (1, 2, 2) and two_tori > genus2


def test_plain_tuple_order_matches_the_padded_order(reachable_surfaces):
    values = sorted({complexity2(s) for s in reachable_surfaces})
    assert len(values) == 5228
    # Both orders are total, so they agree on every pair exactly when sorting
    # by each gives the same sequence, strictly increasing in both (about
    # 6e4 comparisons instead of 2.7e7).
    padded = sorted(ComplexityTuple(v) for v in values)
    assert [p.entries for p in padded] == values
    assert all(a < b for a, b in zip(padded, padded[1:]))


def test_complexity2_matches_the_sorted_chi_oracle(reachable_surfaces):
    # complexity2 reads the genera in their stored ascending order; the
    # oracle sorts the chis afresh.
    assert len(reachable_surfaces) == 5228
    for surface in reachable_surfaces:
        assert complexity2(surface) == sorted_chi_complexity(surface.genera)


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


@pytest.mark.parametrize("j,gmax,budget", [(0, 2, 2), (1, 2, 2), (2, 2, 2),
                                           (3, 2, 2), (4, 1, 2)])
def test_enumerate2_equals_a_checked_rebuild_in_order(j, gmax, budget):
    basis = enumerate2(j, gmax, budget)
    rebuilt = [checked_rebuild(m) for m in basis]
    assert basis == rebuilt
    for fast, checked in zip(basis, rebuilt):
        assert_same_descriptor(fast, checked)


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


def test_glue2_genera_match_the_search_oracle():
    """Every pair at j = 3, and seeded pairs at j = 5, where merges chain
    through several parts."""
    small = enumerate2(3, 2, 1)
    for m, n in itertools.product(small, repeat=2):
        assert glue2(m, n).genera == glued_genera(m, n)
    large = enumerate2(5, 2, 1)
    rng = random.Random("glued-genera-5")
    for _ in range(2000):
        m, n = rng.choice(large), rng.choice(large)
        assert glue2(m, n).genera == glued_genera(m, n)


@pytest.mark.parametrize("j,gmax,budget", [(0, 1, 1), (2, 2, 1), (3, 1, 1), (4, 1, 0)])
def test_glue_table_masks_each_element_once(monkeypatch, j, gmax, budget):
    """The default glue_table over fresh elements builds each element's
    part masks once, not twice per glued cell, and every cell still equals
    glue2 and the search oracle."""
    import umpair.dim2 as dim2_module

    masked, calls = dim2_module._masked, []

    def counting(m):
        calls.append(m)
        return masked(m)

    monkeypatch.setattr(dim2_module, "_masked", counting)
    rng = random.Random(f"masks-{j}")
    basis = enumerate2(j, gmax, budget)
    support = tuple(Bounded2Manifold.from_json(m.to_json())
                    for m in rng.sample(basis, min(12, len(basis))))
    forms, ids = Dim2Theory(j).glue_table(support)
    assert len(calls) == len(support) and set(map(id, calls)) == set(map(id, support))
    for i, m in enumerate(support):
        for k, n in enumerate(support):
            assert forms[ids[i, k]] == glue2(m, n)
            assert forms[ids[i, k]].genera == glued_genera(m, n)
    assert len(calls) == len(support)


@pytest.mark.parametrize("j,gmax,budget", [(0, 2, 2), (2, 2, 1), (3, 1, 1)])
def test_read_masks_keep_descriptors_equal(j, gmax, budget):
    """Reading the kept masks changes neither a build_canonical element nor
    its checked rebuild as a descriptor."""
    for fast in enumerate2(j, gmax, budget):
        checked = checked_rebuild(fast)
        assert fast.masked == checked.masked
        assert_same_descriptor(fast, checked)


def relabelled(m, perm):
    """g·m for the relabelling g that moves boundary circle c to perm[c],
    canonicalised again by the constructor."""
    return Bounded2Manifold(m.boundary_circles,
                            tuple((tuple(perm[c] for c in circles), genus)
                                  for circles, genus in m.parts), m.closed_genera)


@pytest.mark.parametrize("j,gmax,budget", [(0, 2, 2), (1, 2, 2), (2, 2, 1), (3, 1, 1)])
def test_permuting_the_boundary_circles_keeps_every_gluing(j, gmax, budget):
    """glue(g·a, g·b) == glue(a, b) for seeded permutations g of the circles,
    and g permutes the enumerated basis, so it is a union of whole orbits."""
    perms = list(itertools.permutations(range(j)))
    basis = enumerate2(j, gmax, budget)
    for perm in random.Random(f"relabel2-{j}").sample(perms, min(2, len(perms))):
        moved = [relabelled(m, perm) for m in basis]
        assert sorted(map(canonical_key, moved)) == sorted(map(canonical_key, basis))
        for (a, ga), (b, gb) in itertools.product(zip(basis, moved), repeat=2):
            assert glue2(ga, gb) == glue2(a, b)


def brute_force_orbit_numbers(j, gmax):
    """The orbit of each core of enumerate2(j, gmax, 0) under every
    permutation of the circles, numbered by its first core."""
    cores = enumerate2(j, gmax, 0)
    index = {m: i for i, m in enumerate(cores)}
    perms = list(itertools.permutations(range(j)))
    firsts = [min(index[relabelled(m, perm)] for perm in perms) for m in cores]
    number = {first: k for k, first in enumerate(sorted(set(firsts)))}
    return [number[first] for first in firsts]


@pytest.mark.parametrize("j,gmax", [(j, g) for j in range(5) for g in range(3)])
def test_core_orbit_labels_are_the_relabelling_orbits(j, gmax):
    # Equal labels exactly when the cores share an orbit, numbered in order
    # of first appearance.
    assert core_orbits(j, gmax).tolist() == brute_force_orbit_numbers(j, gmax)


def test_core_orbits_at_the_benchmark_size():
    orbit = core_orbits(4, 3)
    assert len(orbit) == 756 and orbit.max() + 1 == 105
    assert orbit.tolist() == brute_force_orbit_numbers(4, 3)


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


def every_core_its_own_orbit(j, g_max):
    """The trivial orbits: the first pass of the sweep is then the sweep over
    every core pair, and a square core table is built only on a failure."""
    return np.arange(len(enumerate2(j, g_max, 0)))


@pytest.mark.parametrize("j,gmax,budget", [(0, 2, 2), (1, 3, 2), (2, 2, 2), (3, 2, 2),
                                           (3, 1, 3), (4, 1, 1), (4, 2, 1)])
def test_representative_sweep_matches_the_sweep_over_every_core(monkeypatch, j, gmax,
                                                                budget):
    import umpair.dim2 as dim2_module

    reduced = verify_lemma_grid(j, gmax, budget)
    monkeypatch.setattr(dim2_module, "core_orbits", every_core_its_own_orbit)
    assert reduced == verify_lemma_grid(j, gmax, budget)
    assert reduced.passed and reduced.basis_size == len(enumerate2(j, gmax, budget))


def flat(surface):
    return (0, 0)


def reversed_count(surface):
    """Components count as lighter, not heavier: some triples of core
    gluings then fail and others pass."""
    entries = complexity2(surface)
    return (9 - entries[0],) + entries[1:]


@pytest.mark.parametrize("order,j,gmax,budget", [
    (flat, 0, 1, 2), (flat, 1, 1, 1), (flat, 2, 1, 1), (flat, 3, 1, 1), (flat, 4, 1, 0),
    # reversed_count passes over one circle or none.
    (reversed_count, 2, 1, 1), (reversed_count, 3, 1, 1), (reversed_count, 4, 1, 0)])
def test_failing_representative_sweep_falls_back_to_every_core(monkeypatch, order, j,
                                                               gmax, budget):
    # A failing first pass reruns the sweep over every core pair, whose
    # report equals the generic pairwise check's and the trivial orbits'.
    import umpair.dim2 as dim2_module

    tables = []

    def recording(j, g_max, rows=None):
        tables.append(rows is None)
        return core_gluing_table(j, g_max, rows)

    monkeypatch.setattr(dim2_module, "complexity2", order)
    monkeypatch.setattr(dim2_module, "core_gluing_table", recording)
    reduced = dim2_module.verify_lemma_grid(j, gmax, budget)
    assert tables == [False, True]
    generic = engine.verify_lemma(enumerate2(j, gmax, budget), Dim2Theory(j))
    assert not reduced.passed and reduced == generic
    monkeypatch.setattr(dim2_module, "core_orbits", every_core_its_own_orbit)
    assert dim2_module.verify_lemma_grid(j, gmax, budget) == reduced


@pytest.mark.parametrize("j,gmax", [(0, 2), (1, 3), (2, 2), (3, 3), (4, 3)])
def test_representative_core_table_equals_the_square_rows(j, gmax):
    square, square_genera = core_gluing_table(j, gmax)
    orbit = core_orbits(j, gmax)
    reps = np.unique(orbit, return_index=True)[1]
    # Representatives, then every core in reverse and one repeated: rows in
    # any order and from any partition.
    for rows in (reps, np.arange(len(orbit))[::-1], reps[-1:].repeat(2)):
        table, genera = core_gluing_table(j, gmax, rows=rows)
        assert table.shape == (len(rows), len(orbit))
        assert ([[genera[g] for g in row] for row in table.tolist()]
                == [[square_genera[g] for g in row] for row in square[rows].tolist()])
    assert set(core_gluing_table(j, gmax, rows=reps)[1]) == set(square_genera)


@pytest.mark.parametrize("j,gmax,budget", [(2, 2, 2), (3, 1, 2)])
def test_failing_run_calls_complexity2_once_per_distinct_merged_multiset(
        monkeypatch, j, gmax, budget):
    # The fallback reuses the rank table, so a failing run ranks no multiset
    # twice.  Violations read their complexities through the theory, which
    # is patched apart so that only the rank table's calls are counted.
    import umpair.dim2 as dim2_module

    calls = []

    def counting(surface):
        calls.append(surface.genera)
        return reversed_count(surface)

    monkeypatch.setattr(dim2_module, "complexity2", counting)
    monkeypatch.setattr(Dim2Theory, "complexity",
                        lambda self, closed: reversed_count(closed))
    report = dim2_module.verify_lemma_grid(j, gmax, budget)
    assert not report.passed
    cores = enumerate2(j, gmax, 0)
    closeds = closed_multisets(gmax, budget)
    core_genera = {glue2(m, n).genera for m in cores for n in cores}
    expected = {tuple(sorted(g + p + q))
                for g in core_genera for p in closeds for q in closeds}
    assert len(calls) == len(expected)
    assert set(calls) == expected


@pytest.mark.parametrize("bounds,name", [((-1, 0, 0), "j"), ((1, -1, 0), "g_max"),
                                         ((1, 0, -1), "closed_budget")])
def test_grid_verifier_rejects_negative_bounds(bounds, name):
    with pytest.raises(ValueError, match=f"bound {name} must be nonnegative"):
        verify_lemma_grid(*bounds)
    if name != "closed_budget":
        with pytest.raises(ValueError, match=f"bound {name} must be nonnegative"):
            core_gluing_table(*bounds[:2])


def test_grid_verifier_is_not_vacuous(monkeypatch):
    # Flatten the complexity order; every pair must then be reported, and the
    # grid sweep must agree with the generic pairwise check on the details.
    import umpair.dim2 as dim2_module

    monkeypatch.setattr(dim2_module, "complexity2", flat)
    grid_report = dim2_module.verify_lemma_grid(1, 1, 1)
    generic = engine.verify_lemma(enumerate2(1, 1, 1), Dim2Theory(1))
    assert not grid_report.passed and not generic.passed
    assert grid_report.pairs_checked == len(grid_report.violations) == 15
    assert grid_report.violations == generic.violations


def test_grid_verifier_matches_generic_verifier_on_partial_failures(monkeypatch):
    # With components counted lighter, the failing triples must expand to
    # exactly the pairs the generic check reports, in the same order.
    import umpair.dim2 as dim2_module

    monkeypatch.setattr(dim2_module, "complexity2", reversed_count)
    grid_report = dim2_module.verify_lemma_grid(2, 2, 2)
    generic = engine.verify_lemma(enumerate2(2, 2, 2), Dim2Theory(2))
    assert 0 < len(grid_report.violations) < grid_report.pairs_checked
    assert grid_report.violations == generic.violations
    for violation in grid_report.violations:
        for element in (violation.left, violation.right):
            assert_same_descriptor(element, checked_rebuild(element))


def test_glue2_and_rank_table_surfaces_equal_their_checked_builds(monkeypatch):
    # Both build their ClosedSurfaces without the checked constructor.  Over
    # j <= 3, g_max 3, budget 3, glue2 runs once per distinct core gluing
    # and closed union, which reaches every surface it can produce there,
    # and _rank_table once per distinct merged multiset; the two sets agree.
    import umpair.dim2 as dim2_module

    ranked = []

    def recording(surface):
        ranked.append(surface)
        return complexity2(surface)

    monkeypatch.setattr(dim2_module, "complexity2", recording)
    closeds = closed_multisets(3, 3)
    split = {}  # each closed union, from one pair of closed multisets
    for p in closeds:
        for q in closeds:
            split.setdefault(tuple(sorted(p + q)), (p, q))
    for j in range(4):
        cores = enumerate2(j, 3, 0)
        gid, genera = core_gluing_table(j, 3)
        ranked.clear()
        dim2_module._rank_table(genera, list(split))
        _, first = np.unique(gid, return_index=True)
        glued = [glue2(Bounded2Manifold(j, cores[a].parts, p),
                       Bounded2Manifold(j, cores[b].parts, q))
                 for a, b in zip(*np.divmod(first, len(cores)))
                 for p, q in split.values()]
        assert {s.genera for s in glued} == {s.genera for s in ranked}
        for surface in glued + ranked:
            assert_same_descriptor(surface, ClosedSurface(surface.genera[::-1]))


@pytest.mark.parametrize("j,gmax,budget", [(1, 3, 3), (2, 2, 2), (3, 1, 2)])
def test_rank_table_calls_complexity2_once_per_distinct_merged_multiset(
        monkeypatch, j, gmax, budget):
    # The patched-complexity tests above rely on every merged multiset
    # reaching complexity2, and the benchmark counts these calls.
    import umpair.dim2 as dim2_module

    calls = []

    def counting(surface):
        calls.append(surface.genera)
        return complexity2(surface)

    monkeypatch.setattr(dim2_module, "complexity2", counting)
    assert dim2_module.verify_lemma_grid(j, gmax, budget).passed
    cores = enumerate2(j, gmax, 0)
    closeds = closed_multisets(gmax, budget)
    core_genera = {glue2(m, n).genera for m in cores for n in cores}
    expected = {tuple(sorted(g + p + q))
                for g in core_genera for p in closeds for q in closeds}
    assert len(calls) == len(expected)
    assert set(calls) == expected


def per_multiset_ranks(genera, unions, order=complexity2):
    """The rank table through one ``order`` call per merged multiset."""
    values = [order(ClosedSurface(g + u)) for g in genera for u in unions]
    return engine.dense_ranks(values).reshape(len(genera), len(unions))


@pytest.mark.parametrize("j,gmax", itertools.product(range(5), range(4)))
def test_rank_table_matches_the_per_multiset_ranks(j, gmax):
    # The histogram ranks, on every grid's core genera and closed unions.
    _, genera = core_gluing_table(j, gmax, rows=np.unique(core_orbits(j, gmax),
                                                          return_index=True)[1])
    for budget in range(4):
        closeds = closed_multisets(gmax, budget)
        unions = list(dict.fromkeys(tuple(sorted(p + q)) for p in closeds for q in closeds))
        ranks = _rank_table(genera, unions)
        assert ranks.shape == (len(genera), len(unions))
        assert (ranks == per_multiset_ranks(genera, unions)).all()


@pytest.mark.parametrize("genera,unions", [
    ([()], [()]), ([(2,)], [()]), ([(0, 3)], [(1,), (0, 0), (2,)]),
    # Merged counts past 255 and 65,535, reached only by adding the two
    # sides, must widen the histogram dtype rather than wrap.
    ([(0,) * 128, (), (1,) * 3], [(0,) * 128, (), (0,) * 127]),
    ([(0,) * 40_000, (1,) * 2], [(0,) * 30_000, (), (0,) * 25_536])])
def test_rank_table_matches_the_per_multiset_ranks_at_the_edges(genera, unions):
    assert (_rank_table(genera, unions) == per_multiset_ranks(genera, unions)).all()


def test_unpatched_grid_sweep_never_calls_complexity2(monkeypatch):
    # The profiler sees every call of complexity2's code, however it is
    # reached, without rebinding any name of the module.
    import umpair.dim2 as dim2_module

    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is complexity2.__code__:
            calls.append(frame.f_locals["c"].genera)

    def profiled_sweep():
        calls.clear()
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            return verify_lemma_grid(2, 2, 2)
        finally:
            sys.setprofile(previous)

    assert profiled_sweep().passed and calls == []
    # With the guard failed, the per-multiset path calls the same code once
    # per distinct merged multiset, so the profiler would have seen it.
    monkeypatch.setattr(dim2_module, "_OWN_COMPLEXITY2", None)
    assert profiled_sweep().passed and len(calls) == len(set(calls)) > 0


@pytest.mark.parametrize("j", range(5))
def test_core_table_matches_glue2_on_every_core_pair(j):
    gmax = 3 if j < 4 else 1  # j = 4 has 15 partitions; g_max 1 keeps 94 cores
    cores = enumerate2(j, gmax, 0)
    gid, genera = core_gluing_table(j, gmax)
    assert gid.shape == (len(cores), len(cores))
    for a, m in enumerate(cores):
        for b, n in enumerate(cores):
            assert genera[gid[a, b]] == glue2(m, n).genera


def representative_triples(j, gmax):
    """(off, left, right, genera): the distinct core gluing id triples
    (gid[a, b], gid[a, a], gid[b, b]) of the sweep's first pass, b > a."""
    orbit = core_orbits(j, gmax)
    reps = np.unique(orbit, return_index=True)[1]
    gid, genera = core_gluing_table(j, gmax, rows=reps)
    diag = gid[orbit, reps[orbit]]
    upper = np.arange(len(orbit)) > reps[:, None]
    triples = np.stack([gid[upper], np.broadcast_to(diag[reps][:, None], gid.shape)[upper],
                        np.broadcast_to(diag, gid.shape)[upper]])
    return (*np.unique(triples, axis=1).reshape(3, -1), genera)


def count_then_reversed(surface):
    """Components count heaviest, as in complexity2, and its other entries
    are reversed: the component-count bound still holds, and triples that
    it leaves fail."""
    entries = complexity2(surface)
    return (entries[0], *(-e for e in entries[1:]))


def block_failures(off, left, right, genera, gmax, budget, order):
    """Whether the full block of each triple over the budget's closed
    multisets has a failing cell, with ranks read from ``order`` itself."""
    closeds = closed_multisets(gmax, budget)
    unions = list(dict.fromkeys(tuple(sorted(p + q)) for p in closeds for q in closeds))
    kuid = np.array([[unions.index(tuple(sorted(p + q))) for q in closeds] for p in closeds])
    ranks = per_multiset_ranks(genera, unions, order)
    diag_rank = ranks[:, kuid.diagonal()]
    return np.concatenate([np.zeros(0, dtype=bool)] + [
        (ranks[off[t:t + 1000]][:, kuid]
         >= np.maximum(diag_rank[left[t:t + 1000]][:, :, None],
                       diag_rank[right[t:t + 1000]][:, None, :])).any(axis=(1, 2))
        for t in range(0, len(off), 1000)])


@pytest.mark.parametrize("j,gmax", itertools.product(range(5), range(4)))
def test_component_count_bound_clears_only_passing_triples(j, gmax):
    # Every triple the sweep's component-count bound clears passes its full
    # block on every budget, under complexity2 and under another order that
    # counts components first.
    off, left, right, genera = representative_triples(j, gmax)
    cleared = _passes_by_count(np.array([len(g) for g in genera]), off, left, right)
    if (j, gmax) == (4, 3):
        assert (cleared.sum(), len(cleared)) == (14_795, 19_132)
    for order, budget in itertools.product((complexity2, count_then_reversed), range(4)):
        failing = block_failures(off, left, right, genera, gmax, budget, order)
        assert not failing[cleared].any()
        if (j, gmax, budget, order) == (4, 3, 3, count_then_reversed):
            assert failing.any()


def test_component_count_bound_fails_when_components_count_lighter():
    # The sweep applies the bound only while complexity2 is the module's own.
    off, left, right, genera = representative_triples(2, 2)
    cleared = _passes_by_count(np.array([len(g) for g in genera]), off, left, right)
    assert block_failures(off, left, right, genera, 2, 2, reversed_count)[cleared].any()


def horner(row, base):
    code = 0
    for digit in row:
        code = code * base + int(digit)
    return code


def test_packed_codes_past_int64_are_exact_and_in_row_order():
    # 13 digits at base 30, the core base at j = 4, g_max = 3, pass 2**63.
    rows = np.sort(np.random.default_rng(20503).integers(1, 30, size=(300, 13)), axis=1)
    rows[::7] = rows[3]
    rows[-1] = 29  # the largest code, 30**13 - 1
    codes = _packed(rows, [30] * 13)
    assert codes.dtype == object and max(codes) > 2**63
    assert codes.tolist() == [horner(row, 30) for row in rows.tolist()]
    assert (sorted(range(len(rows)), key=codes.__getitem__)
            == sorted(range(len(rows)), key=lambda i: rows[i].tolist()))
    fits = _packed(rows[:, :12], [30] * 12)  # 30**12 < 2**63
    assert fits.dtype == np.int64
    assert fits.tolist() == [horner(row, 30) for row in rows[:, :12].tolist()]


@pytest.mark.parametrize("j,gmax", [(2, 2), (3, 2), (4, 1)])
def test_core_table_on_object_codes_matches_glue2(monkeypatch, j, gmax):
    # No enumerable grid packs core codes past int64 (j = 5, g_max = 3 needs
    # under 2**27), so the bound is lowered until every code is a Python int.
    import umpair.dim2 as dim2_module

    packed = []

    def recording(digits, radix):
        packed.append(_packed(digits, radix))
        return packed[-1]

    int64_table, int64_genera = core_gluing_table(j, gmax)
    monkeypatch.setattr(dim2_module, "INT64_MAX", 0)
    monkeypatch.setattr(dim2_module, "_packed", recording)
    cores = enumerate2(j, gmax, 0)
    gid, genera = core_gluing_table(j, gmax)
    assert all(codes.dtype == object for codes in packed if codes.size)
    assert [[genera[g] for g in row] for row in gid.tolist()] == [
        [glue2(m, n).genera for n in cores] for m in cores]
    assert (gid == int64_table).all() and genera == int64_genera


def test_rank_table_past_int64_matches_the_per_multiset_ranks(monkeypatch):
    # 24 genera held up to 4 and 3 times give histogram radices of 8: the
    # radix product passes 2**63 and the codes are Python ints.
    import umpair.dim2 as dim2_module

    packed = []

    def recording(digits, radix):
        packed.append(_packed(digits, radix))
        return packed[-1]

    monkeypatch.setattr(dim2_module, "_packed", recording)
    genera = [tuple(sorted(list(range(24)) * 4)), (0,), (), (3, 23)]
    unions = [tuple(sorted(list(range(24)) * 3)), (), (5, 5, 23), tuple(range(24))]
    assert (_rank_table(genera, unions) == per_multiset_ranks(genera, unions)).all()
    assert [codes.dtype for codes in packed] == [object, object]


def test_grid_sweep_does_not_import_numpy_ma():
    # np.unique's values-only path imports numpy.ma, about 3 MB of peak RSS
    # in a fresh process; the sweep must not take it.
    src = str(Path(umpair.__file__).resolve().parents[1])
    script = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from umpair.dim2 import verify_lemma_grid; "
              "assert verify_lemma_grid(2, 1, 1).passed; "
              "print('numpy.ma' in sys.modules)")
    result = subprocess.run([sys.executable, "-I", "-c", script, src],
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


@pytest.mark.slow
def test_dim2_positivity_j5_in_a_fresh_process():
    """97,704 basis elements, 252 core orbits: under 2.6 s and 90 MB peak RSS."""
    src = str(Path(umpair.__file__).resolve().parents[1])
    script = ("import resource, sys, time; sys.path.insert(0, sys.argv[1]); "
              "from umpair.dim2 import verify_lemma_grid; "
              "start = time.perf_counter(); "
              "report = verify_lemma_grid(5, 3, 3); "
              "seconds = time.perf_counter() - start; "
              "assert report.passed and report.basis_size == 97704; "
              "print(seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    result = subprocess.run([sys.executable, "-I", "-c", script, src],
                            capture_output=True, text=True, check=True)
    seconds, max_rss_kb = result.stdout.split()
    assert float(seconds) < 2.6
    assert int(max_rss_kb) < 90 * 1024


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
    # An uncovered circle count this large must be refused before any list
    # of its labels is built.
    (Bounded2Manifold.from_json,
     {"dim": 2, "boundary_circles": 10**12, "parts": [{"circles": [0], "genus": 0}]}),
    (ClosedSurface.from_json, [1]),
    (ClosedSurface.from_json, {"dim": 2, "genera": 1}),
    (ClosedSurface.from_json, {"dim": 2, "genera": [True]}),
])
def test_json_rejects_wrong_types(decode, data):
    with pytest.raises(ValueError):
        decode(data)
