"""Surfaces: gluing, the lexicographic complexity, and the cell-count oracle."""

import functools
import itertools
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from oracles import (ComplexityTuple, core_table, euler_oracle, glued_genera,
                     sorted_chi_complexity)

import umpair
from umpair import engine
from umpair.algebra import UniverseMismatchError, canonical_key
from umpair.dim2 import (Bounded2Manifold, ClosedSurface, Dim2Theory, _cell_digits,
                         _clears_by_digits, _component_limbs, _core_blocks, _diagonal_digits,
                         _dominated, _genus_digits, _limb, _limbs, closed_multisets,
                         complexity2, core_orbits, enumerate2, glue2, verify_lemma_grid)
from umpair.engine import _packed

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


@pytest.mark.parametrize("j,gmax", [(j, g) for j in range(5) for g in range(3)]
                         + [(5, 0), (5, 1)])
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


def every_core_its_own_orbit(j, g_max, blocks=None):
    """The trivial orbits: the representative rows are then every core, and
    the sweep is the sweep over every core pair."""
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


def same_order(surface):
    """complexity2 itself, behind a name the grid does not know."""
    return complexity2(surface)


@pytest.mark.parametrize("order,j,gmax,budget", [
    (same_order, 0, 1, 1), (same_order, 2, 2, 2), (same_order, 3, 1, 2),
    (same_order, 4, 2, 1),
    (flat, 0, 1, 2), (flat, 1, 1, 1), (flat, 2, 1, 1), (flat, 3, 1, 1), (flat, 4, 1, 0),
    # reversed_count passes over one circle or none.
    (reversed_count, 2, 1, 1), (reversed_count, 3, 1, 1), (reversed_count, 4, 1, 0)])
def test_grid_runs_the_additive_test_or_the_generic_verifier(monkeypatch, order, j, gmax,
                                                             budget):
    # The own complexity2 clears every cell by its digits and builds no
    # basis.  A patched complexity2, or an additive test forced to leave
    # every cell, returns engine.verify_lemma's report over the basis: the
    # own report under a patch of the same order, a failing one under flat
    # or reversed_count, each equal to the generic check's.
    import umpair.dim2 as dim2_module

    calls = []

    def recording(name, function):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        monkeypatch.setattr(dim2_module, name, wrapped)

    for name in ("_clears_by_digits", "verify_lemma"):
        recording(name, getattr(dim2_module, name))
    own = dim2_module.verify_lemma_grid(j, gmax, budget)
    assert own.passed and calls == ["_clears_by_digits"]
    with monkeypatch.context() as patched:
        calls.clear()
        patched.setattr(dim2_module, "complexity2", order)
        report = dim2_module.verify_lemma_grid(j, gmax, budget)
        assert calls == ["verify_lemma"]
        assert report == engine.verify_lemma(enumerate2(j, gmax, budget), Dim2Theory(j))
        if order is same_order:
            assert report == own
        else:
            assert not report.passed
    calls.clear()
    monkeypatch.setattr(dim2_module, "_dominated", lambda tables, cells, diag, left, right:
                        np.zeros(cells.shape[1:], dtype=bool))
    assert dim2_module.verify_lemma_grid(j, gmax, budget) == own
    # A single core has no cell to leave.
    fallback = ["verify_lemma"] if len(enumerate2(j, gmax, 0)) > 1 else []
    assert calls == ["_clears_by_digits"] + fallback


@pytest.mark.parametrize("j,gmax", [(0, 2), (1, 3), (2, 2), (3, 3), (4, 3)])
def test_representative_core_table_equals_the_square_rows(j, gmax):
    # The cells' digits of any rows are those of the square table's rows.
    square, square_genera = core_table(j, gmax)
    orbit = core_orbits(j, gmax)
    reps = np.unique(orbit, return_index=True)[1]
    # Representatives, then every core in reverse and one repeated: rows in
    # any order and from any partition.
    for rows in (reps, np.arange(len(orbit))[::-1], reps[-1:].repeat(2)):
        table, genera = core_table(j, gmax, rows=rows)
        assert table.shape == (len(rows), len(orbit))
        assert ([[genera[g] for g in row] for row in table.tolist()]
                == [[square_genera[g] for g in row] for row in square[rows].tolist()])
    assert set(core_table(j, gmax, rows=reps)[1]) == set(square_genera)


@pytest.mark.parametrize("j,gmax", [(0, 2), (1, 3), (2, 2), (3, 2)])
def test_core_table_is_the_same_one_row_per_chunk(monkeypatch, j, gmax):
    # With one row per chunk every row's digits come on their own, and they
    # must be those of the default chunks.  Every core in reverse, then
    # repeats: rows of every partition, out of order and twice over.
    import umpair.dim2 as dim2_module

    cores = enumerate2(j, gmax, 0)
    rows = [*reversed(range(len(cores))), len(cores) // 2, len(cores) // 2, 0]

    def labels():
        gid, genera = core_table(j, gmax, rows=rows)
        assert len(set(genera)) == len(genera)
        return [[genera[g] for g in row] for row in gid.tolist()]

    default = labels()
    monkeypatch.setattr(dim2_module, "_TABLE_CHUNK", 1)
    assert labels() == default == [[glue2(cores[a], n).genera for n in cores]
                                   for a in rows]


@pytest.mark.parametrize("rows", [[-1], [0, 2]])
def test_core_table_rejects_rows_past_the_cores(rows):
    with pytest.raises(IndexError, match=r"core rows must lie in 0\.\.1"):
        core_table(2, 0, rows=rows)


@pytest.mark.parametrize("bounds,name", [((-1, 0, 0), "j"), ((1, -1, 0), "g_max"),
                                         ((1, 0, -1), "closed_budget")])
def test_grid_verifier_rejects_negative_bounds(bounds, name):
    with pytest.raises(ValueError, match=f"bound {name} must be nonnegative"):
        verify_lemma_grid(*bounds)
    if name != "closed_budget":
        with pytest.raises(ValueError, match=f"bound {name} must be nonnegative"):
            core_orbits(*bounds[:2])


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
    # With components counted lighter, some pairs fail and others pass; the
    # grid must report exactly the pairs the generic check reports, in order.
    import umpair.dim2 as dim2_module

    monkeypatch.setattr(dim2_module, "complexity2", reversed_count)
    grid_report = dim2_module.verify_lemma_grid(2, 2, 2)
    generic = engine.verify_lemma(enumerate2(2, 2, 2), Dim2Theory(2))
    assert 0 < len(grid_report.violations) < grid_report.pairs_checked
    assert grid_report.violations == generic.violations
    for violation in grid_report.violations:
        for element in (violation.left, violation.right):
            assert_same_descriptor(element, checked_rebuild(element))


def test_glue2_surfaces_equal_their_checked_builds():
    # glue2 builds its ClosedSurfaces without the checked constructor.  Over
    # j <= 3, g_max 3, budget 3, it runs once per distinct core gluing and
    # closed union, which reaches every surface it can produce there.
    closeds = closed_multisets(3, 3)
    split = {}  # each closed union, from one pair of closed multisets
    for p in closeds:
        for q in closeds:
            split.setdefault(tuple(sorted(p + q)), (p, q))
    for j in range(4):
        cores = enumerate2(j, 3, 0)
        gid, _ = core_table(j, 3)
        _, first = np.unique(gid, return_index=True)
        for a, b in zip(*np.divmod(first, len(cores))):
            for p, q in split.values():
                surface = glue2(Bounded2Manifold(j, cores[a].parts, p),
                                Bounded2Manifold(j, cores[b].parts, q))
                assert_same_descriptor(surface, ClosedSurface(surface.genera[::-1]))


@pytest.mark.parametrize("j,gmax,budget", [(1, 3, 3), (2, 2, 2), (3, 1, 2)])
def test_patched_grid_calls_complexity2_once_per_distinct_merged_multiset(
        monkeypatch, j, gmax, budget):
    # A patched complexity2 reaches every merged multiset once, through
    # engine.verify_lemma's ranks: the patched-complexity tests above rely
    # on that, and the benchmark's tracer counts these calls.
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
    """rank[g, u]: the dense rank of core genera g plus closed union u, through
    one ``order`` call per merged multiset."""
    values = [order(ClosedSurface(g + u)) for g in genera for u in unions]
    return engine.dense_ranks(values).reshape(len(genera), len(unions))


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
    # With the guard failed, the generic verifier calls the same code once
    # per distinct merged multiset, so the profiler would have seen it.
    monkeypatch.setattr(dim2_module, "_OWN_COMPLEXITY2", None)
    assert profiled_sweep().passed and len(calls) == len(set(calls)) > 0


@pytest.mark.parametrize("j", range(6))
def test_core_table_matches_glue2_on_every_core_pair(j):
    # j = 4 has 15 partitions, and g_max 1 keeps 94 cores; j = 5 sorts up to
    # five genera per cell, and g_max 0 keeps its 52 cores.
    gmax = {4: 1, 5: 0}.get(j, 3)
    cores = enumerate2(j, gmax, 0)
    gid, genera = core_table(j, gmax)
    assert gid.shape == (len(cores), len(cores))
    for a, m in enumerate(cores):
        for b, n in enumerate(cores):
            assert genera[gid[a, b]] == glue2(m, n).genera


@functools.lru_cache(maxsize=None)
def representative_triples(j, gmax):
    """(off, left, right, genera): the distinct core gluing id triples
    (gid[a, b], gid[a, a], gid[b, b]) over the representative rows a of
    ``core_orbits`` and their later cores b."""
    orbit = core_orbits(j, gmax)
    reps = np.unique(orbit, return_index=True)[1]
    gid, genera = core_table(j, gmax, rows=reps)
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


def block_failures(off, left, right, genera, gmax, budget, order, upper=False):
    """Whether the full block of each triple over the budget's closed
    multisets has a failing cell, with ranks read from ``order`` itself;
    only its strict upper triangle when ``upper``."""
    closeds = closed_multisets(gmax, budget)
    unions = list(dict.fromkeys(tuple(sorted(p + q)) for p in closeds for q in closeds))
    kuid = np.array([[unions.index(tuple(sorted(p + q))) for q in closeds] for p in closeds])
    ranks = per_multiset_ranks(genera, unions, order)
    diag_rank = ranks[:, kuid.diagonal()]
    cells = np.triu(np.ones(kuid.shape, dtype=bool), k=1 if upper else -len(kuid))
    return np.concatenate([np.zeros(0, dtype=bool)] + [
        ((ranks[off[t:t + 1000]][:, kuid]
          >= np.maximum(diag_rank[left[t:t + 1000]][:, :, None],
                        diag_rank[right[t:t + 1000]][:, None, :])) & cells).any(axis=(1, 2))
        for t in range(0, len(off), 1000)])


def multiset_digits(genera, j):
    """digits[k, i]: the sorted genera of multiset i, each plus 1, after 0s
    up to j columns, as ``_cell_digits`` lays out one cell."""
    return np.array([[0] * (j - len(g)) + [x + 1 for x in g] for g in genera],
                    dtype=np.int32).reshape(len(genera), j).T


def cleared_by_codes(j, gmax, off, left, right, genera):
    """The additive test on triples of ids into ``genera``, the multisets of
    core gluings over j circles: off gluings by their digits, diagonals by
    their limb codes."""
    tables = _component_limbs(j, gmax)
    digits = multiset_digits(genera, j)
    return _dominated(tables, digits[:, off], [_limb(table, digits) for table in tables],
                      left, right)


def random_multisets(seed, count):
    """``count`` seeded genus multisets, genera 0-12, the empty one first."""
    rng = random.Random(seed)
    return [()] + [tuple(sorted(rng.randint(0, 12) for _ in range(rng.randint(0, 5))))
                   for _ in range(count - 1)]


def test_genus_digits_add_and_order_as_complexity2():
    multisets = random_multisets(20503, 300)
    digits = _genus_digits(multisets, 13)
    for m, row in zip(multisets, digits.tolist()):
        counts = Counter(m)
        assert row == [len(m), sum(m), *(counts[g] for g in range(12, -1, -1))]
    vectors = [tuple(row) for row in digits.tolist()]
    values = [complexity2(ClosedSurface(m)) for m in multisets]
    for a, b in itertools.product(range(len(multisets)), repeat=2):
        assert (vectors[a] < vectors[b]) == (values[a] < values[b])
        assert (vectors[a] == vectors[b]) == (multisets[a] == multisets[b])
        if a < 40 and b < 40:
            union = _genus_digits([tuple(sorted(multisets[a] + multisets[b]))], 13)[0]
            assert (union == digits[a] + digits[b]).all()


@pytest.mark.parametrize("int64_max,limb_count", [(engine.INT64_MAX, 1), (2**12, 4), (0, 15)])
def test_dominated_is_the_lexicographic_sign_on_every_limb_split(monkeypatch, int64_max,
                                                                 limb_count):
    # The limb bound lowered until the digits split into a few limbs, then
    # into one limb each: the verdict must not depend on the split.  Off
    # gluings of up to five components are read by their digits, through
    # tables packed with the radix 2 max + 1 of the multisets' own digits.
    import umpair.dim2 as dim2_module

    multisets = random_multisets(53054, 60)
    vectors = _genus_digits(multisets, 13)
    monkeypatch.setattr(dim2_module, "INT64_MAX", int64_max)
    radix = (2 * vectors.max(axis=0) + 1).tolist()
    tables = _limbs(_genus_digits([()] + [(g,) for g in range(13)], 13), radix)
    assert len(tables) == limb_count
    cells = multiset_digits(multisets, 5)
    diag = [_limb(table, cells) for table in tables]
    assert all((codes == limb).all() for codes, limb in zip(diag, _limbs(vectors, radix)))
    rng = np.random.default_rng(20050303)
    off, left, right = rng.integers(0, len(multisets), size=(3, 4000))
    off[:60] = left[:60] = right[:60] = np.arange(60)     # D = 0: never below
    left[60:120] = off[60:120]                            # D = V(off) - V(right)
    expected = [tuple(2 * vectors[o]) < tuple(vectors[a] + vectors[b])
                for o, a, b in zip(off.tolist(), left.tolist(), right.tolist())]
    assert _dominated(tables, cells[:, off], diag, left, right).tolist() == expected
    # The same cells as a broadcast grid, as the grid's row chunks pass them.
    grid = _dominated(tables, np.broadcast_to(cells[:, :, None], (5, 60, 60)), diag,
                      np.arange(60)[:, None], np.arange(60))
    assert grid.tolist() == [[tuple(2 * vectors[o]) < tuple(vectors[o] + vectors[b])
                              for b in range(60)] for o in range(60)]
    assert 0 < sum(expected) < len(expected)


@pytest.mark.parametrize("j,gmax", [*itertools.product(range(5), range(4)), (5, 2)])
def test_cell_limbs_are_the_packed_genus_digits_of_the_core_table(j, gmax):
    # On every cell of the square table, the limb codes summed from the
    # cell's digits are the packed V of its multiset, with the static
    # radices: n and each histogram count at most j, every genus and the
    # total genus at most 2 j gmax + j - 1, radix 2 M + 1 for a bound M.
    # Each core's diagonal, read off its own parts, is the table's.
    gid, genera = core_table(j, gmax)
    width = j * (2 * gmax + 1)
    vectors = _genus_digits(genera, width)
    bounds = [j, max(width - 1, 0)] + [j] * width
    assert (vectors.max(axis=0) <= bounds).all()
    assert max((max(g, default=0) for g in genera), default=0) < max(width, 1)
    expected = _limbs(vectors, [2 * bound + 1 for bound in bounds])
    tables = _component_limbs(j, gmax)
    assert len(tables) == len(expected) and all(table[0] == 0 for table in tables)
    blocks = _core_blocks(j, gmax)
    seen = np.zeros(len(gid), dtype=bool)
    for chunk, digits in _cell_digits(blocks, j, np.arange(len(gid))):
        for table, codes in zip(tables, expected):
            assert (_limb(table, digits) == codes[gid[chunk]]).all()
        seen[chunk] = True
    assert seen.all()
    diagonal = _diagonal_digits(blocks, j)
    assert [tuple(sorted(d - 1 for d in column if d)) for column in diagonal.T.tolist()] == [
        genera[g] for g in gid.diagonal().tolist()]


@pytest.mark.parametrize("j,gmax", [(3, 2), (4, 3), (5, 2)])
def test_core_table_keeps_euler_characteristic_additive(j, gmax):
    # chi(M glued to N) = chi(M) + chi(N), so on every cell of the square
    # table 2 n_off - n_left - n_right = 2 G_off - G_left - G_right: totals
    # tie whenever counts tie, and the genus histogram decides.
    gid, genera = core_table(j, gmax)
    n = np.array([len(g) for g in genera])
    total = np.array([sum(g) for g in genera])
    diag = gid.diagonal()
    counts = 2 * n[gid] - n[diag][:, None] - n[diag][None, :]
    assert (counts == 2 * total[gid] - total[diag][:, None] - total[diag][None, :]).all()
    assert (counts == 0).any() and (counts < 0).any()


@functools.lru_cache(maxsize=None)
def triple_failures(j, gmax, budget, order):
    """block_failures of every representative triple of (j, gmax)."""
    off, left, right, genera = representative_triples(j, gmax)
    return block_failures(off, left, right, genera, gmax, budget, order)


@pytest.mark.parametrize("j,gmax", itertools.product(range(5), range(4)))
def test_additive_bound_clears_only_passing_triples(j, gmax):
    # Every triple the additive test clears passes its full block on every
    # budget, and every same-core block its strict upper triangle, though
    # not its diagonal.  Under an order that counts components first but
    # reverses the rest, a cleared triple fails: the test leans on more
    # of complexity2 than its first entry.
    off, left, right, genera = representative_triples(j, gmax)
    cleared = cleared_by_codes(j, gmax, off, left, right, genera)
    if (j, gmax) == (4, 3):
        assert (cleared.sum(), len(cleared)) == (19_132, 19_132)
    own = np.unique(np.concatenate([left, [0]]))
    for budget in range(4):
        assert not triple_failures(j, gmax, budget, complexity2)[cleared].any()
        assert not block_failures(own, own, own, genera, gmax, budget, complexity2,
                                  upper=True).any()
        assert block_failures(own, own, own, genera, gmax, budget, complexity2).all()
    if (j, gmax) == (4, 3):
        assert triple_failures(4, 3, 3, count_then_reversed)[cleared].any()


def cleared_by_count(j, gmax):
    """The triples whose off gluing has fewer components than the mean of
    its two diagonals: the first digit of the additive test is negative."""
    off, left, right, genera = representative_triples(j, gmax)
    components = np.array([len(g) for g in genera])
    return 2 * components[off] < components[left] + components[right]


@pytest.mark.parametrize("j,gmax", itertools.product(range(5), range(4)))
def test_component_count_bound_clears_only_passing_triples(j, gmax):
    # The count bound alone passes every block it clears, under complexity2
    # and under another order that counts components first, and the
    # additive test, whose first digit it is, clears each of them too.
    cleared = cleared_by_count(j, gmax)
    if (j, gmax) == (4, 3):
        assert (cleared.sum(), len(cleared)) == (14_795, 19_132)
    off, left, right, genera = representative_triples(j, gmax)
    assert cleared_by_codes(j, gmax, off, left, right, genera)[cleared].all()
    for order, budget in itertools.product((complexity2, count_then_reversed), range(4)):
        failing = triple_failures(j, gmax, budget, order)
        assert not failing[cleared].any()
        if (j, gmax, budget, order) == (4, 3, 3, count_then_reversed):
            assert failing.any()


def test_component_count_bound_fails_when_components_count_lighter():
    # The grid applies the additive test, which clears every triple the
    # count clears, only while complexity2 is the module's own.
    assert triple_failures(2, 2, 2, reversed_count)[cleared_by_count(2, 2)].any()


def random_core(rng, j, partition=None):
    """A seeded core over j circles: ``partition``, or a random partition
    of the circles, with a genus of 0-4 on each block."""
    if partition is None:
        blocks = {}
        for circle in range(j):
            blocks.setdefault(rng.randrange(j), []).append(circle)
        partition = blocks.values()
    return Bounded2Manifold(j, tuple((tuple(block), rng.randint(0, 4)) for block in partition))


def test_distinct_cores_glue_below_their_diagonals_in_the_additive_digits():
    # The completeness argument of _clears_by_digits, through glue2 and
    # _genus_digits alone: for distinct cores a, b over at most 8 circles,
    # genera at most 4, 2 V(ab) <lex V(aa) + V(bb).  Different partitions
    # decide it by the component count; the same partition ties the count
    # and the total genus, and the genus histogram decides.
    rng = random.Random(20050303)
    pairs = {True: [], False: []}      # by whether the partitions are equal
    while min(map(len, pairs.values())) < 1500:
        j = rng.randint(1, 8)
        a = random_core(rng, j)
        same = rng.random() < 0.5
        b = random_core(rng, j, [circles for circles, _ in a.parts] if same else None)
        if a != b:
            pairs[[c for c, _ in a.parts] == [c for c, _ in b.parts]].append((a, b))
    for same, kind in pairs.items():
        multisets = [glue2(*pair).genera for a, b in kind for pair in ((a, b), (a, a), (b, b))]
        width = 1 + max(max(m, default=0) for m in multisets)
        for off, left, right in _genus_digits(multisets, width).reshape(
                len(kind), 3, width + 2).tolist():
            assert [2 * d for d in off] < [x + y for x, y in zip(left, right)]
            if same:
                assert [2 * d for d in off[:2]] == [x + y for x, y in zip(left[:2], right[:2])]
            else:
                assert 2 * off[0] < left[0] + right[0]


@pytest.mark.parametrize("j,gmax", [*itertools.product(range(5), range(4)),
                                    (5, 2), (6, 1), (7, 0)])
def test_additive_test_clears_every_grid(j, gmax):
    blocks = _core_blocks(j, gmax)
    reps = np.unique(core_orbits(j, gmax, blocks), return_index=True)[1]
    assert _clears_by_digits(blocks, j, gmax, reps)


@pytest.mark.parametrize("j,gmax", [(2, 2), (3, 1), (4, 3)])
def test_additive_test_leaves_cells_whose_off_gluing_is_not_below(monkeypatch, j, gmax):
    # The real digits clear; with each unused column of an off gluing made a
    # sphere (the diagonals kept), every off gluing has j components, at
    # least the mean of its diagonals', and no cell is cleared.
    import umpair.dim2 as dim2_module

    blocks = _core_blocks(j, gmax)
    reps = np.unique(core_orbits(j, gmax), return_index=True)[1]
    assert dim2_module._clears_by_digits(blocks, j, gmax, reps)

    def heavier(blocks, j, rows):
        for chunk, digits in _cell_digits(blocks, j, rows):
            yield chunk, np.where(digits == 0, 1, digits)

    monkeypatch.setattr(dim2_module, "_cell_digits", heavier)
    assert not dim2_module._clears_by_digits(blocks, j, gmax, reps)


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


@pytest.mark.parametrize("bounds", [(2, 1, 1), (4, 3, 3)], ids=["2-1-1", "4-3-3"])
def test_grid_sweep_does_not_import_numpy_ma(bounds):
    # np.unique's values-only path imports numpy.ma, about 2-3 MB of peak
    # RSS in a fresh process; the sweep must not take it, at a toy size or
    # at the benchmark's.
    src = str(Path(umpair.__file__).resolve().parents[1])
    script = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from umpair.dim2 import verify_lemma_grid; "
              "assert verify_lemma_grid(*map(int, sys.argv[2:])).passed; "
              "print('numpy.ma' in sys.modules)")
    result = subprocess.run([sys.executable, "-I", "-c", script, src, *map(str, bounds)],
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def fresh_grid(j, gmax, budget):
    """(seconds, basis size, peak RSS in kB) of verify_lemma_grid in a fresh
    process, which must pass.  The RSS is the child's own VmHWM: Linux
    carries ``ru_maxrss`` across exec, so there it would read at least the
    RSS of the test process."""
    src = str(Path(umpair.__file__).resolve().parents[1])
    script = ("import resource, sys, time; sys.path.insert(0, sys.argv[1]); "
              "from umpair.dim2 import verify_lemma_grid; "
              "start = time.perf_counter(); "
              "report = verify_lemma_grid(*map(int, sys.argv[2:])); "
              "seconds = time.perf_counter() - start; "
              "assert report.passed; "
              "from pathlib import Path; status = Path('/proc/self/status'); "
              "print(seconds, report.basis_size, "
              "status.read_text().split('VmHWM:')[1].split()[0] "
              "if status.exists() else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    result = subprocess.run([sys.executable, "-I", "-c", script, src, str(j), str(gmax),
                             str(budget)], capture_output=True, text=True, check=True)
    seconds, size, max_rss_kb = result.stdout.split()
    return float(seconds), int(size), int(max_rss_kb)


@pytest.mark.slow
def test_dim2_positivity_j5_in_a_fresh_process():
    """97,704 basis elements, 252 core orbits: under 2.6 s and 90 MB peak RSS."""
    seconds, size, max_rss_kb = fresh_grid(5, 3, 3)
    assert size == 97704
    assert seconds < 2.6
    assert max_rss_kb < 90 * 1024


@pytest.mark.slow
@pytest.mark.parametrize("j,gmax,budget,size,limit_s", [(7, 1, 0, 14_214, 1.0),
                                                        (5, 4, 4, 489_440, 2.0),
                                                        (7, 2, 0, 88_563, 3.5)],
                         ids=["7-1-0", "5-4-4", "7-2-0"])
def test_dim2_frontier_grids_in_a_fresh_process(j, gmax, budget, size, limit_s):
    """Under 80 MB peak RSS each.  At (7, 1, 0) the grid has 877 circle
    partitions; a table that held every core's genera against every block
    of every partition took 4.4 s and 218 MB there, end to end, and this
    grid takes 0.16-0.20 s.  (5, 4, 4) takes 0.20-0.25 s; a sweep over its
    distinct core triples peaked at 133 MB.  (7, 2, 0) glues 429 rows of
    88,563 cores in 1.5-1.7 s and 54 MB; with the whole table of gluing
    ids held it took 4.4 s and 219 MB.  Each time varies up to 2x with the
    machine's speed.
    """
    seconds, basis_size, max_rss_kb = fresh_grid(j, gmax, budget)
    assert basis_size == size
    assert seconds < limit_s
    assert max_rss_kb < 80 * 1024


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
