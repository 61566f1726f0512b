"""Compact oriented surfaces: canonical forms, gluing, lexicographic complexity.

A compact oriented surface with boundary a fixed union of j labelled circles
is classified, rel boundary, by which circles each connected component meets
and the genus of each component, plus the genera of any closed components
carried along.  A bounded descriptor is therefore a partition of the circle
labels with a genus per block, together with a multiset of closed genera.
(The classification of the boundary-meeting data as partition plus genus is
a modelling assumption of this package; its consequences are verified
exhaustively at the scales the test suite covers, never assumed.)

Gluing m to the reversal of n identifies the two copies of each boundary
circle.  Components of the result correspond to connected components of the
bipartite graph with the parts of m and n as vertices and the j circles as
edges; Euler characteristic adds over parts, a part of genus g with b
boundary circles contributing 2 - 2g - b.

Complexity of a closed surface with components of Euler characteristics
chi_1 <= ... <= chi_n and total chi is the integer tuple

    (n, -chi, -chi_1, ..., -chi_n),

compared lexicographically as a plain tuple.  Tuples of different lengths
differ in their first entry, so no padding is needed.

``verify_lemma_grid`` is an exhaustive diagonal-dominance check over the
full enumerated basis, in three exact numpy phases.  It must agree with
engine.verify_lemma (the generic glue-table check) wherever both are feasible;
the tests enforce that, and check the core table against glue2.

1. Core table.  Relabelling the circles keeps every gluing, so only the
   first core of each orbit (``core_orbits``: cores with equal sorted
   (block size, genus) multisets) is glued against every core.  The
   components of a gluing of two bounded cores depend only on their two
   circle partitions, so components are found once per pair of a
   partition holding a representative with any partition, by the one
   bitmask ``_merge`` that glue2 shares; a component's genus is the genus sum
   of its parts + E - V + 1 (E circles, V parts), computed for every pair
   of genus assignments at once by an integer matrix product.  Each cell's
   genera are sorted and packed into one integer code, and each core pair
   gets an id of its code, that is of its genus multiset.
2. Ranks.  Each merged multiset (core genera plus the union of two closed
   multisets) is coded by its (n, total genus, genus histogram from the top
   genus down) in mixed radix, so that the code of a union is the sum of
   its two sides' codes and code order is exactly the complexity order
   while complexity2 is this module's own.  The rank of a merged multiset
   is the slot of its code among the distinct codes.  A patched complexity2
   is instead called once per distinct code and its values ranked densely,
   so integer rank order is their order whatever totally ordered values it
   returns.
3. Sweep.  For cores a < b every verdict between their elements depends
   only on the triple of ids (a, b), (a, a), (b, b); each distinct triple is
   checked once as a block over closed-multiset pairs, except that, while
   complexity2 is this module's own, a triple whose off gluing has fewer
   components than the mean of its two diagonals passes unchecked (closed
   parts add to the off count the mean of what they add to the diagonals).
   a == b is checked on the strict upper triangle of its block.  Every
   pair of cores is a relabelled pair of a representative row, so those
   rows are swept first.  Any failure there builds the square core table
   (it holds no multiset the rows lacked, so the ranks serve it unchanged)
   and sweeps every core pair; only that sweep expands failing triples back
   to basis positions, so violations come out in one order.  The sweep runs
   in one process.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from .algebra import (UniverseMismatchError, build_canonical, check_bounds, json_int,
                      json_list)
from .engine import INT64_MAX, GluingTheory, LemmaReport, LemmaViolation, dense_ranks


@dataclass(frozen=True)
class Bounded2Manifold:
    """Partition of the boundary circles with genera, plus closed pieces.

    ``parts`` lists the components meeting the boundary as (circle labels,
    genus); ``closed_genera`` is the sorted multiset of genera of closed
    components.  Construction canonicalizes ordering, so structural equality
    is equivalence rel boundary.
    """

    boundary_circles: int
    parts: tuple[tuple[tuple[int, ...], int], ...]
    closed_genera: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        j = self.boundary_circles
        if j < 0:
            raise ValueError("boundary circle count must be nonnegative")
        parts = tuple(sorted((tuple(sorted(circles)), genus)
                             for circles, genus in self.parts))
        covered = [c for circles, _ in parts for c in circles]
        if len(covered) != j or sorted(covered) != list(range(j)):
            raise ValueError(
                f"parts must partition the circle labels 0..{j - 1}, got {covered}")
        for circles, genus in parts:
            if not circles:
                raise ValueError("every part must meet the boundary")
            if genus < 0:
                raise ValueError("genus must be nonnegative")
        closed = tuple(sorted(self.closed_genera))
        if any(g < 0 for g in closed):
            raise ValueError("closed genera must be nonnegative")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "closed_genera", closed)

    def universe_key(self) -> int:
        return self.boundary_circles

    @functools.cached_property
    def masked(self) -> tuple[tuple[int, int], ...]:
        """``_masked(self)``, computed on first read by glue2 and kept."""
        return tuple(_masked(self))

    def to_json(self) -> dict[str, Any]:
        return {
            "dim": 2,
            "boundary_circles": self.boundary_circles,
            "parts": [{"circles": list(circles), "genus": genus}
                      for circles, genus in self.parts],
            "closed": list(self.closed_genera),
        }

    @classmethod
    def from_json(cls, data: Any) -> Bounded2Manifold:
        if not isinstance(data, dict) or data.get("dim") != 2 or "parts" not in data:
            raise ValueError(f"not a bounded 2-manifold descriptor: {data!r}")
        parts = []
        for part in json_list(data["parts"], "parts"):
            if not isinstance(part, dict) or set(part) != {"circles", "genus"}:
                raise ValueError(
                    f"malformed part {part!r}, expected {{'circles': [...], 'genus': g}}")
            parts.append((tuple(json_int(c, "circle label")
                                for c in json_list(part["circles"], "part circles")),
                          json_int(part["genus"], "genus")))
        closed = json_list(data.get("closed", []), "closed genera")
        return cls(json_int(data.get("boundary_circles"), "boundary_circles"),
                   tuple(parts), tuple(json_int(g, "closed genus") for g in closed))


@dataclass(frozen=True)
class ClosedSurface:
    """A closed oriented surface: the multiset of component genera.

    The genera ascend (construction sorts them); complexity2 relies on that.
    """

    genera: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(g < 0 for g in self.genera):
            raise ValueError("genera must be nonnegative")
        object.__setattr__(self, "genera", tuple(sorted(self.genera)))

    def euler_characteristic(self) -> int:
        return sum(2 - 2 * g for g in self.genera)

    def to_json(self) -> dict[str, Any]:
        return {"dim": 2, "genera": list(self.genera)}

    def json_key(self) -> str:
        return '{"dim":2,"genera":[%s]}' % ",".join(map(str, self.genera))

    @classmethod
    def from_json(cls, data: Any) -> ClosedSurface:
        if not isinstance(data, dict) or data.get("dim") != 2 or "genera" not in data:
            raise ValueError(f"not a closed surface descriptor: {data!r}")
        return cls(tuple(json_int(g, "genus") for g in json_list(data["genera"], "genera")))


def complexity2(c: ClosedSurface) -> tuple[int, ...]:
    """Complexity of a closed surface: components count heaviest, then -chi.

    The genera ascend, so the -chi = 2g - 2 of the components in ascending
    chi order are those of the genera in reverse.
    """
    neg = [2 * g - 2 for g in reversed(c.genera)]
    return (len(neg), sum(neg), *neg)


# The complexity that ``_rank_table`` ranks from histograms without calling it.
_OWN_COMPLEXITY2 = complexity2


def glue2(m: Bounded2Manifold, n: Bounded2Manifold) -> ClosedSurface:
    """Glue m to the reversal of n along their j shared boundary circles.

    The components come from ``_merge`` of the parts as (circle bitmask,
    chi) pairs, ``Bounded2Manifold.masked``: a component's chi is its parts' sum.
    """
    if m.boundary_circles != n.boundary_circles:
        raise UniverseMismatchError(
            f"boundary mismatch: {m.boundary_circles} vs {n.boundary_circles} circles")
    genera = [*m.closed_genera, *n.closed_genera]
    for _, chi in _merge(m.masked, n.masked):
        if chi % 2 != 0 or chi > 2:
            raise AssertionError(f"impossible component chi {chi} in gluing")
        genera.append((2 - chi) // 2)
    genera.sort()
    # The chi check above keeps every core genus nonnegative, and the closed
    # genera were checked when m and n were built.
    return build_canonical(ClosedSurface, genera=tuple(genera))


def _masked(m: Bounded2Manifold) -> list[tuple[int, int]]:
    """(circle bitmask, chi) of each part of m; chi = 2 - 2g - circles."""
    out = []
    for circles, genus in m.parts:
        mask = 0  # a plain loop: a sum over a generator nearly doubles glue2's time
        for c in circles:
            mask |= 1 << c
        out.append((mask, 2 - 2 * genus - len(circles)))
    return out


def _merge(left: Sequence[tuple[int, int]], right: Sequence[tuple[int, int]]
           ) -> Sequence[tuple[int, int]]:
    """The components of a gluing as (circle bitmask, weight) pairs.

    ``left`` and ``right`` are the parts of the two sides as (circle bitmask,
    weight); the masks of each side are disjoint.  Gluing joins the two
    parts holding each circle, so each part of ``right`` absorbs every
    component it meets, and a component's weight is the sum of its parts'.
    """
    components = left
    for mask, weight in right:
        kept = []
        for component in components:
            if component[0] & mask:
                mask |= component[0]
                weight += component[1]
            else:
                kept.append(component)
        kept.append((mask, weight))
        components = kept
    return components


def _set_partitions(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Partitions of range(n) into blocks ordered by smallest element."""
    blocks: list[list[int]] = []

    def place(i: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if i == n:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from place(i + 1)
            b.pop()
        blocks.append([i])
        yield from place(i + 1)
        blocks.pop()

    yield from place(0)


def closed_multisets(g_max: int, budget: int) -> list[tuple[int, ...]]:
    """Sorted genus multisets with at most ``budget`` components, total genus
    at most ``budget`` and each genus at most ``g_max``."""
    check_bounds({"g_max": g_max, "budget": budget})
    found: list[tuple[int, ...]] = []

    def grow(prefix: list[int], start: int, total: int) -> None:
        found.append(tuple(prefix))
        if len(prefix) == budget:
            return
        for g in range(start, g_max + 1):
            if total + g <= budget:
                grow(prefix + [g], g, total + g)

    grow([], 0, 0)
    return sorted(found, key=lambda t: (len(t), t))


def enumerate2(j: int, g_max: int, closed_budget: int = 0) -> list[Bounded2Manifold]:
    """Every canonical bounded surface over j circles within the bounds.

    Deterministic order: partitions of the circle labels, then genus
    assignments, then closed multisets (so consecutive runs agree exactly).
    """
    check_bounds({"j": j, "g_max": g_max, "closed_budget": closed_budget})
    out = []
    closeds = closed_multisets(g_max, closed_budget)
    # Blocks come sorted and ordered by smallest element, and each closed
    # multiset sorted, so every element is built already canonical.
    for partition in _set_partitions(j):
        for genera in itertools.product(range(g_max + 1), repeat=len(partition)):
            parts = tuple(zip(partition, genera))
            for closed in closeds:
                out.append(build_canonical(Bounded2Manifold, boundary_circles=j,
                                           parts=parts, closed_genera=closed))
    return out


@dataclass(frozen=True)
class Dim2Theory(GluingTheory):
    """Gluing theory of bounded surfaces over j labelled circles."""

    boundary_circles: int

    def glue(self, a: Bounded2Manifold, b: Bounded2Manifold) -> ClosedSurface:
        return glue2(a, b)

    def reverse(self, closed: ClosedSurface) -> ClosedSurface:
        # A closed oriented surface is diffeomorphic to its reversal.
        return closed

    def complexity(self, closed: ClosedSurface) -> tuple[int, ...]:
        return complexity2(closed)

    def validate_basis(self, descriptor: Any) -> None:
        if not isinstance(descriptor, Bounded2Manifold):
            raise UniverseMismatchError(f"not a bounded surface: {descriptor!r}")
        if descriptor.boundary_circles != self.boundary_circles:
            raise UniverseMismatchError(
                f"boundary mismatch: {descriptor.boundary_circles} vs "
                f"{self.boundary_circles} circles")


def _components(left: tuple[tuple[int, ...], ...],
                right: tuple[tuple[int, ...], ...]) -> tuple[np.ndarray, np.ndarray]:
    """Components of the gluing of two circle partitions, genera aside.

    Returns (incidence, offset): incidence[v, c] is 1 when part v (the parts
    of ``left``, then those of ``right``) lies in component c, and offset[c]
    is E - V + 1 for its E circles and V parts.  A component's genus is the
    genus sum of its parts plus its offset.  The components are those of
    ``_merge``, weighted by their part count.
    """
    masks = [sum(1 << c for c in circles) for circles in left + right]
    split = len(left)
    components = _merge([(mask, 1) for mask in masks[:split]],
                        [(mask, 1) for mask in masks[split:]])
    incidence = np.array([[part & mask != 0 for mask, _ in components] for part in masks],
                         dtype=np.int32).reshape(len(masks), len(components))
    offset = np.array([mask.bit_count() - parts + 1 for mask, parts in components],
                      dtype=np.int32)
    return incidence, offset


def _packed(digits: np.ndarray, radix: Sequence[int]) -> np.ndarray:
    """Each row of ``digits`` as one mixed-radix integer, its first digit most
    significant and digit i below radix[i].

    Integer order of the codes is then lexicographic order of the rows, and
    rows whose digit-wise sums stay below the radices add as their codes do.
    The codes are int64 while every row fits it (the radix product is at most
    2**63), and Python ints (dtype object) past that.
    """
    weights = []
    product = 1
    for r in reversed(radix):
        weights.append(product)
        product *= r
    dtype = np.int64 if product - 1 <= INT64_MAX else object
    return digits.astype(dtype) @ np.array(weights[::-1], dtype=dtype)


def core_orbits(j: int, g_max: int) -> np.ndarray:
    """orbit[c]: the orbit of core c under relabelling the j circles.

    The cores are enumerate2(j, g_max, 0), in that order; orbits are
    numbered in order of first appearance.  The label of a core is the
    sorted multiset of (block size, genus) over its parts.  It is a complete
    invariant: two partitions with the same block sizes are related by a
    relabelling, which can then match up the blocks of equal (size, genus).
    """
    check_bounds({"j": j, "g_max": g_max})
    slot: dict[tuple[tuple[int, int], ...], int] = {}
    return np.array([slot.setdefault(tuple(sorted(zip(map(len, partition), genera))),
                                     len(slot))
                     for partition in _set_partitions(j)
                     for genera in itertools.product(range(g_max + 1),
                                                     repeat=len(partition))],
                    dtype=np.intp)


def core_gluing_table(j: int, g_max: int, rows: Sequence[int] | None = None
                      ) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Genus multiset of the gluing of cores, rows by every core.

    The cores are enumerate2(j, g_max, 0), in that order, and ``rows`` are
    core indices (every core when omitted, giving the square table).
    Returns (gid, genera) with genera[gid[i, b]] ==
    glue2(cores[rows[i]], cores[b]).genera.  Components are found once per
    pair of circle partitions with a row on the left; the genera of every pair
    of genus assignments of those partitions then come from products with
    the component incidence matrix.  Each cell's genera, sorted and each
    raised by 1, pack into one ``_packed`` code of base 2 j g_max + j + 2:
    a component has at most 2j parts, each of genus at most g_max, and
    E - V + 1 < j, so every digit lies in 1..base - 1.  No digit is 0, so
    multisets of different lengths never share a code.  Each block of cells
    is deduplicated on its own codes (one np.unique over the whole table
    would hold every code at once), and its distinct codes take global ids
    through one dict; the multisets are unpacked from the codes at the end.
    """
    check_bounds({"j": j, "g_max": g_max})
    partitions = list(_set_partitions(j))
    assignments = [np.array(list(itertools.product(range(g_max + 1), repeat=len(p))),
                            dtype=np.int32) for p in partitions]  # enumerate2's order
    starts = np.cumsum([0] + [len(a) for a in assignments])
    row_cores = np.arange(starts[-1]) if rows is None else np.asarray(rows, dtype=np.intp)
    gid = np.empty((len(row_cores), starts[-1]), dtype=np.int32)
    base = 2 * j * g_max + j + 2
    ids: dict[int, int] = {}
    for p in range(len(partitions)):
        mine = np.flatnonzero((row_cores >= starts[p]) & (row_cores < starts[p + 1]))
        if not len(mine):
            continue
        left_genera = assignments[p][row_cores[mine] - starts[p]]
        for q in range(len(partitions)):
            incidence, offset = _components(partitions[p], partitions[q])
            split = len(partitions[p])
            left = left_genera @ incidence[:split]
            right = assignments[q] @ incidence[split:]
            digits = np.sort(left[:, None, :] + right[None, :, :] + (offset + 1), axis=2)
            codes = _packed(digits.reshape(len(left) * len(right), -1), [base] * len(offset))
            distinct, inverse = np.unique(codes, return_inverse=True)
            global_ids = np.array([ids.setdefault(code, len(ids))
                                   for code in distinct.tolist()], dtype=np.int32)
            gid[mine, starts[q]:starts[q + 1]] = global_ids[inverse].reshape(
                len(left), len(right))

    def unpacked(code: int) -> tuple[int, ...]:
        genera = []
        while code:
            code, digit = divmod(code, base)
            genera.append(digit - 1)
        return tuple(genera[::-1])

    return gid, [unpacked(code) for code in ids]


def _rank_table(genera: list[tuple[int, ...]],
                unions: list[tuple[int, ...]]) -> np.ndarray:
    """rank[g, u]: dense complexity rank of core genera g plus closed union u.

    Equal complexities share a rank, so integer order of ranks is the
    complexity order.  Each multiset m is read as its digits (n, G, h[top],
    ..., h[0]): its length, total genus and genus histogram.  Every digit
    of a merged multiset is the sum of its two sides' digits, so with each
    digit's radix one more than the sum of the two sides' largest values,
    the ``_packed`` codes add: code(g + u) == code(g) + code(u).  The table
    is one broadcast add of the two sides' codes, deduplicated by np.unique.

    While complexity2 is this module's own (``_OWN_COMPLEXITY2``), it is
    never called.  For n components of total genus G, complexity2 is
    (n, 2G - 2n, 2g - 2 for the genera in descending order), and descending
    sequences of equal length compare as their histograms read from the
    top genus down; so code order is the complexity order, and as a
    histogram and its complexity determine each other, the slot of each
    code among the distinct codes is its rank.  The benchmark's tracer
    rebinds the alias along with complexity2, so a traced pass takes this
    path too and counts no complexity2 call.

    A patched complexity2 runs once per distinct code instead, on the first
    (g, u) with that code, and its values are ranked densely.  Its
    ClosedSurface is built already sorted, without the checks of its
    constructor: core genera and closed unions are nonnegative by
    construction.
    """
    width = 1 + max(max(m, default=0) for m in genera + unions)

    def digits(multisets: list[tuple[int, ...]]) -> np.ndarray:
        lengths = np.fromiter(map(len, multisets), np.int64, len(multisets))
        row = np.repeat(np.arange(len(multisets)), lengths)
        flat = np.fromiter(itertools.chain.from_iterable(multisets), np.int64)
        counts = np.bincount(row * width + flat, minlength=len(multisets) * width
                             ).reshape(len(multisets), width)
        return np.column_stack([lengths, counts @ np.arange(width), counts[:, ::-1]])

    sides = digits(genera), digits(unions)
    radix = (sides[0].max(axis=0, initial=0) + sides[1].max(axis=0, initial=0) + 1).tolist()
    codes = _packed(sides[0], radix)[:, None] + _packed(sides[1], radix)[None, :]
    if complexity2 is _OWN_COMPLEXITY2:
        ranks = np.unique(codes.reshape(-1), return_inverse=True)[1]
    else:
        _, first, inverse = np.unique(codes.reshape(-1), return_index=True,
                                      return_inverse=True)
        g_first, u_first = np.divmod(first, len(unions))
        ranks = dense_ranks([
            complexity2(build_canonical(ClosedSurface,
                                        genera=tuple(sorted(genera[g] + unions[u]))))
            for g, u in zip(g_first.tolist(), u_first.tolist())])[inverse]
    return ranks.astype(np.int32).reshape(len(genera), len(unions))


def _passes_by_count(components: np.ndarray, g_off: np.ndarray, g_left: np.ndarray,
                     g_right: np.ndarray) -> np.ndarray:
    """Mask of the core gluing triples that pass under complexity2 for every
    pair of carried closed multisets, by their component counts alone.

    components[g] is the component count of core gluing g.  A triple with
    2 n_off < n_left + n_right passes: closed multisets k1 and k2 add
    |k1| + |k2| components to the off gluing and 2|k1|, 2|k2| to the two
    diagonals, so twice the off count, 2 n_off + 2|k1| + 2|k2|, is below
    the sum of the diagonal counts, hence below twice their maximum.  The
    off gluing then has fewer components than the larger diagonal, and the
    component count is complexity2's first entry.
    """
    return 2 * components[g_off] < components[g_left] + components[g_right]


# Array elements per vectorized step of the sweep.  At 1 << 15 every int32
# temporary of a step is at most 128 kB, glibc's default mmap threshold, so
# the steps reuse heap memory; at 1 << 18 (1 MB) each one was a fresh mmap
# unless an earlier free had happened to raise that threshold.
_CHUNK = 1 << 15


def verify_lemma_grid(j: int, g_max: int, closed_budget: int) -> LemmaReport:
    """Exhaustive diagonal-dominance check over the full enumerated basis.

    Semantically identical to engine.verify_lemma(enumerate2(...), Dim2Theory(j))
    but factored through the grid structure: a basis element is a bounded
    core plus a carried closed multiset, and the complexity of any gluing
    depends only on (core pair genera, multiset union).  For cores a < b,
    every verdict between their elements depends only on the triple
    (gid[a, b], gid[a, a], gid[b, b]), so each distinct triple is checked
    once as an nk x nk block, unless its component counts alone prove that
    it passes (``_passes_by_count``).  Relabelling the circles keeps every
    gluing, so only the rows of the first core of each orbit
    (``core_orbits``) are glued and swept first.  Any failure there reruns
    the sweep over every core pair, which alone expands failing triples into
    violations, so they come out in the same order either way.
    """
    check_bounds({"j": j, "g_max": g_max, "closed_budget": closed_budget})
    orbit = core_orbits(j, g_max)
    # Orbits are numbered in order of first appearance, so this is each
    # orbit's first core, in increasing order.
    reps = np.unique(orbit, return_index=True)[1]
    gid, genera = core_gluing_table(j, g_max, rows=reps)
    closeds = closed_multisets(g_max, closed_budget)
    nb, nk = len(orbit), len(closeds)
    basis_size = nb * nk

    union_ids: dict[tuple[int, ...], int] = {}
    kuid = np.array([[union_ids.setdefault(tuple(sorted(p + q)), len(union_ids))
                      for q in closeds] for p in closeds], dtype=np.intp)
    rank = _rank_table(genera, list(union_ids))
    off_rank = rank[:, kuid]                    # (ng, nk, nk)
    diag_rank = rank[:, kuid.diagonal()]        # (ng, nk)
    ng = len(genera)
    components = np.array([len(g) for g in genera])
    if ng ** 3 > INT64_MAX:
        raise OverflowError(f"{ng} distinct core gluings overflow the triple codes")
    strict_upper = np.triu(np.ones((nk, nk), dtype=bool), k=1)

    def failing(g_off: np.ndarray, g_left: np.ndarray,
                g_right: np.ndarray) -> np.ndarray:
        """(t, nk, nk) mask of the (k1, k2) whose off gluing does not dominate."""
        return off_rank[g_off] >= np.maximum(diag_rank[g_left][:, :, None],
                                             diag_rank[g_right][:, None, :])

    def row_chunks(count: int) -> list[slice]:
        """Slices of table rows of about _CHUNK cells each."""
        step = max(1, _CHUNK // nb)
        return [slice(a0, a0 + step) for a0 in range(0, count, step)]

    def triple_codes(table: np.ndarray, cores: np.ndarray,
                     diag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Codes of (gid[a, b], gid[a, a], gid[b, b]) for the rows of
        ``table``, those of the cores a, and the mask of the pairs b > a."""
        codes = (table.astype(np.int64) * ng + diag[cores, None]) * ng + diag
        return codes, np.arange(nb) > cores[:, None]

    def split(triples: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (off, left, right) core gluing ids of triple codes."""
        g_off, rest = np.divmod(triples, ng * ng)
        return (g_off, *np.divmod(rest, ng))

    def failing_triples(table: np.ndarray, cores: np.ndarray,
                        diag: np.ndarray) -> np.ndarray:
        """The distinct failing triple codes of the rows' pairs b > a.

        While complexity2 is this module's own, the triples that
        ``_passes_by_count`` clears are not checked.
        """
        # return_counts keeps np.unique on its sorting path; the values-only
        # path imports numpy.ma, about 3 MB more in a fresh process.
        triples = np.unique(np.concatenate([
            np.unique(codes[upper], return_counts=True)[0]
            for codes, upper in (triple_codes(table[rows], cores[rows], diag)
                                 for rows in row_chunks(len(cores)))]),
            return_counts=True)[0]
        if complexity2 is _OWN_COMPLEXITY2:
            triples = triples[~_passes_by_count(components, *split(triples))]
        step = max(1, _CHUNK // (nk * nk))
        bad = [triples[:0]]
        for t0 in range(0, len(triples), step):
            chunk = triples[t0:t0 + step]
            bad.append(chunk[failing(*split(chunk)).any(axis=(1, 2))])
        return np.concatenate(bad)

    # A relabelling g sends the pair {a, b} to {g·a, g·b} with the same three
    # gluings.  Taking a to be the element whose orbit comes first, g·a is a
    # representative r and g·b lies after it, so the rows of the
    # representatives against their later columns meet every pair.  Each
    # core's diagonal is its representative's own cell, as glue2(g·b, g·b)
    # == glue2(b, b); the same-core blocks need only the representatives.
    diag = gid[orbit, reps[orbit]].astype(np.int64)
    own = diag[reps]
    bad_pairs = []  # (left, right) positions in the enumerate2 order, left < right
    if (len(failing_triples(gid, reps, diag))
            or (failing(own, own, own) & strict_upper).any()):
        full, full_genera = core_gluing_table(j, g_max)
        # Every core gluing is some representative's gluing, so the full
        # table adds no multiset and the rank table serves it unchanged.
        slot = {g: i for i, g in enumerate(genera)}
        if set(full_genera) != set(slot):
            raise AssertionError("a core gluing is missing from the representative rows")
        gid = np.array([slot[g] for g in full_genera], dtype=np.int32)[full]
        diag = gid.diagonal().astype(np.int64)
        every_core = np.arange(nb)
        bad_triples = failing_triples(gid, every_core, diag)
        if len(bad_triples):
            for rows in row_chunks(nb):
                codes, upper = triple_codes(gid[rows], every_core[rows], diag)
                for da, b in np.argwhere(upper & np.isin(codes, bad_triples)).tolist():
                    a = rows.start + da
                    block = failing(gid[a, b:b + 1], diag[a:a + 1], diag[b:b + 1])[0]
                    bad_pairs.extend((a * nk + k1, b * nk + k2)
                                     for k1, k2 in np.argwhere(block).tolist())
        bad_pairs.extend((a * nk + k1, a * nk + k2) for a, k1, k2 in
                         np.argwhere(failing(diag, diag, diag) & strict_upper).tolist())

    cores = enumerate2(j, g_max, 0) if bad_pairs else []

    def element(index: int) -> Bounded2Manifold:
        return build_canonical(Bounded2Manifold, boundary_circles=j,
                               parts=cores[index // nk].parts,
                               closed_genera=closeds[index % nk])

    violations = tuple(LemmaViolation.of(Dim2Theory(j), element(a), element(b))
                       for a, b in sorted(bad_pairs))
    return LemmaReport(passed=not violations, basis_size=basis_size,
                       pairs_checked=basis_size * (basis_size - 1) // 2,
                       violations=violations)
