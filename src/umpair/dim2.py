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
full enumerated basis, in exact numpy phases.  It must agree with
engine.verify_lemma (the generic glue-table check) wherever both are feasible;
the tests enforce that, and check the core table against glue2.

1. Component digits.  Relabelling the circles keeps every gluing, so only
   the first core of each orbit (``core_orbits``: cores with equal sorted
   (block size, genus) multisets) is glued against every core.  The
   components of a gluing of two bounded cores depend only on their two
   circle partitions, so components are found once per pair of a
   partition holding a representative with any partition, by the one
   bitmask ``_merge`` that glue2 shares; a component's genus is the genus sum
   of its parts + E - V + 1 (E circles, V parts).  One pass per partition
   holding a row lays its components against every partition side by side,
   each gluing's right-aligned in j columns padded with 0, so one integer
   matrix product and one gather give every cell's digits, each
   component's genus plus 1 (``_cell_digits``, chunk by chunk of rows).
2. Additive test, while complexity2 is this module's own.  A multiset's
   digits V = (n, total genus, genus histogram from the top genus down)
   add under disjoint union and order multisets as complexity2 does, so
   2 V(off) - V(left) - V(right) is the same at every cell of a core pair's
   block, and its lexicographic sign decides the block
   (``_clears_by_digits``).  V is a sum over components, so each int64 limb
   of its code is a sum of table lookups over a cell's digits, with static
   radices; a core's diagonal gluing is read off its own parts.  When the
   sign is negative on every cell of the representative rows the report
   passes: no cell's multiset is sorted or named, and phases 3 and 4 never
   run.
3. Ids and ranks, when the test is not taken or leaves a cell.
   ``core_gluing_table`` sorts each cell's digits by a compare-exchange
   network and packs them into one code, and each core pair gets an id of
   its code, that is of its genus multiset.  Each merged multiset (core
   genera plus the union of two closed multisets) is coded by its digits V
   in mixed radix, so that the code of a union is the sum of its two sides'
   codes and code order is exactly the complexity order while complexity2
   is this module's own.  The rank of a merged multiset is the slot of its
   code among the distinct codes.  A patched complexity2 is instead called
   once per distinct code and its values ranked densely, so integer rank
   order is their order whatever totally ordered values it returns.
4. Sweep.  For cores a < b every verdict between their elements depends
   only on the triple of ids (a, b), (a, a), (b, b); each distinct triple is
   checked once as a block over closed-multiset pairs, and a == b on the
   strict upper triangle of its block.  Every pair of cores is a relabelled
   pair of a representative row, so only those rows are swept, in one
   process.  The sweep only decides: any failure returns
   engine.verify_lemma's report, which lists the violations, and a pass
   there would be a soundness defect and raises.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from .algebra import (UniverseMismatchError, build_canonical, check_bounds, json_int,
                      json_list)
from .engine import (INT64_MAX, GluingTheory, LemmaReport, _packed, dense_ranks,
                     verify_lemma)


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


# (partition, genera) per circle partition, as ``_core_blocks`` builds them.
_Blocks = list[tuple[tuple[tuple[int, ...], ...], np.ndarray]]


def _core_blocks(j: int, g_max: int) -> _Blocks:
    """(partition, genera) for each partition of the j circles, in
    enumerate2's order: genera[i] lists the block genera of the partition's
    i-th core, the genus assignments in itertools.product order."""
    return [(partition,
             np.array(list(itertools.product(range(g_max + 1), repeat=len(partition))),
                      dtype=np.int32))
            for partition in _set_partitions(j)]


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
    for partition, assignments in _core_blocks(j, g_max):
        for genera in assignments.tolist():
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


def _components(masks: list[list[int]], p: int, j: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Components of the gluing of circle partition p with every partition q,
    genera aside, each gluing's laid out right-aligned in j columns.

    masks[q] lists the circle bitmasks of the blocks of partition q; the
    components are those of ``_merge``, weighted by their part count, and a
    gluing has at most j of them.  Returns (left, right, offset):
    left[v, k, q] is 1 when block v of p lies in the component in column k
    of the gluing with q, right[q, u, k] likewise for block u of q (0 for
    the u past q's blocks), and offset[q, k] is that component's
    E - V + 2 for its E circles and V parts.  A component's genus is the
    genus sum of its parts plus E - V + 1, so its genus plus 1 is offset
    plus the genera summed through left and right.  Unused columns are 0
    in all three.
    """
    left = np.zeros((len(masks[p]), j, len(masks)), dtype=np.int32)
    right = np.zeros((len(masks), j, j), dtype=np.int32)
    offset = np.zeros((len(masks), j), dtype=np.int32)
    for q, other in enumerate(masks):
        components = _merge([(mask, 1) for mask in masks[p]], [(mask, 1) for mask in other])
        for k, (component, parts) in enumerate(components, j - len(components)):
            offset[q, k] = component.bit_count() - parts + 2
            for v, mask in enumerate(masks[p]):
                if mask & component:
                    left[v, k, q] = 1
            for u, mask in enumerate(other):
                if mask & component:
                    right[q, u, k] = 1
    return left, right, offset


def _padded_parts(blocks: _Blocks, j: int) -> tuple[np.ndarray, np.ndarray]:
    """(sizes, genera) over the cores of ``blocks`` (``_core_blocks``), in
    order: row c lists the circle count and the genus of each part of core
    c, then 0s up to j columns."""
    n = sum(len(genera) for _, genera in blocks)
    sizes, padded = np.zeros((2, n, j), dtype=np.int32)
    start = 0
    for partition, genera in blocks:
        cores = slice(start, start + len(genera))
        sizes[cores, :len(partition)] = [len(block) for block in partition]
        padded[cores, :len(partition)] = genera
        start += len(genera)
    return sizes, padded


def core_orbits(j: int, g_max: int, blocks: _Blocks | None = None) -> np.ndarray:
    """orbit[c]: the orbit of core c under relabelling the j circles.

    The cores are enumerate2(j, g_max, 0), in that order; orbits are
    numbered in order of first appearance.  ``blocks`` is
    ``_core_blocks(j, g_max)``, built here unless the caller has it.  The
    label of a core is the sorted multiset of (block size, genus) over its
    parts.  It is a complete invariant: two partitions with the same block
    sizes are related by a relabelling, which can then match up the blocks
    of equal (size, genus).  Each part is keyed by size (g_max + 1) + genus,
    at least 1, and a core's keys, padded with 0 to width j and sorted, pack
    into one code.
    """
    check_bounds({"j": j, "g_max": g_max})
    sizes, genera = _padded_parts(_core_blocks(j, g_max) if blocks is None else blocks, j)
    keys = sizes * (g_max + 1) + genera    # 0 in the unused columns, of size 0
    keys.sort(axis=1)
    _, first, inverse = np.unique(_packed(keys, [(j + 1) * (g_max + 1)] * j),
                                  return_index=True, return_inverse=True)
    number = np.empty(len(first), dtype=np.intp)
    number[np.argsort(first)] = np.arange(len(first))
    return number[inverse]


# Cells per chunk of rows in _cell_digits.  At 1 << 13 a chunk's int32
# digits stay within 128 kB at j <= 4 and every temporary within a few
# hundred kB whatever the table's size; 1 << 14 took the same time and left
# about 0.5 MB more peak RSS after 300 verify-dim2 passes in one process.
_TABLE_CHUNK = 1 << 13


def _cell_digits(blocks: _Blocks, j: int, rows: np.ndarray
                 ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(chunk, digits) for each chunk of the core indices ``rows``: chunk
    holds positions in rows, and digits[k, i, b] is the digit in column k of
    the gluing of core rows[chunk[i]] with core b, a component's genus plus
    1, or 0 in a column that the gluing leaves unused.

    The cores are those of ``blocks`` (``_core_blocks``), in order.  The
    chunks come in one pass per partition p that holds a row: the
    components of p glued with each partition q (``_components``) are laid
    side by side, each gluing's right-aligned in j columns, so that one
    matrix product of the rows' genera and one gather by each core's
    partition give every cell's j digits.  A chunk is one row or as many as
    keep it within ``_TABLE_CHUNK`` cells.
    """
    sizes = [len(genera) for _, genera in blocks]
    starts = np.cumsum([0] + sizes)
    n = int(starts[-1])
    if ((rows < 0) | (rows >= n)).any():
        raise IndexError(f"core rows must lie in 0..{n - 1}")
    row_part = np.searchsorted(starts, rows, side="right") - 1
    core_part = np.repeat(np.arange(len(blocks)), sizes)
    masks = [[sum(1 << c for c in block) for block in partition] for partition, _ in blocks]
    _, padded = _padded_parts(blocks, j)
    step = max(1, _TABLE_CHUNK // n)
    # sorted(set(...)): a values-only np.unique would import numpy.ma.
    for p in sorted(set(row_part.tolist())):
        left, right, offset = _components(masks, p, j)
        left = left.reshape(len(left), j * len(blocks))
        # right_digits[k, b]: what core b adds to the digit in column k, its
        # genera summed over its own partition's blocks only, one block
        # column at a time: a (core, block, column) gather would be 17 MB at
        # j = 7, g_max = 2.
        right_digits = offset[core_part]
        for u in range(j):
            right_digits += padded[:, u, None] * right[core_part, u]
        right_digits = np.ascontiguousarray(right_digits.T)[:, None]
        mine = np.flatnonzero(row_part == p)
        for r0 in range(0, len(mine), step):
            chunk = mine[r0:r0 + step]
            product = (blocks[p][1][rows[chunk] - starts[p]] @ left).reshape(
                len(chunk), j, len(blocks))
            yield chunk, np.take(product.transpose(1, 0, 2), core_part, axis=2) + right_digits


def core_gluing_table(j: int, g_max: int, rows: Sequence[int] | None = None
                      ) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Genus multiset of the gluing of cores, rows by every core.

    The cores are enumerate2(j, g_max, 0), in that order, and ``rows`` are
    core indices (every core when omitted, giving the square table).
    Returns (gid, genera) with genera[gid[i, b]] ==
    glue2(cores[rows[i]], cores[b]).genera.  The grid's additive test reads
    the digits alone; this table of ids is built only on its fallback.

    Each cell's ``_cell_digits`` are sorted by a network of j(j - 1)/2
    column compare-exchanges, the 0s first, and pack into one ``_packed``
    code of base 2 j g_max + j + 2: a component has at most 2j parts, each
    of genus at most g_max, and E - V + 1 < j, so every component's digit
    lies in 1..base - 1.  As 0 only pads, a cell's padded code equals the
    code of its digits alone, and multisets of different lengths never
    share a code.  Each chunk of rows is deduplicated on its own codes (one
    np.unique over the whole table would hold every code at once), and its
    distinct codes take global ids through one dict; the multisets are
    unpacked from the codes at the end.
    """
    check_bounds({"j": j, "g_max": g_max})
    blocks = _core_blocks(j, g_max)
    n = sum(len(genera) for _, genera in blocks)
    row_cores = np.arange(n) if rows is None else np.asarray(rows, dtype=np.intp)
    gid = np.empty((len(row_cores), n), dtype=np.int32)
    base = 2 * j * g_max + j + 2
    ids: dict[int, int] = {}
    for chunk, digits in _cell_digits(blocks, j, row_cores):
        columns = list(digits)
        for end in range(j - 1, 0, -1):
            for k in range(end):
                columns[k], columns[k + 1] = (np.minimum(columns[k], columns[k + 1]),
                                              np.maximum(columns[k], columns[k + 1]))
        for k, column in enumerate(columns):
            digits[k] = column
        codes = _packed(digits.transpose(1, 2, 0), [base] * j)
        distinct, inverse = np.unique(codes, return_inverse=True)
        global_ids = np.array([ids.setdefault(code, len(ids))
                               for code in distinct.tolist()], dtype=np.int32)
        gid[chunk] = global_ids[inverse].reshape(len(chunk), n)

    def unpacked(code: int) -> tuple[int, ...]:
        genera = []
        while code:
            code, digit = divmod(code, base)
            genera.append(digit - 1)
        return tuple(genera[::-1])

    return gid, [unpacked(code) for code in ids]


def _genus_digits(multisets: list[tuple[int, ...]], width: int) -> np.ndarray:
    """Row i: (n, G, h[width - 1], ..., h[0]) of multisets[i], its length,
    total genus and genus histogram from the top genus down; every genus
    lies below ``width``.  The digits of a union are the sum of its parts'."""
    lengths = np.fromiter(map(len, multisets), np.int64, len(multisets))
    row = np.repeat(np.arange(len(multisets)), lengths)
    flat = np.fromiter(itertools.chain.from_iterable(multisets), np.int64)
    counts = np.bincount(row * width + flat, minlength=len(multisets) * width
                         ).reshape(len(multisets), width)
    return np.column_stack([lengths, counts @ np.arange(width), counts[:, ::-1]])


def _rank_table(genera: list[tuple[int, ...]],
                unions: list[tuple[int, ...]]) -> np.ndarray:
    """rank[g, u]: dense complexity rank of core genera g plus closed union u.

    Equal complexities share a rank, so integer order of ranks is the
    complexity order.  Each multiset m is read as its ``_genus_digits``
    (n, G, h[top], ..., h[0]).  Every digit of a merged multiset is the sum
    of its two sides' digits, so with each digit's radix one more than the
    sum of the two sides' largest values, the ``_packed`` codes add:
    code(g + u) == code(g) + code(u).  The table is one broadcast add of the
    two sides' codes, deduplicated by np.unique.

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
    sides = _genus_digits(genera, width), _genus_digits(unions, width)
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


def _limbs(digits: np.ndarray, radix: list[int]) -> list[np.ndarray]:
    """Each row of ``digits`` as ``_packed`` int64 limb codes, most
    significant limb first.  The digits are cut, in order, into as few runs
    as keep each run's radix product within int64; lexicographic order of
    the limb tuples is then the order of the rows."""
    cuts, product = [0], 1
    for i, r in enumerate(radix):
        if product * r - 1 > INT64_MAX and i > cuts[-1]:
            cuts.append(i)
            product = 1
        product *= r
    cuts.append(len(radix))
    return [_packed(digits[:, lo:hi], radix[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]


def _component_limbs(j: int, g_max: int) -> list[np.ndarray]:
    """One table per ``_limbs`` limb: table[d] is the code that a component
    of digit d (genus d - 1) adds to its gluing's V, and table[0] == 0.

    V = (n, G, h[top], ..., h[0]) is ``_genus_digits``, a sum over
    components: a component of genus g adds 1 to n, g to G and 1 to h[g].
    So a cell's limb code is the sum of table[d] over its j digits.  The
    radices are static.  A gluing of two cores over j circles has n <= j
    components, so each histogram count is at most j.  G is the genus sum
    of its P <= 2j parts plus j - P + n, and n <= P/2 as every component
    holds a part of each side; so G <= 2 j g_max + j - 1 when j > 0, and
    so is every genus.  Digit i with bound M_i takes radix 2 M_i + 1:
    2 V(off) and V(left) + V(right) then keep every digit below its radix,
    and their codes are 2 code(off) and code(left) + code(right), limb by
    limb.
    """
    width = j * (2 * g_max + 1)    # the genera 0..width - 1
    radix = [2 * j + 1, 2 * max(width - 1, 0) + 1] + [2 * j + 1] * width
    return _limbs(_genus_digits([()] + [(g,) for g in range(width)], width), radix)


def _limb(table: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """The limb codes of the gluings whose digit k is cells[k]: the sum of
    their j ``_component_limbs`` table lookups."""
    codes = np.zeros(cells.shape[1:], dtype=np.int64)
    for column in cells:
        codes += np.take(table, column)
    return codes


def _dominated(tables: list[np.ndarray], cells: np.ndarray, diag: list[np.ndarray],
               left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Mask, over the off gluings, of 2 V(off) <lex V(left) + V(right).

    cells[k] holds digit k of every off gluing, whose limb codes are read
    through the ``_component_limbs`` tables; the ids ``left`` and
    ``right`` broadcast to the shape of cells[k], and the limb i codes of
    the two diagonals are diag[i][left] and diag[i][right].  Each limb after
    the first is compared only on the off gluings whose earlier limbs tie.
    """
    twice = 2 * _limb(tables[0], cells)
    pair = diag[0][left] + diag[0][right]
    less = twice < pair
    tied = np.flatnonzero(twice == pair)
    cells = cells.reshape(len(cells), less.size)
    for table, codes in zip(tables[1:], diag[1:]):
        twice = 2 * _limb(table, cells[:, tied])
        pair = (codes[left] + codes[right]).reshape(-1)[tied]
        less.reshape(-1)[tied] = twice < pair
        tied = tied[twice == pair]
    return less


def _diagonal_digits(blocks: _Blocks, j: int) -> np.ndarray:
    """digits[k, b] of each core b of ``blocks`` glued to itself.  Each part
    of s circles and genus g is glued to its own copy alone, into one
    closed component of genus 2g + s - 1, so its digit is 2g + s; the
    columns past the core's parts are 0."""
    sizes, genera = _padded_parts(blocks, j)
    return (2 * genera + sizes).T


def _clears_by_digits(blocks: _Blocks, j: int, g_max: int, reps: np.ndarray) -> bool:
    """Whether every core pair's block passes by its additive digits alone.

    Valid only while complexity2 is this module's own.  The cores are those
    of ``blocks`` (``_core_blocks(j, g_max)``) and ``reps`` the first core of
    each orbit.  Each cell (r, b) with b after reps[r] is tested with
    ``_dominated``: off the gluing of reps[r] with b, its ``_cell_digits``,
    left and right the ``_diagonal_digits`` of reps[r] and b, so no
    diagonal cell is glued.

    Why a cleared cell's whole block passes.  Write V for ``_genus_digits``,
    which add under disjoint union and order multisets exactly as
    complexity2 does (``_rank_table``), and D = 2 V(off) - V(left) -
    V(right).  Carried closed multisets k1, k2 add V(k1) + V(k2) to the
    off gluing and 2 V(k1), 2 V(k2) to the diagonals, so D is the same at
    every (k1, k2) of the block.  Lexicographic order is compatible with
    addition, so D <lex 0 gives 2 V(off) <lex V(left) + V(right) <=lex
    2 max, and the off gluing is below the larger diagonal.  The same-core
    blocks need no test: there D = 0, so V(off) <=lex the larger diagonal,
    with equality only when V(k1) = V(k2), that is k1 == k2 (the closed
    multisets are distinct), which the strict upper triangle excludes.
    The test reads neither a closed multiset nor a sorted genus multiset,
    so it builds no id table, rank table, union ids or triples; a cell it
    leaves sends the caller to the exact sweep.
    """
    tables = _component_limbs(j, g_max)
    diagonal = _diagonal_digits(blocks, j)
    diag = [_limb(table, diagonal) for table in tables]
    cores = np.arange(diagonal.shape[1])
    for chunk, digits in _cell_digits(blocks, j, reps):
        later = cores > reps[chunk, None]
        if not _dominated(tables, digits, diag, reps[chunk, None], cores)[later].all():
            return False
    return True


# Array elements per vectorized step of the sweep.  At 1 << 15 every int32
# temporary of a step is at most 128 kB, glibc's default mmap threshold, so
# the steps reuse heap memory; at 1 << 18 (1 MB) each one was a fresh mmap
# unless an earlier free had happened to raise that threshold.
_SWEEP_CHUNK = 1 << 15


def _sweep_passes(gid: np.ndarray, genera: list[tuple[int, ...]], reps: np.ndarray,
                  diag: np.ndarray, closeds: list[tuple[int, ...]]) -> bool:
    """Whether every block passes, each distinct core gluing triple checked
    over every pair of closed multisets with ranks from ``_rank_table``.

    gid holds the rows of the representative cores ``reps``
    (``core_gluing_table``), and diag[b] is core b's diagonal gluing id;
    any complexity2 will do.
    """
    nb, nk = len(diag), len(closeds)
    union_ids: dict[tuple[int, ...], int] = {}
    kuid = np.array([[union_ids.setdefault(tuple(sorted(p + q)), len(union_ids))
                      for q in closeds] for p in closeds], dtype=np.intp)
    rank = _rank_table(genera, list(union_ids))
    off_rank = rank[:, kuid]                    # (ng, nk, nk)
    diag_rank = rank[:, kuid.diagonal()]        # (ng, nk)
    ng = len(genera)
    if ng ** 3 > INT64_MAX:
        raise OverflowError(f"{ng} distinct core gluings overflow the triple codes")
    strict_upper = np.triu(np.ones((nk, nk), dtype=bool), k=1)

    def failing(g_off: np.ndarray, g_left: np.ndarray,
                g_right: np.ndarray) -> np.ndarray:
        """(t, nk, nk) mask of the (k1, k2) whose off gluing does not dominate."""
        return off_rank[g_off] >= np.maximum(diag_rank[g_left][:, :, None],
                                             diag_rank[g_right][:, None, :])

    diag = diag.astype(np.int64)
    own = diag[reps]
    # The distinct (gid[r, b], gid[r, r], gid[b, b]) of the pairs b > r,
    # coded base ng.  return_counts keeps np.unique on its sorting path; the
    # values-only path imports numpy.ma, about 3 MB more in a fresh process.
    step = max(1, _SWEEP_CHUNK // nb)
    codes = np.unique(np.concatenate([
        np.unique(((gid[rows].astype(np.int64) * ng + own[rows, None]) * ng + diag)
                  [np.arange(nb) > reps[rows, None]], return_counts=True)[0]
        for rows in (slice(r0, r0 + step) for r0 in range(0, len(reps), step))]),
        return_counts=True)[0]
    triples = np.stack([codes // (ng * ng), codes // ng % ng, codes % ng])
    step = max(1, _SWEEP_CHUNK // (nk * nk))
    return not ((failing(own, own, own) & strict_upper).any()
                or any(failing(*triples[:, t0:t0 + step]).any()
                       for t0 in range(0, triples.shape[1], step)))


def verify_lemma_grid(j: int, g_max: int, closed_budget: int) -> LemmaReport:
    """Exhaustive diagonal-dominance check over the full enumerated basis.

    Semantically identical to engine.verify_lemma(enumerate2(...), Dim2Theory(j))
    but factored through the grid structure: a basis element is a bounded
    core plus a carried closed multiset, and the complexity of any gluing
    depends only on (core pair genera, multiset union).  Relabelling the
    circles keeps every gluing, so only the rows of the first core of each
    orbit (``core_orbits``) are glued.  While complexity2 is this module's
    own, ``_clears_by_digits`` decides each core pair's whole block from the
    component digits of its off gluing and the closed-form digits of its
    two diagonals; when it clears every cell, no table of gluing ids, rank
    table or sweep is built.  Otherwise ``core_gluing_table`` gives the
    representative rows' ids and ``_sweep_passes`` checks each distinct
    triple (gid[a, b], gid[a, a], gid[b, b]) once over its block.  Any
    failure returns engine.verify_lemma's report instead, which lists the
    violations; if that report passes, the two checks disagree and
    AssertionError is raised.
    """
    check_bounds({"j": j, "g_max": g_max, "closed_budget": closed_budget})
    blocks = _core_blocks(j, g_max)
    orbit = core_orbits(j, g_max, blocks)
    # Orbits are numbered in order of first appearance, so this is each
    # orbit's first core, in increasing order.  A relabelling g sends the
    # pair {a, b} to {g·a, g·b} with the same three gluings.  Taking a to be
    # the element whose orbit comes first, g·a is a representative r and
    # g·b lies after it, so the rows of the representatives against their
    # later columns meet every pair.
    reps = np.unique(orbit, return_index=True)[1]
    closeds = closed_multisets(g_max, closed_budget)
    basis_size = len(orbit) * len(closeds)
    if complexity2 is _OWN_COMPLEXITY2 and _clears_by_digits(blocks, j, g_max, reps):
        passed = True
    else:
        gid, genera = core_gluing_table(j, g_max, rows=reps)
        # Each core's diagonal is its representative's own cell, as
        # glue2(g·b, g·b) == glue2(b, b); the same-core blocks need only the
        # representatives.
        passed = _sweep_passes(gid, genera, reps, gid[orbit, reps[orbit]], closeds)
    if passed:
        return LemmaReport(passed=True, basis_size=basis_size,
                           pairs_checked=basis_size * (basis_size - 1) // 2, violations=())
    report = verify_lemma(enumerate2(j, g_max, closed_budget), Dim2Theory(j))
    if report.passed:
        raise AssertionError("the grid sweep fails where the pairwise check passes")
    return report
