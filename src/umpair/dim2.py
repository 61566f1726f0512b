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

compared lexicographically.  Entries after the second are at most 2 in
absolute value (chi of a connected closed surface is at most 2), so padding
comparisons with -3 makes tuples of different lengths comparable without
ever colliding with a real entry.

``verify_lemma_grid`` is an exhaustive diagonal-dominance check over the
full enumerated basis, in three exact numpy phases.  It must agree with
engine.verify_lemma (the plain pairwise check) wherever both are feasible;
the tests enforce that, and check the core table against glue2.

1. Core table.  The components of a gluing of two bounded cores depend only
   on their two circle partitions, so union-find runs once per partition
   pair; a component's genus is the genus sum of its parts + E - V + 1 (E
   circles, V parts), computed for every pair of genus assignments at once
   by an integer matrix product.  Each core pair gets an id of its sorted
   genus multiset.
2. Ranks.  complexity2 is called once per distinct merged multiset (core
   genera plus the union of two closed multisets) and its tuples are ranked
   densely in their padded order, so integer rank order is ComplexityTuple
   order whatever tuples complexity2 returns.
3. Sweep.  For cores a < b every verdict between their elements depends
   only on the triple of ids (a, b), (a, a), (b, b); each distinct triple is
   checked once as a block over closed-multiset pairs, and only failing
   triples are expanded back to basis positions.  a == b is checked on the
   strict upper triangle of its block.  The sweep runs in one process.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import total_ordering
from typing import Any, Iterator

import numpy as np

from .algebra import UniverseMismatchError, json_int, json_list
from .engine import GluingTheory, LemmaReport, LemmaViolation


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
        if sorted(covered) != list(range(j)):
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
    """A closed oriented surface: the sorted multiset of component genera."""

    genera: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(g < 0 for g in self.genera):
            raise ValueError("genera must be nonnegative")
        object.__setattr__(self, "genera", tuple(sorted(self.genera)))

    def euler_characteristic(self) -> int:
        return sum(2 - 2 * g for g in self.genera)

    def to_json(self) -> dict[str, Any]:
        return {"dim": 2, "genera": list(self.genera)}

    @classmethod
    def from_json(cls, data: Any) -> ClosedSurface:
        if not isinstance(data, dict) or data.get("dim") != 2 or "genera" not in data:
            raise ValueError(f"not a closed surface descriptor: {data!r}")
        return cls(tuple(json_int(g, "genus") for g in json_list(data["genera"], "genera")))


PAD = -3  # below every real tuple entry; -chi of a component is >= -2


@total_ordering
class ComplexityTuple:
    """(n, -chi, -chi_1, ..., -chi_n) compared lexicographically with padding."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[int, ...] | list[int]):
        self.entries = tuple(int(e) for e in entries)
        if len(self.entries) < 2 or self.entries[0] < 0:
            raise ValueError(f"malformed complexity tuple {self.entries}")
        if any(e < -2 for e in self.entries[2:]):
            raise ValueError(
                f"component entries must be >= -2, got {self.entries}")

    def _padded_cmp(self, other: ComplexityTuple) -> int:
        for k in range(max(len(self.entries), len(other.entries))):
            a = self.entries[k] if k < len(self.entries) else PAD
            b = other.entries[k] if k < len(other.entries) else PAD
            if a != b:
                return -1 if a < b else 1
        return 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComplexityTuple):
            return NotImplemented
        return self._padded_cmp(other) == 0

    def __lt__(self, other: ComplexityTuple) -> bool:
        return self._padded_cmp(other) < 0

    def __hash__(self) -> int:
        trimmed = self.entries
        while trimmed and trimmed[-1] == PAD:
            trimmed = trimmed[:-1]
        return hash(trimmed)

    def to_json(self) -> list[int]:
        return list(self.entries)

    def __repr__(self) -> str:
        return f"ComplexityTuple{self.entries}"


def compare_complexity(a: ComplexityTuple, b: ComplexityTuple) -> int:
    """-1, 0 or 1 as a is less than, equal to or greater than b."""
    return a._padded_cmp(b)


def complexity2(c: ClosedSurface) -> ComplexityTuple:
    """Complexity of a closed surface: components count heaviest, then -chi."""
    chis = sorted(2 - 2 * g for g in c.genera)
    return ComplexityTuple((len(chis), -sum(chis), *(-x for x in chis)))


def glue2(m: Bounded2Manifold, n: Bounded2Manifold) -> ClosedSurface:
    """Glue m to the reversal of n along their j shared boundary circles."""
    if m.boundary_circles != n.boundary_circles:
        raise UniverseMismatchError(
            f"boundary mismatch: {m.boundary_circles} vs {n.boundary_circles} circles")
    j = m.boundary_circles
    nodes = len(m.parts) + len(n.parts)
    owner = [0] * (2 * j)  # node owning each circle, per side
    for idx, (circles, _) in enumerate(m.parts):
        for c in circles:
            owner[c] = idx
    for idx, (circles, _) in enumerate(n.parts):
        for c in circles:
            owner[j + c] = len(m.parts) + idx
    parent = list(range(nodes))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in range(j):
        a, b = find(owner[c]), find(owner[j + c])
        if a != b:
            parent[a] = b
    chi_of: dict[int, int] = {}
    all_parts = list(m.parts) + list(n.parts)
    for idx, (circles, genus) in enumerate(all_parts):
        root = find(idx)
        chi_of[root] = chi_of.get(root, 0) + 2 - 2 * genus - len(circles)
    genera = []
    for chi in chi_of.values():
        if chi % 2 != 0 or chi > 2:
            raise AssertionError(f"impossible component chi {chi} in gluing")
        genera.append((2 - chi) // 2)
    genera.extend(m.closed_genera)
    genera.extend(n.closed_genera)
    return ClosedSurface(tuple(genera))


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
    if g_max < 0 or budget < 0:
        raise ValueError("genus bound and closed budget must be nonnegative")
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
    if j < 0:
        raise ValueError("boundary circle count must be nonnegative")
    out = []
    closeds = closed_multisets(g_max, closed_budget)
    for partition in _set_partitions(j):
        for genera in itertools.product(range(g_max + 1), repeat=len(partition)):
            parts = tuple(zip(partition, genera))
            for closed in closeds:
                out.append(Bounded2Manifold(j, parts, closed))
    return out


@dataclass(frozen=True)
class Dim2Theory(GluingTheory):
    """Gluing theory of bounded surfaces over j labelled circles."""

    boundary_circles: int
    name: str = "dim2"

    def glue(self, a: Bounded2Manifold, b: Bounded2Manifold) -> ClosedSurface:
        return glue2(a, b)

    def reverse(self, closed: ClosedSurface) -> ClosedSurface:
        # A closed oriented surface is diffeomorphic to its reversal.
        return closed

    def complexity(self, closed: ClosedSurface) -> ComplexityTuple:
        return complexity2(closed)

    def validate_basis(self, descriptor: Any) -> None:
        if not isinstance(descriptor, Bounded2Manifold):
            raise UniverseMismatchError(f"not a bounded surface: {descriptor!r}")
        if descriptor.boundary_circles != self.boundary_circles:
            raise UniverseMismatchError(
                f"boundary mismatch: {descriptor.boundary_circles} vs "
                f"{self.boundary_circles} circles")


def _components(left: tuple[tuple[int, ...], ...],
                right: tuple[tuple[int, ...], ...],
                j: int) -> tuple[np.ndarray, np.ndarray]:
    """Components of the gluing of two circle partitions, genera aside.

    Returns (incidence, offset): incidence[v, c] is 1 when part v (the parts
    of ``left``, then those of ``right``) lies in component c, and offset[c]
    is E - V + 1 for its E circles and V parts.  A component's genus is the
    genus sum of its parts plus its offset.
    """
    owner = [0] * (2 * j)
    for idx, circles in enumerate(left + right):
        side = j if idx >= len(left) else 0
        for c in circles:
            owner[side + c] = idx
    parent = list(range(len(left) + len(right)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in range(j):
        parent[find(owner[c])] = find(owner[j + c])
    roots = [find(v) for v in range(len(parent))]
    label = {r: i for i, r in enumerate(dict.fromkeys(roots))}
    incidence = np.zeros((len(parent), len(label)), dtype=np.int32)
    incidence[np.arange(len(parent)), [label[r] for r in roots]] = 1
    offset = 1 - incidence.sum(axis=0, dtype=np.int32)
    for c in range(j):
        offset[label[roots[owner[c]]]] += 1
    return incidence, offset


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse): one row index per distinct row, and each row's slot.

    rows[first][inverse] == rows for a nonnegative integer matrix.  Each row
    is packed into one int64 (digits base max + 1), which sorts far faster
    than whole rows; past the int64 range the rows are sorted as rows.
    """
    base = int(rows.max(initial=0)) + 1
    if base ** rows.shape[1] > np.iinfo(np.int64).max:
        _, first, inverse = np.unique(rows, axis=0, return_index=True,
                                      return_inverse=True)
    else:
        codes = rows @ base ** np.arange(rows.shape[1], dtype=np.int64)
        _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    return first, inverse.reshape(-1)


def core_gluing_table(j: int, g_max: int
                      ) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Genus multiset of the gluing of every pair of bounded cores.

    The cores are enumerate2(j, g_max, 0), in that order.  Returns (gid,
    genera) with genera[gid[a, b]] == glue2(cores[a], cores[b]).genera.
    Union-find runs once per pair of circle partitions; the genera of every
    pair of genus assignments of those partitions then come from products
    with the component incidence matrix, sorted along the last axis.
    """
    partitions = list(_set_partitions(j))
    assignments = [np.array(list(itertools.product(range(g_max + 1), repeat=len(p))),
                            dtype=np.int32) for p in partitions]  # enumerate2's order
    starts = np.cumsum([0] + [len(a) for a in assignments])
    gid = np.empty((starts[-1], starts[-1]), dtype=np.int32)
    ids: dict[tuple[int, ...], int] = {}
    for p, q in itertools.combinations_with_replacement(range(len(partitions)), 2):
        incidence, offset = _components(partitions[p], partitions[q], j)
        split = len(partitions[p])
        left = assignments[p] @ incidence[:split]
        right = assignments[q] @ incidence[split:]
        block = np.sort(left[:, None, :] + right[None, :, :] + offset, axis=-1)
        rows = block.reshape(len(left) * len(right), -1)
        first, inverse = _unique_rows(rows)
        global_ids = np.array([ids.setdefault(tuple(r), len(ids))
                               for r in rows[first].tolist()], dtype=np.int32)
        block_ids = global_ids[inverse].reshape(block.shape[:2])
        gid[starts[p]:starts[p + 1], starts[q]:starts[q + 1]] = block_ids
        gid[starts[q]:starts[q + 1], starts[p]:starts[p + 1]] = block_ids.T
    return gid, list(ids)


def _rank_table(genera: list[tuple[int, ...]],
                unions: list[tuple[int, ...]]) -> np.ndarray:
    """rank[g, u]: dense complexity rank of core genera g plus closed union u.

    complexity2 runs once per distinct merged multiset.  Equal complexities
    share a rank, so integer order of ranks is the complexity order.
    """
    width = 1 + max(max(m, default=0) for m in genera + unions)

    def histograms(multisets: list[tuple[int, ...]]) -> np.ndarray:
        counts = np.zeros((len(multisets), width), dtype=np.int64)
        for row, multiset in enumerate(multisets):
            for g in multiset:
                counts[row, g] += 1
        return counts

    merged = histograms(genera)[:, None, :] + histograms(unions)[None, :, :]
    first, inverse = _unique_rows(merged.reshape(-1, width))
    g_first, u_first = np.divmod(first, len(unions))
    entries = [complexity2(ClosedSurface(genera[g] + unions[u])).entries
               for g, u in zip(g_first.tolist(), u_first.tolist())]
    longest = max(len(e) for e in entries)
    keys = [e + (PAD,) * (longest - len(e)) for e in entries]
    rank_of = {key: r for r, key in enumerate(sorted(set(keys)))}
    ranks = np.array([rank_of[key] for key in keys], dtype=np.int32)
    return ranks[inverse].reshape(len(genera), len(unions))


_CHUNK = 1 << 18  # array elements per vectorized step of the sweep


def verify_lemma_grid(j: int, g_max: int, closed_budget: int) -> LemmaReport:
    """Exhaustive diagonal-dominance check over the full enumerated basis.

    Semantically identical to engine.verify_lemma(enumerate2(...), Dim2Theory(j))
    but factored through the grid structure: a basis element is a bounded
    core plus a carried closed multiset, and the complexity of any gluing
    depends only on (core pair genera, multiset union).  For cores a < b,
    every verdict between their elements depends only on the triple
    (gid[a, b], gid[a, a], gid[b, b]), so each distinct triple is checked
    once as an nk x nk block and only failing triples are expanded.
    """
    gid, genera = core_gluing_table(j, g_max)
    closeds = closed_multisets(g_max, closed_budget)
    nb, nk = len(gid), len(closeds)
    basis_size = nb * nk

    union_ids: dict[tuple[int, ...], int] = {}
    kuid = np.array([[union_ids.setdefault(tuple(sorted(p + q)), len(union_ids))
                      for q in closeds] for p in closeds], dtype=np.intp)
    rank = _rank_table(genera, list(union_ids))
    off_rank = rank[:, kuid]                    # (ng, nk, nk)
    diag_rank = rank[:, kuid.diagonal()]        # (ng, nk)
    diag = gid.diagonal().astype(np.int64)
    ng = len(genera)
    if ng ** 3 > np.iinfo(np.int64).max:
        raise OverflowError(f"{ng} distinct core gluings overflow the triple codes")

    def failing(g_off: np.ndarray, g_left: np.ndarray,
                g_right: np.ndarray) -> np.ndarray:
        """(t, nk, nk) mask of the (k1, k2) whose off gluing does not dominate."""
        return off_rank[g_off] >= np.maximum(diag_rank[g_left][:, :, None],
                                             diag_rank[g_right][:, None, :])

    def triple_codes(a0: int, a1: int) -> tuple[np.ndarray, np.ndarray]:
        """Codes of (gid[a, b], gid[a, a], gid[b, b]) for rows a0..a1, and
        the mask of the pairs with b > a."""
        codes = (gid[a0:a1].astype(np.int64) * ng + diag[a0:a1, None]) * ng + diag
        return codes, np.arange(nb) > np.arange(a0, a1)[:, None]

    rows = max(1, _CHUNK // nb)
    row_chunks = [(a0, min(a0 + rows, nb)) for a0 in range(0, nb, rows)]
    triples = np.unique(np.concatenate([
        np.unique(codes[upper])
        for codes, upper in (triple_codes(a0, a1) for a0, a1 in row_chunks)]))
    step = max(1, _CHUNK // (nk * nk))
    bad_triples = [triples[:0]]
    for t0 in range(0, len(triples), step):
        chunk = triples[t0:t0 + step]
        g_off, rest = np.divmod(chunk, ng * ng)
        bad_triples.append(chunk[failing(g_off, *np.divmod(rest, ng)).any(axis=(1, 2))])
    bad_triples = np.concatenate(bad_triples)

    bad_pairs = []  # (left, right) positions in the enumerate2 order, left < right
    if len(bad_triples):
        for a0, a1 in row_chunks:
            codes, upper = triple_codes(a0, a1)
            for da, b in np.argwhere(upper & np.isin(codes, bad_triples)).tolist():
                a = a0 + da
                block = failing(gid[a, b:b + 1], diag[a:a + 1], diag[b:b + 1])[0]
                bad_pairs.extend((a * nk + k1, b * nk + k2)
                                 for k1, k2 in np.argwhere(block).tolist())
    strict_upper = np.triu(np.ones((nk, nk), dtype=bool), k=1)
    bad_pairs.extend((a * nk + k1, a * nk + k2) for a, k1, k2 in
                     np.argwhere(failing(diag, diag, diag) & strict_upper).tolist())

    violations = []
    if bad_pairs:
        cores = enumerate2(j, g_max, 0)

        def element(index: int) -> Bounded2Manifold:
            return Bounded2Manifold(j, cores[index // nk].parts, closeds[index % nk])

        for left_idx, right_idx in sorted(bad_pairs):
            left, right = element(left_idx), element(right_idx)
            violations.append(LemmaViolation(
                left, right,
                complexity2(glue2(left, right)),
                complexity2(glue2(left, left)),
                complexity2(glue2(right, right))))
    return LemmaReport(passed=not violations, basis_size=basis_size,
                       pairs_checked=basis_size * (basis_size - 1) // 2,
                       violations=tuple(violations))
