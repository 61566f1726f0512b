"""Oriented 0- and 1-manifolds: canonical forms, gluing, complexity.

A compact oriented 1-manifold whose boundary is a fixed set of signed points
is determined, up to diffeomorphism fixing the boundary, by which positive
point each arc connects to which negative point, plus a number of closed
circles.  So a bounded descriptor is a perfect matching together with a
circle count, and gluing two of them composes the matchings: the closed
result has one circle per cycle of the composed permutation, plus whatever
closed circles the two sides carried.

The complexity of a closed 1-manifold is its component count.  Gluing an
element to itself composes a matching with its own inverse, which gives the
identity permutation and hence the maximal possible cycle count; any two
distinct matchings compose to a permutation with strictly fewer cycles.
That strict drop is what the pairing engine's certificates rest on.

Closed 0-manifolds are handled by an adapter at the end of the module: a
configuration of p positive and q negative points becomes the monomial
u^p v^q over a two-letter alphabet whose involution swaps u and v, with
disjoint union as the product.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

from .algebra import UniverseMismatchError, canonical_key, json_int, json_list
from .engine import GluingTheory
from .monomial import Involution, Monomial


@dataclass(frozen=True)
class Boundary0:
    """A signed 0-manifold: ordered positive and negative point labels."""

    pos: tuple[str, ...]
    neg: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = list(self.pos) + list(self.neg)
        if len(set(labels)) != len(labels):
            raise ValueError(f"boundary labels must be distinct, got {labels}")

    def to_json(self) -> dict[str, Any]:
        return {"pos": list(self.pos), "neg": list(self.neg)}

    @classmethod
    def from_json(cls, data: Any) -> Boundary0:
        if not isinstance(data, dict):
            raise ValueError(f"not a 0-manifold boundary: {data!r}")
        pos, neg = json_list(data.get("pos"), "pos"), json_list(data.get("neg"), "neg")
        if not all(isinstance(label, str) for label in pos + neg):
            raise ValueError(f"boundary labels must be strings, got {pos + neg!r}")
        return cls(tuple(pos), tuple(neg))


def standard_boundary(j: int) -> Boundary0:
    """j positive and j negative points with the default labels p1..pj, n1..nj."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    return Boundary0(tuple(f"p{i + 1}" for i in range(j)),
                     tuple(f"n{i + 1}" for i in range(j)))


@dataclass(frozen=True)
class Bounded1Manifold:
    """Arcs as a matching pos -> neg, plus closed circles carried along.

    ``matching`` is stored as (pos, neg) pairs aligned with the order of
    ``boundary.pos``; equality of the stored data is exactly equivalence of
    the manifolds rel boundary.
    """

    boundary: Boundary0
    matching: tuple[tuple[str, str], ...]
    closed_circles: int = 0

    def __post_init__(self) -> None:
        if self.closed_circles < 0:
            raise ValueError("closed_circles must be nonnegative")
        if tuple(p for p, _ in self.matching) != self.boundary.pos:
            raise ValueError("matching must list every positive label once, in boundary order")
        targets = [n for _, n in self.matching]
        if sorted(targets) != sorted(self.boundary.neg):
            raise ValueError("matching must hit every negative label exactly once")

    @property
    def targets(self) -> tuple[str, ...]:
        """Matched negative labels, aligned with boundary.pos."""
        return tuple(n for _, n in self.matching)

    def matching_dict(self) -> dict[str, str]:
        return dict(self.matching)

    def universe_key(self) -> str:
        return canonical_key(self.boundary)

    def to_json(self) -> dict[str, Any]:
        return {
            "dim": 1,
            "boundary": self.boundary.to_json(),
            "matching": dict(self.matching),
            "closed_circles": self.closed_circles,
        }

    @classmethod
    def from_json(cls, data: Any) -> Bounded1Manifold:
        if not isinstance(data, dict) or data.get("dim") != 1:
            raise ValueError(f"not a bounded 1-manifold descriptor: {data!r}")
        boundary = Boundary0.from_json(data.get("boundary"))
        mapping = data.get("matching")
        if (not isinstance(mapping, dict) or set(mapping) != set(boundary.pos)
                or not all(isinstance(n, str) for n in mapping.values())):
            raise ValueError(
                f"matching must map each positive label to a label, got {mapping!r}")
        matching = tuple((p, mapping[p]) for p in boundary.pos)
        return cls(boundary, matching,
                   json_int(data.get("closed_circles", 0), "closed_circles"))


@dataclass(frozen=True)
class Closed1Manifold:
    """A closed oriented 1-manifold: a disjoint union of circles."""

    circles: int

    def __post_init__(self) -> None:
        if self.circles < 0:
            raise ValueError("circle count must be nonnegative")

    def to_json(self) -> dict[str, Any]:
        return {"dim": 1, "circles": self.circles}

    @classmethod
    def from_json(cls, data: Any) -> Closed1Manifold:
        if not isinstance(data, dict) or data.get("dim") != 1 or "circles" not in data:
            raise ValueError(f"not a closed 1-manifold descriptor: {data!r}")
        return cls(json_int(data["circles"], "circles"))


def glue1(m: Bounded1Manifold, n: Bounded1Manifold) -> Closed1Manifold:
    """Glue m to the orientation reversal of n along their shared boundary.

    Circles of the glued manifold correspond to cycles of the permutation
    (m's matching composed with the inverse of n's matching) on the positive
    points; cycles are counted by explicit visited-marking traversal.
    """
    if m.boundary != n.boundary:
        raise UniverseMismatchError(
            f"boundary mismatch: {m.boundary} vs {n.boundary}")
    pos_index = {p: i for i, p in enumerate(m.boundary.pos)}
    through_n = {neg: pos_index[p] for p, neg in n.matching}
    perm = [through_n[neg] for neg in m.targets]
    visited = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if visited[start]:
            continue
        cycles += 1
        k = start
        while not visited[k]:
            visited[k] = True
            k = perm[k]
    return Closed1Manifold(cycles + m.closed_circles + n.closed_circles)


def complexity1(c: Closed1Manifold) -> int:
    """Component count, the complexity of a closed 1-manifold."""
    return c.circles


def enumerate1(boundary: Boundary0, max_closed: int = 0) -> list[Bounded1Manifold]:
    """Every canonical bounded 1-manifold over ``boundary``.

    Yields all j! matchings (permutations of the negative labels in
    lexicographic order) with each closed-circle count from 0 to max_closed.
    When the boundary has unequal positive and negative counts no oriented
    bounded 1-manifold exists and the basis is empty.
    """
    if max_closed < 0:
        raise ValueError("max_closed must be nonnegative")
    if len(boundary.pos) != len(boundary.neg):
        return []
    out = []
    for targets in itertools.permutations(boundary.neg):
        matching = tuple(zip(boundary.pos, targets))
        for closed in range(max_closed + 1):
            out.append(Bounded1Manifold(boundary, matching, closed))
    return out


@dataclass(frozen=True)
class Dim1Theory(GluingTheory):
    """Gluing theory of bounded 1-manifolds over one fixed boundary."""

    boundary: Boundary0
    name: str = "dim1"

    def glue(self, a: Bounded1Manifold, b: Bounded1Manifold) -> Closed1Manifold:
        return glue1(a, b)

    def reverse(self, closed: Closed1Manifold) -> Closed1Manifold:
        # An oriented circle is diffeomorphic to its reversal.
        return closed

    def complexity(self, closed: Closed1Manifold) -> int:
        return complexity1(closed)

    def validate_basis(self, descriptor: Any) -> None:
        if not isinstance(descriptor, Bounded1Manifold):
            raise UniverseMismatchError(f"not a bounded 1-manifold: {descriptor!r}")
        if descriptor.boundary != self.boundary:
            raise UniverseMismatchError(
                f"boundary mismatch: {descriptor.boundary} vs {self.boundary}")


ZERO_DIM_ALPHABET = ("u", "v")


def zero_dim_involution() -> Involution:
    """Orientation reversal for signed points: swap the letters u and v."""
    return Involution(ZERO_DIM_ALPHABET, swaps=(("u", "v"),))


def points_to_monomial0(p: int, q: int) -> Monomial:
    """Encode p positive and q negative points as the monomial u^p v^q.

    Disjoint union of 0-manifolds is the monomial product and orientation
    reversal is the u <-> v involution, so the 0-dimensional pairing is the
    monomial-ring pairing over this two-letter alphabet.
    """
    if p < 0 or q < 0:
        raise ValueError("point counts must be nonnegative")
    return Monomial.from_dict({"u": p, "v": q})


def arc_walk_circles(m: Bounded1Manifold, n: Bounded1Manifold) -> int:
    """Count glued circles by walking arcs endpoint to endpoint.

    Treats each arc of m and of n as an edge between its two boundary
    points and counts connected components of the resulting degree-2 graph.
    Kept deliberately separate from the permutation route in glue1 so the
    two can check each other.
    """
    if m.boundary != n.boundary:
        raise UniverseMismatchError("boundary mismatch")
    adjacency: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for mani in (m, n):
        for p, neg in mani.matching:
            adjacency.setdefault(("pos", p), []).append(("neg", neg))
            adjacency.setdefault(("neg", neg), []).append(("pos", p))
    seen: set[tuple[str, str]] = set()
    circles = 0
    for point in adjacency:
        if point in seen:
            continue
        circles += 1
        stack = [point]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(adjacency[current])
    return circles + m.closed_circles + n.closed_circles
