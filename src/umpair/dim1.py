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

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Any, ClassVar, Sequence

import numpy as np

from .algebra import UniverseMismatchError, build_canonical, check_bounds, json_int, json_list
from .engine import INT64_MAX, CodedBasis, GluingTheory, table_from_codes
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
    check_bounds({"j": j})
    return Boundary0(tuple(f"p{i + 1}" for i in range(j)),
                     tuple(f"n{i + 1}" for i in range(j)))


@dataclass(frozen=True)
class Bounded1Manifold:
    """Arcs as a matching pos -> neg, plus closed circles carried along.

    ``targets[k]`` is the index in ``boundary.neg`` of the point matched to
    ``boundary.pos[k]``, so ``targets`` is a permutation of
    range(len(boundary.neg)); equality of the stored data is exactly
    equivalence of the manifolds rel boundary.
    """

    boundary: Boundary0
    targets: tuple[int, ...]
    closed_circles: int = 0

    def __post_init__(self) -> None:
        if self.closed_circles < 0:
            raise ValueError("closed_circles must be nonnegative")
        if (len(self.targets) != len(self.boundary.pos)
                or sorted(self.targets) != list(range(len(self.boundary.neg)))):
            raise ValueError("matching must hit every negative label exactly once")

    def universe_key(self) -> Boundary0:
        return self.boundary

    def to_json(self) -> dict[str, Any]:
        return {
            "dim": 1,
            "boundary": self.boundary.to_json(),
            "matching": {p: self.boundary.neg[t]
                         for p, t in zip(self.boundary.pos, self.targets)},
            "closed_circles": self.closed_circles,
        }

    # (JSON, boundary) of the last boundary ``from_json`` parsed: the terms of
    # one vector share theirs, which is then parsed once.
    _last_boundary: ClassVar[tuple[dict[str, Any], Boundary0] | None] = None

    @classmethod
    def from_json(cls, data: Any) -> Bounded1Manifold:
        if not isinstance(data, dict) or data.get("dim") != 1:
            raise ValueError(f"not a bounded 1-manifold descriptor: {data!r}")
        last = Bounded1Manifold._last_boundary
        if last is not None and data.get("boundary") == last[0]:
            boundary = last[1]
        else:
            boundary = Boundary0.from_json(data.get("boundary"))
            Bounded1Manifold._last_boundary = (boundary.to_json(), boundary)
        mapping = data.get("matching")
        if (not isinstance(mapping, dict) or set(mapping) != set(boundary.pos)
                or not all(isinstance(n, str) for n in mapping.values())):
            raise ValueError(
                f"matching must map each positive label to a label, got {mapping!r}")
        neg = {label: t for t, label in enumerate(boundary.neg)}
        targets = tuple(neg.get(mapping[p], -1) for p in boundary.pos)  # -1: unknown label
        return cls(boundary, targets,
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
    (m.targets composed with the inverse of n.targets) on the positive
    points; cycles are counted by explicit visited-marking traversal.
    ``Dim1Theory.glue_table`` counts the same cycles for a whole basis,
    reading them from ``_cycle_table`` up to j = 8 and by ``_cycle_counts``
    past it.
    """
    if m.boundary != n.boundary:
        raise UniverseMismatchError(
            f"boundary mismatch: {m.boundary} vs {n.boundary}")
    through_n = sorted(range(len(n.targets)), key=n.targets.__getitem__)  # n's inverse
    perm = [through_n[t] for t in m.targets]
    return Closed1Manifold(_cycles(perm) + m.closed_circles + n.closed_circles)


def _cycles(perm: Sequence[int]) -> int:
    """Cycle count of a permutation of range(len(perm))."""
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
    return cycles


# Largest boundary size whose cycle table (j**j int8 entries: 0.8 MB at
# j = 7, 16.8 MB at j = 8) is built; past it cycles are counted by
# ``_cycle_counts`` on the permutations themselves, in blocks of this many
# columns (about 2.4 MB per int32 working array at j = 9).
_MAX_CODED_J = 8
_COLUMNS = 1 << 16


@functools.cache
def _cycle_table(j: int) -> np.ndarray:
    """Cycle count of every permutation of range(j), at its mixed-radix code
    sum_k perm[k] * j**k; codes of non-permutations hold 0.

    The permutations of range(m + 1) are grown from those of range(m) by
    inserting m: as a fixed point it adds a cycle, and placed after any i
    (perm[i] = m, perm[m] = the old perm[i]) it joins i's cycle.
    """
    perms = np.zeros((1, 0), dtype=np.int64)
    counts = np.zeros(1, dtype=np.int8)
    for m in range(j):
        fixed = np.column_stack((perms, np.full(len(perms), m)))
        grown = [fixed]
        for i in range(m):
            joined = fixed.copy()
            joined[:, i], joined[:, m] = m, perms[:, i]
            grown.append(joined)
        perms = np.concatenate(grown)
        counts = np.concatenate((counts + 1, np.tile(counts, m)))
    table = np.zeros(j ** j, dtype=np.int8)
    table[perms @ j ** np.arange(j, dtype=np.int64)] = counts
    table.flags.writeable = False  # shared by every caller in the process
    return table


def _cycle_counts(perms: np.ndarray) -> np.ndarray:
    """Cycle count of each permutation of range(j) along the last axis, by
    pointer doubling over flat indices: ``low`` is the smallest point on the
    path of w points from each point and ``step`` the point w steps on.  Once
    w >= j each path is a whole cycle, so one point per cycle is its own low.
    Flat indices are int32 while they fit."""
    points = np.arange(perms.size, dtype=np.int32 if perms.size < 2**31 else np.int64
                       ).reshape(perms.shape)  # the flat index of each point
    low, step, w = points, perms + points[..., :1], 1
    while w < perms.shape[-1]:
        low = np.minimum(low, low.take(step))
        step, w = step.take(step), 2 * w
    return np.count_nonzero(low == points, axis=-1)


def complexity1(c: Closed1Manifold) -> int:
    """Component count, the complexity of a closed 1-manifold."""
    return c.circles


def enumerate1(boundary: Boundary0, max_closed: int = 0) -> CodedBasis:
    """Every canonical bounded 1-manifold over ``boundary``, coded.

    All j! matchings (the permutations of range(j) in lexicographic order),
    each with every closed-circle count from 0 to max_closed.  The basis is
    held as int8 ``targets`` rows and int64 carried counts, decoded by
    ``_Matchings(boundary)`` when read.  When the boundary has unequal
    positive and negative counts no oriented bounded 1-manifold exists and
    the basis is empty.  A basis too large for numpy to index, whose int8
    rows hold j * j! * (max_closed + 1) entries past int64 (from j = 20),
    raises ValueError naming j and its element count.
    """
    check_bounds({"max_closed": max_closed})
    j = len(boundary.pos)
    if j != len(boundary.neg):
        perms = np.zeros((0, j), dtype=np.int8)
    else:
        count = math.factorial(j)
        if j * count * (max_closed + 1) > INT64_MAX:
            raise ValueError(f"dim1 basis over j = {j} points has {count * (max_closed + 1):,} "
                             f"elements (j! x (max_closed + 1)), too many to hold")
        perms = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(j))),
                            dtype=np.int8, count=j * count).reshape(count, j)
    return CodedBasis((np.repeat(perms, max_closed + 1, axis=0),
                       np.tile(np.arange(max_closed + 1), len(perms))), _Matchings(boundary))


@dataclass(frozen=True)
class _Matchings:
    """Decodes a row of ``enumerate1``'s coded basis over ``boundary``."""

    boundary: Boundary0

    def __call__(self, targets: list[int], closed: int) -> Bounded1Manifold:
        # Each row is a permutation of range(j): built already canonical.
        return build_canonical(Bounded1Manifold, boundary=self.boundary,
                               targets=tuple(targets), closed_circles=closed)


@dataclass(frozen=True)
class Dim1Theory(GluingTheory):
    """Gluing theory of bounded 1-manifolds over one fixed boundary."""

    boundary: Boundary0

    def glue(self, a: Bounded1Manifold, b: Bounded1Manifold) -> Closed1Manifold:
        return glue1(a, b)

    def reverse(self, closed: Closed1Manifold) -> Closed1Manifold:
        # An oriented circle is diffeomorphic to its reversal.
        return closed

    def glue_table(self, rows: Sequence[Bounded1Manifold],
                   cols: Sequence[Bounded1Manifold] | None = None
                   ) -> tuple[Sequence[Closed1Manifold], np.ndarray]:
        """The rows x cols glue table, one chunk of rows at a time; ``cols``
        defaults to ``rows``.  Either side is read as arrays (``_arrays``).

        With sigma_r = targets[r], inv its inverse row by row, and
        W[r, v] = j**inv[r, v], (W[rows] @ inv[cols].T)[r, s] is the
        mixed-radix code of k -> inv[s, sigma_r(k)], the permutation whose
        cycles ``glue1`` counts; ``_cycle_table(j)`` reads them.  Past j = 8,
        ``_cycle_counts`` counts its conjugate v -> sigma_r(inv[s, v]) instead,
        ``_COLUMNS`` columns at a time.  Circle counts are int64 while they
        fit, else Python ints; a cell counts at most j cycles, so they lie in
        [0, j + the largest carried count of a row and of a column], the
        bound ``table_from_codes`` may rank them by.
        """
        cols = rows if cols is None else cols
        j = len(self.boundary.pos)

        def inverse(targets: np.ndarray) -> np.ndarray:
            inv = np.empty_like(targets)
            inv[np.arange(len(targets))[:, None], targets] = np.arange(j)
            return inv

        targets, carried = self._arrays(cols)
        row_targets, row_carried = (targets, carried) if cols is rows else self._arrays(rows)
        inv = inverse(targets)
        if j <= _MAX_CODED_J:
            table, inv_t = _cycle_table(j), inv.T.astype(np.int64)
            weights = j ** (inv if cols is rows else inverse(row_targets)).astype(np.int64)

            def cycles(lo: int, hi: int) -> np.ndarray:
                return table[weights[lo:hi] @ inv_t]
        else:
            def cycles(lo: int, hi: int) -> np.ndarray:
                return np.concatenate([_cycle_counts(row_targets[lo:hi][:, inv[c:c + _COLUMNS]])
                                       for c in range(0, max(len(inv), 1), _COLUMNS)], axis=1)

        def circles(lo: int, hi: int) -> np.ndarray:
            return (cycles(lo, hi) + row_carried[lo:hi, None] + carried).reshape(-1)

        def bound() -> tuple[int, int]:
            return 0, j + int(row_carried.max()) + int(carried.max()) + 1

        bounded = carried.dtype == row_carried.dtype == np.int64 and len(carried)
        return table_from_codes(len(rows), len(cols), circles, Closed1Manifold,
                                bound if bounded else None)

    def _arrays(self, side: Sequence[Bounded1Manifold]) -> tuple[np.ndarray, np.ndarray]:
        """(targets, carried): each element's ``targets`` as a row, and its
        carried circles, int64 while twice the largest plus j fits it (the
        largest count of a glued cell), else Python ints.  A ``CodedBasis``
        of ``enumerate1`` over this boundary gives its own arrays; any other
        side is read off its descriptors."""
        j = len(self.boundary.pos)
        if isinstance(side, CodedBasis) and side.decode == _Matchings(self.boundary):
            targets, carried = side.arrays
        else:
            targets = np.array([b.targets for b in side], dtype=np.int64).reshape(len(side), j)
            carried = np.array([b.closed_circles for b in side], dtype=object)
        top = 2 * int(carried.max(initial=0)) + j
        return targets, carried.astype(np.int64 if top <= INT64_MAX else object, copy=False)

    def orbits(self, basis: Sequence[Bounded1Manifold]) -> np.ndarray | None:
        """The carried-circle counts, when each count that occurs carries all
        j! matchings exactly once; else None.

        Relabelling the negative points by rho sends a matching sigma to
        rho∘sigma and leaves every composed permutation that ``glue1``
        counts unchanged, so it keeps every gluing; it moves the j!
        matchings of one carried count through a single orbit.
        """
        targets, carried = self._arrays(basis)
        j = len(self.boundary.pos)
        _, label, counts = np.unique(carried, return_inverse=True, return_counts=True)
        if any(count != math.factorial(j) for count in counts.tolist()):
            return None
        if not len(basis):
            return carried
        # A basis of whole orbits has at least j! elements, so j <= 12 and the
        # code of each (label, matching) pair fits int64.
        codes = np.sort(label * j ** j + targets.astype(np.int64) @ j ** np.arange(j))
        return carried if (codes[1:] != codes[:-1]).all() else None

    def complexity(self, closed: Closed1Manifold) -> int:
        return complexity1(closed)

    def validate_basis(self, descriptor: Any) -> None:
        if not isinstance(descriptor, Bounded1Manifold):
            raise UniverseMismatchError(f"not a bounded 1-manifold: {descriptor!r}")
        if descriptor.boundary != self.boundary:
            raise UniverseMismatchError(
                f"boundary mismatch: {descriptor.boundary} vs {self.boundary}")

    def validate_coded(self, basis: CodedBasis) -> None:
        """A basis coded over this boundary holds matchings of it only; any
        other is validated element by element, so it raises at its first."""
        if basis.decode != _Matchings(self.boundary):
            super().validate_coded(basis)


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
