"""Independent oracles and seeded generators shared by the test modules.

The convolution oracle multiplies x * conj(y) with raw dicts and Fractions,
sharing no code with FormalSum or the pairing engine, so the two routes can
check each other.  The loop pairing glues every support pair with
``theory.glue`` and sums in ``Scalar`` arithmetic, the reference for the
engine's glue-table pairing; the loop lemma, every pair glued and
compared on its own, is the reference for ``verify_lemma``'s orbit rows and
its full sweep.  The Fraction null search is the
one-assignment-at-a-time reference for the engine's integer null-search
kernel; the integer null scan tests every assignment against the kernel's
own tables, with no prune, the reference for its pruned walk on grids too
large for Fractions.  The Euler oracle recounts a surface gluing cell by
cell, sharing no code with ``glue2``, as does ``glued_genera``, which finds the glued
components by a breadth-first search over the parts and sums chi over
each; the arc walk recounts a 1-manifold gluing
without the permutation route of ``glue1``.  ``sorted_chi_complexity``
recomputes the dim2 complexity by sorting the component chis, never
relying on the order of the genera.  ``counted_whole_orbits`` decides
whether a monomial basis is a union of whole relabelling orbits by counting
each orbit label's members against the orbit's size, the check
``MonomialTheory.orbits`` once made before it tested closure under the
group's generators.  ``core_table`` tabulates ``glue2`` over the dim2 core
pairs, the rows of orbit representatives glued and the rest read through
relabellings, sharing no code with the grid's component counts and
closed-form digits, which the tests check against it.  ``genus_digits``
is the additive digit vector V of a genus multiset, the exact reference
for the grid's own-partition decision.  ``ComplexityTuple`` and
``MonomialComplexity`` are the padded comparators the dim2 and monomial
complexities once used; the tests check that plain tuple order agrees with
them.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter, deque
from fractions import Fraction
from functools import total_ordering
from typing import Iterable

import numpy as np

from umpair import engine
from umpair.algebra import (ONE, ZERO, FormalSum, Scalar, UniverseMismatchError,
                            as_scalar, canonical_key)
from umpair.dim1 import Bounded1Manifold
from umpair.dim2 import Bounded2Manifold, enumerate2, glue2
from umpair.engine import LemmaReport, LemmaViolation, NullSearchResult
from umpair.monomial import Involution, Monomial


def loop_pair(x, y, theory):
    """<x, y> term by term: one ``glue`` call and one Scalar product per pair."""
    for d in (*x.support(), *y.support()):
        theory.validate_basis(d)
    terms = []
    for a, ca in x.items():
        for b, cb in y.items():
            terms.append((theory.glue(a, b), ca * cb.conj()))
    return FormalSum(terms)


def _arrangements(values):
    """The number of distinct orderings of ``values``."""
    count = math.factorial(len(values))
    for m in Counter(values).values():
        count //= math.factorial(m)
    return count


def counted_whole_orbits(basis: Iterable[Monomial], sigma: Involution) -> bool:
    """Whether the monomials of ``basis`` are distinct and a union of whole
    orbits of the prime relabellings that commute with ``sigma``: each
    orbit label (the sorted exponent pairs of the swaps, the sorted
    fixed-prime exponents) must occur as often as its orbit is large, the
    ways to arrange the pairs times 2 per unequal pair times the ways to
    arrange the fixed exponents."""
    basis = list(basis)
    if len(set(basis)) != len(basis):
        return False
    counts = Counter()
    for m in basis:
        exps = dict(m.exponents)
        pairs = tuple(sorted(tuple(sorted((exps.get(a, 0), exps.get(b, 0))))
                             for a, b in sigma.swaps))
        counts[pairs, tuple(sorted(exps.get(p, 0) for p in sigma.fixed))] += 1
    return all(count == _arrangements(pairs) * 2 ** sum(a != b for a, b in pairs)
               * _arrangements(fixed) for (pairs, fixed), count in counts.items())


def loop_lemma(basis, theory):
    """The lemma report of ``engine.verify_lemma`` from one ``glue`` and
    ``complexity`` call per diagonal and per pair i < j, compared with ``<``."""
    for d in basis:
        theory.validate_basis(d)
    diag = [theory.complexity(theory.glue(b, b)) for b in basis]
    violations = []
    for i, a in enumerate(basis):
        for j in range(i + 1, len(basis)):
            off = theory.complexity(theory.glue(a, basis[j]))
            if not (off < diag[i] or off < diag[j]):
                violations.append(LemmaViolation(a, basis[j], off, diag[i], diag[j]))
    n = len(basis)
    return LemmaReport(passed=not violations, basis_size=n, pairs_checked=n * (n - 1) // 2,
                       violations=tuple(violations))


def convolution_oracle(x_terms, y_terms, sigma):
    swap = {}
    for a, b in sigma.swaps:
        swap[a], swap[b] = b, a
    acc = {}
    for exps_x, (xr, xi) in x_terms:
        for exps_y, (yr, yi) in y_terms:
            merged = dict(exps_x)
            for p, e in exps_y.items():
                q = swap.get(p, p)
                merged[q] = merged.get(q, 0) + e
            key = tuple(sorted((p, e) for p, e in merged.items() if e))
            re, im = acc.get(key, (Fraction(0), Fraction(0)))
            # (xr + xi i) * (yr - yi i)
            acc[key] = (re + xr * yr + xi * yi, im + xi * yr - xr * yi)
    return {k: v for k, v in acc.items() if v != (0, 0)}


def as_raw(formal_sum):
    """A formal sum of monomials as the oracle's raw exponent/value dict."""
    return {m.exponents: (c.re, c.im) for m, c in formal_sum.items()}


def raw_terms(formal_sum):
    return [(dict(m.exponents), (c.re, c.im)) for m, c in formal_sum.items()]


def random_poly(rng, sigma, max_terms=8, max_exp=3):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        exps = {p: rng.randint(0, max_exp) for p in sigma.alphabet}
        coeff = Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                       Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        terms.append((Monomial.from_dict(exps), coeff))
    return FormalSum(terms)


def random_vector(rng, basis, max_support=8, bound=3):
    """A nonzero formal sum: small random support, nonzero Gaussian-integer
    coefficients with both parts in [-bound, bound]."""
    support = rng.sample(basis, rng.randint(1, min(max_support, len(basis))))
    terms = []
    for descriptor in support:
        re = im = 0
        while re == 0 and im == 0:
            re, im = rng.randint(-bound, bound), rng.randint(-bound, bound)
        terms.append((descriptor, Scalar(re, im)))
    return FormalSum(terms)


def _is_canonical_nonzero(coeffs, lead, grid_set):
    """Keep one representative per scalar ray, without losing grid coverage.

    An assignment whose first nonzero coefficient is the lead value is always
    canonical.  Any other assignment is skipped only when rescaling its first
    nonzero coefficient to the lead lands every coefficient back on the grid
    (that rescaled representative is enumerated separately); if the rescaled
    vector leaves the grid, the assignment is its ray's only chance to be
    tested and is kept.
    """
    first = next((c for c in coeffs if not c.is_zero()), None)
    if first is None:
        return False
    if first == lead:
        return True
    factor = lead / first
    return any(factor * c not in grid_set for c in coeffs)


def _grouped_pair_is_zero(groups, coeffs):
    for group in groups:
        total = ZERO
        for i, j in group:
            total = total + coeffs[i] * coeffs[j].conj()
        if not total.is_zero():
            return False
    return True


def fraction_null_search(basis, coeff_set, theory):
    """Reference null search: every assignment in Scalar arithmetic, in order.

    Same scan order, ray rule and counters as ``engine.null_search``, one
    assignment at a time (about 200 us each), so only small grids are
    affordable.
    """
    grid = tuple(sorted({as_scalar(c) for c in coeff_set}, key=Scalar.sort_key))
    grid_set = frozenset(grid)
    lead = ONE if ONE in grid_set else next(c for c in grid if not c.is_zero())
    by_key = {}
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            by_key.setdefault(canonical_key(theory.glue(a, b)), []).append((i, j))
    groups = [by_key[k] for k in sorted(by_key)]
    n = len(basis)
    skipped = 0
    for index, coeffs in enumerate(itertools.product(grid, repeat=n)):
        if not _is_canonical_nonzero(coeffs, lead, grid_set):
            skipped += 1
        elif _grouped_pair_is_zero(groups, coeffs):
            return NullSearchResult(FormalSum(zip(basis, coeffs)), n, grid,
                                    index + 1, skipped)
    return NullSearchResult(None, n, grid, len(grid) ** n, skipped)


def integer_null_scan(basis, coeff_set, theory, batch=1 << 12):
    """``engine.null_search``'s report from a scan of every assignment.

    The assignments are read in index order, ``batch`` at a time, and each
    one is tested against every group of ``engine._null_kernel``'s integer
    tables: no prune, no walk, no closed-form count.
    """
    table = engine.GramTensor(basis, theory)
    grid = engine._canonical_grid(coeff_set)
    kernel = engine._null_kernel(table, grid)
    radix, n = len(grid), len(table.basis)
    groups = [np.array(group).T for group in kernel.groups]
    total, skipped = radix ** n, 0
    for lo in range(0, total, batch):
        count = min(batch, total - lo)
        digits = np.array(np.unravel_index(np.arange(lo, lo + count), (radix,) * n))
        first = digits[(digits != kernel.zero).argmax(axis=0), np.arange(count)]
        kept = kernel.keep[first, digits].any(axis=0)
        null = kept.copy()
        for i, j in groups:
            at = digits[i] * radix + digits[j]
            null &= (kernel.re[at].sum(axis=0) == 0) & (kernel.im[at].sum(axis=0) == 0)
        hits = np.flatnonzero(null)
        if len(hits):
            hit = int(hits[0])
            skipped += hit - int(np.count_nonzero(kept[:hit]))
            vector = FormalSum((table.basis[k], grid[d])
                               for k, d in enumerate(digits[:, hit].tolist())
                               if d != kernel.zero)
            return NullSearchResult(vector, n, grid, lo + hit + 1, skipped)
        skipped += count - int(np.count_nonzero(kept))
    return NullSearchResult(None, n, grid, total, skipped)


def euler_oracle(m: Bounded2Manifold, n: Bounded2Manifold) -> int:
    """Euler characteristic of the gluing from an explicit cell structure.

    Each boundary circle is one shared vertex and one shared edge; a part of
    genus g is one centre vertex, 2g loop edges, one spoke edge per boundary
    circle it meets, and one face (the standard one-polygon model); a closed
    piece of genus g is one vertex, 2g edges and one face.  The identified
    complex is counted cell by cell.
    """
    if m.boundary_circles != n.boundary_circles:
        raise UniverseMismatchError("boundary mismatch")
    vertices: set[tuple] = set()
    edges: set[tuple] = set()
    faces: set[tuple] = set()
    for c in range(m.boundary_circles):
        vertices.add(("circle", c, "v"))
        edges.add(("circle", c, "e"))
    for side, mani in (("m", m), ("n", n)):
        for idx, (circles, genus) in enumerate(mani.parts):
            vertices.add((side, idx, "centre"))
            for t in range(2 * genus):
                edges.add((side, idx, "loop", t))
            for c in circles:
                edges.add((side, idx, "spoke", c))
            faces.add((side, idx, "face"))
        for cdx, genus in enumerate(mani.closed_genera):
            vertices.add((side, "closed", cdx, "v"))
            for t in range(2 * genus):
                edges.add((side, "closed", cdx, "loop", t))
            faces.add((side, "closed", cdx, "face"))
    return len(vertices) - len(edges) + len(faces)


def glued_genera(m: Bounded2Manifold, n: Bounded2Manifold) -> tuple[int, ...]:
    """The sorted genus multiset of the gluing of m and n, by a
    breadth-first search over the parts.

    Two parts are adjacent when they meet a common circle.  Each component
    found has chi the sum of 2 - 2g - b over its parts, hence genus
    (2 - chi) / 2; the closed genera of both sides are carried along.
    """
    if m.boundary_circles != n.boundary_circles:
        raise UniverseMismatchError("boundary mismatch")
    parts = list(m.parts) + list(n.parts)
    holders: dict[int, list[int]] = {}
    for v, (circles, _) in enumerate(parts):
        for c in circles:
            holders.setdefault(c, []).append(v)
    seen: set[int] = set()
    genera = list(m.closed_genera) + list(n.closed_genera)
    for start in range(len(parts)):
        if start in seen:
            continue
        seen.add(start)
        queue, chi = deque([start]), 0
        while queue:
            circles, genus = parts[queue.popleft()]
            chi += 2 - 2 * genus - len(circles)
            for c in circles:
                for w in holders[c]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
        assert chi % 2 == 0 and chi <= 2, chi
        genera.append((2 - chi) // 2)
    return tuple(sorted(genera))


@functools.lru_cache(maxsize=None)
def _square_core_table(j: int, gmax: int) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """core_table's square table, read-only, built once per (j, gmax).

    glue2 runs on the row of the first core r of each relabelling orbit
    against every core.  A relabelling s of the circles keeps every gluing,
    so the row of s r is glue2(s r, b) = glue2(r, s^-1 b): r's row read
    through the index map of s^-1.  Each core is coded by its circles' block
    bitmasks and genera, and the index map of s sends the code of every
    core relabelled by s back to its position.
    """
    cores = enumerate2(j, gmax, 0)
    n = len(cores)
    mask = np.zeros((n, j), dtype=np.int64)     # circle c's block bitmask
    genus = np.zeros((n, j), dtype=np.int64)    # and that block's genus
    for b, core in enumerate(cores):
        for circles, g in core.parts:
            mask[b, list(circles)] = sum(1 << c for c in circles)
            genus[b, list(circles)] = g
    base = (gmax + 1) << j
    assert base ** j <= engine.INT64_MAX
    bits = (np.arange(1 << j)[:, None] >> np.arange(j)) & 1

    def codes(perm: tuple[int, ...]) -> np.ndarray:
        """The code of every core relabelled by circle c -> perm[c]."""
        moved = np.empty_like(mask)
        moved[:, list(perm)] = (bits @ (1 << np.array(perm, dtype=np.int64)))[mask] \
            * (gmax + 1) + genus
        return moved @ base ** np.arange(j, dtype=np.int64)

    perms = list(itertools.permutations(range(j)))
    plain = codes(perms[0])
    order = np.argsort(plain)
    index = []  # index[k][b]: the position of core b relabelled by perms[k]
    for perm in perms:
        moved = codes(perm)
        found = order[np.searchsorted(plain[order], moved)]
        assert (plain[found] == moved).all()
        index.append(found)
    index = np.array(index, dtype=np.int32)
    rep = index.min(axis=0)     # the first core of each core's orbit
    reps = sorted(set(rep.tolist()))
    ids: dict[tuple[int, ...], int] = {}
    rows = np.array([[ids.setdefault(glue2(cores[r], m).genera, len(ids)) for m in cores]
                     for r in reps], dtype=np.int32).reshape(len(reps), n)
    # The relabelling taking each core's representative to it, then its inverse.
    mover = (index[:, rep] == np.arange(n)).argmax(axis=0)
    inverse = [perms.index(tuple(np.argsort(perm).tolist())) for perm in perms]
    row_of = dict(zip(reps, range(len(reps))))
    gid = np.take_along_axis(rows[[row_of[r] for r in rep.tolist()]],
                             index[np.array(inverse)[mover]], axis=1)
    genera = sorted(ids, key=lambda g: (len(g), g))
    renumber = np.empty(len(ids), dtype=np.int32)
    renumber[[ids[g] for g in genera]] = np.arange(len(genera))
    gid = renumber[gid]
    gid.flags.writeable = False
    return gid, genera


def core_table(j: int, gmax: int, rows=None) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """(gid, genera): the genus multiset of the gluing of each core of
    ``rows`` (every core when omitted: the square table) with every core,
    the cores being enumerate2(j, gmax, 0) in order, each cell from glue2.

    genera lists every distinct multiset of the square table once, ordered
    by length and then as tuples, and genera[gid[i, b]] is the multiset of
    cell (rows[i], b).
    """
    gid, genera = _square_core_table(j, gmax)
    return (gid if rows is None else gid[np.asarray(rows, dtype=np.intp)]), genera


def genus_digits(multisets: list[tuple[int, ...]], width: int) -> np.ndarray:
    """Row i: V = (n, G, h[width - 1], ..., h[0]) of multisets[i], its length,
    total genus and genus histogram from the top genus down; every genus
    lies below ``width``.  The digits of a union are the sum of its parts'.
    Lexicographic order of the rows is complexity2's order: for n
    components of total genus G, complexity2 is (n, 2G - 2n, 2g - 2 over the
    genera in descending order), and descending sequences of equal length
    compare as their histograms read from the top genus down."""
    lengths = np.fromiter(map(len, multisets), np.int64, len(multisets))
    row = np.repeat(np.arange(len(multisets)), lengths)
    flat = np.fromiter(itertools.chain.from_iterable(multisets), np.int64)
    counts = np.bincount(row * width + flat, minlength=len(multisets) * width
                         ).reshape(len(multisets), width)
    return np.column_stack([lengths, counts @ np.arange(width), counts[:, ::-1]])


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
        for p, t in zip(mani.boundary.pos, mani.targets):
            neg = mani.boundary.neg[t]
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


PAD = -3  # below every real tuple entry; -chi of a component is >= -2


def sorted_chi_complexity(genera: Iterable[int]) -> tuple[int, ...]:
    """(n, -chi, -chi_1, ..., -chi_n) from the component chis sorted afresh,
    whatever order the genera come in: the formula complexity2 once used."""
    chis = sorted(2 - 2 * g for g in genera)
    return (len(chis), -sum(chis), *(-x for x in chis))


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

    def __repr__(self) -> str:
        return f"ComplexityTuple{self.entries}"


@total_ordering
class MonomialComplexity:
    """Descending list of per-orbit (sum, min) pairs, compared with padding.

    Comparison extends the shorter list with (0, 0) pairs, so monomials
    touching different numbers of orbits are still comparable.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs: Iterable[tuple[int, int]]):
        self.pairs = tuple(pairs)
        for s, m in self.pairs:
            if not (s >= m >= 0 and s >= 1):
                raise ValueError(f"invalid orbit pair ({s},{m})")
        if list(self.pairs) != sorted(self.pairs, reverse=True):
            raise ValueError("orbit pairs must be sorted in descending order")

    def _padded_cmp(self, other: MonomialComplexity) -> int:
        for k in range(max(len(self.pairs), len(other.pairs))):
            a = self.pairs[k] if k < len(self.pairs) else (0, 0)
            b = other.pairs[k] if k < len(other.pairs) else (0, 0)
            if a != b:
                return -1 if a < b else 1
        return 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonomialComplexity):
            return NotImplemented
        return self._padded_cmp(other) == 0

    def __lt__(self, other: MonomialComplexity) -> bool:
        return self._padded_cmp(other) < 0

    def __repr__(self) -> str:
        return f"MonomialComplexity({list(self.pairs)})"
