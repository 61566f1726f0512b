"""Generic sesquilinear pairing engine over a gluing theory.

A gluing theory supplies four ingredients: a universe of basis descriptors
(bounded objects over one fixed boundary), a ``glue`` map sending a pair of
basis descriptors to a closed descriptor, an orientation ``reverse`` on
closed descriptors, and a ``complexity`` function from closed descriptors
into some totally ordered set of values.

On formal sums the pairing is

    <x, y>  =  sum_ij  a_i * conj(b_j) * [glue(M_i, N_j)],

linear on the left and conjugate linear on the right.  When the theory's
complexity function makes every off-diagonal gluing strictly simpler than
the larger of the two diagonal gluings, the diagonal terms of <x, x> cannot
cancel and the pairing is positive.  The engine checks that hypothesis
(exhaustively on a basis, or on the support of a single vector), produces
auditable positivity certificates, extracts the 0/1 Gram tensor, and runs a
bounded grid search for null vectors.  Every reader, the pairing included,
builds one ``GramTensor``: the closed form of every basis pair and, on first
read, its complexity rank.  The pairing and its null vectors depend on
gluing alone, so ``pair`` and ``null_search`` never call ``complexity``.
"""

from __future__ import annotations

import functools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .algebra import (FormalSum, ONE, Scalar, ZERO, as_scalar, canonical_key,
                      descriptor_to_json)


class GluingTheory(ABC):
    """Glue, reversal and complexity for one basis universe.

    The contract every theory keeps: closed descriptors are hashable and
    equal exactly when they are the same closed form; ``reverse`` is an
    involution; gluing is conjugate symmetric, glue(b, a) == reverse(glue(a, b));
    complexity values are totally ordered by ``<``; and reversal keeps
    complexity, complexity(reverse(c)) == complexity(c), so checking
    dominance on each pair i < j covers the gluing of both orders.

    A theory object's gluing is fixed for its lifetime: the glue table of a
    basis depends only on the object and the basis.  ``GramTensor`` relies
    on it and reuses the last table it built for the same theory object and
    an equal basis (complexity may still change; ranks are never reused).
    Dim1, dim2 and monomial theories are frozen dataclasses, and
    ``FourDimTheory`` copies its tables when built and never changes them;
    code that wants a different gluing builds a new theory object.

    ``glue_table(rows, cols)`` builds the glue table of every row against
    every column; with ``cols`` omitted it is the square table of ``rows``.
    The default glues every cell of a rectangular table, and on a square one
    glues the pairs i <= j and fills the pairs i > j by conjugate symmetry.
    A theory may override it with a faster kernel, which must equal
    ``glue`` on every cell, list each closed form once and give its ids the
    narrowest unsigned dtype that holds the form count.  The forms are any
    read-only sequence that equals the tuple of them: the code kernels return
    ``CodedForms``, which decode on first read.  Rows and columns may be a
    ``CodedBasis``, whose arrays a kernel may read in place of its elements;
    dim1 and monomial read their own, and read descriptors into the same
    arrays otherwise.

    ``complexity_ranks(forms)`` ranks a table's forms by complexity: the
    dense rank of each, so integer order of ranks is complexity order.  The
    default calls ``complexity`` once per form; an override must give the
    same ranks, and falls back to the default whenever ``complexity`` is not
    the one it was written for.

    ``orbits(basis)`` is an optional hook for ``verify_lemma``: a numpy array
    of one orbit label per element of a validated basis, equal labels for one
    orbit, of a dtype ``np.unique`` sorts, or None (the default).  A theory
    may return labels only when the basis is a union of whole orbits of a
    group of relabellings g, each of which either keeps gluing exactly,
    glue(g·a, g·b) == glue(a, b), so that the claim holds for any
    complexity, or keeps it up to a relabelling of closed forms,
    glue(g·a, g·b) == g·glue(a, b), with the theory's own complexity
    invariant under that relabelling, complexity(g·c) == complexity(c).
    In the second case the labels hold only for that complexity, so a theory
    returns None when its ``complexity`` is not its own.  ``verify_lemma``
    then glues one representative row per orbit; its ``pairs_checked``
    still counts the n(n-1)/2 pairs the check covers, not the cells it
    glued.
    """

    @abstractmethod
    def glue(self, a: Any, b: Any) -> Any:
        """Closed descriptor obtained by gluing ``a`` to the reversal of ``b``."""

    @abstractmethod
    def reverse(self, closed: Any) -> Any:
        """Orientation reversal on closed descriptors (an involution)."""

    @abstractmethod
    def complexity(self, closed: Any) -> Any:
        """A totally ordered complexity value for a closed descriptor."""

    @abstractmethod
    def validate_basis(self, descriptor: Any) -> None:
        """Raise ValueError if ``descriptor`` is not in this theory's universe."""

    def validate_coded(self, basis: CodedBasis) -> None:
        """Raise what ``validate_basis`` raises on the first element of ``basis``
        outside this theory's universe.  The default decodes and validates
        each element; a theory that knows the coding may check the arrays, or
        the universe they were coded over, once instead."""
        for d in basis:
            self.validate_basis(d)

    def glue_table(self, rows: Sequence[Any], cols: Sequence[Any] | None = None
                   ) -> tuple[Sequence[Any], np.ndarray]:
        """(forms, ids): the distinct closed forms of the table, and the
        rows x cols matrix whose (i, j) entry indexes glue(rows[i], cols[j])
        in them.  ``cols`` defaults to ``rows``.

        A square table glues the pairs i <= j; the pairs i > j take one
        ``reverse`` call per distinct form of that half and one gather,
        back[ids.T] under the strict lower triangle.
        """
        square = cols is None
        cols = rows if cols is None else cols
        index: dict[Any, int] = {}
        glued = [index.setdefault(self.glue(a, b), len(index))
                 for i, a in enumerate(rows) for b in cols[i if square else 0:]]
        back = [index.setdefault(self.reverse(c), len(index)) for c in list(index) if square]
        dtype = np.min_scalar_type(max(len(index) - 1, 0))
        if not square:
            return tuple(index), np.array(glued, dtype=dtype).reshape(len(rows), len(cols))
        ids = np.zeros((len(rows), len(rows)), dtype=dtype)
        lower = np.tri(len(rows), k=-1, dtype=bool)
        ids[~lower] = glued
        ids[lower] = np.array(back, dtype=dtype)[ids.T[lower]]
        return tuple(index), ids

    def complexity_ranks(self, forms: Sequence[Any]) -> np.ndarray:
        """The dense complexity rank of each form: see the class docstring."""
        return dense_ranks([self.complexity(c) for c in forms])

    def orbits(self, basis: Sequence[Any]) -> Sequence[Any] | None:
        """One orbit label per basis element, or None: see the class docstring."""
        return None


def pair(x: FormalSum, y: FormalSum, theory: GluingTheory) -> FormalSum:
    """<x, y> as a formal sum of closed forms, read off the ``GramTensor`` of
    supp x by supp y (square when both supports are the same) and summed
    exactly by ``_hermitian_sums``: each nonzero total is divided once by
    La*Lb, zero parts share one ``Fraction(0)``, and only ``pair`` keeps its
    sums (``GramTensor.sums``).  The table's forms are distinct, so the sum is
    built canonical from them (``FormalSum._from_distinct``), unchecked."""
    same = x.keys() == y.keys()
    rows = None if same else _validated(theory, x.support())
    table = GramTensor(_validated(theory, y.support()), theory, rows=rows)
    a = [c for _, c in x.items()]
    scale, re, im = table.sums(a, a if y is x else [c for _, c in y.items()], keep=True)
    return FormalSum._from_distinct(
        (c, Scalar(Fraction(r, scale) if r else ZERO.re, Fraction(i, scale) if i else ZERO.re))
        for c, r, i in zip(table.forms, re, im) if r or i)


def _gaussian_integers(scalars: Sequence[Scalar]) -> tuple[int, list[int], list[int]]:
    """(L, re, im): L the LCM of all denominators, re and im the parts times L."""
    scale = math.lcm(*(part.denominator for c in scalars for part in (c.re, c.im)))
    return (scale, [c.re.numerator * (scale // c.re.denominator) for c in scalars],
            [c.im.numerator * (scale // c.im.denominator) for c in scalars])


def _hermitian_sums(count: int, ids: np.ndarray, a: Sequence[Scalar],
                    b: Sequence[Scalar]) -> tuple[int, list[int], list[int]]:
    """(La*Lb, re, im): sum_ij a_i conj(b_j) [ids[i, j]] over ``count`` form
    ids in Gaussian integers.  With a_i = (ar + ai i) / La and b_j = (br +
    bi i) / Lb, cell (i, j) adds ar*br + ai*bi to re and ai*br - ar*bi to im
    at its form id; form f's value is (re[f] + im[f] i) / (La*Lb)."""
    la, ar, ai = _gaussian_integers(a)
    lb, br, bi = (la, ar, ai) if b is a else _gaussian_integers(b)
    re, im = [0] * count, [0] * count
    for row, xr, xi in zip(ids.tolist(), ar, ai):
        for f, yr, yi in zip(row, br, bi):
            re[f] += xr * yr + xi * yi
            im[f] += xi * yr - xr * yi
    return la * lb, re, im


def dense_ranks(values: Sequence[Any]) -> np.ndarray:
    """The dense rank of each value under ``<``.

    Equal values share a rank, so integer order of ranks is the order of the
    values; any totally ordered values will do, hashable or not.
    """
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0] * len(values)
    for prev, cur in zip(order, order[1:]):
        ranks[cur] = ranks[prev] + (values[prev] < values[cur])
    return np.array(ranks, dtype=np.int32)


class GramTensor:
    """The glue table of a validated basis; every reader in this module builds one.

    The readers validate each descriptor once (``_validated``) before they
    build it; the table itself checks nothing.

    ``forms`` are the distinct closed forms, and ``ids[i, j]`` is the index
    of glue(rows[i], basis[j]) among them, so the 0/1 Gram matrix T^c of a
    form c is ``ids == forms.index(c)``.  ``rows`` is the basis itself
    unless a row set is given: the table is then rectangular,
    len(rows) x len(basis).  A ``CodedBasis`` basis or row set is kept as it
    is, and any other as a tuple.
    ``ranks[f]`` is the dense complexity rank of forms[f]: integer order of
    ranks is complexity order.

    ``forms`` and ``ids`` come from the theory's ``glue_table``; ``forms``
    is a read-only sequence, and ``ids`` has the narrowest unsigned dtype
    the form count allows and is read-only.
    The last table built is kept and reused when the same theory object
    (``is``, since a theory need not be hashable) builds an equal basis with
    an equal row set again, so ``pair(x, x)`` followed by
    ``certify_positive(x)`` glues the support of x once.  Coded bases are
    compared by their arrays, and a coded basis never matches a tuple, so
    the comparison decodes nothing.  A square table
    and a rectangular one are never the same entry, whatever their rows.
    Only that one table is kept, with the integer sums ``pair`` last made on
    it (``sums``), which ``certify_positive(x)`` then reads.  Ranks are never
    reused: they are computed on first read, every form in one
    ``complexity_ranks`` pass, so a reader that never reads them (``pair``,
    ``null_search``) never calls ``complexity``.
    """

    # (theory, basis, forms, ids, row set or None when square, (a, b, sums)
    # of the last pair on it or None) of the last table built.
    _last: tuple[GluingTheory, Sequence[Any], Sequence[Any], np.ndarray,
                 Sequence[Any] | None, tuple[Any, ...] | None] | None = None

    def __init__(self, basis: Iterable[Any], theory: GluingTheory,
                 rows: Iterable[Any] | None = None):
        self.theory = theory
        self.basis = _held(basis)
        row_set = None if rows is None else _held(rows)
        self.rows = self.basis if row_set is None else row_set
        last = GramTensor._last
        if (last is None or last[0] is not theory or not _same(last[1], self.basis)
                or not _same(last[4], row_set)):
            forms, ids = (theory.glue_table(self.basis) if row_set is None
                          else theory.glue_table(row_set, self.basis))
            ids.flags.writeable = False
            last = GramTensor._last = (theory, self.basis, forms, ids, row_set, None)
        self.forms, self.ids = last[2], last[3]

    def sums(self, a: list[Scalar], b: list[Scalar], keep: bool = False
             ) -> tuple[int, list[int], list[int]]:
        """``_hermitian_sums`` of a by b: kept ones if this table is the entry
        and a and b equal their lists, else summed afresh (and kept if ``keep``)."""
        last = GramTensor._last
        if last[3] is self.ids and last[5] is not None and last[5][:2] == (a, b):
            return last[5][2]
        sums = _hermitian_sums(len(self.forms), self.ids, a, b)
        if keep and last[3] is self.ids:
            GramTensor._last = (*last[:5], (a, b, sums))
        return sums

    @functools.cached_property
    def ranks(self) -> np.ndarray:
        return self.theory.complexity_ranks(self.forms)


def _held(descriptors: Iterable[Any]) -> Sequence[Any]:
    """A ``CodedBasis`` as it is, anything else as a tuple."""
    return descriptors if isinstance(descriptors, CodedBasis) else tuple(descriptors)


def _same(a: Sequence[Any] | None, b: Sequence[Any] | None) -> bool:
    """Whether two held bases (or row sets, or None) are equal, read without
    decoding: a coded basis is only ever the same as a coded one."""
    return type(a) is type(b) and a == b


def _validated(theory: GluingTheory, descriptors: Iterable[Any]) -> Sequence[Any]:
    """``descriptors`` held (``_held``) once the theory accepts them: a
    ``CodedBasis`` after one ``validate_coded`` call, whose dim1 and monomial
    overrides check the basis's boundary or alphabet once and decode at most
    the element they reject; anything else after one ``validate_basis`` call
    per element."""
    if isinstance(descriptors, CodedBasis):
        theory.validate_coded(descriptors)
        return descriptors
    out = tuple(descriptors)
    for d in out:
        theory.validate_basis(d)
    return out


# The largest int64, for the code kernels' fits-in-int64 checks.
INT64_MAX = np.iinfo(np.int64).max


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


def _fit_ids(ids: np.ndarray, count: int) -> np.ndarray:
    """``ids``, widened if ``count`` forms overflow its unsigned dtype."""
    if count <= 1 << 8 * ids.itemsize:
        return ids
    return ids.astype(np.min_scalar_type(count - 1))


# Cells per chunk of rows in the table kernels and the dominance check:
# their temporaries stay within a few hundred kB whatever the basis size.
_CHUNK = 1 << 12


def _chunk_rows(n: int) -> int:
    """Rows of an n-column table per chunk."""
    return max(1, _CHUNK // max(1, n))


class _Coded(Sequence[Any]):
    """A read-only sequence held as integer arrays, one row per element.

    Element k is ``decode(*rows)``, its row of each array as Python values
    (an int, or a list for a row of a 2-d array); ``len`` and the arrays
    read no element.  The arrays hold integers, past int64 as Python ints
    (dtype object), and are read-only.
    """

    def __init__(self, arrays: tuple[np.ndarray, ...], decode: Callable[..., Any]):
        for a in arrays:
            a.flags.writeable = False
        self.arrays, self.decode = arrays, decode

    def __len__(self) -> int:
        return len(self.arrays[0])

    def _decode_all(self) -> Iterator[Any]:
        return map(self.decode, *(a.tolist() for a in self.arrays))


class CodedForms(_Coded):
    """The distinct closed forms of a coded glue table, decoded on first read.

    ``codes`` holds one integer code per form in id order; ``decode`` turns a
    code into its closed form.  ``len`` reads the codes only.  The first
    other read (an index or slice, iteration, ``index``, equality) decodes
    every form once and keeps the tuple.  A ``complexity_ranks`` override
    may rank the codes instead and never decode.  The sequence equals the
    tuple of its forms and any ``CodedForms`` of the same forms.  Its codes
    are its one array, ``arrays[0]``, and ``CodedBasis`` decodes its rows
    the same way (``_Coded``), one element per read.
    """

    def __init__(self, codes: np.ndarray, decode: Callable[[Any], Any]):
        super().__init__((codes,), decode)
        self.codes = codes
        self._forms: tuple[Any, ...] | None = None

    def _decoded(self) -> tuple[Any, ...]:
        if self._forms is None:
            self._forms = tuple(self._decode_all())
        return self._forms

    def __getitem__(self, k: Any) -> Any:
        return self._decoded()[k]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._decoded())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CodedForms):
            other = other._decoded()
        if not isinstance(other, tuple):
            return NotImplemented
        return self._decoded() == other


class CodedBasis(_Coded):
    """Basis elements held as integer arrays, each decoded when it is read.

    A theory module builds one (``dim1.enumerate1``,
    ``monomial.enumerate_monomials``) with a ``decode`` that knows its
    coding and compares equal exactly for the same coding and universe.
    An int index decodes that element afresh, with no check: the module
    codes only elements in canonical form.  Iteration decodes every element
    in order.  A slice or an index array selects rows and gives a
    ``CodedBasis`` again, decoding nothing.  The sequence equals a list or
    tuple of its elements, and a ``CodedBasis`` of the same ``decode`` and
    equal arrays; ``basis + other`` is the list of both.
    """

    def __getitem__(self, k: Any) -> Any:
        if isinstance(k, (int, np.integer)):
            k = range(len(self))[k]
            return self.decode(*(a[k:k + 1].tolist()[0] for a in self.arrays))
        return CodedBasis(tuple(a[k] for a in self.arrays), self.decode)

    def __iter__(self) -> Iterator[Any]:
        return self._decode_all()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CodedBasis) and other.decode == self.decode:
            return len(self) == len(other) and all(
                np.array_equal(a, b) for a, b in zip(self.arrays, other.arrays))
        if not isinstance(other, (CodedBasis, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __add__(self, other: Iterable[Any]) -> list[Any]:
        return [*self, *other]


def table_from_codes(rows: int, cols: int, codes: Callable[[int, int], np.ndarray],
                     decode: Callable[[Any], Any],
                     bound: Callable[[], tuple[int, int]] | None = None
                     ) -> tuple[CodedForms, np.ndarray]:
    """A ``glue_table`` result of ``rows`` x ``cols`` cells from closed forms
    coded as integers.

    ``codes(lo, hi)`` gives the code of each pair of a table row lo..hi-1
    with a column, in row-major order, as int64 or, past int64, Python ints
    (dtype object); codes are equal exactly when their closed forms are,
    and ``decode`` decodes one.  Only one chunk of codes is held at a time.
    The forms are ``CodedForms`` of the distinct codes, in the codes' dtype
    and ascending order, as ``np.unique`` gives them.  A table of one chunk
    takes them from one ``np.unique``.  A larger table takes them from a
    presence mask (``_masked_table``) when ``bound`` is given and the span
    it returns is at most ``_MASK_SPAN`` times the cell count, else from the
    chunks' own distinct codes (``_merged_table``).  ``bound()``, called
    only for a table of more than one chunk, returns a half-open range
    [low, high) of Python ints that holds every code; a kernel passes one
    only for int64 codes.
    """
    step = _chunk_rows(cols)
    if rows <= step:
        distinct, inverse = np.unique(codes(0, rows), return_inverse=True)
        dtype = np.min_scalar_type(max(len(distinct) - 1, 0))
        return CodedForms(distinct, decode), inverse.astype(dtype).reshape(rows, cols)
    if bound is not None:
        low, high = bound()
        if high - low <= _MASK_SPAN * rows * cols:
            forms, ids = _masked_table(rows, cols, codes, low, high)
            return CodedForms(forms, decode), ids
    forms, ids = _merged_table(rows, cols, codes)
    return CodedForms(forms, decode), ids


# Widest span of codes, per cell, that ``table_from_codes`` ranks by a mask.
_MASK_SPAN = 4


def _masked_table(rows: int, cols: int, codes: Callable[[int, int], np.ndarray],
                  low: int, high: int) -> tuple[np.ndarray, np.ndarray]:
    """(forms, ids) of a table whose int64 codes lie in [low, high): each
    chunk's codes, computed once, are marked in one boolean mask over the
    span and held as code - low in the ids.  The forms are the marked codes,
    ascending as ``np.unique``'s do, and the ids are remapped in place to
    the rank of their code among them: 0, 1, ... scattered at the marked
    offsets."""
    step = _chunk_rows(cols)
    mask = np.zeros(high - low, dtype=bool)
    ids = np.empty((rows, cols), dtype=np.min_scalar_type(max(high - low - 1, 0)))
    for lo in range(0, rows, step):
        block = ids[lo:lo + step]
        offsets = codes(lo, lo + len(block))
        if low:
            offsets = offsets - low
        mask[offsets] = True
        block[...] = offsets.reshape(block.shape)
    marked = np.flatnonzero(mask)
    rank = np.empty(len(mask), dtype=ids.dtype)
    rank[marked] = np.arange(len(marked), dtype=ids.dtype)
    np.take(rank, ids, out=ids)
    return marked + low, ids.astype(np.min_scalar_type(max(len(marked) - 1, 0)), copy=False)


def _merged_table(rows: int, cols: int, codes: Callable[[int, int], np.ndarray]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(forms, ids) of a table of several chunks: each chunk's ids index that
    chunk's distinct codes, all of which are then ranked in one ``np.unique``
    and each chunk remapped by a gather."""
    step = _chunk_rows(cols)
    ids = np.zeros((rows, cols), dtype=np.uint8)
    chunks = []
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        distinct, inverse = np.unique(codes(lo, hi), return_inverse=True)
        ids = _fit_ids(ids, len(distinct))
        ids[lo:hi] = inverse.reshape(hi - lo, cols)
        chunks.append(distinct)
    forms, slots = np.unique(np.concatenate(chunks), return_inverse=True)
    ids = _fit_ids(ids, len(forms))
    slots = slots.astype(ids.dtype)
    start = 0
    for lo, distinct in zip(range(0, rows, step), chunks):
        block = ids[lo:lo + step]
        np.take(slots[start:start + len(distinct)], block, out=block)
        start += len(distinct)
    return forms, ids


def _dominance_failures(table: GramTensor, at: np.ndarray | None = None,
                        diag: np.ndarray | None = None) -> Iterator[tuple[int, int]]:
    """The basis index pairs (i, j), i < j, row by row, whose off-diagonal
    gluing is not strictly less complex than the larger of their two
    diagonal gluings.

    Table row r is basis element ``at[r]``, and ``diag`` is the diagonal
    rank of every basis element; both default to those of a square table.
    Compared one chunk of rows at a time and yielded lazily, so the first
    failure costs no more than the chunk it is in.
    """
    n = len(table.basis)
    at = np.arange(n) if at is None else at
    diag = table.ranks[table.ids.diagonal()] if diag is None else diag
    cols = np.arange(n)
    step = _chunk_rows(n)
    for lo in range(0, len(at), step):
        hi = min(lo + step, len(at))
        off = table.ranks[table.ids[lo:hi]]
        failed = (off >= np.maximum(diag[at[lo:hi], None], diag)) & (cols > at[lo:hi, None])
        for r, j in np.argwhere(failed).tolist():
            yield int(at[lo + r]), j


@dataclass(frozen=True)
class LemmaViolation:
    """A pair whose off-diagonal gluing is not strictly simpler than both diagonals."""

    left: Any
    right: Any
    off_complexity: Any
    left_diag_complexity: Any
    right_diag_complexity: Any

    @classmethod
    def of(cls, theory: GluingTheory, left: Any, right: Any) -> Any:
        """The pair (left, right) with its three complexities."""
        return cls(left, right, *(theory.complexity(theory.glue(a, b)) for a, b in
                                  ((left, right), (left, left), (right, right))))

    def to_json(self) -> dict[str, Any]:
        return {
            "left": descriptor_to_json(self.left),
            "right": descriptor_to_json(self.right),
            "off_complexity": self.off_complexity,
            "left_diag_complexity": self.left_diag_complexity,
            "right_diag_complexity": self.right_diag_complexity,
        }


@dataclass(frozen=True)
class LemmaReport:
    passed: bool
    basis_size: int
    pairs_checked: int
    violations: tuple[LemmaViolation, ...]

    def to_json(self) -> dict[str, Any]:
        return {
            "passed": self.passed,
            "basis_size": self.basis_size,
            "pairs_checked": self.pairs_checked,
            "violations": [v.to_json() for v in self.violations],
        }


def verify_lemma(basis: Sequence[Any], theory: GluingTheory) -> LemmaReport:
    """Check strict diagonal dominance of complexity on every unordered pair.

    Violations are data, not errors: the report lists each failing pair with
    the three complexities involved.  When the theory's ``orbits`` hook
    splits the basis into orbits, the representative rows are checked first
    (``_orbit_rows_pass``); any failure there, or no orbits, runs the sweep
    over every pair, so violations always come from that sweep.  Of a
    ``CodedBasis`` whose theory reads its arrays (dim1, monomial), only the
    elements of the violations are decoded.
    """
    basis = _validated(theory, basis)
    violations: tuple[LemmaViolation, ...] = ()
    if not _orbit_rows_pass(basis, theory):
        table = GramTensor(basis, theory)
        violations = tuple(LemmaViolation.of(theory, table.basis[i], table.basis[j])
                           for i, j in _dominance_failures(table))
    n = len(basis)
    return LemmaReport(passed=not violations, basis_size=n,
                       pairs_checked=n * (n - 1) // 2, violations=violations)


def _orbit_rows_pass(basis: Sequence[Any], theory: GluingTheory) -> bool:
    """True when ``theory.orbits`` labels the basis and every pair passes.

    ``basis`` is validated already.  A relabelling g of the hook's group
    sends the pair {a, b} to {g·a, g·b}, whose three closed forms are those
    of {a, b} or their relabellings by g; either way their complexities are
    the same.  Moving a to the first element of its orbit turns every pair
    into a pair of that element's row, so the table of the first element of
    each orbit against the whole basis meets the dominance test of every
    pair.  Each element's diagonal rank is its representative's own cell,
    since glue(g·b, g·b) is glue(b, b) or g·glue(b, b).  Each row is
    compared with its later columns only: a later orbit starts after every
    earlier representative, so it lies wholly to their right.
    """
    labels = theory.orbits(basis)
    if labels is None:
        return False
    # Each orbit's first element, orbits in label order, and each element's orbit.
    _, first, orbit = np.unique(labels, return_index=True, return_inverse=True)
    rows = (basis[first] if isinstance(basis, CodedBasis)
            else tuple(basis[k] for k in first.tolist()))
    table = GramTensor(basis, theory, rows=rows)
    own = table.ranks[table.ids[np.arange(len(first)), first]]
    return next(_dominance_failures(table, first, own[orbit]), None) is None


@dataclass(frozen=True)
class CertificateForm:
    """One maximal-complexity diagonal closed form with its witness mass."""

    closed: Any
    mass: Fraction
    witnesses: tuple[int, ...]  # indices into the certificate's support order

    def to_json(self) -> dict[str, Any]:
        return {
            "closed": descriptor_to_json(self.closed),
            "mass": str(self.mass),
            "witnesses": list(self.witnesses),
        }


@dataclass(frozen=True)
class PositivityCertificate:
    support: tuple[Any, ...]
    max_complexity: Any
    forms: tuple[CertificateForm, ...]

    def to_json(self) -> dict[str, Any]:
        return {
            "status": "certificate",
            "support": [descriptor_to_json(d) for d in self.support],
            "max_complexity": self.max_complexity,
            "forms": [f.to_json() for f in self.forms],
        }


@dataclass(frozen=True)
class CertificateFailure(LemmaViolation):
    """The violating pair that blocks the no-cancellation argument."""

    def to_json(self) -> dict[str, Any]:
        out = super().to_json()
        return {"status": "failure",
                "violating_pair": [out.pop("left"), out.pop("right")], **out}


def certify_positive(x: FormalSum, theory: GluingTheory
                     ) -> PositivityCertificate | CertificateFailure:
    """Certify <x, x> != 0, or name the support pair that blocks the argument.

    The diagonal-dominance hypothesis is checked on the support of x only.
    On success the certificate lists every closed form of maximal complexity
    among the diagonal gluings, with mass sum(|a_i|^2) over the coefficients
    gluing to it.  Each mass is cross-checked against the integer sums of
    <x, x> over the same table, the ones ``pair`` divides into its formal
    sum, kept with the table by ``pair(x, x)`` or summed afresh: the form's
    value there must be real and equal to the mass, and any disagreement
    raises (that would be a soundness defect, not a property of the input).
    """
    if x.is_zero():
        raise ValueError("cannot certify a zero (or empty) vector")
    table = GramTensor(_validated(theory, x.support()), theory)
    for i, j in _dominance_failures(table):
        return CertificateFailure.of(theory, table.basis[i], table.basis[j])
    coeffs = [c for _, c in x.items()]
    diag = table.ids.diagonal().tolist()
    ranks = table.ranks.tolist()
    top = max(ranks[f] for f in diag)
    scale, re, im = table.sums(coeffs, coeffs)
    certified = []
    for f in sorted({f for f in diag if ranks[f] == top},
                    key=lambda f: canonical_key(table.forms[f])):
        closed, idx = table.forms[f], [i for i, g in enumerate(diag) if g == f]
        mass = sum((coeffs[i].norm2() for i in idx), Fraction(0))
        if mass <= 0:
            raise AssertionError("diagonal mass must be positive")
        if im[f] or Fraction(re[f], scale) != mass:
            value = Scalar(Fraction(re[f], scale), Fraction(im[f], scale))
            raise AssertionError(
                f"certificate cross-check failed at {canonical_key(closed)}: "
                f"expected mass {mass}, pairing has {value}")
        certified.append(CertificateForm(closed, mass, tuple(idx)))
    if not any(re) and not any(im):
        raise AssertionError("certificate produced for a vector with zero pairing")
    return PositivityCertificate(support=table.basis,
                                 max_complexity=theory.complexity(certified[0].closed),
                                 forms=tuple(certified))


@dataclass(frozen=True)
class NullSearchResult:
    vector: FormalSum | None
    basis_size: int
    grid: tuple[Scalar, ...]
    assignments_tested: int
    assignments_skipped: int

    def to_json(self) -> dict[str, Any]:
        return {
            "status": "found" if self.vector is not None else "none",
            "vector": None if self.vector is None else self.vector.to_json(),
            "basis_size": self.basis_size,
            "grid": [s.to_json() for s in self.grid],
            "assignments_tested": self.assignments_tested,
            "assignments_skipped": self.assignments_skipped,
        }


def _canonical_grid(coeff_set: Iterable[Scalar | int]) -> tuple[Scalar, ...]:
    grid = sorted({as_scalar(c) for c in coeff_set}, key=Scalar.sort_key)
    if not any(c.is_zero() for c in grid):
        raise ValueError("coefficient grid must contain 0")
    if all(c.is_zero() for c in grid):
        raise ValueError("coefficient grid needs a nonzero value")
    return tuple(grid)


# Live prefixes per block of the null-search walk.  At coordinate k the
# children of a block take 8 * G * (k + 2) bytes per prefix on a grid of G
# values, so a level holds a few MB at most, and far less where the prunes bite.
_BLOCK = 1024


@dataclass
class _Level:
    """The live children of one block at coordinate ``k`` of
    ``_NullKernel.search``: their positions among the block's children and
    their digits over their codes, walked in blocks from ``next`` on.  Its
    dead children that the ray rule does not keep are kept by position and
    first nonzero digit."""

    k: int
    at: np.ndarray
    prefixes: np.ndarray
    dead: np.ndarray
    dead_first: np.ndarray
    next: int = 0


@dataclass(frozen=True)
class _NullKernel:
    """<x, x> = 0 over one grid and basis as exact integer table lookups.

    Assignments are grid indices, one digit per basis coordinate, numbered
    in mixed radix with coordinate 0 most significant; ``search`` walks
    them in that order.

    ``re[a * G + b]`` and ``im[a * G + b]`` are the parts of
    (L g_a) * conj(L g_b), the ``_hermitian_sums`` of the grid times itself:
    G is the grid size and L the least common multiple of every denominator
    in the grid, so each entry is an integer and a group sums to zero
    exactly when the unscaled sum does.
    ``keep[f, c]`` is the ray rule for an assignment whose first nonzero
    value is grid[f]: it is tested when rescaling coefficient c by
    lead / grid[f] leaves the grid (every c when grid[f] is the lead, no c
    when grid[f] is 0, which only the all-zero assignment has).  ``groups``
    are the basis index pairs of each ``GramTensor`` form in row-major
    order, smallest group first, so most assignments are dropped after the
    fewest lookups; ``last`` is each group's largest basis index.
    """

    n: int
    zero: int
    re: np.ndarray
    im: np.ndarray
    keep: np.ndarray
    groups: tuple[tuple[tuple[int, int], ...], ...]
    last: tuple[int, ...]

    def search(self) -> tuple[int | None, int, list[int] | None]:
        """The first null assignment's index, the assignments skipped up to
        it and its digits, its grid index per basis coordinate.  Without a
        hit: None, the skips of every assignment, None.

        A depth-first walk assigns coordinates 0, 1, ... in turn to blocks of
        at most ``_BLOCK`` live prefixes, each prefix followed by every digit
        in order.  A child dies when the coordinate just assigned is nonzero
        in a diagonal-only group (whose sum is a sum of |L a_i|^2) or is the
        last index of a group whose sum is then nonzero.  A dead subtree holds
        no null assignment.  An all-zero prefix never dies (each of its closed
        groups sums to 0), so a dead subtree with r free coordinates has a
        first nonzero value f: it skips s_f^r assignments,
        s_f = #{c : not keep[f, c]}, or none once a fixed coordinate is kept.
        Every group has closed at the last coordinate, so there the first
        kept live child is the hit, and each child not kept is one skip.
        Counts are Python ints of any size.
        """
        radix, n, zero = len(self.keep), self.n, self.zero
        spare = [row.count(False) for row in self.keep.tolist()]
        values = np.arange(radix)
        # A prefix's code is f + G * kept: f its first nonzero digit (``zero``
        # if none), kept whether the ray rule keeps it.  ``step[code, d]`` is
        # the code of its child with digit d.
        first = np.repeat(values[:, None], radix, axis=1)
        first[zero] = values
        step = np.concatenate([first + radix * self.keep[first, values], first + radix])
        # The digits allowed at each coordinate, and the groups that close
        # there as (2, cells, 1) arrays of their basis indices, smallest first.
        allowed = [np.ones(radix, dtype=bool)] * n
        closing: list[list[np.ndarray]] = [[] for _ in range(n)]
        for group, last in zip(self.groups, self.last):
            if all(i == j for i, j in group):
                for i, _ in group:
                    allowed[i] = values == zero
            else:
                closing[last].append(np.array(group, dtype=np.intp).T[:, :, None])

        def children(k: int, prefixes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """Each prefix of a block, its k digits over its code, followed by
            every digit at coordinate k: the children, their k + 1 digits over
            their codes, and which of them live."""
            child = np.empty((k + 2, prefixes.shape[1], radix), dtype=np.intp)
            child[:k] = prefixes[:k, :, None]
            child[k] = values
            child[k + 1] = step[prefixes[k]]
            child = child.reshape(k + 2, -1)
            live = allowed[k][child[k]]
            for i, j in closing[k]:
                rows = live.nonzero()[0]
                at = child[i, rows] * radix + child[j, rows]
                live[rows[(self.re[at].sum(axis=0) != 0)
                          | (self.im[at].sum(axis=0) != 0)]] = False
            return child, live

        def skips(level: _Level, stop: int | None = None) -> int:
            """The skips of the level's dead subtrees before child ``stop``."""
            firsts = level.dead_first
            if stop is not None:
                firsts = firsts[:np.searchsorted(level.dead, stop)]
            if not len(firsts):
                return 0
            counts = np.bincount(firsts, minlength=radix).tolist()
            return sum(c * s ** (n - 1 - level.k) for c, s in zip(counts, spare) if c)

        skipped = 0
        stack: list[_Level] = []
        k, prefixes = 0, np.array([[zero]])
        while True:
            child, live = children(k, prefixes)
            # A code below G is a child the ray rule does not keep, and its f.
            if k < n - 1:
                at, dead = live.nonzero()[0], ((child[-1] < radix) > live).nonzero()[0]
                stack.append(_Level(k, at, child[:, at], dead, child[-1, dead]))
            else:
                kept = child[-1] >= radix
                hits = (live & kept).nonzero()[0]
                if len(hits):
                    hit = int(hits[0])
                    found = child[:-1, hit].tolist()
                    skipped += hit - int(np.count_nonzero(kept[:hit]))
                    # Each level on the stack is walking the block that holds
                    # the hit's prefix; its dead subtrees before that count.
                    row = hit // radix
                    for level in reversed(stack):
                        place = int(level.at[level.next - _BLOCK + row])
                        skipped += skips(level, place)
                        row = place // radix
                    return functools.reduce(lambda a, d: a * radix + d, found, 0), skipped, found
                skipped += len(kept) - int(np.count_nonzero(kept))
            while stack and stack[-1].next >= len(stack[-1].at):
                skipped += skips(stack.pop())
            if not stack:
                return None, skipped, None
            level = stack[-1]
            k, prefixes = level.k + 1, level.prefixes[:, level.next:level.next + _BLOCK]
            level.next += _BLOCK


def _null_kernel(table: GramTensor, grid: tuple[Scalar, ...]) -> _NullKernel:
    """The tables of ``_NullKernel``, built once per search.

    Entries are int64 when no group sum can reach 2**63, that is when the
    largest group times the largest entry size is below it.  Otherwise they
    are exact Python ints (dtype object) through the same code.
    """
    g = len(grid)
    _, re, im = _hermitian_sums(g * g, np.arange(g * g).reshape(g, g), grid, grid)
    n = len(table.basis)
    order = np.argsort(table.ids.ravel(), kind="stable")
    rows, cols = np.divmod(order, n)
    starts = np.searchsorted(table.ids.ravel()[order], np.arange(len(table.forms)))
    cells = list(zip(rows.tolist(), cols.tolist()))
    bounds = [*starts.tolist(), n * n]
    last = np.maximum.reduceat(np.maximum(rows, cols), starts).tolist()
    by_size = sorted(range(len(starts)), key=lambda f: bounds[f + 1] - bounds[f])
    groups = tuple(tuple(cells[bounds[f]:bounds[f + 1]]) for f in by_size)
    dtype = np.int64 if len(groups[-1]) * max(map(abs, re + im)) < 2**63 else object

    lead = ONE if ONE in grid else next(c for c in grid if not c.is_zero())
    # The ray rule in Gaussian integers, the grid times L: lead / f * c is on
    # the grid when lead * c is f * x for a grid value x (both carry L^2).
    _, xs, ys = _gaussian_integers(grid)
    points = list(zip(xs, ys))
    scaled_lead = points[grid.index(lead)]

    def times(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    def ray_row(first: Scalar, scaled: tuple[int, int]) -> list[bool]:
        if first.is_zero():
            return [False] * len(grid)
        if first == lead:
            return [True] * len(grid)
        onto = {times(scaled, x) for x in points}
        return [times(scaled_lead, c) not in onto for c in points]

    keep = np.array([ray_row(f, scaled) for f, scaled in zip(grid, points)], dtype=bool)
    return _NullKernel(n, grid.index(ZERO), np.array(re, dtype=dtype),
                       np.array(im, dtype=dtype), keep, groups,
                       tuple(last[f] for f in by_size))


def null_search(basis: Sequence[Any], coeff_set: Iterable[Scalar | int],
                theory: GluingTheory) -> NullSearchResult:
    """Exhaustive search of the coefficient grid for a vector with <x,x> = 0.

    Assignments are searched in a fixed order (grid sorted by (re, im), basis
    coordinates as mixed-radix digits).  An assignment is skipped only when
    its rescaling to the designated lead coefficient lies entirely on the
    grid, so every scalar ray that meets the grid is tested exactly where it
    meets it and no duplicates of on-grid representatives are reported.  A
    "none" result means no null vector exists on this grid only.

    The search walks digit prefixes depth first down to the last
    coordinate (``_NullKernel.search``), drops the subtrees that a nonzero
    closed or diagonal-only group already rules out and counts them in
    closed form.  It reports what a scan of every assignment would:
    ``assignments_tested`` counts the assignments up to and including the
    hit, or the whole grid, and ``assignments_skipped`` those among them
    that the ray rule (or the all-zero rule) skips.  Both are Python ints,
    past 2**63 if need be.
    """
    table = GramTensor(_validated(theory, basis), theory)
    grid = _canonical_grid(coeff_set)
    n = len(table.basis)
    if n == 0:
        return NullSearchResult(None, 0, grid, 0, 0)
    kernel = _null_kernel(table, grid)
    hit, skipped, digits = kernel.search()
    if hit is None:
        return NullSearchResult(None, n, grid, len(grid) ** n, skipped)
    vector = FormalSum((table.basis[k], grid[d]) for k, d in enumerate(digits)
                       if d != kernel.zero)
    return NullSearchResult(vector, n, grid, hit + 1, skipped)


def gaussian_integer_grid(max_modulus: int) -> tuple[Scalar, ...]:
    """All Gaussian integers a+bi with a^2 + b^2 <= max_modulus^2."""
    if max_modulus < 1:
        raise ValueError("max_modulus must be >= 1")
    values = [Scalar(Fraction(a), Fraction(b))
              for a in range(-max_modulus, max_modulus + 1)
              for b in range(-max_modulus, max_modulus + 1)
              if a * a + b * b <= max_modulus * max_modulus]
    return _canonical_grid(values)


PM_ONE_GRID = (Scalar(Fraction(-1), Fraction(0)), ZERO,
               Scalar(Fraction(1), Fraction(0)))
