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
bounded grid search for null vectors.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Sequence

import numpy as np

from .algebra import (FormalSum, ONE, Scalar, ZERO, as_scalar, canonical_key,
                      descriptor_to_json)


class GluingTheory(ABC):
    """Glue, reversal and complexity for one basis universe."""

    name: str = "theory"

    @abstractmethod
    def glue(self, a: Any, b: Any) -> Any:
        """Closed descriptor obtained by gluing ``a`` to the reversal of ``b``."""

    @abstractmethod
    def reverse(self, closed: Any) -> Any:
        """Orientation reversal on closed descriptors (an involution)."""

    @abstractmethod
    def complexity(self, closed: Any) -> Any:
        """A totally ordered complexity value for a closed descriptor."""

    def validate_basis(self, descriptor: Any) -> None:
        """Raise ValueError if ``descriptor`` is not in this theory's universe."""


def _validate_support(x: FormalSum, theory: GluingTheory) -> None:
    for d in x.support():
        theory.validate_basis(d)


def pair(x: FormalSum, y: FormalSum, theory: GluingTheory) -> FormalSum:
    """The sesquilinear pairing of x and y, as a formal sum of closed forms."""
    _validate_support(x, theory)
    _validate_support(y, theory)
    terms = []
    for a, ca in x.items():
        for b, cb in y.items():
            terms.append((theory.glue(a, b), ca * cb.conj()))
    return FormalSum(terms)


def complexity_to_json(value: Any) -> Any:
    if isinstance(value, int):
        return value
    to_json = getattr(value, "to_json", None)
    if to_json is not None:
        return to_json()
    raise TypeError(f"complexity value {value!r} has no JSON form")


@dataclass(frozen=True)
class LemmaViolation:
    """A pair whose off-diagonal gluing is not strictly simpler than both diagonals."""

    left: Any
    right: Any
    off_complexity: Any
    left_diag_complexity: Any
    right_diag_complexity: Any

    def to_json(self) -> dict[str, Any]:
        return {
            "left": descriptor_to_json(self.left),
            "right": descriptor_to_json(self.right),
            "off_complexity": complexity_to_json(self.off_complexity),
            "left_diag_complexity": complexity_to_json(self.left_diag_complexity),
            "right_diag_complexity": complexity_to_json(self.right_diag_complexity),
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


def _lemma_violations_for_rows(basis: Sequence[Any], theory: GluingTheory,
                               diag: Sequence[Any],
                               rows: Iterable[int]) -> list[tuple[int, int, Any]]:
    out = []
    for i in rows:
        di = diag[i]
        for j in range(i + 1, len(basis)):
            off = theory.complexity(theory.glue(basis[i], basis[j]))
            if not off < max(di, diag[j]):
                out.append((i, j, off))
    return out


def _lemma_worker(args: tuple[Sequence[Any], GluingTheory, Sequence[Any], list[int]]
                  ) -> list[tuple[int, int, Any]]:
    basis, theory, diag, rows = args
    return _lemma_violations_for_rows(basis, theory, diag, rows)


# Work below this size is not worth the process-pool overhead.
_PARALLEL_MIN_BASIS = 64


def verify_lemma(basis: Sequence[Any], theory: GluingTheory,
                 jobs: int = 1) -> LemmaReport:
    """Check strict diagonal dominance of complexity on every unordered pair.

    Violations are data, not errors: the report lists each failing pair with
    the three complexities involved.
    """
    for d in basis:
        theory.validate_basis(d)
    n = len(basis)
    diag = [theory.complexity(theory.glue(b, b)) for b in basis]
    if jobs <= 1 or n < _PARALLEL_MIN_BASIS:
        raw = _lemma_violations_for_rows(basis, theory, diag, range(n))
    else:
        from concurrent.futures import ProcessPoolExecutor  # see _scan_in_pool

        chunks = [(basis, theory, diag, list(range(w, n, jobs))) for w in range(jobs)]
        raw = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for part in pool.map(_lemma_worker, chunks):
                raw.extend(part)
    raw.sort(key=lambda t: (t[0], t[1]))
    violations = tuple(
        LemmaViolation(basis[i], basis[j], off, diag[i], diag[j])
        for i, j, off in raw)
    return LemmaReport(passed=not violations, basis_size=n,
                       pairs_checked=n * (n - 1) // 2, violations=violations)


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
            "max_complexity": complexity_to_json(self.max_complexity),
            "forms": [f.to_json() for f in self.forms],
        }


@dataclass(frozen=True)
class CertificateFailure:
    """The violating pair that blocks the no-cancellation argument."""

    left: Any
    right: Any
    off_complexity: Any
    left_diag_complexity: Any
    right_diag_complexity: Any

    def to_json(self) -> dict[str, Any]:
        return {
            "status": "failure",
            "violating_pair": [descriptor_to_json(self.left),
                               descriptor_to_json(self.right)],
            "off_complexity": complexity_to_json(self.off_complexity),
            "left_diag_complexity": complexity_to_json(self.left_diag_complexity),
            "right_diag_complexity": complexity_to_json(self.right_diag_complexity),
        }


def certify_positive(x: FormalSum, theory: GluingTheory
                     ) -> PositivityCertificate | CertificateFailure:
    """Certify <x, x> != 0, or name the support pair that blocks the argument.

    The diagonal-dominance hypothesis is checked on the support of x only.
    On success the certificate lists every closed form of maximal complexity
    among the diagonal gluings, with mass sum(|a_i|^2) over the coefficients
    gluing to it; the masses are cross-checked against a direct computation
    of <x, x>, and any disagreement raises (that would be a soundness defect,
    not a property of the input).
    """
    if x.is_zero():
        raise ValueError("cannot certify the zero vector")
    _validate_support(x, theory)
    support = x.support()
    coeffs = [c for _, c in x.items()]
    diag = [theory.complexity(theory.glue(b, b)) for b in support]
    for i in range(len(support)):
        for j in range(i + 1, len(support)):
            off = theory.complexity(theory.glue(support[i], support[j]))
            if not off < max(diag[i], diag[j]):
                return CertificateFailure(support[i], support[j], off,
                                          diag[i], diag[j])
    top = max(diag)
    forms: dict[str, tuple[Any, Fraction, list[int]]] = {}
    for i, b in enumerate(support):
        if diag[i] == top:
            closed = theory.glue(b, b)
            key = canonical_key(closed)
            desc, mass, idx = forms.get(key, (closed, Fraction(0), []))
            forms[key] = (desc, mass + coeffs[i].norm2(), idx + [i])
    squared = pair(x, x, theory)
    certified = []
    for key in sorted(forms):
        closed, mass, idx = forms[key]
        if mass <= 0:
            raise AssertionError("diagonal mass must be positive")
        if squared.coefficient(closed) != as_scalar(mass):
            raise AssertionError(
                f"certificate cross-check failed at {key}: "
                f"expected mass {mass}, pairing has {squared.coefficient(closed)}")
        certified.append(CertificateForm(closed, mass, tuple(idx)))
    if squared.is_zero():
        raise AssertionError("certificate produced for a vector with zero pairing")
    return PositivityCertificate(support=support, max_complexity=top,
                                 forms=tuple(certified))


class GramTensor:
    """Family of 0/1 matrices: T^c[i][j] = 1 iff glue(b_i, b_j) = c."""

    def __init__(self, basis: Sequence[Any], theory: GluingTheory):
        for d in basis:
            theory.validate_basis(d)
        self.basis = tuple(basis)
        n = len(self.basis)
        by_key: dict[str, tuple[Any, list[list[int]]]] = {}
        for i in range(n):
            for j in range(n):
                closed = theory.glue(self.basis[i], self.basis[j])
                key = canonical_key(closed)
                if key not in by_key:
                    by_key[key] = (closed, [[0] * n for _ in range(n)])
                by_key[key][1][i][j] = 1
        self._by_key = {k: by_key[k] for k in sorted(by_key)}

    @property
    def forms(self) -> tuple[Any, ...]:
        return tuple(closed for closed, _ in self._by_key.values())

    def matrix(self, closed: Any) -> list[list[int]]:
        return self._by_key[canonical_key(closed)][1]

    def hermitian_value(self, closed: Any, coeffs: Sequence[Scalar]) -> Scalar:
        """sum_ij a_i * conj(a_j) * T^c[i][j], the <x,x> coefficient at c."""
        m = self.matrix(closed)
        total = ZERO
        for i, ai in enumerate(coeffs):
            for j, aj in enumerate(coeffs):
                if m[i][j]:
                    total = total + ai * aj.conj()
        return total

    def to_json(self) -> dict[str, Any]:
        return {
            "basis": [descriptor_to_json(b) for b in self.basis],
            "forms": [{"closed": descriptor_to_json(c), "matrix": m}
                      for c, m in self._by_key.values()],
        }


def gram_tensor(basis: Sequence[Any], theory: GluingTheory) -> GramTensor:
    return GramTensor(basis, theory)


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


def _leading_value(grid: Sequence[Scalar]) -> Scalar:
    if ONE in grid:
        return ONE
    return next(c for c in grid if not c.is_zero())


def _assignment(index: int, grid: Sequence[Scalar], n: int) -> list[Scalar]:
    digits = []
    for _ in range(n):
        index, r = divmod(index, len(grid))
        digits.append(grid[r])
    digits.reverse()
    return digits


def _glue_groups(basis: Sequence[Any], theory: GluingTheory
                 ) -> list[list[tuple[int, int]]]:
    """Index pairs of the basis grouped by the closed form they glue to."""
    groups: dict[str, list[tuple[int, int]]] = {}
    for i in range(len(basis)):
        for j in range(len(basis)):
            key = canonical_key(theory.glue(basis[i], basis[j]))
            groups.setdefault(key, []).append((i, j))
    return [groups[k] for k in sorted(groups)]


# Assignments per numpy batch; the working arrays take about 8 kB per basis
# coordinate.
_BATCH = 1024
# Grids smaller than this are scanned serially.  Starting a spawned pool of
# two workers costs about 0.5 s and the kernel scans 0.2-0.5 us per
# assignment, so a second worker only pays off past a few million.
_PARALLEL_THRESHOLD = 1 << 23


@dataclass(frozen=True)
class _NullKernel:
    """<x, x> = 0 over one grid and basis as exact integer table lookups.

    Assignments are grid indices, one digit per basis coordinate, numbered
    in mixed radix with coordinate 0 most significant.

    ``re[a * G + b]`` and ``im[a * G + b]`` are the parts of
    (L g_a) * conj(L g_b), where G is the grid size and L the least common
    multiple of every denominator in the grid, so each entry is an integer
    and a group sums to zero exactly when the unscaled sum does.
    ``keep[f, c]`` is the ray rule for an assignment whose first nonzero
    value is grid[f]: it is tested when rescaling coefficient c by
    lead / grid[f] leaves the grid (every c when grid[f] is the lead, no c
    when grid[f] is 0, which only the all-zero assignment has).  ``groups``
    are the basis index pairs of each closed form, smallest first, so most
    assignments are dropped after the fewest lookups.
    """

    n: int
    zero: int
    re: np.ndarray
    im: np.ndarray
    keep: np.ndarray
    groups: tuple[tuple[tuple[int, int], ...], ...]

    def scan(self, start: int, stop: int) -> tuple[int | None, int]:
        """First null index in [start, stop), and the assignments skipped up to it.

        Without a hit the skip count covers the whole range.  Indices are
        int64: a scan that reaches 2**63 would not finish anyway.
        """
        radix = len(self.keep)
        skipped = 0
        for lo in range(start, stop, _BATCH):
            index = np.arange(lo, min(lo + _BATCH, stop), dtype=np.int64)
            digits = np.empty((self.n, len(index)), dtype=np.intp)
            for k in range(self.n - 1, -1, -1):
                digits[k] = index % radix
                index //= radix
            first = digits[(digits != self.zero).argmax(axis=0), np.arange(len(index))]
            kept = self.keep[first, digits].any(axis=0)
            rows = np.flatnonzero(kept)
            cand = digits[:, rows]
            for group in self.groups:
                offset = cand * radix
                re = np.zeros(len(rows), dtype=self.re.dtype)
                im = np.zeros(len(rows), dtype=self.im.dtype)
                for i, j in group:
                    at = offset[i] + cand[j]
                    re += self.re[at]
                    im += self.im[at]
                null = (re == 0) & (im == 0)
                rows, cand = rows[null], cand[:, null]
                if not len(rows):
                    break
            if len(rows):
                hit = int(rows[0])
                return lo + hit, skipped + hit - int(np.count_nonzero(kept[:hit]))
            skipped += len(kept) - int(np.count_nonzero(kept))
        return None, skipped


def _null_kernel(basis: Sequence[Any], grid: tuple[Scalar, ...],
                 theory: GluingTheory) -> _NullKernel:
    """The tables of ``_NullKernel``, built once per search.

    Entries are int64 when no group sum can reach 2**63: each entry is at
    most 2*m*m in size, m the largest scaled component.  Otherwise they are
    exact Python ints (dtype object) through the same code.
    """
    scale = math.lcm(*(part.denominator for c in grid for part in (c.re, c.im)))
    scaled = [(int(c.re * scale), int(c.im * scale)) for c in grid]
    groups = tuple(sorted((tuple(g) for g in _glue_groups(basis, theory)), key=len))
    m = max(abs(part) for c in scaled for part in c)
    dtype = np.int64 if len(groups[-1]) * 2 * m * m < 2**63 else object
    re = np.array([ar * br + ai * bi for ar, ai in scaled for br, bi in scaled], dtype=dtype)
    im = np.array([ai * br - ar * bi for ar, ai in scaled for br, bi in scaled], dtype=dtype)

    lead, on_grid = _leading_value(grid), frozenset(grid)

    def ray_row(first: Scalar) -> list[bool]:
        if first.is_zero():
            return [False] * len(grid)
        if first == lead:
            return [True] * len(grid)
        factor = lead / first
        return [factor * c not in on_grid for c in grid]

    keep = np.array([ray_row(f) for f in grid], dtype=bool)
    return _NullKernel(len(basis), grid.index(ZERO), re, im, keep, groups)


def _scan_in_pool(kernel: _NullKernel, total: int, jobs: int
                  ) -> tuple[int | None, int]:
    """``kernel.scan`` over contiguous ranges in worker processes.

    Results are read in range order and the pending ranges are cancelled
    after the first hit, so the hit and the skip count are those of a
    serial scan whatever the number of jobs.
    """
    # Imported here, not at module level: loading the pool modules costs a
    # serial run about 2 MB of memory and 20 ms.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    chunk = -(-total // (jobs * 8))
    skipped = 0
    pool = ProcessPoolExecutor(max_workers=jobs,
                               mp_context=multiprocessing.get_context("spawn"))
    try:
        futures = [pool.submit(kernel.scan, lo, min(lo + chunk, total))
                   for lo in range(0, total, chunk)]
        for future in futures:
            hit, part = future.result()
            skipped += part
            if hit is not None:
                return hit, skipped
        return None, skipped
    finally:
        pool.shutdown(cancel_futures=True)


def null_search(basis: Sequence[Any], coeff_set: Iterable[Scalar | int],
                theory: GluingTheory, jobs: int = 1) -> NullSearchResult:
    """Exhaustive search of the coefficient grid for a vector with <x,x> = 0.

    Assignments are scanned in a fixed order (grid sorted by (re, im), basis
    coordinates as mixed-radix digits).  An assignment is skipped only when
    its rescaling to the designated lead coefficient lies entirely on the
    grid, so every scalar ray that meets the grid is tested exactly where it
    meets it and no duplicates of on-grid representatives are reported.  A
    "none" result means no null vector exists on this grid only.

    ``assignments_tested`` counts the assignments scanned: up to and
    including the hit, or the whole grid.  ``assignments_skipped`` counts
    those among them that the ray rule (or the all-zero rule) skipped.
    """
    for d in basis:
        theory.validate_basis(d)
    grid = _canonical_grid(coeff_set)
    n = len(basis)
    if n == 0:
        return NullSearchResult(None, 0, grid, 0, 0)
    kernel = _null_kernel(basis, grid, theory)
    total = len(grid) ** n
    if jobs <= 1 or total < _PARALLEL_THRESHOLD:
        hit, skipped = kernel.scan(0, total)
    else:
        hit, skipped = _scan_in_pool(kernel, total, jobs)
    if hit is None:
        return NullSearchResult(None, n, grid, total, skipped)
    vector = FormalSum(zip(basis, _assignment(hit, grid, n)))
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
