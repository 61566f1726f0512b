"""Monomial rings with an involution, and their complexity order.

Closed oriented 3-manifolds factor uniquely into connected sums of primes,
and long knots factor uniquely under concatenation, so formal combinations
of them form a polynomial ring over opaque prime names.  Orientation
reversal (reverse-mirror, for knots) permutes the primes and is an
involution; some primes are their own reversal.  Gluing is then simply
"multiply by the involuted partner", and positivity of that pairing reduces
to an ordering argument on monomials.

The ordering: group the exponents of a monomial by involution orbit.  A
swapped orbit {p, pbar} contributes the pair (sum of the two exponents,
smaller of the two exponents); a fixed prime contributes (exponent, 0).
Orbits with zero total exponent are dropped.  Sorting the contributed pairs
in descending order and comparing the resulting tuples lexicographically
makes every off-diagonal product m1 * conj(m2) strictly smaller than the
larger of the diagonal products, which is what the engine's positivity
certificate needs.  The sort direction is a convention; the test
suite validates it exhaustively at bounded degree instead of trusting it.

Basis monomials are opaque: the module never computes a prime decomposition
from a triangulation or a knot diagram.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _ascii
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .algebra import UniverseMismatchError, build_canonical, check_bounds, json_int
from .engine import INT64_MAX, CodedBasis, CodedForms, GluingTheory, _packed, table_from_codes


@dataclass(frozen=True)
class Involution:
    """An order-two permutation of a prime alphabet.

    ``swaps`` lists the two-element orbits; every other letter of the
    alphabet is a fixed point.
    """

    alphabet: tuple[str, ...]
    swaps: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet letters must be distinct")
        object.__setattr__(self, "swaps",
                           tuple(sorted(tuple(sorted(s)) for s in self.swaps)))
        seen: set[str] = set()
        for a, b in self.swaps:
            if a == b:
                raise ValueError(f"swap ({a},{b}) is not a two-element orbit")
            for p in (a, b):
                if p not in self.alphabet:
                    raise ValueError(f"swapped prime {p!r} not in alphabet")
                if p in seen:
                    raise ValueError(f"prime {p!r} appears in two swaps")
                seen.add(p)

    @functools.cached_property
    def fixed(self) -> tuple[str, ...]:
        swapped = {p for s in self.swaps for p in s}
        return tuple(p for p in self.alphabet if p not in swapped)

    def apply(self, prime: str) -> str:
        if prime not in self.alphabet:
            raise ValueError(f"unknown prime {prime!r}")
        for a, b in self.swaps:
            if prime == a:
                return b
            if prime == b:
                return a
        return prime


@dataclass(frozen=True)
class Monomial:
    """A product of primes with positive integer exponents.

    The unit monomial (the sphere; the unknot) has an empty exponent list.
    """

    exponents: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        cleaned = tuple(sorted((p, e) for p, e in self.exponents if e != 0))
        for p, e in cleaned:
            if e < 0:
                raise ValueError(f"negative exponent for {p!r}")
        names = [p for p, _ in cleaned]
        if len(set(names)) != len(names):
            raise ValueError("duplicate prime in exponent list")
        object.__setattr__(self, "exponents", cleaned)

    @classmethod
    def from_dict(cls, exponents: Mapping[str, int]) -> Monomial:
        return cls(tuple(exponents.items()))

    def degree(self) -> int:
        return sum(e for _, e in self.exponents)

    def is_unit(self) -> bool:
        return not self.exponents

    def __mul__(self, other: Monomial) -> Monomial:
        merged = Counter(dict(self.exponents))
        merged.update(dict(other.exponents))
        return Monomial(tuple(merged.items()))

    def primes(self) -> tuple[str, ...]:
        return tuple(p for p, _ in self.exponents)

    def to_json(self) -> dict[str, Any]:
        return {"exponents": dict(self.exponents)}

    def json_key(self) -> str:
        return '{"exponents":{%s}}' % ",".join(f"{_ascii(p)}:{e}" for p, e in self.exponents)

    @classmethod
    def from_json(cls, data: Any) -> Monomial:
        if not isinstance(data, dict) or not isinstance(data.get("exponents"), dict):
            raise ValueError(f"not a monomial descriptor: {data!r}")
        return cls.from_dict({p: json_int(e, f"exponent of {p!r}")
                              for p, e in data["exponents"].items()})

    def __str__(self) -> str:
        if self.is_unit():
            return "1"
        return "*".join(p if e == 1 else f"{p}^{e}" for p, e in self.exponents)


UNIT = Monomial()


def mono_conj(m: Monomial, sigma: Involution) -> Monomial:
    """Apply the involution to every prime of the monomial."""
    return Monomial(tuple((sigma.apply(p), e) for p, e in m.exponents))


def complexity_mono(m: Monomial, sigma: Involution) -> tuple[tuple[int, int], ...]:
    """The orbit-pair complexity of a monomial under the involution."""
    exps = dict(m.exponents)
    for p in exps:
        if p not in sigma.alphabet:
            raise ValueError(f"unknown prime {p!r}")
    pairs = []
    for a, b in sigma.swaps:
        ea, eb = exps.get(a, 0), exps.get(b, 0)
        if ea + eb > 0:
            pairs.append((ea + eb, min(ea, eb)))
    for p in sigma.fixed:
        e = exps.get(p, 0)
        if e > 0:
            pairs.append((e, 0))
    return tuple(sorted(pairs, reverse=True))


@dataclass(frozen=True)
class MonomialTheory(GluingTheory):
    """The product pairing a, b -> a * conj(b) on a monomial basis."""

    involution: Involution

    def glue(self, a: Monomial, b: Monomial) -> Monomial:
        return a * mono_conj(b, self.involution)

    def reverse(self, closed: Monomial) -> Monomial:
        return mono_conj(closed, self.involution)

    def glue_table(self, rows: Sequence[Monomial], cols: Sequence[Monomial] | None = None
                   ) -> tuple[Sequence[Monomial], np.ndarray]:
        """The rows x cols glue table through packed exponent vectors, one
        chunk of rows at a time; ``cols`` defaults to ``rows``.  Either side
        is read as exponent rows (``_exponent_rows``).

        A monomial is packed as the integer whose digits, base 2m + 1 for m
        the largest basis exponent, are its exponents in sorted prime order
        (``_Packing``).  Packing is linear and no glued exponent reaches the
        base, so glue(a, b) = a * conj(b) packs to pack(a) + pack(conj(b)).
        Codes are int64 while they fit, else Python ints; int64 codes lie
        between the sums of the two sides' smallest and largest codes, the
        bound ``table_from_codes`` may rank them by.  The forms decode on
        first read; ``complexity_ranks`` reads their int64 codes instead.
        """
        cols = rows if cols is None else cols
        exps = self._exponent_rows(cols)
        row_exps = exps if cols is rows else self._exponent_rows(rows)
        base = 2 * int(max(exps.max(initial=0), row_exps.max(initial=0))) + 1
        packing = _Packing(self._letters, base)
        dtype = np.int64 if base ** len(packing.letters) <= INT64_MAX else object
        place = [base ** k for k in range(len(packing.letters))]
        mirror = [place[packing.letters.index(self.involution.apply(p))] for p in packing.letters]
        left = row_exps.astype(dtype, copy=False) @ np.array(place, dtype=dtype)
        right = exps.astype(dtype, copy=False) @ np.array(mirror, dtype=dtype)

        def codes(lo: int, hi: int) -> np.ndarray:
            return (left[lo:hi, None] + right).reshape(-1)

        def bound() -> tuple[int, int]:
            return (int(left.min()) + int(right.min()),
                    int(left.max()) + int(right.max()) + 1)

        return table_from_codes(len(rows), len(cols), codes, packing,
                                bound if dtype == np.int64 and len(right) else None)

    @functools.cached_property
    def _letters(self) -> tuple[str, ...]:
        """The alphabet in sorted prime order, the order of ``Monomial.exponents``."""
        return tuple(sorted(self.involution.alphabet))

    def _exponent_rows(self, side: Sequence[Monomial]) -> np.ndarray:
        """The exponent of each letter of ``_letters`` in every monomial of
        ``side``, one row per monomial: the digits of a ``CodedBasis`` of
        ``enumerate_monomials``, moved to that letter order, else read off
        the descriptors as Python ints (dtype object).  A prime outside the
        alphabet raises KeyError."""
        column = {p: k for k, p in enumerate(self._letters)}
        if isinstance(side, CodedBasis) and isinstance(side.decode, _Digits):
            digits = side.arrays[0]
            out = np.zeros((len(side), len(column)), dtype=digits.dtype)
            for c in np.flatnonzero(digits.any(axis=0)).tolist():
                out[:, column[side.decode.letters[c]]] = digits[:, c]
            return out
        out = np.zeros((len(side), len(column)), dtype=object)
        for row, m in zip(out, side):
            for p, e in m.exponents:
                row[column[p]] = e
        return out

    def complexity_ranks(self, forms: Sequence[Monomial]) -> np.ndarray:
        """The dense complexity rank of each form, read from its packed code
        when ``complexity`` is this class's own and ``forms`` carry int64
        codes packed over this alphabet; else one ``complexity`` call each.

        Each orbit's pair (total, smaller exponent), a fixed prime's
        (exponent, 0), packs to the key total * top + smaller, with top one
        past the largest smaller exponent, so keys order as pairs do.  An
        orbit of total 0, which ``complexity_mono`` drops, keys to 0, below
        every real pair: padding a tuple with a strict minimum keeps its
        lexicographic order and equality.  So each form's keys, sorted in
        descending order, rank as its complexity does: they are ``_packed``
        into one code per form, each column's radix one past its largest
        key, and ranked by ``np.unique``.  Keys past int64 take the per-form
        path, and so do an empty table and an empty alphabet, which it ranks
        trivially.
        """
        packing = forms.decode if isinstance(forms, CodedForms) else None
        if not (self._complexity_is_own() and isinstance(packing, _Packing)
                and packing.letters == tuple(sorted(self.involution.alphabet))
                and forms.codes.dtype == np.int64 and len(forms) and packing.letters):
            return super().complexity_ranks(forms)
        exps = packing.digits(forms.codes)
        column = {p: k for k, p in enumerate(packing.letters)}
        totals = [exps[:, column[a]] + exps[:, column[b]] for a, b in self.involution.swaps]
        smaller = [np.minimum(exps[:, column[a]], exps[:, column[b]])
                   for a, b in self.involution.swaps]
        totals += [exps[:, column[p]] for p in self.involution.fixed]
        smaller += [np.zeros(len(forms), dtype=np.int64)] * len(self.involution.fixed)
        total, small = np.stack(totals, axis=1), np.stack(smaller, axis=1)
        top = int(small.max()) + 1
        if int(total.max()) * top + top - 1 > INT64_MAX:
            return super().complexity_ranks(forms)
        keys = np.sort(total * top + small, axis=1)[:, ::-1]
        codes = _packed(keys, (keys.max(axis=0) + 1).tolist())
        return np.unique(codes, return_inverse=True)[1].astype(np.int32)

    def orbits(self, basis: Sequence[Monomial]) -> np.ndarray | None:
        """Orbit labels under the prime relabellings that commute with the
        involution, when the basis is distinct, a union of whole orbits and
        ``complexity`` is this class's own; else None.

        Such a relabelling g permutes the swapped pairs, exchanging the two
        primes of any of them, and permutes the fixed primes: the group
        (Z2 wr S_k) x S_f for k swaps and f fixed primes.  It commutes with
        the involution, so glue(g·a, g·b) == g·glue(a, b), and it permutes
        the orbit pairs that ``complexity_mono`` sorts, so it keeps
        complexity.  The group is finite, so a set closed under its
        generators (``_generators``) is a union of whole orbits: each
        generator permutes the exponent columns, and every permuted row's
        packed code must be among the basis's sorted codes.  A label, the
        sorted multiset of sorted exponent pairs over the swaps with the
        sorted multiset of fixed-prime exponents, is a complete invariant of
        an orbit; it is packed into one integer per monomial.  Codes and
        labels past int64 are Python ints.  A ``complexity`` overridden in a
        subclass or patched in need not be invariant, so it gets None.
        """
        if not self._complexity_is_own():
            return None
        sigma, column = self.involution, {p: k for k, p in enumerate(self._letters)}
        exps = self._exponent_rows(basis)
        top = int(exps.max(initial=0)) + 1
        k, f = len(sigma.swaps), len(sigma.fixed)
        exps = exps.astype(np.int64 if top ** (2 * k + f) <= INT64_MAX else object, copy=False)
        radix = [top] * len(column)
        codes = np.sort(_packed(exps, radix))
        if not (codes[1:] != codes[:-1]).all():
            return None
        for perm in self._generators:
            image = _packed(exps[:, perm], radix)
            at = np.searchsorted(codes, image)
            if not ((at < len(codes)).all() and (codes[at] == image).all()):
                return None
        # Each swap's sorted pair (a, b) as a * top + b, then the fixed
        # exponents, each group sorted, packed into one label per monomial.
        ea = exps[:, [column[a] for a, _ in sigma.swaps]]
        eb = exps[:, [column[b] for _, b in sigma.swaps]]
        pairs = np.sort(np.minimum(ea, eb) * top + np.maximum(ea, eb), axis=1)
        fixed = np.sort(exps[:, [column[p] for p in sigma.fixed]], axis=1)
        return _packed(np.hstack((pairs, fixed)), [top * top] * k + [top] * f)

    @functools.cached_property
    def _generators(self) -> tuple[list[int], ...]:
        """Generators of the relabelling group ``orbits`` uses, each a
        permutation of the columns of ``_letters``: the exchange of the two
        primes of each swap, of adjacent swaps (first with first, second
        with second), and of adjacent fixed primes."""
        sigma, column = self.involution, {p: k for k, p in enumerate(self._letters)}

        def exchanging(*pairs: tuple[str, str]) -> list[int]:
            perm = list(range(len(column)))
            for a, b in pairs:
                perm[column[a]], perm[column[b]] = column[b], column[a]
            return perm

        swaps, fixed = sigma.swaps, sigma.fixed
        return (*(exchanging(s) for s in swaps),
                *(exchanging((a, c), (b, d)) for (a, b), (c, d) in zip(swaps, swaps[1:])),
                *(exchanging(pq) for pq in zip(fixed, fixed[1:])))

    def complexity(self, closed: Monomial) -> tuple[tuple[int, int], ...]:
        return complexity_mono(closed, self.involution)

    def _complexity_is_own(self) -> bool:
        """Whether ``complexity`` is this class's own: neither overridden in a
        subclass nor patched in, so ``orbits`` and ``complexity_ranks`` may
        rely on what they know of it."""
        return getattr(self.complexity, "__func__", None) is _OWN_COMPLEXITY

    def validate_basis(self, descriptor: Any) -> None:
        if not isinstance(descriptor, Monomial):
            raise UniverseMismatchError(f"not a monomial: {descriptor!r}")
        for p in descriptor.primes():
            if p not in self.involution.alphabet:
                raise UniverseMismatchError(f"prime {p!r} not in alphabet")

    def validate_coded(self, basis: CodedBasis) -> None:
        """A basis of ``enumerate_monomials`` is checked by its digits: the
        first element with a nonzero exponent of a letter outside the alphabet
        is decoded and raises as ``validate_basis`` does.  Any other basis is
        validated element by element."""
        if not isinstance(basis.decode, _Digits):
            super().validate_coded(basis)
            return
        outside = [c for c, p in enumerate(basis.decode.letters)
                   if p not in self.involution.alphabet]
        hits = np.flatnonzero(basis.arrays[0][:, outside].any(axis=1))
        if len(hits):
            self.validate_basis(basis[hits[0]])


# The complexity that ``MonomialTheory.orbits`` and ``complexity_ranks``
# rely on.
_OWN_COMPLEXITY = MonomialTheory.complexity


@dataclass(frozen=True)
class _Packing:
    """Monomials packed as integers: the digits, base ``base``, are the
    exponents in ``letters`` order, sorted prime order, the order of
    ``Monomial.exponents``, so a code decodes straight to a canonical
    monomial.  Called on a code, it decodes it."""

    letters: tuple[str, ...]
    base: int

    def __call__(self, code: int) -> Monomial:
        exponents, base = [], self.base
        for p in self.letters:
            if not code:
                break
            code, e = divmod(code, base)
            if e:
                exponents.append((p, e))
        # Positive exponents of distinct primes, in sorted order.
        return build_canonical(Monomial, exponents=tuple(exponents))

    def digits(self, codes: np.ndarray) -> np.ndarray:
        """The exponent of every letter in each int64 code, one row per code."""
        out = np.empty((len(codes), len(self.letters)), dtype=np.int64)
        for k in range(len(self.letters)):
            codes, out[:, k] = np.divmod(codes, self.base)
        return out


def manifold3_to_monomial(primes: Iterable[str] | Mapping[str, int],
                          sigma: Involution) -> Monomial:
    """Encode a connected sum of primes as a monomial word.

    ``primes`` is the multiset of prime summands (an iterable with repeats,
    or a name -> multiplicity mapping); the empty multiset is the sphere and
    maps to the unit monomial.  Gluing along the separating spheres is the
    monomial product, so the theory over this alphabet is MonomialTheory.
    """
    counts = Counter(dict(primes)) if isinstance(primes, Mapping) else Counter(primes)
    for p in counts:
        if p not in sigma.alphabet:
            raise ValueError(f"unknown prime {p!r}")
    return Monomial.from_dict(counts)


def enumerate_monomials(alphabet: Iterable[str], max_degree: int) -> CodedBasis:
    """All monomials of total degree <= max_degree, by degree, then
    lexicographically in alphabet order (the order of
    ``itertools.combinations_with_replacement``), coded: one row of
    exponent digits per monomial, in the alphabet's given order, decoded by
    ``_Digits(letters)`` when read."""
    check_bounds({"max_degree": max_degree})
    letters = tuple(alphabet)
    if len(set(letters)) != len(letters):
        raise ValueError("alphabet letters must be distinct")
    blocks = []
    for degree in range(max_degree + 1):
        combos = list(itertools.combinations_with_replacement(range(len(letters)), degree))
        picks = np.array(combos, dtype=np.intp).reshape(len(combos), degree)
        blocks.append((picks[:, :, None] == np.arange(len(letters))).sum(axis=1))
    return CodedBasis((np.concatenate(blocks),), _Digits(letters))


@dataclass(frozen=True)
class _Digits:
    """Decodes a row of ``enumerate_monomials``' coded basis: the exponent of
    each of ``letters``, in the alphabet's given order."""

    letters: tuple[str, ...]

    @functools.cached_property
    def _order(self) -> tuple[int, ...]:
        return tuple(sorted(range(len(self.letters)), key=self.letters.__getitem__))

    def __call__(self, digits: list[int]) -> Monomial:
        # Positive exponents of distinct primes, in sorted order.
        return build_canonical(Monomial, exponents=tuple(
            (self.letters[k], digits[k]) for k in self._order if digits[k]))
