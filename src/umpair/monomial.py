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
in descending order and comparing the resulting lists lexicographically
(padded with (0,0)) makes every off-diagonal product m1 * conj(m2) strictly
smaller than the larger of the diagonal products, which is what the engine's
positivity certificate needs.  The sort direction is a convention; the test
suite validates it exhaustively at bounded degree instead of trusting it.

Basis monomials are opaque: the module never computes a prime decomposition
from a triangulation or a knot diagram.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import total_ordering
from typing import Any, Iterable, Mapping

from .algebra import FormalSum, UniverseMismatchError, json_int
from .engine import GluingTheory, pair


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

    @property
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

    def to_json(self) -> dict[str, Any]:
        return {"swaps": [list(s) for s in self.swaps], "fixed": list(self.fixed)}

    @classmethod
    def from_json(cls, data: Any) -> Involution:
        swaps = tuple(tuple(s) for s in data.get("swaps", []))
        fixed = tuple(data.get("fixed", []))
        alphabet = tuple(sorted({p for s in swaps for p in s} | set(fixed)))
        return cls(alphabet, swaps)


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

    def as_dict(self) -> dict[str, int]:
        return dict(self.exponents)

    def exponent(self, prime: str) -> int:
        return dict(self.exponents).get(prime, 0)

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

    def __hash__(self) -> int:
        trimmed = self.pairs
        while trimmed and trimmed[-1] == (0, 0):
            trimmed = trimmed[:-1]
        return hash(trimmed)

    def to_json(self) -> list[list[int]]:
        return [list(p) for p in self.pairs]

    def __repr__(self) -> str:
        return f"MonomialComplexity({list(self.pairs)})"


def mono_conj(m: Monomial, sigma: Involution) -> Monomial:
    """Apply the involution to every prime of the monomial."""
    return Monomial(tuple((sigma.apply(p), e) for p, e in m.exponents))


def complexity_mono(m: Monomial, sigma: Involution) -> MonomialComplexity:
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
    return MonomialComplexity(sorted(pairs, reverse=True))


@dataclass(frozen=True)
class MonomialTheory(GluingTheory):
    """The product pairing a, b -> a * conj(b) on a monomial basis."""

    involution: Involution
    name: str = "monomial"

    def glue(self, a: Monomial, b: Monomial) -> Monomial:
        return a * mono_conj(b, self.involution)

    def reverse(self, closed: Monomial) -> Monomial:
        return mono_conj(closed, self.involution)

    def complexity(self, closed: Monomial) -> MonomialComplexity:
        return complexity_mono(closed, self.involution)

    def validate_basis(self, descriptor: Any) -> None:
        if not isinstance(descriptor, Monomial):
            raise UniverseMismatchError(f"not a monomial: {descriptor!r}")
        for p in descriptor.primes():
            if p not in self.involution.alphabet:
                raise UniverseMismatchError(f"prime {p!r} not in alphabet")


def pair_poly(x: FormalSum, y: FormalSum, sigma: Involution) -> FormalSum:
    """Sesquilinear pairing x * conj(y) of polynomials over the alphabet."""
    return pair(x, y, MonomialTheory(sigma))


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


def enumerate_monomials(alphabet: Iterable[str], max_degree: int) -> list[Monomial]:
    """All monomials of total degree <= max_degree, by degree then lexicographically."""
    letters = tuple(alphabet)
    out = []
    for degree in range(max_degree + 1):
        for combo in itertools.combinations_with_replacement(letters, degree):
            out.append(Monomial(tuple(Counter(combo).items())))
    return out
