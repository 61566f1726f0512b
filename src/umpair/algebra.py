"""Exact scalars and formal linear combinations.

Coefficients are Gaussian rationals: complex numbers whose real and imaginary
parts are arbitrary-precision rationals.  Everything downstream depends on
"this coefficient is exactly zero" being decidable, so there is no floating
point anywhere in the package.

A FormalSum is a finite linear combination of opaque basis descriptors.  A
descriptor only needs to be JSON-serializable (a plain string, or an object
with a ``to_json()`` method).  Terms are kept sorted by the lexicographic
order of their serialized form, so iteration order, equality and JSON output
are independent of how a sum was assembled.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Callable, Iterable, Iterator, TypeVar


class UniverseMismatchError(ValueError):
    """Operands live over incompatible descriptor universes."""


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


@dataclass(frozen=True)
class Scalar:
    """A Gaussian rational ``re + im*i`` with exact components.

    Parts of exact type ``Fraction`` are kept as given, since a Fraction is
    always in lowest terms with a positive denominator; any other exact
    rational (int, Decimal, a Fraction subclass) is converted by
    ``Fraction()``.
    """

    re: Fraction
    im: Fraction

    def __post_init__(self) -> None:
        if type(self.re) is Fraction and type(self.im) is Fraction:
            return
        # Floats are rejected rather than converted: a binary float is almost
        # never the rational the caller meant, and exactness is the point.
        for part in (self.re, self.im):
            if isinstance(part, float):
                raise TypeError(f"scalar parts must be exact rationals, got {part!r}")
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    def conj(self) -> Scalar:
        return Scalar(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def norm2(self) -> Fraction:
        """``s * conj(s)`` as a rational; zero iff s is zero."""
        return self.re * self.re + self.im * self.im

    def sort_key(self) -> tuple[Fraction, Fraction]:
        return (self.re, self.im)

    def __add__(self, other: Scalar | int | Fraction) -> Scalar:
        o = as_scalar(other)
        return Scalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: Scalar | int | Fraction) -> Scalar:
        o = as_scalar(other)
        return Scalar(self.re - o.re, self.im - o.im)

    def __mul__(self, other: Scalar | int | Fraction) -> Scalar:
        o = as_scalar(other)
        return Scalar(self.re * o.re - self.im * o.im,
                      self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __neg__(self) -> Scalar:
        return Scalar(-self.re, -self.im)

    def inverse(self) -> Scalar:
        if self.is_zero():
            raise ZeroDivisionError("zero scalar has no inverse")
        n = self.norm2()
        return Scalar(self.re / n, -self.im / n)

    def __truediv__(self, other: Scalar | int | Fraction) -> Scalar:
        return self * as_scalar(other).inverse()

    def to_json(self) -> dict[str, str]:
        return {"re": str(self.re), "im": str(self.im)}

    @classmethod
    def from_json(cls, data: Any) -> Scalar:
        if not isinstance(data, dict) or set(data) != {"re", "im"}:
            raise ValueError(f"malformed scalar {data!r}, expected {{'re':..., 'im':...}}")
        # Both parts are read first: a bad part is reported before a zero denominator.
        re_part, im_part = _rational_part(data["re"]), _rational_part(data["im"])
        try:
            return cls(Fraction(*re_part), Fraction(*im_part))
        except ZeroDivisionError:
            raise ValueError(f"scalar {data!r} has a zero denominator") from None

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def _rational_part(part: Any) -> tuple[int, int | None]:
    """(numerator, denominator or None for 1) of a JSON scalar part, for Fraction().

    A JSON float is a binary approximation and a bool is not a number; only
    exact forms are accepted: integers and "p" or "p/q" strings, read by
    int().  Fraction alone would also take "1e400000" and compute 10**400000.
    """
    if isinstance(part, str) and (match := _RATIONAL.fullmatch(part)) is not None:
        num, den = match.groups()
        return int(num), None if den is None else int(den)
    if isinstance(part, int) and not isinstance(part, bool):
        return part, None
    raise ValueError(f"scalar part {part!r} must be a 'p' or 'p/q' string or an integer")


ZERO = Scalar(Fraction(0), Fraction(0))
ONE = Scalar(Fraction(1), Fraction(0))
I = Scalar(Fraction(0), Fraction(1))


def as_scalar(value: Scalar | int | Fraction) -> Scalar:
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar(Fraction(value), Fraction(0))
    raise TypeError(f"cannot interpret {value!r} as a scalar")


_Frozen = TypeVar("_Frozen")


def build_canonical(cls: type[_Frozen], **fields: Any) -> _Frozen:
    """An instance of the frozen dataclass ``cls`` from fields that are
    already canonical, built without running ``__post_init__``.

    Only for values the package generated itself in canonical form; every
    outside value goes through the checked constructor.
    """
    obj = object.__new__(cls)
    # Set field by field, not as a whole __dict__: CPython then keeps the
    # values inline, about half the memory per instance.
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def json_int(value: Any, what: str) -> int:
    """``value`` if it is a JSON integer, else ValueError naming ``what``.

    Bools and floats are refused, as in Scalar.from_json.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def check_bounds(bounds: dict[str, Any]) -> None:
    """ValueError naming the first integer bound below zero."""
    for name, value in bounds.items():
        if isinstance(value, int) and value < 0:
            raise ValueError(f"bound {name} must be nonnegative, got {value}")


def json_list(value: Any, what: str) -> list:
    """``value`` if it is a JSON list, else ValueError naming ``what``."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def descriptor_to_json(descriptor: Any) -> Any:
    """JSON form of a basis descriptor (string, or object with to_json)."""
    if isinstance(descriptor, str):
        return descriptor
    to_json = getattr(descriptor, "to_json", None)
    if to_json is None:
        raise TypeError(f"descriptor {descriptor!r} has no JSON form")
    return to_json()


# json.dumps(sort_keys=True, separators=(",", ":")) builds a C encoder
# afresh on every call.  This one is built once with the same settings
# (ASCII escaping, sorted keys, NaN allowed), but keeps no circular-reference
# markers.
_ENCODE_KEY = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii,
                             None, ":", ",", True, False, True)


def canonical_key(descriptor: Any) -> str:
    """Canonical sort key: the serialized descriptor, lexicographically.

    Byte-equal to ``json.dumps(descriptor_to_json(descriptor),
    sort_keys=True, separators=(",", ":"))``, except that the encoder keeps
    no circular-reference markers: a circular ``to_json`` value raises
    RecursionError where json.dumps raises ValueError.  Parsed JSON is never
    circular.  A descriptor may write that text itself, faster, in a
    ``json_key()`` method; the tests check each against the encoder.
    """
    json_key = getattr(descriptor, "json_key", None)
    if json_key is not None:
        return json_key()
    value = descriptor_to_json(descriptor)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return "".join(_ENCODE_KEY(value, 0))


def _universe_signature(descriptor: Any) -> tuple[str, Any]:
    fn = getattr(descriptor, "universe_key", None)
    return (type(descriptor).__name__, None if fn is None else fn())


class FormalSum:
    """Finite map from basis descriptors to nonzero scalars.

    Zero coefficients are dropped on every construction, so two sums are
    equal exactly when they have the same normalized term maps.
    ``FormalSum(terms)`` is the checked constructor and the only one outside
    input reaches: it merges repeated descriptors, drops zeros and checks
    that the terms share one universe.  ``_from_distinct`` builds a sum from
    terms the package already knows to be canonical and skips those checks.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[Any, Scalar | int | Fraction]] = ()):
        acc: dict[str, tuple[Any, Scalar]] = {}
        for descriptor, coeff in terms:
            c = as_scalar(coeff)
            key = canonical_key(descriptor)
            if key in acc:
                c = acc[key][1] + c
            acc[key] = (descriptor, c)
        self._terms: dict[str, tuple[Any, Scalar]] = {
            key: acc[key] for key in sorted(acc) if not acc[key][1].is_zero()
        }
        universes = {_universe_signature(d) for d, _ in self._terms.values()}
        if len(universes) > 1:
            raise UniverseMismatchError(
                f"terms span incompatible descriptor universes: {sorted(map(str, universes))}")

    @classmethod
    def _from_distinct(cls, terms: Iterable[tuple[Any, Scalar]]) -> FormalSum:
        """The sum of ``terms`` whose descriptors are distinct closed forms of
        one universe and whose coefficients are nonzero ``Scalar``s.

        Only for terms the package built itself (a glue table's forms): one
        ``canonical_key`` per form and a sort, with no merge, zero filter or
        universe check.
        """
        entries = {canonical_key(d): (d, c) for d, c in terms}
        obj = object.__new__(cls)
        obj._terms = {key: entries[key] for key in sorted(entries)}
        return obj

    @classmethod
    def zero(cls) -> FormalSum:
        return cls()

    @classmethod
    def single(cls, descriptor: Any, coeff: Scalar | int | Fraction = 1) -> FormalSum:
        return cls([(descriptor, coeff)])

    def items(self) -> Iterator[tuple[Any, Scalar]]:
        """Terms in canonical descriptor order."""
        return iter(self._terms.values())

    def support(self) -> tuple[Any, ...]:
        return tuple(d for d, _ in self._terms.values())

    def keys(self) -> tuple[str, ...]:
        """Canonical keys of the support, in ``support()`` order."""
        return tuple(self._terms)

    def coefficient(self, descriptor: Any) -> Scalar:
        entry = self._terms.get(canonical_key(descriptor))
        return ZERO if entry is None else entry[1]

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FormalSum):
            return NotImplemented
        return {k: v[1] for k, v in self._terms.items()} == \
               {k: v[1] for k, v in other._terms.items()}

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: FormalSum) -> FormalSum:
        return sum_combine(self, other, ONE, ONE)

    def __sub__(self, other: FormalSum) -> FormalSum:
        return sum_combine(self, other, ONE, -ONE)

    def scaled(self, alpha: Scalar | int | Fraction) -> FormalSum:
        a = as_scalar(alpha)
        return FormalSum((d, a * c) for d, c in self.items())

    def __rmul__(self, alpha: Scalar | int | Fraction) -> FormalSum:
        return self.scaled(alpha)

    def to_json(self) -> list[dict[str, Any]]:
        return [{"basis": descriptor_to_json(d), "coeff": c.to_json()}
                for d, c in self.items()]

    @classmethod
    def from_json(cls, data: Any,
                  descriptor_from_json: Callable[[Any], Any]) -> FormalSum:
        if not isinstance(data, list):
            raise ValueError("a formal sum serializes as a list of terms")
        terms = []
        for i, entry in enumerate(data):
            if not isinstance(entry, dict) or set(entry) != {"basis", "coeff"}:
                raise ValueError(f"term #{i} malformed, expected {{'basis':..., 'coeff':...}}")
            terms.append((descriptor_from_json(entry["basis"]),
                          Scalar.from_json(entry["coeff"])))
        return cls(terms)

    def __repr__(self) -> str:
        if self.is_zero():
            return "FormalSum(0)"
        body = " + ".join(f"({c})*{canonical_key(d)}" for d, c in self.items())
        return f"FormalSum({body})"


def sum_combine(x: FormalSum, y: FormalSum,
                alpha: Scalar | int | Fraction = 1,
                beta: Scalar | int | Fraction = 1) -> FormalSum:
    """alpha*x + beta*y, normalized.

    Raises UniverseMismatchError when term descriptors of x and y live over
    different universes (the combined construction re-checks consistency).
    """
    a, b = as_scalar(alpha), as_scalar(beta)
    merged = [(d, a * c) for d, c in x.items()]
    merged.extend((d, b * c) for d, c in y.items())
    return FormalSum(merged)
