"""Reference arithmetic for the output checks, independent of umpair.

Everything here works on the JSON the program writes, with plain dicts and
``fractions.Fraction``: no FormalSum, no Scalar and no theory code, so a
defect in the package cannot hide itself by being used to check itself.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Iterable

Gauss = tuple[Fraction, Fraction]  # (real part, imaginary part)


class CheckError(Exception):
    """An output of the program disagrees with what the benchmark expects."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def canonical(obj: Any) -> str:
    """One string per JSON value, independent of key order."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def scalar(data: Any) -> Gauss:
    expect(isinstance(data, dict) and set(data) == {"re", "im"},
           f"malformed scalar {data!r}")
    expect(all(isinstance(data[k], str) for k in ("re", "im")),
           f"scalar parts must be fraction strings: {data!r}")
    return Fraction(data["re"]), Fraction(data["im"])


def scalar_json(value: Gauss) -> dict[str, str]:
    return {"re": str(value[0]), "im": str(value[1])}


def norm2(value: Gauss) -> Fraction:
    return value[0] * value[0] + value[1] * value[1]


def terms(data: Any) -> dict[str, Gauss]:
    """A serialized formal sum as {canonical descriptor: coefficient}."""
    expect(isinstance(data, list), "a formal sum serializes as a list")
    out: dict[str, Gauss] = {}
    for entry in data:
        expect(isinstance(entry, dict) and set(entry) == {"basis", "coeff"},
               f"malformed term {entry!r}")
        key = canonical(entry["basis"])
        expect(key not in out, f"repeated descriptor {key}")
        value = scalar(entry["coeff"])
        expect(value != (0, 0), f"zero coefficient kept at {key}")
        out[key] = value
    return out


def monomial_product(x: Iterable[tuple[dict[str, int], Gauss]],
                     y: Iterable[tuple[dict[str, int], Gauss]],
                     swaps: Iterable[tuple[str, str]]) -> dict[str, Gauss]:
    """x * conj(y) for polynomials given as (exponents, coefficient) terms.

    conj swaps the paired primes of y and conjugates its coefficients.  The
    result is keyed like ``terms`` so the two can be compared directly.
    """
    partner: dict[str, str] = {}
    for a, b in swaps:
        partner[a], partner[b] = b, a
    y = list(y)
    acc: dict[str, Gauss] = {}
    for ex, (xr, xi) in x:
        for ey, (yr, yi) in y:
            merged = dict(ex)
            for p, e in ey.items():
                q = partner.get(p, p)
                merged[q] = merged.get(q, 0) + e
            key = canonical({"exponents": {p: e for p, e in merged.items() if e}})
            re, im = acc.get(key, (Fraction(0), Fraction(0)))
            # (xr + xi i) * (yr - yi i)
            acc[key] = (re + xr * yr + xi * yi, im + xi * yr - xr * yi)
    return {k: v for k, v in acc.items() if v != (0, 0)}
