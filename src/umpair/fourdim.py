"""Symbolic gluing tables for 4-manifold pairs that defeat positivity.

In dimension 4 there are bounded manifolds M and M' that are distinct as
basis elements (the same underlying manifold attached to the boundary by
inequivalent diffeomorphisms) yet whose four possible gluings are all the
same closed manifold.  The difference x = M - M' is then nonzero while
<x, x> = [MM] - [MM'] - [M'M] + [M'M'] cancels exactly, so no complexity
function can separate the diagonal, and any Hilbert-space representation of
the pairing must send x to zero.

This module consumes such facts as finite symbolic tables: basis labels, a
closed-manifold name for each ordered pair of labels, and an orientation
reversal on the closed names; each table is one ``FourDimTheory``.  Two
builders ship the published examples, the doubled contractible
(Mazur-type) manifold where every entry is the 4-sphere, and the
s-cobordism family where every entry is a connected sum of k copies of
S1 x S3.  ``demo_null`` finds coinciding rows in the theory's
``GramTensor``.  No smooth topology is computed here; the tables are data.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Any

from .algebra import FormalSum, UniverseMismatchError, check_bounds, json_list
from .engine import (CertificateFailure, GluingTheory, GramTensor,
                     PositivityCertificate, certify_positive, pair)


class FourDimTheory(GluingTheory):
    """The gluing theory of one symbolic table; complexity is constant.

    Validates conjugate symmetry, table(a, b) = reverse(table(b, a)), and
    that the reversal is an involution on the closed names it mentions.
    """

    def __init__(self, labels: list[str] | tuple[str, ...],
                 table: dict[tuple[str, str], str],
                 reverse: dict[str, str]):
        self.labels = tuple(labels)
        self.table = dict(table)
        self.reverse_map = dict(reverse)
        for label in self.labels:
            if not isinstance(label, str) or "," in label:
                raise ValueError(f"label {label!r} must be a string without a comma")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be distinct")
        for a in self.labels:
            for b in self.labels:
                if (a, b) not in self.table:
                    raise ValueError(f"table is missing the entry ({a},{b})")
        for name in self.table.values():
            if name not in self.reverse_map:
                raise ValueError(f"closed name {name!r} has no reversal entry")
        for name, rev in self.reverse_map.items():
            if self.reverse_map.get(rev) != name:
                raise ValueError(f"reversal is not an involution at {name!r}")
        for a in self.labels:
            for b in self.labels:
                if self.table[(a, b)] != self.reverse_map[self.table[(b, a)]]:
                    raise ValueError(
                        f"conjugate symmetry fails at ({a},{b}): "
                        f"{self.table[(a, b)]} != reverse({self.table[(b, a)]})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FourDimTheory):
            return NotImplemented
        return (self.labels == other.labels and self.table == other.table
                and self.reverse_map == other.reverse_map)

    def glue(self, a: str, b: str) -> str:
        return self.table[(a, b)]

    def reverse(self, closed: str) -> str:
        return self.reverse_map[closed]

    def complexity(self, closed: str) -> int:
        return 0

    def validate_basis(self, descriptor: Any) -> None:
        if descriptor not in self.labels:
            raise UniverseMismatchError(
                f"label {descriptor!r} not in table labels {self.labels}")

    def to_json(self) -> dict[str, Any]:
        return {
            "labels": list(self.labels),
            "table": {f"{a},{b}": self.table[(a, b)]
                      for a in self.labels for b in self.labels},
            "reverse": dict(sorted(self.reverse_map.items())),
        }

    @classmethod
    def from_json(cls, data: Any) -> FourDimTheory:
        if not isinstance(data, dict) or "labels" not in data or "table" not in data:
            raise ValueError("a gluing table needs 'labels', 'table' and 'reverse'")
        table = {}
        for key, value in _names(data["table"], "table").items():
            left, sep, right = key.partition(",")
            if not sep:
                raise ValueError(f"table key {key!r} must be 'label,label'")
            table[(left, right)] = value
        return cls(tuple(json_list(data["labels"], "table labels")), table,
                   _names(data.get("reverse", {}), "reverse"))


def _names(value: Any, what: str) -> dict[str, str]:
    """``value`` if it maps strings to closed names, else ValueError naming ``what``."""
    if not isinstance(value, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in value.items()):
        raise ValueError(f"{what} must map strings to closed-name strings, got {value!r}")
    return value


def _constant_table(labels: tuple[str, ...], closed_name: str) -> FourDimTheory:
    table = {(a, b): closed_name for a in labels for b in labels}
    return FourDimTheory(labels, table, {closed_name: closed_name})


def build_mazur_table() -> FourDimTheory:
    """The doubled-contractible-manifold example: every gluing is S4."""
    return _constant_table(("M", "M'"), "S4")


def build_scob_table(k: int) -> FourDimTheory:
    """The s-cobordism family: every gluing is #k(S1xS3); k = 0 is S4."""
    check_bounds({"k": k})
    name = "S4" if k == 0 else f"#{k}(S1xS3)"
    return _constant_table(("M", "M'"), name)


@dataclass(frozen=True)
class DemoNullResult:
    """Outcome of the null-vector demonstration on a gluing table."""

    vector: FormalSum | None
    pairing: FormalSum | None
    certificate: PositivityCertificate | CertificateFailure | None
    pair_labels: tuple[str, str] | None
    message: str

    @property
    def found(self) -> bool:
        return self.vector is not None

    def to_json(self) -> dict[str, Any]:
        return {
            "found": self.found,
            "message": self.message,
            "pair_labels": list(self.pair_labels) if self.pair_labels else None,
            "vector": None if self.vector is None else self.vector.to_json(),
            "pairing": None if self.pairing is None else self.pairing.to_json(),
            "certificate": None if self.certificate is None
                           else self.certificate.to_json(),
        }


def demo_null(theory: FourDimTheory) -> DemoNullResult:
    """Exhibit the null vector of a table with two coinciding rows.

    Reads the rows of the theory's ``GramTensor``, built once.  For the
    first pair of labels (a, b), in ``itertools.combinations`` order, whose
    rows coincide, returns x = a - b, the (exactly zero) pairing <x, x>, and
    the failed positivity certificate naming the pair.  A table without
    coinciding rows yields a diagnostic result instead of a fabricated null
    vector.
    """
    rows = GramTensor(theory.labels, theory).ids.tolist()
    for (a, row_a), (b, row_b) in combinations(zip(theory.labels, rows), 2):
        if row_a != row_b:
            continue
        x = FormalSum([(a, 1), (b, -1)])
        squared = pair(x, x, theory)
        attempt = certify_positive(x, theory)
        if not squared.is_zero() or not isinstance(attempt, CertificateFailure):
            raise AssertionError(
                f"coinciding rows at ({a},{b}) must force a null vector")
        return DemoNullResult(
            vector=x, pairing=squared, certificate=attempt, pair_labels=(a, b),
            message=f"{a} - {b} pairs to zero with itself; positivity fails")
    return DemoNullResult(vector=None, pairing=None, certificate=None,
                          pair_labels=None,
                          message="no coinciding rows: demonstration hypothesis unmet")
