"""The four workloads: their inputs, one timed pass, and the output checks.

A pass is the workload's whole command sequence, timed from the first call
into umpair to the return of the last.  Outputs are checked after the timer
stops, on semantic fields only, so new report counters do not break a gate.

Three workloads drive ``umpair.cli.main`` and are exhaustive: their inputs
are fixed command lines and the seed does not affect them.  ``certify-batch``
goes through the library API on vectors drawn from the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from reference import (CheckError, canonical, expect, monomial_product, norm2,
                       scalar, scalar_json, terms)

NAMES = ("verify-dim2", "verify-generic", "null-search", "certify-batch")
SCALES = ("full", "smoke")


@dataclass
class PassOutcome:
    seconds: float
    items: int = 0                 # pairs, assignments or certified vectors
    attempted: int = 0             # commands or vectors checked
    errors: list[str] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)  # per vector, s
    out_bytes: int = 0             # bytes of CLI output files


# --------------------------------------------------------------------------
# CLI workloads

@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[int, Any], int]  # (exit code, output) -> items, or raise


def lemma(basis: int, violation: tuple[str, str] | None = None
          ) -> Callable[[int, Any], int]:
    """A verify-lemma report over ``basis`` elements, passing unless a
    violating pair is expected (then the exit code is 2)."""
    def check(rc: int, out: Any) -> int:
        report = out["report"]
        pairs = basis * (basis - 1) // 2
        expect(report["basis_size"] == basis,
               f"basis_size {report['basis_size']} != {basis}")
        expect(report["pairs_checked"] == pairs,
               f"pairs_checked {report['pairs_checked']} != {pairs}")
        if violation is None:
            expect(rc == 0, f"exit code {rc}, expected 0")
            expect(report["passed"] is True, "lemma report did not pass")
            expect(report["violations"] == [], "unexpected violations")
        else:
            expect(rc == 2, f"exit code {rc}, expected 2")
            expect(report["passed"] is False, "negative control passed")
            found = [(v["left"], v["right"]) for v in report["violations"]]
            expect(found == [violation], f"violations {found} != [{violation}]")
        return pairs
    return check


def null_none(basis: int, grid_size: int) -> Callable[[int, Any], int]:
    """A null search that scans the whole grid and finds nothing."""
    def check(rc: int, out: Any) -> int:
        search = out["search"]
        total = grid_size ** basis
        expect(rc == 0, f"exit code {rc}, expected 0")
        expect(search["status"] == "none" and search["vector"] is None,
               f"status {search['status']}, expected none")
        expect(search["basis_size"] == basis,
               f"basis_size {search['basis_size']} != {basis}")
        expect(len(search["grid"]) == grid_size,
               f"grid of {len(search['grid'])} values, expected {grid_size}")
        expect(search["assignments_tested"] == total,
               f"assignments_tested {search['assignments_tested']} != {total}")
        return total
    return check


def null_found(basis: tuple[str, ...], vector: dict[str, int]
               ) -> Callable[[int, Any], int]:
    """A null search that finds ``vector`` (label -> integer coefficient).

    The report's assignments_tested echoes the grid size even after a hit,
    so the count is derived here: the hit's mixed-radix index over the
    basis order, plus one.
    """
    def check(rc: int, out: Any) -> int:
        search = out["search"]
        expect(rc == 0, f"exit code {rc}, expected 0")
        expect(search["status"] == "found", f"status {search['status']}, expected found")
        got = terms(search["vector"])
        want = {canonical(k): (Fraction(v), Fraction(0)) for k, v in vector.items()}
        expect(got == want, f"null vector {got} != {want}")
        grid = [scalar(s) for s in search["grid"]]
        zero = (Fraction(0), Fraction(0))
        index = 0
        for label in basis:
            index = index * len(grid) + grid.index(got.get(canonical(label), zero))
        return index + 1
    return check


MONOMIAL_SHAPES = ("", "p1:p2", "p1:p2,p3:p4")
MAZUR = ("M", "M'")

CLI_COMMANDS: dict[str, dict[str, list[Command]]] = {
    "verify-dim2": {
        "full": [Command(("verify-lemma", "--theory", "dim2", "--j", "4",
                          "--gmax", "3", "--closed-budget", "3"), lemma(13608))],
        "smoke": [Command(("verify-lemma", "--theory", "dim2", "--j", "2",
                           "--gmax", "1", "--closed-budget", "1"), lemma(18))],
    },
    "verify-generic": {
        scale: [Command(("verify-lemma", "--theory", "dim1", "--j", str(j),
                         "--max-closed", "0"), lemma(n1))]
        + [Command(("verify-lemma", "--theory", "monomial",
                    "--alphabet", "p1,p2,p3,p4", "--swaps", swaps,
                    "--degree", str(degree)), lemma(nm))
           for swaps in MONOMIAL_SHAPES]
        + [Command(("verify-lemma", "--theory", "fourdim", "--table", "mazur"),
                   lemma(2, MAZUR))]
        for scale, j, n1, degree, nm in (("full", 6, 720, 6, 210),
                                          ("smoke", 3, 6, 2, 15))
    },
    "null-search": {
        scale: [Command(("null-search", "--theory", "dim1", "--j", str(j),
                         "--coeff-grid", "gauss1"), null_none(basis, 5)),
                Command(("null-search", "--theory", "fourdim", "--table", "mazur",
                         "--coeff-grid", "pm1"),
                        null_found(MAZUR, {"M": 1, "M'": -1}))]
        for scale, j, basis in (("full", 3, 6), ("smoke", 2, 2))
    },
}


class CliWorkload:
    """A fixed sequence of ``umpair.cli.main`` calls, output to files."""

    seeded = False

    def __init__(self, name: str, scale: str, seed: int, workdir: Path):
        self.commands = CLI_COMMANDS[name][scale]
        self.workdir = workdir
        self.items_name = "assignments" if name == "null-search" else "pairs"

    def setup(self) -> None:
        import umpair.cli
        self.cli = umpair.cli
        self.outputs = [self.workdir / f"out{i}.json" for i in range(len(self.commands))]

    def run_pass(self, clock: Callable[[], float], tracer: Any = None) -> PassOutcome:
        codes = []
        start = clock()
        for i, (command, out) in enumerate(zip(self.commands, self.outputs)):
            if tracer is not None:
                tracer.request = i
            codes.append(self.cli.main([*command.argv, "--jobs", "1", "--out", str(out)]))
        outcome = PassOutcome(clock() - start)
        for command, out, rc in zip(self.commands, self.outputs, codes):
            outcome.attempted += 1
            try:
                text = out.read_text(encoding="utf-8")
                outcome.out_bytes += len(text.encode("utf-8"))
                outcome.items += command.check(rc, json.loads(text))
                out.unlink()
            except (CheckError, OSError, ValueError, KeyError, TypeError) as exc:
                outcome.errors.append(f"{' '.join(command.argv)}: {exc!r}")
        return outcome


# --------------------------------------------------------------------------
# certify-batch: library use on seeded vectors

@dataclass(frozen=True)
class BatchScale:
    repeats: int                   # vectors per (theory, support size)
    max_support: int
    dim2: tuple[int, int, int]     # j, gmax, closed budget
    dim1: tuple[int, int]          # j, max closed
    degree: int                    # monomial degree over p1..p4, swap p1:p2


BATCH_SCALES = {
    "full": BatchScale(7, 12, (4, 3, 3), (5, 2), 6),
    "smoke": BatchScale(1, 4, (2, 1, 1), (3, 1), 3),
}
KINDS = ("dim2", "dim1", "monomial")
SWAPS = (("p1", "p2"),)


def random_coefficient(rng: random.Random) -> tuple[Fraction, Fraction]:
    """A nonzero Gaussian rational with small denominators."""
    value = (Fraction(0), Fraction(0))
    while value == (0, 0):
        value = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                 Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
    return value


class CertifyWorkload:
    """Decode, pair, certify and encode a batch of vector files."""

    seeded = True
    items_name = "certs"

    def __init__(self, name: str, scale: str, seed: int, workdir: Path):
        self.scale = BATCH_SCALES[scale]
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        import umpair
        from umpair import dim1, dim2, monomial
        s = self.scale
        sigma = monomial.Involution(("p1", "p2", "p3", "p4"), swaps=SWAPS)
        boundary = dim1.standard_boundary(s.dim1[0])
        self.api = umpair
        self.theories = {
            "dim2": (dim2.Dim2Theory(s.dim2[0]), dim2.Bounded2Manifold.from_json),
            "dim1": (dim1.Dim1Theory(boundary), dim1.Bounded1Manifold.from_json),
            "monomial": (monomial.MonomialTheory(sigma), monomial.Monomial.from_json),
        }
        bases = {
            "dim2": dim2.enumerate2(*s.dim2),
            "dim1": dim1.enumerate1(boundary, s.dim1[1]),
            "monomial": monomial.enumerate_monomials(sigma.alphabet, s.degree),
        }
        bases = {k: [b.to_json() for b in v] for k, v in bases.items()}
        rng = random.Random(self.seed)
        self.vectors = []  # (kind, path, [(descriptor json, coefficient)])
        # Every (theory, support size) pair occurs equally often, so the work
        # in a pass hardly depends on the seed; the seed draws the contents.
        for i in range(len(KINDS) * s.max_support * s.repeats):
            kind = KINDS[i % len(KINDS)]
            size = min(1 + i // len(KINDS) % s.max_support, len(bases[kind]))
            vector = [(d, random_coefficient(rng)) for d in rng.sample(bases[kind], size)]
            path = self.workdir / f"vec{i:04d}.json"
            path.write_text(json.dumps([{"basis": d, "coeff": scalar_json(c)}
                                        for d, c in vector]), encoding="utf-8")
            self.vectors.append((kind, path, vector))

    def run_pass(self, clock: Callable[[], float], tracer: Any = None) -> PassOutcome:
        api = self.api
        texts, latencies = [], []
        start = clock()
        for i, (kind, path, _) in enumerate(self.vectors):
            if tracer is not None:
                tracer.request = i
            t0 = clock()
            theory, decode = self.theories[kind]
            x = api.FormalSum.from_json(json.loads(path.read_text(encoding="utf-8")), decode)
            squared = api.pair(x, x, theory)
            result = api.certify_positive(x, theory)
            texts.append(json.dumps({"pair": squared.to_json(),
                                     "certificate": result.to_json()}))
            latencies.append(clock() - t0)
        outcome = PassOutcome(clock() - start, latencies=latencies)
        for (kind, path, vector), text in zip(self.vectors, texts):
            outcome.attempted += 1
            try:
                check_certificate(kind, vector, json.loads(text))
                outcome.items += 1
            except (CheckError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
                outcome.errors.append(f"{path.name}: {exc!r}")
        return outcome


def check_certificate(kind: str, vector: list[tuple[Any, tuple[Fraction, Fraction]]],
                      out: Any) -> None:
    cert = out["certificate"]
    expect(cert["status"] == "certificate", f"status {cert['status']}")
    coeff = {canonical(d): c for d, c in vector}
    support = [canonical(d) for d in cert["support"]]
    expect(sorted(support) == sorted(coeff), "certificate support != vector support")
    squared = terms(out["pair"])
    expect(bool(squared), "<x, x> is zero")
    expect(bool(cert["forms"]), "certificate has no forms")
    for form in cert["forms"]:
        witnesses = form["witnesses"]
        expect(bool(witnesses) and len(set(witnesses)) == len(witnesses)
               and all(0 <= w < len(support) for w in witnesses),
               f"bad witnesses {witnesses}")
        mass = sum((norm2(coeff[support[w]]) for w in witnesses), Fraction(0))
        expect(Fraction(form["mass"]) == mass, f"mass {form['mass']} != {mass}")
        at = squared.get(canonical(form["closed"]))
        expect(at == (mass, 0), f"<x, x> at {form['closed']} is {at}, mass {mass}")
    if kind == "monomial":
        raw = [(d["exponents"], c) for d, c in vector]
        expect(squared == monomial_product(raw, raw, SWAPS),
               "monomial <x, x> disagrees with the reference product")


def build(name: str, scale: str, seed: int, workdir: Path) -> CliWorkload | CertifyWorkload:
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}")
    cls = CertifyWorkload if name == "certify-batch" else CliWorkload
    return cls(name, scale, seed, workdir)
