"""The golden set: recorded CLI runs and library results, checked or rebuilt by hand.

    PYTHONPATH=src python tests/golden/make.py --check   # diff only, writes nothing
    PYTHONPATH=src python tests/golden/make.py --write   # regenerate both files

``cases.json`` maps each case name to one ``umpair`` argv, its input files
and the exit code, stdout, stderr and ``--out`` bytes it produced, every
output kept as a list of lines so that a diff points at the changed line.
``library.jsonl`` holds one seeded ``pair(x, x)``, ``pair(x, y)`` or
``certify_positive(x)`` record a line, with the raw term lists it decoded;
the last ones use the theories of the certify-batch benchmark with supports
of 6 and 12 distinct terms.
``tests/test_golden.py`` replays both in-process through ``umpair.cli.main``
and the library.  Input errors, usage errors from the argument parser
included, are recorded like any other run: one ``error:`` line and exit 1.
``--help`` is left out, because argparse wraps its text at the terminal width.

``--check`` runs every case and record afresh, prints a unified diff for
each one whose bytes differ from the committed files, and exits 1 if any
does.  ``--write`` rewrites the files from the current code.

Rule: the golden files are test data.  Regenerating a case changes what
the tests accept, so a change that rewrites a case must name it in
CHANGES.md and say why its bytes changed.
"""

from __future__ import annotations

import argparse
import difflib
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from typing import Any

from umpair import cli, dim1, dim2, engine, fourdim, monomial
from umpair.algebra import FormalSum

HERE = Path(__file__).resolve().parent
CASES_FILE = HERE / "cases.json"
LIBRARY_FILE = HERE / "library.jsonl"
SEED = 20050303
BIG = 2**64 + 13  # a denominator past every fixed-width integer


def _lines(text: str) -> list[str]:
    return text.splitlines(keepends=True)


def run_case(argv: list[str], inputs: dict[str, str]) -> dict[str, Any]:
    """Run ``umpair argv`` in a fresh directory holding ``inputs``; the case record.

    Input and output paths in argv are relative, so error messages that
    name a file read the same everywhere; ``--out`` must be ``out.json``.
    """
    stdout, stderr, home = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in inputs.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        os.chdir(tmp)
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = cli.main(argv)
        finally:
            os.chdir(home)
        out = Path(tmp, "out.json")
        written = _lines(out.read_bytes().decode("utf-8")) if out.exists() else None
    return {"argv": argv, "inputs": inputs, "exit": code,
            "stdout": _lines(stdout.getvalue()), "stderr": _lines(stderr.getvalue()),
            "out": written}


# ---- inputs -------------------------------------------------------------------

def _coeff(re: Any, im: Any = 0) -> dict[str, str]:
    return {"re": str(re), "im": str(im)}


def _vector(*terms: tuple[Any, dict[str, Any]]) -> str:
    return json.dumps([{"basis": engine.descriptor_to_json(b), "coeff": c}
                       for b, c in terms])


def _table(labels: list[str], names: dict[tuple[str, str], str]) -> str:
    reverse = {name: name for name in names.values()}
    return json.dumps(fourdim.FourDimTheory(labels, names, reverse).to_json())


_SIDE = {"A": "AC", "B": "BD", "C": "AC", "D": "BD"}
_SIDE_NAMES = {("AC", "AC"): "P", ("AC", "BD"): "Q", ("BD", "AC"): "Q", ("BD", "BD"): "R"}
# Rows A = C and B = D coincide.
AC_BD = _table(list(_SIDE), {(a, b): _SIDE_NAMES[(_SIDE[a], _SIDE[b])]
                             for a in _SIDE for b in _SIDE})
NO_COINCIDING = _table(["A", "B"], {("A", "A"): "X", ("A", "B"): "Z",
                                    ("B", "A"): "Z", ("B", "B"): "Y"})
ONE_LABEL = _table(["A"], {("A", "A"): "X"})
TABLE_5 = json.dumps(dict(json.loads(ONE_LABEL), table=5))
# Only M and M' coincide, and they come last: the pm1 search finds M - M'
# after 1,096 assignments, past the first batch of 1,024.
_LATE = [f"L{k}" for k in range(5)] + ["M", "M'"]
_LATE_CLOSED = {label: "M" if label == "M'" else label for label in _LATE}
LATE_HIT = _table(_LATE, {(a, b): "+".join(sorted((_LATE_CLOSED[a], _LATE_CLOSED[b])))
                          for a in _LATE for b in _LATE})

D1 = dim1.enumerate1(dim1.standard_boundary(2), 1)
D1_J3 = dim1.enumerate1(dim1.standard_boundary(3), 0)
ANNULUS = dim2.Bounded2Manifold(2, (((0, 1), 0),))
TWO_DISKS = dim2.Bounded2Manifold(2, (((0,), 0), ((1,), 0)))
TORUS_PIECE = dim2.Bounded2Manifold(2, (((0, 1), 1),), (0,))
T2, TT, PT = (monomial.Monomial.from_dict(e) for e in
              ({"T": 2}, {"T": 1, "T~": 1}, {"P": 1, "T": 1}))
KNOTS = ["--alphabet", "T,T~,P", "--swaps", "T:T~"]
# Exponents at the int64 boundary.  p**(2**40) packs to an int64 code whose
# complexity key, total * (smaller + 1) + smaller, does not fit int64;
# a**(10**20) packs past int64, to a Python-int code.
P_HUGE, P3 = (monomial.Monomial.from_dict({"p": e}) for e in (2**40, 3))
A_HUGE, AB = (monomial.Monomial.from_dict(e) for e in ({"a": 10**20}, {"a": 1, "b": 1}))

X_DIM1 = _vector((D1[0], _coeff(f"1/{BIG}")), (D1[1], _coeff(-3, f"2/{BIG}")),
                 (D1[2], _coeff(5)), (D1[2], _coeff(-5)), (D1[3], _coeff("7/3", -1)))
Y_DIM1 = _vector((D1[1], _coeff(f"-{BIG}/2")), (D1[3], _coeff(0, 1)))
X_DIM2 = _vector((ANNULUS, _coeff(1)), (TWO_DISKS, _coeff(-1)))
Y_DIM2 = _vector((TORUS_PIECE, _coeff("1/2", "1/2")), (TWO_DISKS, _coeff(f"{BIG}")))
GRANNY = _vector((T2, _coeff(1)), (TT, _coeff(-1)), (PT, _coeff(0, f"1/{BIG}")))
M_MINUS_M = _vector(("M", _coeff(1)), ("M'", _coeff(-1)))
EMPTY = "[]"


def _bad_coeff(coeff: dict[str, Any]) -> dict[str, str]:
    return {"x.json": json.dumps([{"basis": D1[0].to_json(), "coeff": coeff}])}


def _bad_matching(pos: list[str], neg: list[str], matching: dict[str, str]) -> dict[str, str]:
    basis = {"dim": 1, "boundary": {"pos": pos, "neg": neg}, "matching": matching,
             "closed_circles": 0}
    return {"x.json": json.dumps([{"basis": basis, "coeff": _coeff(1)}])}


# name -> (argv, input files)
CASES: dict[str, tuple[list[str], dict[str, str]]] = {
    "enumerate-dim1": (["enumerate", "--theory", "dim1", "--j", "2", "--max-closed", "1"], {}),
    "enumerate-dim2": (["enumerate", "--theory", "dim2", "--j", "2", "--gmax", "1",
                        "--closed-budget", "1"], {}),
    "enumerate-monomial": (["enumerate", "--theory", "monomial", *KNOTS, "--degree", "2",
                            "--out", "out.json"], {}),
    "enumerate-fourdim-mazur": (["enumerate", "--theory", "fourdim", "--table", "mazur"], {}),
    "enumerate-fourdim-in": (["enumerate", "--theory", "fourdim", "--in", "t.json"],
                             {"t.json": AC_BD}),

    "pair-dim1-xx": (["pair", "--theory", "dim1", "--x", "x.json", "--y", "x.json"],
                     {"x.json": X_DIM1}),
    "pair-dim1-xy": (["pair", "--theory", "dim1", "--x", "x.json", "--y", "y.json",
                      "--out", "out.json"], {"x.json": X_DIM1, "y.json": Y_DIM1}),
    "pair-dim1-empty": (["pair", "--theory", "dim1", "--x", "x.json", "--y", "x.json"],
                        {"x.json": EMPTY}),
    "pair-dim1-empty-negative-j": (["pair", "--theory", "dim1", "--j", "-1",
                                    "--x", "x.json", "--y", "x.json"], {"x.json": EMPTY}),
    "pair-dim1-mismatched-boundaries": (
        ["pair", "--theory", "dim1", "--x", "x.json", "--y", "y.json"],
        {"x.json": X_DIM1, "y.json": _vector((D1_J3[0], _coeff(1)))}),
    "pair-dim1-parse-error": (["pair", "--theory", "dim1", "--x", "bad.json",
                               "--y", "bad.json"], {"bad.json": '[{"basis": }]'}),
    "pair-dim2-xx": (["pair", "--theory", "dim2", "--x", "x.json", "--y", "x.json"],
                     {"x.json": X_DIM2}),
    "pair-dim2-xy": (["pair", "--theory", "dim2", "--x", "x.json", "--y", "y.json"],
                     {"x.json": X_DIM2, "y.json": Y_DIM2}),
    "pair-monomial": (["pair", "--theory", "monomial", *KNOTS, "--x", "x.json",
                       "--y", "x.json"], {"x.json": GRANNY}),
    "pair-fourdim-mazur-cancels": (["pair", "--theory", "fourdim", "--table", "mazur",
                                    "--x", "x.json", "--y", "x.json"],
                                   {"x.json": M_MINUS_M}),
    "pair-fourdim-scob": (["pair", "--theory", "fourdim", "--table", "scob", "--k", "2",
                           "--x", "x.json", "--y", "y.json"],
                          {"x.json": M_MINUS_M, "y.json": _vector(("M", _coeff(1, 1)))}),
    "pair-fourdim-in": (["pair", "--theory", "fourdim", "--in", "t.json", "--x", "x.json",
                         "--y", "x.json"],
                        {"t.json": AC_BD, "x.json": _vector(("A", _coeff(1)), ("C", _coeff(-1)),
                                                            ("B", _coeff(f"1/{BIG}")))}),

    "verify-lemma-dim1": (["verify-lemma", "--theory", "dim1", "--j", "3",
                           "--max-closed", "1"], {}),
    # Two orbits of 5,040 matchings; recorded by the full pairwise sweep.
    "verify-lemma-dim1-j7": (["verify-lemma", "--theory", "dim1", "--j", "7",
                              "--max-closed", "1"], {}),
    "verify-lemma-dim2": (["verify-lemma", "--theory", "dim2", "--j", "2", "--gmax", "1",
                           "--closed-budget", "1", "--out", "out.json"], {}),
    "verify-lemma-dim2-j4": (["verify-lemma", "--theory", "dim2", "--j", "4", "--gmax", "2",
                              "--closed-budget", "2", "--out", "out.json"], {}),
    # The verify-dim2 benchmark's shape, and five circles with closed parts.
    "verify-lemma-dim2-j4-gmax3": (["verify-lemma", "--theory", "dim2", "--j", "4",
                                    "--gmax", "3", "--closed-budget", "3"], {}),
    "verify-lemma-dim2-j5": (["verify-lemma", "--theory", "dim2", "--j", "5", "--gmax", "1",
                              "--closed-budget", "2"], {}),
    # Two frontier grids: 877 circle partitions, and 98,808 elements over six circles.
    "verify-lemma-dim2-j7-gmax1": (["verify-lemma", "--theory", "dim2", "--j", "7",
                                    "--gmax", "1"], {}),
    "verify-lemma-dim2-j6-gmax2": (["verify-lemma", "--theory", "dim2", "--j", "6",
                                    "--gmax", "2", "--closed-budget", "2"], {}),
    # 489,440 elements, the own-partition test's largest partitions.
    "verify-lemma-dim2-j5-gmax4": (["verify-lemma", "--theory", "dim2", "--j", "5",
                                    "--gmax", "4", "--closed-budget", "4"], {}),
    "verify-lemma-monomial": (["verify-lemma", "--theory", "monomial", *KNOTS,
                               "--degree", "3"], {}),
    # 70 monomials in 30 orbits of the relabellings that commute with the
    # swap; recorded by the full pairwise sweep.
    "verify-lemma-monomial-p4": (["verify-lemma", "--theory", "monomial",
                                  "--alphabet", "p1,p2,p3,p4", "--swaps", "p1:p2",
                                  "--degree", "4"], {}),
    "verify-lemma-fourdim-mazur": (["verify-lemma", "--theory", "fourdim",
                                    "--table", "mazur"], {}),
    "verify-lemma-fourdim-in-coinciding": (["verify-lemma", "--theory", "fourdim",
                                            "--in", "t.json"], {"t.json": AC_BD}),
    "verify-lemma-fourdim-in-no-coinciding": (["verify-lemma", "--theory", "fourdim",
                                               "--in", "t.json"], {"t.json": NO_COINCIDING}),

    "certify-dim1": (["certify", "--theory", "dim1", "--x", "x.json"], {"x.json": X_DIM1}),
    "certify-dim2": (["certify", "--theory", "dim2", "--x", "x.json", "--out", "out.json"],
                     {"x.json": X_DIM2}),
    "certify-monomial": (["certify", "--theory", "monomial", *KNOTS, "--x", "x.json"],
                         {"x.json": GRANNY}),
    "certify-monomial-p-2-40": (["certify", "--theory", "monomial", "--alphabet", "p",
                                 "--x", "x.json"],
                                {"x.json": _vector((P_HUGE, _coeff(1)), (P3, _coeff(2)))}),
    "certify-monomial-a-b-10-20": (["certify", "--theory", "monomial", "--alphabet", "a,b",
                                    "--swaps", "a:b", "--x", "x.json"],
                                   {"x.json": _vector((A_HUGE, _coeff(1)),
                                                      (AB, _coeff(1, -1)))}),
    "certify-fourdim-mazur-fails": (["certify", "--theory", "fourdim", "--table", "mazur",
                                     "--x", "x.json"], {"x.json": M_MINUS_M}),
    "certify-fourdim-scob-one-term": (["certify", "--theory", "fourdim", "--table", "scob",
                                       "--k", "1", "--x", "x.json"],
                                      {"x.json": _vector(("M'", _coeff(0, -2)))}),
    "certify-fourdim-in": (["certify", "--theory", "fourdim", "--in", "t.json",
                            "--x", "x.json"],
                           {"t.json": NO_COINCIDING,
                            "x.json": _vector(("A", _coeff(2)), ("B", _coeff(1)))}),
    "certify-empty": (["certify", "--theory", "dim1", "--x", "x.json"], {"x.json": EMPTY}),
    "certify-cancels-to-zero": (["certify", "--theory", "dim2", "--x", "x.json"],
                                {"x.json": _vector((ANNULUS, _coeff(f"1/{BIG}")),
                                                   (ANNULUS, _coeff(f"-1/{BIG}")))}),

    "null-search-dim1-pm1": (["null-search", "--theory", "dim1", "--j", "2"], {}),
    "null-search-dim1-gauss1": (["null-search", "--theory", "dim1", "--j", "3",
                                 "--coeff-grid", "gauss1"], {}),
    "null-search-dim1-max-closed-pm1": (["null-search", "--theory", "dim1", "--j", "3",
                                         "--max-closed", "1", "--coeff-grid", "pm1"], {}),
    "null-search-dim1-j4-gauss1": (["null-search", "--theory", "dim1", "--j", "4",
                                    "--coeff-grid", "gauss1"], {}),
    "null-search-dim2": (["null-search", "--theory", "dim2", "--j", "1", "--gmax", "1",
                          "--coeff-grid", "pm1", "--out", "out.json"], {}),
    # dim2 (2,1,1): 3**18 assignments whose groups close late.
    "null-search-dim2-late-groups": (["null-search", "--theory", "dim2", "--j", "2",
                                      "--gmax", "1", "--closed-budget", "1",
                                      "--coeff-grid", "pm1"], {}),
    "null-search-monomial": (["null-search", "--theory", "monomial", "--alphabet", "a,b",
                              "--degree", "2", "--coeff-grid", "pm1"], {}),
    "null-search-fourdim-mazur": (["null-search", "--theory", "fourdim", "--table", "mazur",
                                   "--coeff-grid", "gauss1"], {}),
    "null-search-fourdim-past-first-batch": (["null-search", "--theory", "fourdim",
                                              "--in", "t.json", "--coeff-grid", "pm1"],
                                             {"t.json": LATE_HIT}),
    "null-search-fourdim-no-coinciding": (["null-search", "--theory", "fourdim",
                                           "--in", "t.json", "--coeff-grid", "gauss1"],
                                          {"t.json": NO_COINCIDING}),
    "null-search-fourdim-jobs-2": (["null-search", "--theory", "fourdim", "--in", "t.json",
                                    "--coeff-grid", "pm1", "--jobs", "2"], {"t.json": AC_BD}),

    "fourdim-demo-mazur": (["fourdim-demo", "--table", "mazur"], {}),
    **{f"fourdim-demo-scob-k{k}": (["fourdim-demo", "--table", "scob", "--k", str(k)], {})
       for k in range(4)},
    "fourdim-demo-in-coinciding": (["fourdim-demo", "--in", "t.json", "--out", "out.json"],
                                   {"t.json": AC_BD}),
    "fourdim-demo-in-no-coinciding": (["fourdim-demo", "--in", "t.json"],
                                      {"t.json": NO_COINCIDING}),
    "fourdim-demo-in-one-label": (["fourdim-demo", "--in", "t.json"], {"t.json": ONE_LABEL}),
    "fourdim-demo-in-table-5": (["fourdim-demo", "--in", "t.json"], {"t.json": TABLE_5}),

    # One case per class of input error; each exits 1 with an error line.
    "error-float-coefficient": (["certify", "--theory", "dim1", "--x", "x.json"],
                                _bad_coeff({"re": 0.1, "im": "0"})),
    "error-bool-coefficient": (["certify", "--theory", "dim1", "--x", "x.json"],
                               _bad_coeff({"re": "1", "im": True})),
    "error-exponent-string": (["certify", "--theory", "dim1", "--x", "x.json"],
                              _bad_coeff({"re": "1e4000000", "im": "0"})),
    "error-zero-denominator": (["certify", "--theory", "dim1", "--x", "x.json"],
                               _bad_coeff({"re": "1/0", "im": "0"})),
    "error-wrong-shape": (["certify", "--theory", "dim2", "--x", "x.json"],
                          {"x.json": json.dumps([{"basis": [0], "coeff": _coeff(1)}])}),
    **{f"error-matching-{name}": (["certify", "--theory", "dim1", "--x", "x.json"],
                                  _bad_matching(*inputs))
       for name, inputs in {
           "unknown-negative": (["p1", "p2"], ["n1", "n2"], {"p1": "n9", "p2": "n2"}),
           "repeated-negative": (["p1", "p2"], ["n1", "n2"], {"p1": "n1", "p2": "n1"}),
           "more-positive": (["p1", "p2"], ["n1"], {"p1": "n1", "p2": "n1"}),
           "more-negative": (["p1"], ["n1", "n2"], {"p1": "n1"}),
       }.items()},
    "error-negative-bound": (["enumerate", "--theory", "dim1", "--j", "-2"], {}),
    "error-negative-dim2-bound": (["verify-lemma", "--theory", "dim2", "--j", "2",
                                   "--gmax", "-1"], {}),
    "error-negative-degree": (["null-search", "--theory", "monomial", "--alphabet", "a",
                               "--degree", "-1"], {}),
    "error-jobs-0": (["verify-lemma", "--theory", "dim1", "--j", "2", "--jobs", "0"], {}),
    "error-missing-alphabet": (["enumerate", "--theory", "monomial", "--degree", "2"], {}),
    "error-bad-grid": (["null-search", "--theory", "dim1", "--j", "1",
                       "--coeff-grid", "gaussX"], {}),
    "error-missing-file": (["certify", "--theory", "dim1", "--x", "absent.json"], {}),
    "error-negative-k": (["fourdim-demo", "--table", "scob", "--k", "-1"], {}),
    # Usage errors from the argument parser: one error line, no usage text.
    "error-usage-removed-seed": (["verify-lemma", "--theory", "dim1", "--j", "3",
                                  "--seed", "7"], {}),
    "error-usage-bad-theory": (["verify-lemma", "--theory", "nonsense"], {}),
    "error-usage-missing-vectors": (["pair", "--theory", "dim1"], {}),
    "error-usage-no-command": ([], {}),
}


# ---- library records ----------------------------------------------------------

def _theories() -> dict[str, tuple[engine.GluingTheory, list[Any]]]:
    """Theory name -> (theory, basis); a name up to its first "-" names its
    decoder in ``cli.DECODERS``.

    ``SMALL`` give the records of small raw term lists; ``BATCH`` are the
    certify-batch benchmark's shapes, with supports of ``BATCH_SUPPORTS``
    distinct terms.
    """
    knots = monomial.Involution(("T", "T~", "P"), (("T", "T~"),))
    scob = fourdim.build_scob_table(2)
    p4 = monomial.Involution(("p1", "p2", "p3", "p4"), (("p1", "p2"),))
    five = dim1.standard_boundary(5)
    return {
        "dim1": (dim1.Dim1Theory(dim1.standard_boundary(2)), D1),
        "dim2": (dim2.Dim2Theory(2), dim2.enumerate2(2, 1, 1)),
        "monomial": (monomial.MonomialTheory(knots),
                     monomial.enumerate_monomials(knots.alphabet, 2)),
        "fourdim": (scob, list(scob.labels)),
        "dim2-j4": (dim2.Dim2Theory(4), dim2.enumerate2(4, 3, 3)),
        "dim1-j5": (dim1.Dim1Theory(five), dim1.enumerate1(five, 2)),
        "monomial-p4": (monomial.MonomialTheory(p4),
                        monomial.enumerate_monomials(p4.alphabet, 6)),
    }


THEORIES = _theories()
SMALL = ("dim1", "dim2", "monomial", "fourdim")
BATCH = ("dim2-j4", "dim1-j5", "monomial-p4")
BATCH_SUPPORTS = (6, 12)


def _draw_terms(rng: random.Random, basis: list[Any]) -> list[dict[str, Any]]:
    """A raw term list: repeated descriptors, one cancelling pair, and
    denominators up to 2**64 + 13."""
    def part() -> str:
        return str(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 7, 2**32 + 15, BIG))))
    terms = [(rng.choice(basis), _coeff(part(), part() if rng.random() < 0.5 else 0))
             for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.5:
        descriptor, num = rng.choice(basis), rng.randint(1, 9)
        terms += [(descriptor, _coeff(f"{num}/{BIG}")), (descriptor, _coeff(f"-{num}/{BIG}"))]
    return json.loads(_vector(*terms))


def _draw_support(rng: random.Random, basis: list[Any], size: int) -> list[dict[str, Any]]:
    """``size`` distinct descriptors with nonzero Gaussian rationals of
    denominators up to 4, as the certify-batch benchmark draws them."""
    def coeff() -> dict[str, str]:
        while True:
            re, im = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2))
            if re or im:
                return _coeff(re, im)
    return json.loads(_vector(*((d, coeff()) for d in rng.sample(basis, size))))


def library_result(record: dict[str, Any]) -> Any:
    """What the library gives today for a record's operation and inputs."""
    theory, _ = THEORIES[record["theory"]]
    decode = cli.DECODERS[record["theory"].partition("-")[0]]
    x = FormalSum.from_json(record["x"], decode)
    if record["op"] == "pair":
        result = engine.pair(x, FormalSum.from_json(record["y"], decode), theory)
    else:
        result = engine.certify_positive(x, theory)
    return json.loads(json.dumps(result.to_json()))


def _library_records() -> list[dict[str, Any]]:
    rng = random.Random(SEED)
    records = []
    for name in SMALL:
        basis = THEORIES[name][1]
        for _ in range(4):
            x, y = _draw_terms(rng, basis), _draw_terms(rng, basis)
            records += [{"theory": name, "op": "pair", "x": x, "y": x},
                        {"theory": name, "op": "pair", "x": x, "y": y}]
            if not FormalSum.from_json(x, cli.DECODERS[name]).is_zero():
                records.append({"theory": name, "op": "certify", "x": x})
    # Drawn after the small records, so adding these left those unchanged.
    for name in BATCH:
        basis = THEORIES[name][1]
        for size in BATCH_SUPPORTS:
            x, y = _draw_support(rng, basis, size), _draw_support(rng, basis, size)
            records += [{"theory": name, "op": "pair", "x": x, "y": x},
                        {"theory": name, "op": "pair", "x": x, "y": y},
                        {"theory": name, "op": "certify", "x": x}]
    for record in records:
        record["result"] = library_result(record)
    return records


# ---- files --------------------------------------------------------------------

def _cases_text(cases: dict[str, Any]) -> str:
    return json.dumps(cases, indent=1, ensure_ascii=True) + "\n"


def _library_text(records: list[dict[str, Any]]) -> str:
    return "".join(json.dumps(r, sort_keys=True, ensure_ascii=True) + "\n" for r in records)


def _diff(name: str, expected: Any, actual: Any) -> str:
    def lines(record: Any) -> list[str]:
        if record is None:
            return []
        return _lines(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return "".join(difflib.unified_diff(lines(expected), lines(actual),
                                        f"golden/{name}", f"current/{name}"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="print a diff per differing case, exit 1 if any; write nothing")
    mode.add_argument("--write", action="store_true", help="regenerate the golden files")
    args = parser.parse_args(argv)
    cases = {name: run_case(*case) for name, case in CASES.items()}
    records = _library_records()
    if args.write:
        CASES_FILE.write_text(_cases_text(cases), encoding="utf-8")
        LIBRARY_FILE.write_text(_library_text(records), encoding="utf-8")
        print(f"wrote {len(cases)} cases and {len(records)} library records")
        return 0
    golden = json.loads(CASES_FILE.read_text(encoding="utf-8"))
    golden_records = [json.loads(line) for line in
                      LIBRARY_FILE.read_text(encoding="utf-8").splitlines()]
    diffs = [_diff(name, golden.get(name), cases.get(name))
             for name in dict.fromkeys([*golden, *cases])]
    diffs += [_diff(f"library.jsonl:{i + 1}", old, new) for i, (old, new) in
              enumerate(zip(golden_records, records))]
    if len(golden_records) != len(records):
        diffs.append(f"library.jsonl: {len(golden_records)} records, now {len(records)}\n")
    diffs = [d for d in diffs if d]
    sys.stdout.write("".join(diffs))
    print(f"{len(diffs)} differing of {len(cases)} cases and {len(records)} library records")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
