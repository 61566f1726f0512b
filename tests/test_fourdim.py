"""Symbolic 4-dimensional gluing tables and the null-vector demonstration."""

import pytest

from umpair import engine
from umpair.algebra import FormalSum
from umpair.fourdim import (FourDimTheory, build_mazur_table, build_scob_table,
                            demo_null)


def test_mazur_table_entries():
    table = build_mazur_table()
    assert table.labels == ("M", "M'")
    assert table.table[("M", "M")] == "S4"
    assert table.table[("M", "M'")] == "S4"
    assert table.table[("M'", "M'")] == "S4"
    assert table.reverse_map["S4"] == "S4"


def test_scob_table_entries():
    table = build_scob_table(3)
    assert set(table.table.values()) == {"#3(S1xS3)"}
    assert build_scob_table(0) == build_mazur_table()
    with pytest.raises(ValueError):
        build_scob_table(-1)


def test_table_conjugate_symmetry_holds_by_construction():
    table = build_scob_table(2)
    for a in table.labels:
        for b in table.labels:
            assert table.table[(a, b)] == table.reverse_map[table.table[(b, a)]]


def test_invalid_tables_are_rejected():
    with pytest.raises(ValueError):
        FourDimTheory(("M", "M"), {("M", "M"): "S4"}, {"S4": "S4"})
    with pytest.raises(ValueError):
        FourDimTheory(("A",), {}, {})
    with pytest.raises(ValueError):
        FourDimTheory(("A",), {("A", "A"): "X"}, {"X": "Y", "Y": "X"})
    with pytest.raises(ValueError):
        FourDimTheory(("A,B",), {("A,B", "A,B"): "X"}, {"X": "X"})
    # asymmetric off-diagonal entries with a fixed reversal
    with pytest.raises(ValueError):
        FourDimTheory(("A", "B"),
                      {("A", "A"): "X", ("A", "B"): "X",
                       ("B", "A"): "Y", ("B", "B"): "Y"},
                      {"X": "X", "Y": "Y"})


@pytest.mark.parametrize("table", [build_mazur_table(), build_scob_table(1),
                                   build_scob_table(2), build_scob_table(3)])
def test_demo_null_exhibits_the_difference_vector(table):
    demo = demo_null(table)
    assert demo.found
    assert demo.pair_labels == ("M", "M'")
    assert demo.vector == FormalSum([("M", 1), ("M'", -1)])
    assert demo.pairing.is_zero()
    failure = demo.certificate
    assert isinstance(failure, engine.CertificateFailure)
    assert (failure.left, failure.right) == ("M", "M'")


def test_demo_takes_the_first_coinciding_pair_in_label_order():
    # Rows A = C and B = D; (A, C) comes before (B, D).
    side = {"A": "AC", "B": "BD", "C": "AC", "D": "BD"}
    name = {("AC", "AC"): "P", ("AC", "BD"): "Q", ("BD", "AC"): "Q", ("BD", "BD"): "R"}
    table = FourDimTheory(("A", "B", "C", "D"),
                          {(a, b): name[(side[a], side[b])] for a in side for b in side},
                          {"P": "P", "Q": "Q", "R": "R"})
    demo = demo_null(table)
    assert demo.pair_labels == ("A", "C")
    assert demo.vector == FormalSum([("A", 1), ("C", -1)])
    assert demo.pairing.is_zero()


def test_demo_diagnoses_tables_without_coinciding_rows():
    table = FourDimTheory(
        ("A", "B"),
        {("A", "A"): "X", ("A", "B"): "Z", ("B", "A"): "Z", ("B", "B"): "Y"},
        {"X": "X", "Y": "Y", "Z": "Z"})
    demo = demo_null(table)
    assert not demo.found
    assert demo.vector is None
    assert "no coinciding rows" in demo.message


def test_null_search_and_lemma_on_every_built_table():
    for table in (build_mazur_table(), build_scob_table(1), build_scob_table(2)):
        theory = table
        found = engine.null_search(list(table.labels), engine.PM_ONE_GRID, theory)
        assert found.vector == FormalSum([("M", 1), ("M'", -1)])
        report = engine.verify_lemma(list(table.labels), theory)
        assert not report.passed
        (violation,) = report.violations
        assert (violation.left, violation.right) == ("M", "M'")


def test_table_json_round_trip():
    table = build_scob_table(2)
    assert FourDimTheory.from_json(table.to_json()) == table
    with pytest.raises(ValueError):
        FourDimTheory.from_json({"labels": ["A"]})
    with pytest.raises(ValueError):
        FourDimTheory.from_json({"labels": ["A"], "table": {"AA": "X"},
                                 "reverse": {"X": "X"}})


def test_theory_validates_labels():
    theory = build_mazur_table()
    with pytest.raises(Exception):
        engine.pair(FormalSum.single("stranger"), FormalSum.single("M"), theory)
