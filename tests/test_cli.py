"""End-to-end checks of the command-line interface and its exit codes."""

import json
import subprocess
import sys

import pytest

from umpair.algebra import FormalSum
from umpair.cli import main
from umpair.dim1 import enumerate1, standard_boundary
from umpair.dim2 import Bounded2Manifold
from umpair.monomial import Monomial


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def load(path):
    return json.loads(path.read_text(encoding="utf-8"))


def dim1_vector_file(tmp_path, name, coeffs):
    basis = enumerate1(standard_boundary(2), 0)
    vector = FormalSum(zip(basis, coeffs))
    return write_json(tmp_path / name, vector.to_json())


def test_pair_dim1_difference(tmp_path):
    x = dim1_vector_file(tmp_path, "x.json", [1, -1])
    out = tmp_path / "out.json"
    code = main(["pair", "--theory", "dim1", "--x", x, "--y", x,
                 "--out", str(out)])
    assert code == 0
    result = load(out)
    coeffs = {json.dumps(t["basis"], sort_keys=True): t["coeff"] for t in result}
    assert coeffs['{"circles": 2, "dim": 1}'] == {"re": "2", "im": "0"}
    assert coeffs['{"circles": 1, "dim": 1}'] == {"re": "-2", "im": "0"}


def test_pair_fourdim_null(tmp_path):
    x = write_json(tmp_path / "x.json", FormalSum([("M", 1), ("M'", -1)]).to_json())
    out = tmp_path / "out.json"
    code = main(["pair", "--theory", "fourdim", "--table", "mazur",
                 "--x", x, "--y", x, "--out", str(out)])
    assert code == 0
    assert load(out) == []


def test_pair_rejects_mismatched_boundaries(tmp_path, capsys):
    x = dim1_vector_file(tmp_path, "x.json", [1, 0])
    basis3 = enumerate1(standard_boundary(3), 0)
    y = write_json(tmp_path / "y.json", FormalSum.single(basis3[0]).to_json())
    code = main(["pair", "--theory", "dim1", "--x", x, "--y", y])
    assert code == 1
    assert "mismatch" in capsys.readouterr().err


def test_pair_reports_parse_errors_with_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('[{"basis": }]', encoding="utf-8")
    code = main(["pair", "--theory", "dim1", "--x", str(bad), "--y", str(bad)])
    assert code == 1
    assert "bad.json:1:" in capsys.readouterr().err


def test_verify_lemma_dim1_passes(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify-lemma", "--theory", "dim1", "--j", "3",
                 "--max-closed", "1", "--out", str(out)])
    assert code == 0
    report = load(out)["report"]
    assert report["passed"] is True
    assert report["basis_size"] == 12


def test_verify_lemma_dim2_uses_the_grid_sweep(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify-lemma", "--theory", "dim2", "--j", "2",
                 "--gmax", "2", "--closed-budget", "1", "--out", str(out)])
    assert code == 0
    assert load(out)["report"]["passed"] is True


def test_verify_lemma_fourdim_violation_exits_2(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify-lemma", "--theory", "fourdim", "--table", "mazur",
                 "--out", str(out)])
    assert code == 2
    report = load(out)["report"]
    assert report["passed"] is False
    assert report["violations"][0]["left"] == "M"


def test_certify_monomial_granny_square(tmp_path):
    granny_square = FormalSum([(Monomial.from_dict({"T": 2}), 1),
                               (Monomial.from_dict({"T": 1, "T~": 1}), -1)])
    x = write_json(tmp_path / "x.json", granny_square.to_json())
    out = tmp_path / "cert.json"
    code = main(["certify", "--theory", "monomial", "--alphabet", "T,T~",
                 "--swaps", "T:T~", "--x", x, "--out", str(out)])
    assert code == 0
    result = load(out)["result"]
    assert result["status"] == "certificate"
    (form,) = result["forms"]
    assert form["mass"] == "2"
    assert form["closed"] == {"exponents": {"T": 2, "T~": 2}}


def test_certify_dim2_annulus_minus_disks(tmp_path):
    annulus = Bounded2Manifold(2, (((0, 1), 0),))
    two_disks = Bounded2Manifold(2, (((0,), 0), ((1,), 0)))
    x = write_json(tmp_path / "x.json",
                   FormalSum([(annulus, 1), (two_disks, -1)]).to_json())
    out = tmp_path / "cert.json"
    code = main(["certify", "--theory", "dim2", "--x", x, "--out", str(out)])
    assert code == 0
    result = load(out)["result"]
    assert result["status"] == "certificate"
    (form,) = result["forms"]
    assert form["closed"] == {"dim": 2, "genera": [0, 0]}   # the doubled disks
    assert form["mass"] == "1"


def test_certify_fourdim_failure_exits_2(tmp_path):
    x = write_json(tmp_path / "x.json", FormalSum([("M", 1), ("M'", -1)]).to_json())
    out = tmp_path / "cert.json"
    code = main(["certify", "--theory", "fourdim", "--table", "scob", "--k", "2",
                 "--x", x, "--out", str(out)])
    assert code == 2
    assert load(out)["result"]["violating_pair"] == ["M", "M'"]


def test_certify_zero_vector_exits_1(tmp_path, capsys):
    x = write_json(tmp_path / "x.json", [])
    assert main(["certify", "--theory", "dim1", "--x", x]) == 1
    assert "zero" in capsys.readouterr().err


def test_certify_rejects_float_and_bool_coefficients(tmp_path, capsys):
    basis = enumerate1(standard_boundary(2), 0)
    for coeff in ({"re": 0.1, "im": "0"}, {"re": "1", "im": True}):
        x = write_json(tmp_path / "x.json",
                       [{"basis": basis[0].to_json(), "coeff": coeff}])
        assert main(["certify", "--theory", "dim1", "--x", x]) == 1
        assert capsys.readouterr().err.startswith("error: scalar part")


@pytest.mark.parametrize("theory,basis", [
    ("dim2", [0]),
    ("dim2", {"dim": 2, "boundary_circles": 1, "parts": [[0]], "closed": []}),
    ("dim2", {"dim": 2, "boundary_circles": 1,
              "parts": [{"circles": [0], "genus": "1"}], "closed": []}),
    ("monomial", {"exponents": [1]}),
    ("monomial", ["x"]),
    ("monomial", {"exponents": {"x": 1.0}}),
    ("dim1", [1]),
    ("dim1", {"dim": 1, "boundary": ["p1"], "matching": {}, "closed_circles": 0}),
    ("dim1", {"dim": 1, "boundary": {"pos": ["p1"], "neg": ["n1"]},
              "matching": [["p1", "n1"]], "closed_circles": 0}),
])
def test_wrong_shape_descriptors_exit_1_without_traceback(tmp_path, capsys, theory, basis):
    x = write_json(tmp_path / "x.json",
                   [{"basis": basis, "coeff": {"re": "1", "im": "0"}}])
    alphabet = ["--alphabet", "x"] if theory == "monomial" else []
    assert main(["certify", "--theory", theory, "--x", x] + alphabet) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_null_search_fourdim_finds_the_vector(tmp_path):
    out = tmp_path / "search.json"
    code = main(["null-search", "--theory", "fourdim", "--table", "mazur",
                 "--coeff-grid", "pm1", "--out", str(out)])
    assert code == 0
    search = load(out)["search"]
    assert search["status"] == "found"
    assert search["vector"] == [
        {"basis": "M", "coeff": {"re": "1", "im": "0"}},
        {"basis": "M'", "coeff": {"re": "-1", "im": "0"}},
    ]


def test_null_search_dim1_finds_nothing(tmp_path):
    out = tmp_path / "search.json"
    code = main(["null-search", "--theory", "dim1", "--j", "2",
                 "--coeff-grid", "pm1", "--out", str(out)])
    assert code == 0
    assert load(out)["search"]["status"] == "none"


def test_null_search_rejects_bad_grid(capsys):
    assert main(["null-search", "--theory", "dim1", "--j", "1",
                 "--coeff-grid", "gaussX"]) == 1
    assert "grid" in capsys.readouterr().err


def test_enumerate_monomials(tmp_path):
    out = tmp_path / "basis.json"
    code = main(["enumerate", "--theory", "monomial", "--alphabet", "a,b",
                 "--degree", "2", "--out", str(out)])
    assert code == 0
    payload = load(out)
    assert payload["count"] == 6
    assert payload["basis"][0] == {"exponents": {}}


def test_enumerate_requires_alphabet_for_monomials(capsys):
    assert main(["enumerate", "--theory", "monomial", "--degree", "2"]) == 1
    assert "alphabet" in capsys.readouterr().err


def test_fourdim_demo_scob(tmp_path):
    out = tmp_path / "demo.json"
    code = main(["fourdim-demo", "--table", "scob", "--k", "3", "--out", str(out)])
    assert code == 0
    payload = load(out)
    assert payload["demo"]["found"] is True
    assert payload["table"]["table"]["M,M'"] == "#3(S1xS3)"


def test_fourdim_demo_accepts_user_tables(tmp_path):
    table = {
        "labels": ["A", "B"],
        "table": {"A,A": "X", "A,B": "Z", "B,A": "Z", "B,B": "Y"},
        "reverse": {"X": "X", "Y": "Y", "Z": "Z"},
    }
    path = write_json(tmp_path / "table.json", table)
    out = tmp_path / "demo.json"
    code = main(["fourdim-demo", "--in", path, "--out", str(out)])
    assert code == 2
    assert "no coinciding rows" in load(out)["demo"]["message"]


def test_usage_errors_exit_1():
    assert main(["pair", "--theory", "dim1"]) == 1          # missing --x/--y
    assert main(["verify-lemma", "--theory", "nonsense"]) == 1
    assert main([]) == 1


def test_negative_bounds_exit_1(capsys):
    assert main(["enumerate", "--theory", "dim1", "--j", "-2"]) == 1
    assert "nonnegative" in capsys.readouterr().err
    assert main(["verify-lemma", "--theory", "dim1", "--j", "2", "--jobs", "0"]) == 1
    assert "jobs" in capsys.readouterr().err


def test_outputs_are_byte_identical_across_reruns(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify-lemma", "--theory", "dim1", "--j", "3", "--seed", "7"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_parallel_runs_produce_identical_reports(tmp_path):
    # 72 basis elements crosses the process-pool threshold, so --jobs 2
    # really forks workers; the merged report must not depend on it.
    serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
    argv = ["verify-lemma", "--theory", "dim1", "--j", "4", "--max-closed", "2"]
    assert main(argv + ["--jobs", "1", "--out", str(serial)]) == 0
    assert main(argv + ["--jobs", "2", "--out", str(parallel)]) == 0
    serial_doc, parallel_doc = load(serial), load(parallel)
    assert serial_doc["report"] == parallel_doc["report"]
    assert serial_doc["report"]["basis_size"] == 72


def test_console_entry_point_runs_in_a_subprocess(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "umpair.cli", "null-search", "--theory", "dim2",
         "--j", "1", "--gmax", "1", "--coeff-grid", "pm1"],
        capture_output=True, text=True, check=False)
    assert result.returncode == 0
    assert json.loads(result.stdout)["search"]["status"] == "none"
