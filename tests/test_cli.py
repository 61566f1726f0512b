"""End-to-end checks of the command-line interface and its exit codes."""

import functools
import json
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umpair import dim1, dim2, engine, fourdim
from umpair.algebra import FormalSum, Scalar
from umpair.cli import DECODERS, main
from umpair.dim1 import enumerate1, standard_boundary
from umpair.dim2 import Bounded2Manifold
from umpair.fourdim import FourDimTheory
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
    # Exponent notation is refused before Fraction would expand 10**4000000.
    for coeff in ({"re": 0.1, "im": "0"}, {"re": "1", "im": True},
                  {"re": "1e4000000", "im": "0"}):
        x = write_json(tmp_path / "x.json",
                       [{"basis": basis[0].to_json(), "coeff": coeff}])
        start = time.perf_counter()
        assert main(["certify", "--theory", "dim1", "--x", x]) == 1
        assert time.perf_counter() - start < 1.0
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


@pytest.mark.parametrize("argv", [
    ["certify", "--theory", "dim1", "--x"],
    ["fourdim-demo", "--in"],
])
def test_deeply_nested_json_exits_1_without_traceback(tmp_path, capsys, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(argv + [str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: JSON nested too deeply\n"


GOOD_TABLE = {"labels": ["A"], "table": {"A,A": "X"}, "reverse": {"X": "X"}}


@pytest.mark.parametrize("table", [
    dict(GOOD_TABLE, table=5),
    dict(GOOD_TABLE, reverse=[0]),
    dict(GOOD_TABLE, labels=[1]),
    dict(GOOD_TABLE, labels="A"),
])
def test_wrong_shape_tables_exit_1_without_traceback(tmp_path, capsys, table):
    path = write_json(tmp_path / "t.json", table)
    assert main(["fourdim-demo", "--in", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert main(["fourdim-demo", "--in", write_json(tmp_path / "ok.json", GOOD_TABLE)]) == 2


# Arbitrary JSON, with object keys drawn mostly from the descriptor schemas so
# that decoding gets past the first key check often.
SCHEMA_KEYS = ("dim", "boundary", "pos", "neg", "matching", "closed_circles",
               "circles", "boundary_circles", "parts", "genus", "closed", "genera",
               "exponents", "labels", "table", "reverse", "basis", "coeff", "re", "im")
# Text draws from a short alphabet (labels, table keys, rationals); scalar
# literals, "1/0" among them, also come on their own.
text = st.text(alphabet="MNAB',~p1n2/-0 e", max_size=5)
scalar_literals = st.sampled_from(("0", "-1", "2/3", "1/0", "-0/0", "1e3", " 5 "))
json_values = scalar_literals | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | text | scalar_literals,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(SCHEMA_KEYS) | text, children, max_size=5),
    max_leaves=16)


# One valid input per decoder; the fuzz also swaps each of its fields for the
# drawn value.
TEMPLATES = {
    "dim1": {"dim": 1, "boundary": {"pos": ["p1"], "neg": ["n1"]},
             "matching": {"p1": "n1"}, "closed_circles": 0},
    "dim2": {"dim": 2, "boundary_circles": 1,
             "parts": [{"circles": [0], "genus": 0}], "closed": []},
    "monomial": {"exponents": {"p": 1}},
    "table": GOOD_TABLE,
}


@given(json_values)
@settings(max_examples=150, deadline=None)
def test_every_decoder_returns_or_raises_value_error(data):
    decoders = dict(DECODERS, table=FourDimTheory.from_json, scalar=Scalar.from_json)
    for name, decode in decoders.items():
        template = TEMPLATES.get(name, {})
        inputs = [data] + [dict(template, **{field: data}) for field in template]
        calls = [functools.partial(decode, value) for value in inputs]
        if name in DECODERS:
            terms = [data] + [[{"basis": value, "coeff": {"re": data, "im": "0"}}]
                              for value in inputs]
            calls += [functools.partial(FormalSum.from_json, t, decode) for t in terms]
        for call in calls:
            try:
                call()
            except ValueError:
                pass


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


def test_oversized_dim1_basis_exits_1_without_traceback(capsys):
    """21! matchings overflow the array size before any allocation; the
    error names j and the element count, 21! x (max_closed + 1)."""
    assert main(["verify-lemma", "--theory", "dim1", "--j", "21", "--max-closed", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert "j = 21 points has 102,181,884,343,418,880,000 elements" in err


def test_out_of_memory_exits_1_with_a_named_error(capsys, monkeypatch):
    """A MemoryError, even one with no message, is one non-empty error line."""
    def exhausted(boundary, max_closed):
        raise MemoryError()

    monkeypatch.setattr(dim1, "enumerate1", exhausted)
    assert main(["verify-lemma", "--theory", "dim1", "--j", "13"]) == 1
    assert capsys.readouterr().err == "error: MemoryError\n"


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


USAGE_ERRORS = [
    ["pair", "--theory", "dim1"],                           # missing --x/--y
    ["verify-lemma", "--theory", "nonsense"],
    ["verify-lemma", "--theory", "dim1", "--seed", "7"],    # a removed flag
    ["enumerate", "--theory", "dim1", "--j", "two"],
    [],
]


def test_usage_errors_exit_1(capsys, monkeypatch):
    # One error line and no usage text, so the bytes do not depend on the
    # terminal width that argparse wraps its usage at.
    for argv in USAGE_ERRORS:
        errors = []
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            assert main(argv) == 1, argv
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
            errors.append(err)
        assert errors[0] == errors[1], argv


@pytest.mark.parametrize("argv", [["--help"], ["verify-lemma", "--help"]])
def test_help_exits_0(argv, capsys):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: umpair") and err == ""


def test_negative_bounds_exit_1(tmp_path, capsys):
    assert main(["enumerate", "--theory", "dim1", "--j", "-2"]) == 1
    assert "nonnegative" in capsys.readouterr().err
    # pair and certify read their boundary from the vectors, but a negative
    # bound flag is still an input error.
    x = dim1_vector_file(tmp_path, "x.json", [1, -1])
    disk = FormalSum.single(Bounded2Manifold(1, (((0,), 0),)))
    y = write_json(tmp_path / "y.json", disk.to_json())
    for argv in (["pair", "--theory", "dim1", "--j", "-1", "--x", x, "--y", x],
                 ["certify", "--theory", "dim1", "--max-closed", "-1", "--x", x],
                 ["certify", "--theory", "dim2", "--gmax", "-1", "--x", y]):
        assert main(argv) == 1
        assert "nonnegative" in capsys.readouterr().err
    assert main(["verify-lemma", "--theory", "dim1", "--j", "2", "--jobs", "0"]) == 1
    assert "jobs" in capsys.readouterr().err


@pytest.mark.parametrize("call,name", [
    (lambda: dim1.standard_boundary(-1), "j"),
    (lambda: dim1.enumerate1(dim1.standard_boundary(1), -1), "max_closed"),
    (lambda: dim2.enumerate2(-1, 0, 0), "j"),
    (lambda: dim2.enumerate2(1, -1, 0), "g_max"),
    (lambda: dim2.enumerate2(1, 0, -1), "closed_budget"),
    (lambda: dim2.closed_multisets(-1, 0), "g_max"),
    (lambda: dim2.closed_multisets(0, -1), "budget"),
    (lambda: fourdim.build_scob_table(-1), "k"),
], ids=["standard_boundary", "enumerate1", "enumerate2-j", "enumerate2-g_max",
        "enumerate2-closed_budget", "closed_multisets-g_max", "closed_multisets-budget",
        "build_scob_table"])
def test_library_bound_errors_read_like_the_cli(call, name):
    with pytest.raises(ValueError, match=f"^bound {name} must be nonnegative, got -1$"):
        call()


def test_outputs_are_byte_identical_across_reruns(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify-lemma", "--theory", "dim1", "--j", "3"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_parallel_runs_produce_identical_reports(tmp_path):
    # Every command runs in one process: --jobs 2 is accepted and ignored,
    # and no report echoes it.
    for argv, status in ((["--theory", "fourdim", "--table", "mazur"], "found"),
                         (["--theory", "dim1", "--j", "2"], "none")):
        reports = []
        for jobs in ("1", "2"):
            out = tmp_path / f"search{jobs}.json"
            assert main(["null-search", *argv, "--coeff-grid", "pm1",
                         "--jobs", jobs, "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["search"]["status"] == status
    serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
    argv = ["verify-lemma", "--theory", "dim1", "--j", "4", "--max-closed", "2"]
    assert main(argv + ["--jobs", "1", "--out", str(serial)]) == 0
    assert main(argv + ["--jobs", "2", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()
    assert load(serial)["report"]["basis_size"] == 72


def test_console_entry_point_runs_in_a_subprocess(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "umpair.cli", "null-search", "--theory", "dim2",
         "--j", "1", "--gmax", "1", "--coeff-grid", "pm1"],
        capture_output=True, text=True, check=False)
    assert result.returncode == 0
    assert json.loads(result.stdout)["search"]["status"] == "none"


@pytest.mark.slow
@pytest.mark.parametrize("argv,tested", [
    (["--theory", "dim1", "--j", "5", "--coeff-grid", "gauss1"], 5**120),
    (["--theory", "dim2", "--j", "2", "--gmax", "1", "--closed-budget", "1",
      "--coeff-grid", "pm1"], 3**18),
    (["--theory", "dim1", "--j", "3", "--max-closed", "2", "--coeff-grid", "pm1"], 3**18),
], ids=["dim1-j5-gauss1", "dim2-211-pm1", "dim1-j3-mc2-pm1"])
def test_null_search_dim1_j5_in_a_fresh_process(argv, tested):
    """Null searches found null-free by the pruned walk, each under 1 s of
    ``cli.main`` time and 48 MB peak RSS: dim1 j = 5 on gauss1 (5**120
    assignments; 0.03 s and 36 MB measured on a 2-vCPU VM) and the two
    3**18 searches whose groups close late (0.05 s and 38 MB, 0.25 s and
    42 MB).  The RSS is the child's own VmHWM: Linux carries ``ru_maxrss``
    across exec, so there it would read at least the RSS of the test
    process."""
    src = str(Path(engine.__file__).resolve().parents[1])
    script = "\n".join([
        "import io, json, resource, sys, time",
        "from contextlib import redirect_stdout",
        "from pathlib import Path",
        "sys.path.insert(0, sys.argv[1])",
        "from umpair import cli",
        "out = io.StringIO()",
        "start = time.perf_counter()",
        "with redirect_stdout(out):",
        "    rc = cli.main(['null-search', *sys.argv[2:]])",
        "seconds = time.perf_counter() - start",
        "assert rc == 0, rc",
        "search = json.loads(out.getvalue())['search']",
        "status = Path('/proc/self/status')",
        "print(seconds, search['status'], search['assignments_tested'],",
        "      status.read_text().split('VmHWM:')[1].split()[0] if status.exists()",
        "      else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)",
    ])
    result = subprocess.run([sys.executable, "-I", "-c", script, src, *argv],
                            capture_output=True, text=True, check=True)
    seconds, status, assignments, max_rss_kb = result.stdout.split()
    assert status == "none"
    assert int(assignments) == tested
    assert float(seconds) < 1.0
    assert int(max_rss_kb) < 48 * 1024


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """(argv, exit code) for each ``umpair`` example in README's "Command line"
    section that reads no input file; a comment saying "exits 2" expects 2."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n")[1]
    examples = []
    for line in section.split("\n#")[0].splitlines():
        if not line.startswith("    umpair "):
            continue
        command, _, comment = line.partition("#")
        words = shlex.split(command)
        if not {"--x", "--y", "--in"} & set(words):
            examples.append((words[1:], 2 if "exits 2" in comment else 0))
    return examples


def test_readme_command_line_examples_run(capsys):
    # A README example that uses a removed flag or a wrong exit code fails here.
    examples = readme_examples()
    assert {argv[0] for argv, _ in examples} == {
        "enumerate", "verify-lemma", "null-search", "fourdim-demo"}
    assert [argv for argv, code in examples if code == 2] == [
        ["verify-lemma", "--theory", "fourdim", "--table", "mazur"]]
    for argv, code in examples:
        assert main(argv) == code, argv
        assert capsys.readouterr().err == ""
