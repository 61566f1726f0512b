"""Acceptance sweep: one test per exit criterion, one printed line each.

Everything here is exact; there are no numeric tolerances to tune.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from oracles import (as_raw, convolution_oracle, core_table, euler_oracle, random_poly,
                     random_vector, raw_terms)

from umpair import engine
from umpair.algebra import FormalSum, Scalar
from umpair.cli import main
from umpair.dim1 import Dim1Theory, Closed1Manifold, enumerate1, standard_boundary
from umpair.dim2 import ClosedSurface, Dim2Theory, enumerate2, glue2, verify_lemma_grid
from umpair.fourdim import build_mazur_table, build_scob_table, demo_null
from umpair.monomial import (Involution, Monomial, MonomialTheory,
                             enumerate_monomials, manifold3_to_monomial)


@contextmanager
def criterion(number, label):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} [{label}]: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {number} [{label}]: PASS ({time.perf_counter() - start:.1f}s)")


def test_criterion_1_dim1_positivity():
    with criterion(1, "d=1 positivity"):
        for j in range(6):
            boundary = standard_boundary(j)
            basis = enumerate1(boundary, 2)
            report = engine.verify_lemma(basis, Dim1Theory(boundary))
            assert report.passed, f"violations at j={j}: {report.violations}"
        boundary = standard_boundary(5)
        basis = enumerate1(boundary, 2)
        assert len(basis) == 120 * 3
        theory = Dim1Theory(boundary)
        rng = random.Random(10501)
        for _ in range(1000):
            x = random_vector(rng, basis)
            assert not engine.pair(x, x, theory).is_zero()
            cert = engine.certify_positive(x, theory)
            assert isinstance(cert, engine.PositivityCertificate)


def test_criterion_2_dim2_positivity():
    with criterion(2, "d=2 positivity"):
        for j in range(5):
            report = verify_lemma_grid(j, 3, 3)
            assert report.passed, f"violations at j={j}: {report.violations}"

        # Cell-count oracle agreement, exact.  Full sweep over the bounded
        # enumeration for every j up to 4, full sweep including closed
        # pieces up to j = 2, and a broad seeded sample of closed-piece
        # pairs at j = 3 and 4 (their full product is ~9e7 pairs, far past
        # the runtime budget; the closed contribution to chi is linear and
        # covered exactly by the smaller sweeps).
        # The same sweep checks the grid verifier's cell digits, read as a
        # square table of genus multisets, against glue2.
        for j in range(5):
            bounded = enumerate2(j, 3, 0)
            gid, genera = core_table(j, 3)
            for (a, m), (b, n) in itertools.combinations_with_replacement(
                    enumerate(bounded), 2):
                glued = glue2(m, n)
                assert euler_oracle(m, n) == glued.euler_characteristic()
                assert genera[gid[a, b]] == genera[gid[b, a]] == glued.genera
        for j in range(3):
            basis = enumerate2(j, 3, 3)
            for m, n in itertools.combinations_with_replacement(basis, 2):
                assert euler_oracle(m, n) == glue2(m, n).euler_characteristic()
        rng = random.Random(20502)
        for j in (3, 4):
            basis = enumerate2(j, 3, 3)
            for _ in range(25000):
                m, n = rng.choice(basis), rng.choice(basis)
                assert euler_oracle(m, n) == glue2(m, n).euler_characteristic()

        basis = enumerate2(4, 3, 3)
        assert len(basis) == 13608
        theory = Dim2Theory(4)
        rng = random.Random(20503)
        for _ in range(1000):
            x = random_vector(rng, basis)
            assert not engine.pair(x, x, theory).is_zero()
            cert = engine.certify_positive(x, theory)
            assert isinstance(cert, engine.PositivityCertificate)


class EveryPairMonomial(MonomialTheory):
    """The monomial theory without orbit labels: verify_lemma sweeps every pair."""

    def orbits(self, basis):
        return None


def test_criterion_3_monomial_diagonal_dominance():
    with criterion(3, "monomial diagonal dominance"):
        alphabet = ("p1", "p2", "p3", "p4")
        shapes = (Involution(alphabet),
                  Involution(alphabet, swaps=(("p1", "p2"),)),
                  Involution(alphabet, swaps=(("p1", "p2"), ("p3", "p4"))))
        basis = enumerate_monomials(alphabet, 6)
        assert len(basis) == 210
        for sigma in shapes:
            report = engine.verify_lemma(basis, MonomialTheory(sigma))
            assert report.passed, f"violations under {sigma}: {report.violations}"
            # The orbit rows agree with the sweep over every pair.
            assert report == engine.verify_lemma(basis, EveryPairMonomial(sigma))

        rng = random.Random(30301)
        sigma = shapes[1]
        for _ in range(1000):
            x = random_poly(rng, sigma)
            y = random_poly(rng, sigma)
            product = engine.pair(x, y, MonomialTheory(sigma))
            assert as_raw(product) == convolution_oracle(raw_terms(x),
                                                         raw_terms(y), sigma)


def test_criterion_4_fourdim_non_positivity():
    with criterion(4, "4-dim non-positivity"):
        tables = [build_mazur_table()] + [build_scob_table(k) for k in range(4)]
        expected = FormalSum([("M", 1), ("M'", -1)])
        for table in tables:
            theory = table
            demo = demo_null(table)
            assert demo.found and demo.pair_labels == ("M", "M'")
            assert demo.vector == expected
            assert demo.pairing.is_zero()
            found = engine.null_search(list(table.labels),
                                       engine.PM_ONE_GRID, theory)
            assert found.vector == expected
            failure = engine.certify_positive(expected, theory)
            assert isinstance(failure, engine.CertificateFailure)
            assert (failure.left, failure.right) == ("M", "M'")


def test_criterion_5_knot_fixture():
    with criterion(5, "granny/square knot fixture"):
        sigma = Involution(("T", "T~"), swaps=(("T", "T~"),))
        granny = manifold3_to_monomial(["T", "T"], sigma)
        square = manifold3_to_monomial(["T", "T~"], sigma)
        x = FormalSum([(granny, 1), (square, -1)])
        product = engine.pair(x, x, MonomialTheory(sigma))
        assert product == FormalSum([
            (Monomial.from_dict({"T": 2, "T~": 2}), 2),
            (Monomial.from_dict({"T": 3, "T~": 1}), -1),
            (Monomial.from_dict({"T": 1, "T~": 3}), -1),
        ])
        cert = engine.certify_positive(x, MonomialTheory(sigma))
        assert isinstance(cert, engine.PositivityCertificate)
        (form,) = cert.forms
        assert form.closed == Monomial.from_dict({"T": 2, "T~": 2})
        assert form.mass == Fraction(2)
        assert form.witnesses == (0, 1)


def test_criterion_6_null_search_negative_controls():
    with criterion(6, "null-search negative controls"):
        boundary = standard_boundary(2)
        d1_basis = enumerate1(boundary, 0)
        d1 = Dim1Theory(boundary)
        d2_basis = enumerate2(1, 1, 0)
        d2 = Dim2Theory(1)
        for grid in (engine.PM_ONE_GRID, engine.gaussian_integer_grid(2)):
            assert engine.null_search(d1_basis, grid, d1).vector is None
            assert engine.null_search(d2_basis, grid, d2).vector is None
        # dim1 j=3: 15,625 assignments on gauss1 and 4,826,809 on gauss2, of
        # which the pruned search scans one leaf subtree of 625 and of 169.
        boundary = standard_boundary(3)
        d1_basis = enumerate1(boundary, 0)
        d1 = Dim1Theory(boundary)
        for radius in (1, 2):
            grid = engine.gaussian_integer_grid(radius)
            result = engine.null_search(d1_basis, grid, d1)
            assert result.vector is None
            assert result.assignments_tested == len(grid) ** 6


def test_criterion_7_determinism_and_exactness(tmp_path):
    with criterion(7, "determinism and exactness"):
        commands = [
            ["enumerate", "--theory", "dim2", "--j", "2", "--gmax", "1",
             "--closed-budget", "1"],
            ["verify-lemma", "--theory", "dim1", "--j", "3", "--max-closed", "1"],
            ["verify-lemma", "--theory", "dim2", "--j", "2", "--gmax", "2",
             "--closed-budget", "1"],
            ["verify-lemma", "--theory", "monomial", "--alphabet", "a,b",
             "--swaps", "a:b", "--degree", "3"],
            ["null-search", "--theory", "dim1", "--j", "2",
             "--coeff-grid", "gauss2"],
            ["fourdim-demo", "--table", "scob", "--k", "2"],
        ]
        for idx, argv in enumerate(commands):
            first = tmp_path / f"{idx}_a.json"
            second = tmp_path / f"{idx}_b.json"
            assert main(argv + ["--out", str(first)]) in (0, 2)
            assert main(argv + ["--out", str(second)]) in (0, 2)
            assert first.read_bytes() == second.read_bytes()

        # pairing output re-parses and re-serializes to the same bytes
        basis = enumerate1(standard_boundary(2), 0)
        x_path = tmp_path / "x.json"
        x_path.write_text(json.dumps(FormalSum(zip(basis, [1, -1])).to_json()))
        out_a, out_b = tmp_path / "p_a.json", tmp_path / "p_b.json"
        argv = ["pair", "--theory", "dim1", "--x", str(x_path), "--y", str(x_path)]
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        parsed = FormalSum.from_json(json.loads(out_a.read_text()),
                                     Closed1Manifold.from_json)
        assert json.dumps(parsed.to_json(), sort_keys=True) == \
            json.dumps(json.loads(out_a.read_text()), sort_keys=True)

        # value-level round trips stay exact at awkward sizes
        gnarly = Scalar(Fraction(10**40 + 1, 10**40 - 1), Fraction(-1, 10**30))
        assert Scalar.from_json(json.loads(json.dumps(gnarly.to_json()))) == gnarly
        surface = ClosedSurface((0, 2, 7))
        assert ClosedSurface.from_json(surface.to_json()) == surface
