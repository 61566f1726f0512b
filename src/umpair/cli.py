"""Command-line front end.

Subcommands: enumerate, pair, verify-lemma, certify, null-search and
fourdim-demo.  All file I/O is UTF-8 JSON in the schemas of the library
types, outputs are byte-identical across reruns of the same configuration,
and exit codes are scriptable:

    0   success (command ran; positive/pass result where one was expected)
    1   input error (bad flags, malformed files, incompatible boundaries)
    2   mathematical negative (lemma violation, failed certificate,
        or a demonstration hypothesis that does not hold)

A null-search exits 0 whether or not it finds a vector; the finding is in
the report.  Vector files hold a formal sum as a JSON list of
{"basis": <descriptor>, "coeff": {"re": "p/q", "im": "r/s"}} terms.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any, Callable, NoReturn, Sequence

from . import dim1, dim2, engine, fourdim, monomial
from .algebra import FormalSum, Scalar, check_bounds


def _config(args: argparse.Namespace, bounds: dict[str, Any]) -> dict[str, Any]:
    """Everything a command's output depends on, echoed into its report for
    audit; raises ValueError on a negative integer bound."""
    check_bounds(bounds)
    return {"theory": args.theory, "bounds": bounds}


def _label_from_json(data: Any) -> str:
    if not isinstance(data, str):
        raise ValueError(f"a fourdim basis descriptor is a label string, got {data!r}")
    return data


DECODERS: dict[str, Callable[[Any], Any]] = {
    "dim1": dim1.Bounded1Manifold.from_json,
    "dim2": dim2.Bounded2Manifold.from_json,
    "monomial": monomial.Monomial.from_json,
    "fourdim": _label_from_json,
}


def _read_json(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON nested too deeply") from exc


def _write_output(args: argparse.Namespace, payload: Any) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _write_report(args: argparse.Namespace, config: dict[str, Any], **body: Any) -> None:
    """The JSON report of every command but ``pair``: command, config, body."""
    _write_output(args, {"command": args.command, "config": config, **body})


def _parse_grid(spec: str) -> tuple[Scalar, ...]:
    if spec == "pm1":
        return engine.PM_ONE_GRID
    if spec.startswith("gauss"):
        try:
            radius = int(spec[len("gauss"):])
        except ValueError:
            raise ValueError(f"bad grid spec {spec!r}, expected gauss<k>") from None
        return engine.gaussian_integer_grid(radius)
    raise ValueError(f"unknown coefficient grid {spec!r} (use pm1 or gauss<k>)")


def _involution_from_args(args: argparse.Namespace) -> monomial.Involution:
    if not args.alphabet:
        raise ValueError("--alphabet is required for the monomial theory")
    alphabet = tuple(p for p in args.alphabet.split(",") if p)
    swaps = []
    if args.swaps:
        for chunk in args.swaps.split(","):
            left, sep, right = chunk.partition(":")
            if not sep:
                raise ValueError(f"bad swap {chunk!r}, expected a:b")
            swaps.append((left, right))
    return monomial.Involution(alphabet, tuple(swaps))


def _table_from_args(args: argparse.Namespace) -> fourdim.FourDimTheory:
    if args.in_path:
        return fourdim.FourDimTheory.from_json(_read_json(args.in_path))
    if args.table == "mazur":
        return fourdim.build_mazur_table()
    if args.table == "scob":
        return fourdim.build_scob_table(args.k)
    raise ValueError("the fourdim theory needs --table mazur|scob or --in <table.json>")


def _build(args: argparse.Namespace, vectors: Sequence[FormalSum] = ()
           ) -> tuple[engine.GluingTheory, dict[str, Any], Callable[[], list]]:
    """The theory of one invocation, its config (bounds checked first) and a
    thunk enumerating its basis.  dim1 and dim2 take their boundary from the
    first vector descriptor when there is one."""
    first = next((d for total in vectors for d in total.support()), None)
    if args.theory == "dim1":
        config = _config(args, {"j": args.j, "max_closed": args.max_closed})
        boundary = dim1.standard_boundary(args.j) if first is None else first.boundary
        return (dim1.Dim1Theory(boundary), config,
                lambda: dim1.enumerate1(boundary, args.max_closed))
    if args.theory == "dim2":
        config = _config(args, {"j": args.j, "gmax": args.gmax,
                                "closed_budget": args.closed_budget})
        circles = args.j if first is None else first.boundary_circles
        return (dim2.Dim2Theory(circles), config,
                lambda: dim2.enumerate2(args.j, args.gmax, args.closed_budget))
    if args.theory == "monomial":
        sigma = _involution_from_args(args)
        config = _config(args, {"alphabet": list(sigma.alphabet),
                                "swaps": [list(s) for s in sigma.swaps],
                                "degree": args.degree})
        return (monomial.MonomialTheory(sigma), config,
                lambda: monomial.enumerate_monomials(sigma.alphabet, args.degree))
    theory = _table_from_args(args)
    return theory, _config(args, {"labels": list(theory.labels)}), lambda: list(theory.labels)


def _load_vector(path: str, theory_name: str) -> FormalSum:
    return FormalSum.from_json(_read_json(path), DECODERS[theory_name])


def cmd_enumerate(args: argparse.Namespace) -> int:
    _, config, basis = _build(args)
    items = basis()
    _write_report(args, config, count=len(items),
                  basis=[engine.descriptor_to_json(b) for b in items])
    return 0


def cmd_pair(args: argparse.Namespace) -> int:
    x = _load_vector(args.x, args.theory)
    y = _load_vector(args.y, args.theory)
    _write_output(args, engine.pair(x, y, _build(args, (x, y))[0]).to_json())
    return 0


def cmd_verify_lemma(args: argparse.Namespace) -> int:
    theory, config, basis = _build(args)
    if args.theory == "dim2":
        report = dim2.verify_lemma_grid(args.j, args.gmax, args.closed_budget)
    else:
        report = engine.verify_lemma(basis(), theory)
    _write_report(args, config, report=report.to_json())
    return 0 if report.passed else 2


def cmd_certify(args: argparse.Namespace) -> int:
    x = _load_vector(args.x, args.theory)
    outcome = engine.certify_positive(x, _build(args, (x,))[0])
    _write_report(args, _config(args, {}), result=outcome.to_json())
    return 0 if isinstance(outcome, engine.PositivityCertificate) else 2


def cmd_null_search(args: argparse.Namespace) -> int:
    theory, config, basis = _build(args)
    result = engine.null_search(basis(), _parse_grid(args.coeff_grid), theory)
    config["bounds"]["coeff_grid"] = args.coeff_grid
    _write_report(args, config, search=result.to_json())
    return 0


def cmd_fourdim_demo(args: argparse.Namespace) -> int:
    theory = _build(args)[0]
    demo = fourdim.demo_null(theory)
    _write_report(args, _config(args, {}), table=theory.to_json(), demo=demo.to_json())
    return 0 if demo.found else 2


def _add_common(parser: argparse.ArgumentParser, theory: bool = True) -> None:
    if theory:
        parser.add_argument("--theory", choices=tuple(DECODERS), required=True)
    parser.add_argument("--j", type=int, default=0,
                        help="boundary size: point pairs (dim1) or circles (dim2)")
    parser.add_argument("--max-closed", type=int, default=0, dest="max_closed",
                        help="dim1: closed circles allowed per basis element")
    parser.add_argument("--gmax", type=int, default=0,
                        help="dim2: genus bound for boundary-meeting parts")
    parser.add_argument("--closed-budget", type=int, default=0, dest="closed_budget",
                        help="dim2: closed-component count and total-genus bound")
    parser.add_argument("--degree", type=int, default=2,
                        help="monomial: total degree bound for the basis")
    parser.add_argument("--alphabet", default="",
                        help="monomial: comma-separated prime names")
    parser.add_argument("--swaps", default="",
                        help="monomial: involution swaps as a:b[,c:d...]")
    parser.add_argument("--table", choices=("mazur", "scob"), default=None,
                        help="fourdim: builtin gluing table")
    parser.add_argument("--k", type=int, default=0,
                        help="fourdim: parameter of the scob table")
    parser.add_argument("--in", dest="in_path", default=None,
                        help="fourdim: user-supplied gluing table JSON")
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted for every command (at least 1) and read by "
                             "none: every command runs in one process")
    parser.add_argument("--out", default=None, help="output path (default stdout)")


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, so ``main`` prints them as one line with no
    usage text (which wraps at the terminal width).  Subparsers share the class."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared.

    Parsing does not change it, and repeated ``main`` calls in one process
    should neither rebuild it nor fragment the heap with its objects.
    """
    parser = _Parser(
        prog="umpair",
        description="Exact manifold-gluing pairings: enumerate bases, pair vectors, "
                    "verify complexity dominance, certify positivity, search for "
                    "null vectors.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="write the enumerated basis")
    _add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("pair", help="pair two vectors from files")
    _add_common(p)
    p.add_argument("--x", required=True, help="left vector JSON file")
    p.add_argument("--y", required=True, help="right vector JSON file")
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("verify-lemma",
                       help="check diagonal dominance on the whole enumerated basis")
    _add_common(p)
    p.set_defaults(func=cmd_verify_lemma)

    p = sub.add_parser("certify", help="positivity certificate for one vector")
    _add_common(p)
    p.add_argument("--x", required=True, help="vector JSON file")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("null-search",
                       help="exhaustive coefficient-grid search for a null vector")
    _add_common(p)
    p.add_argument("--coeff-grid", dest="coeff_grid", default="pm1",
                   help="pm1, or gauss<k> for Gaussian integers of modulus <= k")
    p.set_defaults(func=cmd_null_search)

    p = sub.add_parser("fourdim-demo",
                       help="exhibit the null vector of a fourdim gluing table")
    _add_common(p, theory=False)
    p.set_defaults(func=cmd_fourdim_demo, theory="fourdim")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.jobs < 1:
            raise ValueError("--jobs must be at least 1")
        return args.func(args)
    except SystemExit:  # --help, after printing the usage
        return 0
    except (ValueError, KeyError, OSError, MemoryError, OverflowError) as exc:
        # A bare MemoryError has no message; the line still says what failed.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
