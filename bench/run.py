"""umpair benchmark: exact-verdict workloads, end-to-end and per layer.

    python3 bench/run.py --workload verify-dim2 --seed 1 --seconds 24 --trace 0
    python3 bench/run.py                       # all four workloads in turn
    python3 bench/run.py --smoke --seconds 1   # toy sizes, for the smoke test

Run from any directory; the package is imported from ``src/`` next to this
directory, never from an installed copy.  Each run starts fresh interpreters
one at a time (``bench/child.py``): several that only set up, for
``setup_s``, and one that times passes for ``--seconds``; both times are
rescaled by the speed probe (probe.py).  With ``--trace 1``
one interpreter alternates untraced and traced passes and reports per-layer
metrics instead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Everything else, with
machine and code details, goes to ``.bench_out/`` at the repository root.
See bench/README.md for the workloads and what each metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import COUNT_METRICS, SELF_METRICS  # noqa: E402
from workloads import NAMES  # noqa: E402

SETUP_REPEATS = 5      # measured set-ups per run, after one warm-up
SETUP_TIMEOUT = 60     # seconds, per set-up interpreter
RUN_TIMEOUT = 150      # seconds, for the measuring interpreter

# name -> (unit, better); the same set on every workload
END_TO_END = {
    "setup_s": ("s", "lower"),
    "verdict_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    **{m: ("s", "lower") for m in SELF_METRICS},
    **{m: ("count", "lower") for m in COUNT_METRICS},
    "engine.distinct_glue_pairs": ("count", "lower"),
    "engine.glue_reuse_ratio": ("ratio", "higher"),
    "engine.assignments_tested": ("count", "lower"),
    "cli.out_bytes": ("B", "lower"),
    "trace.outside_s": ("s", "lower"),
    "trace.verdict_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}
ITEM_RATE_NAMES = {"pairs": "pairs_per_s", "assignments": "assignments_per_s",
                   "certs": "certs_per_s"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def code_identity() -> dict[str, str | None]:
    """Git commit when the tree is a checkout, and a hash of the package."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "umpair").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[len("ref: "):]
            if (git / ref).is_file():
                commit = (git / ref).read_text().strip()
            else:
                for line in (git / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + ref):
                        commit = line.split()[0]
        else:
            commit = head
    except OSError:
        pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def spawn(args: argparse.Namespace, mode: str, workdir: Path,
          spans: Path | None = None) -> dict:
    """Run child.py in a fresh interpreter; its setup time is measured from
    here, so it includes starting the interpreter."""
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, "-I", str(BENCH / "child.py"), "--root", str(ROOT),
           "--workload", args.workload, "--scale", "smoke" if args.smoke else "full",
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--workdir", str(workdir)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    # numpy's BLAS would otherwise start one thread per core
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=SETUP_TIMEOUT if mode == "setup" else RUN_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} interpreter timed out after {exc.timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} interpreter exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - started
    return out


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest of p99.99/p99.9/p99/p90/p50 with at least ten samples beyond it,
    by nearest rank, as (percentile, value)."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99.99, 99.9, 99.0, 90.0, 50.0):
        rank = math.ceil(p / 100 * n)
        if rank >= 1 and n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def measure(args: argparse.Namespace, workdir: Path, outdir: Path) -> dict:
    """One run of one workload: every number, check and detail it produced."""
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record: dict = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "scale": "smoke" if args.smoke else "full", "tracing": bool(args.trace),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "jobs": 1, **code_identity(),
    }
    if args.trace:
        spans = outdir / f"spans-{tag}.json"
        child = spawn(args, "trace", workdir / "run", spans)
        layers = dict(child["layers"])
        traced = child["traced"][child["traced_pass"]]
        layers["engine.assignments_tested"] = (
            child["traced_items"] if args.workload == "null-search" else 0)
        layers["cli.out_bytes"] = child["traced_out_bytes"]
        layers["trace.verdict_s"] = traced
        layers["trace.overhead_ratio"] = traced / statistics.median(child["passes"])
        metrics = {name: (layers[name], unit) for name, (unit, _) in PER_LAYER.items()}
        record.update(spans_file=str(spans.relative_to(ROOT)),
                      counts_repeat=child["counts_repeat"],
                      traced_passes=child["traced"])
        if not child["counts_repeat"]:
            raise BenchError("per-layer counts differ between traced passes")
    else:
        spawn(args, "setup", workdir / "warmup")
        setups = [spawn(args, "setup", workdir / f"setup{i}")
                  for i in range(SETUP_REPEATS)]
        child = spawn(args, "run", workdir / "run")
        # times rescaled to the probe's reference speed; see probe.py
        verdict = statistics.median(p * s for p, s in zip(child["passes"], child["scales"]))
        items = statistics.median(child["items"])
        metrics = {
            "setup_s": (statistics.median(c["setup_s"] * c["setup_scale"] for c in setups),
                        "s"),
            "verdict_s": (verdict, "s"),
            "items_per_s": (items / verdict, "1/s"),
            "peak_rss_mb": (child["rss_kb"] / 1024, "MB"),
        }
        record.update(setup_wall_s=[c["setup_s"] for c in setups],
                      setup_scales=[c["setup_scale"] for c in setups],
                      verdict_wall_s=statistics.median(child["passes"]),
                      pass_scales=child["scales"], items_per_pass=child["items"],
                      items_name=child["items_name"])
        record[ITEM_RATE_NAMES[child["items_name"]]] = items / verdict
        if child["latencies"]:
            record["vec_p50_ms"] = statistics.median(child["latencies"]) * 1e3
            tail = tail_percentile(child["latencies"])
            if tail is not None:
                record["vec_tail_ms"] = tail[1] * 1e3
                record["vec_tail_percentile"] = tail[0]
            record["vec_samples"] = len(child["latencies"])
    record.update(
        python=child["python"], numpy=child["numpy"],
        seed_note=("the seed draws the vector batch" if child["seeded"] else
                   "exhaustive workload: the seed does not affect its inputs"),
        passes=child["passes"], attempted=child["attempted"], failed=child["failed"],
        fail_ratio=child["failed"] / child["attempted"], errors=child["errors"],
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    (outdir / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def report(record: dict) -> None:
    """Human-readable lines; the JSON result line comes last, from main."""
    w = record["workload"]
    print(f"# {w}: seed {record['seed']} ({record['seed_note']}); "
          f"tracing {'on' if record['tracing'] else 'off'}; nproc {record['nproc']}; "
          f"python {record['python']}; numpy {record['numpy']}; "
          f"commit {record['git_commit']}; src sha256 {record['src_sha256'][:16]}")
    print(f"{w}  passes {len(record['passes'])}  attempted {record['attempted']}  "
          f"failed {record['failed']}  fail_ratio {record['fail_ratio']:.6g}")
    for name, m in record["metrics"].items():
        print(f"{w}  {name} = {m['value']:.6g} {m['unit']}")
    if "verdict_wall_s" in record:
        print(f"{w}  unscaled wall: verdict {record['verdict_wall_s']:.6g} s, setup "
              f"{statistics.median(record['setup_wall_s']):.6g} s; probe scale "
              f"{statistics.median(record['pass_scales']):.4g}")
    for name, unit in (("pairs_per_s", "1/s"), ("assignments_per_s", "1/s"),
                       ("certs_per_s", "1/s"), ("vec_p50_ms", "ms"), ("vec_tail_ms", "ms")):
        if name in record:
            print(f"{w}  {name} = {record[name]:.6g} {unit}")
    if "vec_tail_percentile" in record:
        print(f"{w}  vec_tail_percentile = p{record['vec_tail_percentile']:g} "
              f"of {record['vec_samples']} vectors")
    for error in record["errors"]:
        print(f"{w}  FAILED {error}")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1,
                        help="draws the certify-batch vectors; the rest are exhaustive")
    parser.add_argument("--seconds", type=float, default=24,
                        help="measuring time per run (set-up not included)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "umpair" / "__init__.py").is_file():
        print(f"error: no umpair package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)
    names = NAMES if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=outdir))
        try:
            records.append(measure(one, workdir, outdir))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        report(records[-1])
    single = len(records) == 1
    metrics = {(k if single else f"{r['workload']}.{k}"): v
               for r in records for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
