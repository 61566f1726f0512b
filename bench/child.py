"""One measured process: import umpair, write inputs, then time passes.

run.py starts this file in a fresh, isolated interpreter
(``python -I bench/child.py ...``) and reads the one JSON line it prints.
``--mode setup`` stops once the inputs are written, so run.py can repeat
the set-up several times; ``--mode run`` times passes with tracing off;
``--mode trace`` alternates untraced and traced passes.  In the first two
modes the speed probe (probe.py) runs throughout, and each time comes with
the probe's scale for the same interval.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

MIN_PASSES = {"run": 3, "trace": 1}


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None, help="file for the traced spans")
    return parser.parse_args()


def median_index(values: list[float]) -> int:
    """Index of the lower median of ``values``."""
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[(len(order) - 1) // 2]


def main() -> int:
    args = parse_args()
    root = Path(args.root)
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    from probe import SpeedProbe
    probe = SpeedProbe()
    if args.mode != "trace":
        probe.sample()
        probe.start()
    import umpair.cli  # numpy included; part of set-up by design
    if Path(umpair.__file__).resolve().parent != (root / "src" / "umpair").resolve():
        print(f"error: umpair imported from {umpair.__file__}", file=sys.stderr)
        return 3
    import numpy

    import workloads
    workload = workloads.build(args.workload, args.scale, args.seed, Path(args.workdir))
    workload.setup()
    ready = time.perf_counter()
    result: dict = {"ready": ready, "numpy": numpy.__version__,
                    "python": sys.version.split()[0]}
    if args.mode == "setup":
        probe.stop()
        result["setup_scale"] = probe.scale(probe.samples[0][0], ready)
        print(json.dumps(result))
        return 0

    clock = time.perf_counter
    deadline = ready + args.seconds
    outcomes, scales, traced, layer_sets, span_sets = [], [], [], [], []
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
    while True:
        cycle_start = clock()
        if tracer is None:
            probe.sample()
            outcomes.append(workload.run_pass(clock))
            scales.append(probe.scale(cycle_start, clock()))
        else:
            outcomes.append(workload.run_pass(clock))
            tracer.install()
            try:
                outcome = workload.run_pass(clock, tracer)
            finally:
                tracer.remove()
            layers = tracer.layers()
            layers["trace.outside_s"] = outcome.seconds - tracer.top_s
            traced.append(outcome)
            layer_sets.append(layers)
            span_sets.append(tracer.spans)
        now = clock()
        if len(outcomes) >= MIN_PASSES[args.mode] and now + (now - cycle_start) > deadline:
            break
    probe.stop()

    everything = outcomes + traced
    errors = [e for o in everything for e in o.errors]
    result.update({
        "passes": [o.seconds for o in outcomes],
        "scales": scales,
        "items": [o.items for o in outcomes],
        "attempted": sum(o.attempted for o in everything),
        "failed": len(errors),
        "errors": errors[:10],
        "latencies": [t for o in outcomes for t in o.latencies],
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "items_name": workload.items_name,
        "seeded": workload.seeded,
    })
    if tracer is not None:
        pick = median_index([o.seconds for o in traced])
        counts = [{k: v for k, v in layers.items() if isinstance(v, int)}
                  for layers in layer_sets]
        result.update({
            "traced": [o.seconds for o in traced],
            "traced_pass": pick,
            "layers": layer_sets[pick],
            "traced_items": traced[pick].items,
            "traced_out_bytes": traced[pick].out_bytes,
            "counts_repeat": all(c == counts[0] for c in counts),
        })
        if args.spans:
            Path(args.spans).write_text(json.dumps({
                "workload": args.workload, "seed": args.seed, "pass": pick,
                "pass_seconds": traced[pick].seconds, "layers": layer_sets[pick],
                "spans": span_sets[pick]}), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
