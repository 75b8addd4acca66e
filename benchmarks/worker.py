"""Worker process of the bellchsh benchmark.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S [--trace 1]

Sets up one workload from its seed, runs one untimed warm-up op, then
measures rounds (see ``harness.measure``) and prints one JSON record as
its last line.  ``run.py`` starts it in a fresh process and summarizes
the record; with ``--setup-only`` it stops where the first timed op
would start and reports that moment.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import harness

WORKLOADS = ("fock-oracle", "field-smearing", "cli-reference")
SIZES = ("full", "tiny")


def load(name: str):
    """The workload class.  cli-reference keeps numpy and ``bellchsh``
    out of this process, so its children's peak RSS reads true."""
    if name == "cli-reference":
        from cli_reference import CliReference
        return CliReference
    import bellchsh
    import inprocess
    package = Path(bellchsh.__file__).resolve().parent
    if package != harness.SRC / "bellchsh":
        raise ImportError(f"bellchsh imported from {package}, not from {harness.SRC}")
    return inprocess.WORKLOADS[name]


def merged_max(a: dict, b: dict) -> dict:
    return {key: max(a.get(key, 0.0), b.get(key, 0.0)) for key in {*a, *b}}


def run(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Set up, warm up, measure: the raw record ``run.py`` summarizes."""
    workload = load(name)(seed, size)
    workload.warm_up(harness.Recorder())
    first_op = time.monotonic()
    measured = harness.measure(workload, seconds, trace)
    rec, traced = measured["rec"], measured["traced_rec"]
    sizes = merged_max(rec.sizes, traced.sizes)
    peak_rss_mb = sizes.pop("peak_rss_mb", None)
    if peak_rss_mb is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {
        "first_op": first_op,
        "ops": rec.ops,
        "traced_ops": traced.ops,
        "rounds": measured["rounds"],
        "ops_per_round": workload.ops_per_round,
        "min_rounds": workload.min_rounds,
        "peak_rss_mb": peak_rss_mb,
        "errors": rec.errors + traced.errors,
        "ratios": merged_max(rec.ratios, traced.ratios),
        "sizes": sizes,
    }
    if trace:
        # per-layer figures are per round, averaged over the traced rounds
        n_traced = sum(1 for _, was_traced in measured["rounds"] if was_traced)
        tracer = traced.tracer
        record["per_round"] = {
            span: (calls / n_traced, busy / n_traced)
            for span, (calls, busy) in tracer.self_times().items()
        }
        record["counts"] = {k: v / n_traced for k, v in traced.counts.items()}
        record["spans"] = tracer.spans
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop at the first timed op and report its time")
    args = parser.parse_args(argv)

    if args.setup_only:
        workload = load(args.workload)(args.seed, args.size)
        workload.warm_up(harness.Recorder())
        print(json.dumps({"first_op": time.monotonic()}))
        return 0
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
