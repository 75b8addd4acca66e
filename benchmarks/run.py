"""Run one workload of the bellchsh benchmark and print its metrics.

    python3 benchmarks/run.py --workload fock-oracle --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  ``--workload all`` runs every
workload in turn.  One line per metric comes first; the last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record (environment, tail
percentile, spans) goes to ``.bench_results/`` in the checkout.

The work runs in fresh worker processes (``worker.py``) with one
BLAS/OpenMP thread; this process only starts them and summarizes.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time

import harness
from harness import CLI_ARGV
from worker import SIZES, WORKLOADS

#: Set-ups measured per run; ``setup_s`` is their median.  Half are
#: taken before the measuring worker and half after it, so they span the
#: run.  A ``--help`` process costs a fifth of a second, so cli-reference
#: takes more.
SETUP_SAMPLES = {"fock-oracle": 5, "field-smearing": 5, "cli-reference": 9}

#: Fresh processes per CLI probe in a traced run; the per-layer CLI
#: figures are their medians.
CLI_PROBES = {"full": 3, "tiny": 1}
IMPORT_PROBES = 5

#: A worker that runs longer than this is a harness failure.
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

PER_LAYER = {
    "fock.chsh_matrix.calls": "count",
    "fock.chsh_matrix.busy_s": "s",
    "fock.fock_quadruple.busy_s": "s",
    "fock.fock_quadruple.bytes": "bytes",
    "fock.bogoliubov_pair.busy_s": "s",
    "fock.squeezed_hamiltonian.busy_s": "s",
    "fock.squeezed_state.busy_s": "s",
    "fock.residue.bytes": "bytes",
    "fock.crosscheck.worst_ratio": "ratio",
    "fock.residue.worst_ratio": "ratio",
    "chsh.validate_quadruple.calls": "count",
    "chsh.validate_quadruple.busy_s": "s",
    "chsh.validate_quadruple.worst_ratio": "ratio",
    "chsh.chsh_value.busy_s": "s",
    "linalg.apply.calls": "count",
    "linalg.apply.busy_s": "s",
    "kleingordon.normalize.calls": "count",
    "kleingordon.normalize.busy_s": "s",
    "kleingordon.test_norm.calls": "count",
    "kleingordon.test_norm.busy_s": "s",
    "kleingordon.shell_inner_product.calls": "count",
    "kleingordon.shell_inner_product.busy_s": "s",
    "kleingordon.shell_inner_product.nodes": "count",
    "kleingordon.sigma_chsh.calls": "count",
    "kleingordon.sigma_chsh.busy_s": "s",
    "kleingordon.norm.worst_ratio": "ratio",
    **{f"cli.{kind}.{field}": unit for kind in CLI_ARGV
       for field, unit in (("proc_ms", "ms"), ("main_ms", "ms"), ("rss_mb", "MB"))},
    "cli.import_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class HarnessError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def spawn(args: list[str], env: dict[str, str]) -> dict:
    """Start a worker and return its JSON record, stamped with its spawn time."""
    cmd = [sys.executable, str(harness.BENCH_DIR / "worker.py"), *args]
    spawned = time.monotonic()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              cwd=harness.ROOT, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise HarnessError(f"worker {args} timed out") from err
    if done.returncode != 0:
        raise HarnessError(f"worker {args} exited with status {done.returncode}")
    lines = done.stdout.decode().splitlines()
    if not lines:
        raise HarnessError(f"worker {args} printed no record")
    record = json.loads(lines[-1])
    record["spawned"] = spawned
    return record


def setup_samples(workload: str, seed: int, size: str, count: int,
                  env) -> list[float]:
    """Seconds from process start to the first timed op, in fresh processes.

    For cli-reference the set-up is a whole ``python -m bellchsh --help``.
    """
    samples = []
    for _ in range(count):
        if workload == "cli-reference":
            began = time.monotonic()
            out, status, _ = harness.run_child(
                [sys.executable, "-m", "bellchsh", "--help"], env)
            if status != 0 or not out:
                raise HarnessError(f"bellchsh --help exited with status {status}")
            samples.append(time.monotonic() - began)
        else:
            record = spawn(["--workload", workload, "--seed", str(seed),
                            "--seconds", "0", "--size", size, "--setup-only"], env)
            samples.append(record["first_op"] - record["spawned"])
    return samples


def end_to_end(record: dict, setups: list[float]) -> tuple[dict, dict]:
    """End-to-end metric values and the tail-percentile detail."""
    latencies = [seconds for _, seconds, _ in record["ops"]]
    failed = sum(1 for _, _, ok in record["ops"] if not ok)
    n_min = record["min_rounds"] * record["ops_per_round"]
    p = harness.tail_percentile(n_min)
    values = {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(s for s, traced in record["rounds"] if not traced),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "peak_rss_mb": record["peak_rss_mb"],
        "ok_frac": 1.0 - failed / len(latencies),
    }
    tail = {"percentile": p, "ops": len(latencies), "rounds": len(record["rounds"])}
    if p is not None:
        values["op_tail_ms"] = harness.nearest_rank(latencies, p) * 1e3
        tail["beyond"] = harness.ops_beyond(len(latencies), p)
    return values, tail


def cli_probes(size: str, env) -> tuple[dict, list[tuple[str, float, bool]]]:
    """The CLI layer, from fresh processes started here.

    This process imports neither numpy nor ``bellchsh``, so a child's
    peak RSS read by ``wait4`` is the child's own.  Each invocation is
    also an op: a non-zero exit counts as a failed op.
    """
    repeats = CLI_PROBES[size]
    values = {"cli.import_ms": statistics.median(
        harness.probe_ms(harness.IMPORT_PROBE, [], env) for _ in range(IMPORT_PROBES))}
    ops = []
    for kind, argv in CLI_ARGV.items():
        walls, rss, mains = [], [], []
        for _ in range(repeats):
            began = time.monotonic()
            _, status, rss_mb = harness.run_child(
                [sys.executable, "-m", "bellchsh", *argv], env)
            walls.append(time.monotonic() - began)
            rss.append(rss_mb)
            mains.append(harness.probe_ms(harness.MAIN_PROBE, argv, env))
            # the main probe prints nan when cli.main returns non-zero
            ok = status == 0 and not math.isnan(mains[-1])
            ops.append(("cli." + kind, walls[-1], ok))
        values[f"cli.{kind}.proc_ms"] = statistics.median(walls) * 1e3
        values[f"cli.{kind}.main_ms"] = statistics.median(mains)
        values[f"cli.{kind}.rss_mb"] = max(rss)
    return values, ops


def per_layer(record: dict, probes: dict) -> dict:
    """Per-layer values; a layer the workload never calls reads 0."""
    per_round, sizes = record["per_round"], record["sizes"]
    values = {}
    for name in PER_LAYER:
        base, _, field = name.rpartition(".")
        if name in probes:
            value = probes[name]
        elif field == "calls":
            value = per_round.get(base, (0, 0.0))[0]
        elif field == "busy_s":
            value = per_round.get(base, (0, 0.0))[1]
        elif field == "worst_ratio":
            value = record["ratios"].get(base, 0.0)
        elif field == "nodes":
            value = record["counts"].get(name, 0.0)
        elif name == "trace.overhead_ratio":
            rounds = record["rounds"]
            value = (statistics.median(s for s, traced in rounds if traced)
                     / statistics.median(s for s, traced in rounds if not traced))
        else:
            value = sizes.get(name, 0.0)
        values[name] = value
    return values


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            size: str) -> dict:
    env = harness.worker_env()
    cli = workload == "cli-reference"
    # the measuring worker's own set-up is one of the samples
    count = 0 if trace else SETUP_SAMPLES[workload] - (not cli)
    setups = setup_samples(workload, seed, size, count // 2, env)
    record = spawn(["--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(int(trace)),
                    "--size", size], env)
    if not (trace or cli):
        setups.append(record["first_op"] - record["spawned"])
    setups += setup_samples(workload, seed, size, count - count // 2, env)
    ops = record["ops"] + record["traced_ops"]
    errors = record["errors"]
    if trace:
        probes, probe_ops = cli_probes(size, env)
        ops += probe_ops
        errors += [f"{kind}: exited non-zero" for kind, _, ok in probe_ops if not ok]
        values, units, tail = per_layer(record, probes), PER_LAYER, None
    else:
        (values, tail), units = end_to_end(record, setups), END_TO_END
    failed = sum(1 for _, _, ok in ops if not ok)
    summary = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "size": size, "environment": harness.environment(),
        "correct": failed == 0 and len(ops) > 0, "attempted": len(ops),
        "failed": failed, "errors": errors, "tail": tail,
        "setup_samples_s": setups, "rounds": record["rounds"], "ops": ops,
        "ratios": record["ratios"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }
    if trace:
        summary["spans"] = record["spans"]
    out_dir = harness.ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    suffix = "" if size == "full" else "-" + size
    path = out_dir / f"{workload}-seed{seed}-trace{int(trace)}{suffix}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    return summary


def report(summary: dict) -> None:
    """Human-readable lines: one per metric, then the environment."""
    workload = summary["workload"]
    for name, metric in summary["metrics"].items():
        line = f"{workload:15s} {name:40s} {metric['value']:.6g} {metric['unit']}"
        tail = summary["tail"]
        if name == "op_tail_ms":
            line += (f"  (p{tail['percentile']:g} of {tail['ops']} ops,"
                     f" {tail['beyond']} beyond)")
        print(line)
    for error in summary["errors"]:
        print(f"{workload:15s} error: {error}")
    print(f"{workload:15s} environment {json.dumps(summary['environment'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="tiny only exercises the code paths (self-test)")
    args = parser.parse_args(argv)

    if not (harness.SRC / "bellchsh" / "__init__.py").is_file():
        print(f"no bellchsh package under {harness.SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        summaries = [run_one(name, args.seed, args.seconds, bool(args.trace),
                             args.size) for name in names]
    except (RuntimeError, OSError, ValueError) as err:  # HarnessError too
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    for summary in summaries:
        report(summary)
    prefix = len(summaries) > 1
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {(f"{s['workload']}.{name}" if prefix else name): metric
                    for s in summaries for name, metric in s["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
