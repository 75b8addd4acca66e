"""Shared pieces of the bellchsh benchmark: environment, op recording,
spans and percentiles.

Nothing here imports ``bellchsh`` or numpy, so the orchestrator
(``run.py``) can check the checkout and start workers without paying
the library's import.
"""

from __future__ import annotations

import contextlib
import importlib.metadata
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Every worker and CLI child runs with one BLAS/OpenMP thread: with two
#: threads on a shared two-core machine the dense Fock products spread
#: several-fold from run to run.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: The CLI invocations of the cli-reference workload, by id.  Every
#: subcommand at its zero-flag defaults, plus the three flagged variants.
CLI_ARGV = {
    "spin": ["spin"],
    "squeeze-scan": ["squeeze-scan"],
    "optimize": ["optimize"],
    "optimize-spin-one": ["optimize", "--closed-form", "spin-one"],
    "kg-norm": ["kg-norm"],
    "kg-norm-normalize": ["kg-norm", "--normalize"],
    "rindler-scan": ["rindler-scan"],
    "rindler-scan-long": ["rindler-scan", "--modes", "0.5,1.0,2.0",
                          "--temp-range", "0.01:5.0:20000"],
}

#: Fresh-process probes: the import of the package, and ``cli.main`` timed
#: after that import with its stdout captured.
IMPORT_PROBE = ("import time; t = time.perf_counter(); import bellchsh; "
                "print(repr((time.perf_counter() - t) * 1e3))")
MAIN_PROBE = (
    "import contextlib, io, sys, time\n"
    "from bellchsh import cli\n"
    "t = time.perf_counter()\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = cli.main(sys.argv[1:])\n"
    "print(repr((time.perf_counter() - t) * 1e3) if code == 0 else 'nan')\n"
)

#: Candidate tail percentiles, highest last.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Ops that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


def worker_env() -> dict[str, str]:
    """Environment of every process that does benchmark work."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def run_child(cmd: list[str], env: dict[str, str]) -> tuple[bytes, int, float]:
    """Run ``cmd`` to completion: (stdout, exit code, peak RSS in MB).

    The child is reaped with ``wait4`` so its own peak RSS is read,
    not the maximum over every child so far.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, usage.ru_maxrss / 1024.0


def probe_ms(code: str, args: list[str], env: dict[str, str]) -> float:
    """Milliseconds printed by a fresh ``python -c code args`` process."""
    out, status, _ = run_child([sys.executable, "-c", code, *args], env)
    if status != 0:
        raise RuntimeError(f"probe exited with status {status}")
    return float(out.decode().strip().splitlines()[-1])


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    """What a reader needs to compare two result files."""
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "threads": {var: "1" for var in THREAD_VARS},
    }


def tail_percentile(n_ops: int) -> float | None:
    """Highest candidate percentile that leaves at least ten of ``n_ops``
    beyond it under the nearest-rank rule, or None if none does."""
    best = None
    for p in TAIL_PERCENTILES:
        if ops_beyond(n_ops, p) >= TAIL_MIN_BEYOND:
            best = p
    return best


def _rank(n_ops: int, p: float) -> int:
    return max(1, math.ceil(n_ops * p / 100.0))


def ops_beyond(n_ops: int, p: float) -> int:
    """Ops ranked above the nearest-rank ``p``-th percentile."""
    return n_ops - _rank(n_ops, p)


def nearest_rank(values: list[float], p: float) -> float:
    """Nearest-rank percentile: an actual sample, no interpolation."""
    return sorted(values)[_rank(len(values), p) - 1]


class Tracer:
    """In-memory spans: (name, start, end, parent index, op id).

    Spans nest on one thread, so a span's self time is its duration
    minus the durations of its direct children.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = 0

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def next_op(self) -> None:
        self._op += 1

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, summed self time in seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, tuple[int, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, busy = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, busy + (end - start) - child_time[i])
        return totals


_NO_SPAN = contextlib.nullcontext()


class Recorder:
    """Times ops, counts failures and keeps certificate ratios and sizes.

    An op is a callable returning whether its output check passed.  An
    op that raises is a failed op; the harness itself never stops on it.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.ops: list[tuple[str, float, bool]] = []
        self.errors: list[str] = []
        self.ratios: dict[str, float] = {}
        self.sizes: dict[str, float] = {}
        self.counts: dict[str, float] = {}

    def op(self, kind: str, fn) -> bool:
        span = self.tracer.span("op." + kind) if self.tracer else _NO_SPAN
        start = time.perf_counter()
        try:
            with span:
                ok = bool(fn())
        except Exception as err:  # a raising op is counted, not fatal
            ok = False
            self._note(f"{kind}: {type(err).__name__}: {err}")
        else:
            if not ok:
                self._note(f"{kind}: output check failed")
        self.ops.append((kind, time.perf_counter() - start, ok))
        if self.tracer:
            self.tracer.next_op()
        return ok

    def _note(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else _NO_SPAN

    def ratio(self, name: str, value: float, bound: float) -> bool:
        """Record value/bound as a certificate and return value <= bound."""
        ratio = value / bound
        if not ratio <= self.ratios.get(name, 0.0):
            self.ratios[name] = ratio
        return value <= bound

    def size(self, name: str, value: float) -> None:
        """Keep the largest value seen (bytes, nodes, RSS)."""
        self.sizes[name] = max(self.sizes.get(name, 0.0), value)

    def count(self, name: str, value: float) -> None:
        """Add to a work counter (quadrature nodes evaluated)."""
        self.counts[name] = self.counts.get(name, 0.0) + value


def measure(workload, seconds: float, trace: bool) -> dict:
    """Run fixed rounds of ``workload`` until ``seconds`` have passed.

    An untraced run makes at least ``workload.min_rounds`` rounds, so
    its tail percentile always has ten ops beyond it.  A traced run
    alternates untraced and traced rounds, at least one of each, so the
    tracing overhead is measured within one process.
    """
    rec = Recorder()
    traced_rec = Recorder(Tracer())
    rounds: list[tuple[float, bool]] = []
    floor = 2 if trace else workload.min_rounds
    start = time.monotonic()
    while len(rounds) < floor or time.monotonic() - start < seconds:
        traced = trace and len(rounds) % 2 == 1
        began = time.perf_counter()
        workload.run_round(traced_rec if traced else rec)
        rounds.append((time.perf_counter() - began, traced))
    return {"rec": rec, "traced_rec": traced_rec, "rounds": rounds}
