"""The twobell benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src`` directory.  Workloads (see workloads.py and BENCHMARK.json):

* ``paper_noisy``: ``twobell run --calibration builtin --reps 10 --seed N``,
  each op a fresh process started through launch.py, one at a time;
* ``exact_protocols``: a seeded mix of exact-engine commands through
  ``twobell.cli.main`` in this process, stdout captured;
* ``route_mix``: ``twobell route`` of seeded random circuits onto several
  7-qubit graphs, in this process.

One client runs the workload's cycle of ops as a closed loop, whole
cycles, until S seconds have passed; each output is checked as it
arrives, outside the op's timing.  With ``--trace 0`` the last line of
stdout is the JSON result with the end-to-end metrics; with
``--trace 1`` untraced and traced cycles alternate and the result holds
the per-layer metrics of the traced cycles (spans.py) and the tracing
overhead.  Lines before the result give the environment and a readable
table.
"""

from __future__ import annotations

import time

START = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import CYCLES, DEFAULT_SEED, WARMUP_KINDS, CheckFailed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "cpu_per_op_s": "s",
    "peak_rss_mb": "MB",
}


class Bench:
    """One workload's generated inputs and the means to run its ops."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.in_process = name != "paper_noisy"
        if workdir.exists():
            shutil.rmtree(workdir)
        workdir.mkdir(parents=True)
        self.workdir = workdir
        self.startup_s = 0.0
        self.cycle = CYCLES[name](seed, workdir)

    def warm_up(self):
        if not self.in_process:
            self._launch(["--warmup"])
            return
        # Nothing runs between the first import of the package and the
        # first entry of main, so this is benchmark start to main.
        from twobell import cli  # noqa: F401

        self.startup_s = time.monotonic() - START
        seen = set()
        for op in self.cycle:
            if op.kind in WARMUP_KINDS and op.kind not in seen:
                seen.add(op.kind)
                self.run(op)

    def _launch(self, extra):
        cmd = [sys.executable, str(HERE / "launch.py"), "--t0", repr(time.monotonic()), *extra]
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)

    def run(self, op, trace_out: Path | None = None):
        """Run one op; returns (latency s, exit code, stdout)."""
        t0 = time.perf_counter()
        if not self.in_process:
            extra = ["--trace-out", str(trace_out)] if trace_out else []
            proc = self._launch([*extra, "--", *op.argv])
            latency = time.perf_counter() - t0
            sys.stderr.write(proc.stderr)
            return latency, proc.returncode, proc.stdout
        from twobell import cli

        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(op.argv))
        except (Exception, SystemExit):
            traceback.print_exc()
            rc = -1
        return time.perf_counter() - t0, rc, buf.getvalue()


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def passes(op, rc: int, text: str) -> bool:
    try:
        if rc != 0:
            raise CheckFailed(f"exit code {rc}")
        op.check(text)
    except (CheckFailed, ValueError, KeyError, IndexError, TypeError) as exc:
        print(f"check failed: {op.kind} {' '.join(op.argv)}: {exc!r}", file=sys.stderr)
        return False
    return True


def attempt(bench: Bench, op, trace_out: Path | None = None):
    """Run one op and check its output at once, so that no output is kept:
    (latency s, CPU s of this process and its children, passed)."""
    cpu0 = cpu_seconds()
    latency, rc, text = bench.run(op, trace_out)
    cpu = cpu_seconds() - cpu0
    return latency, cpu, passes(op, rc, text)


def setup_samples(args) -> list:
    """Wall time of complete set-ups, each in a fresh process: from just
    before the process starts to the end of its warm-up, which the probe
    prints on the system-wide monotonic clock.  (Timing the wait for the
    probe instead would round it up to subprocess's 50 ms polling step.)"""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def environment() -> dict:
    import ctypes
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def end_to_end(bench: Bench, args):
    samples = setup_samples(args)
    latencies, failed, cpu = [], 0, 0.0
    t0 = time.perf_counter()
    while True:
        for op in bench.cycle:
            latency, op_cpu, passed = attempt(bench, op)
            latencies.append(latency)
            cpu += op_cpu
            failed += not passed
        if time.perf_counter() - t0 >= args.seconds:
            break
    attempted = len(latencies)
    busy = sum(latencies)
    who = resource.RUSAGE_SELF if bench.in_process else resource.RUSAGE_CHILDREN
    values = {
        "setup_s": statistics.median(samples),
        "ops_per_s": (attempted - failed) / busy,
        "op_p50_s": statistics.median(latencies),
        "cpu_per_op_s": cpu / attempted,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {SETUP_SAMPLES} fresh-process set-ups: "
        + " ".join(f"{t:.4f}" for t in samples),
        "op_p50_s": f"n={attempted}",
    }
    print(f"{bench.name} seed {args.seed}: {attempted} ops in {busy:.3f} s")
    for name, value in values.items():
        print(f"  {name:<14} {value:.6g} {END_TO_END_UNITS[name]}  {notes.get(name, '')}")
    if attempted >= 100:
        p90 = statistics.quantiles(latencies, n=10)[-1]
        print(f"  {'op_p90_s':<14} {p90:.6g} s  n={attempted}")
    print(f"  {'fail_ratio':<14} {failed / attempted:.6g} ratio  {failed}/{attempted}")
    metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    return attempted, failed, metrics


def traced(bench: Bench, args):
    """Alternate untraced and traced cycles; layer metrics of the traced."""
    tracer = Tracer()
    attempted = failed = traced_ops = 0
    untraced_s = traced_s = 0.0
    startups = []
    t0 = time.perf_counter()
    while True:
        for op in bench.cycle:
            latency, _, passed = attempt(bench, op)
            untraced_s += latency
            attempted += 1
            failed += not passed
        if bench.in_process:
            tracer.install()
        for op in bench.cycle:
            tracer.op = traced_ops
            trace_out = None if bench.in_process else bench.workdir / f"child_spans_{traced_ops}.json"
            latency, _, passed = attempt(bench, op, trace_out)
            traced_s += latency
            attempted += 1
            failed += not passed
            # A child that failed may have written no spans; it counts as failed.
            if trace_out is not None and trace_out.exists():
                child = json.loads(trace_out.read_text())
                base = len(tracer.spans)
                for name, start, end, parent, _, attrs in child["spans"]:
                    parent = parent + base if parent >= 0 else -1
                    tracer.spans.append([name, start, end, parent, traced_ops, attrs])
                startups.append(child["startup_s"])
            traced_ops += 1
        tracer.uninstall()
        if time.perf_counter() - t0 >= args.seconds:
            break
    spans = tracer.spans
    (bench.workdir / "spans.json").write_text(json.dumps(spans))
    startup = statistics.median(startups) if startups else bench.startup_s
    overhead = 100.0 * (traced_s / untraced_s - 1.0)
    metrics = layer_metrics(spans, traced_ops, startup, overhead, ROOT)
    print(f"{bench.name} seed {args.seed}: {traced_ops} traced ops, {len(spans)} spans; per-op values")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}  moves: {LAYER_METRICS[name][1]}")
    return attempted, failed, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CYCLES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (ROOT / "src" / "twobell" / "cli.py").is_file():
        print(f"error: no twobell sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        Bench(args.workload, args.seed, WORK / f"{args.workload}.probe").warm_up()
        print(repr(time.monotonic()))
        return 0
    bench = Bench(args.workload, args.seed, WORK / args.workload)
    bench.warm_up()
    if bench.in_process:
        import twobell

        if Path(twobell.__file__).resolve().parent != ROOT / "src" / "twobell":
            print(f"error: twobell was imported from {twobell.__file__}", file=sys.stderr)
            return 2
    attempted, failed, metrics = (traced if args.trace else end_to_end)(bench, args)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
