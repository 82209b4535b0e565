"""graphent benchmark: seeded workloads timed from outside the library.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table
    python3 perfbench/run.py --acceptance                 # acceptance-suite timings

Run it from the root of a checkout: it imports the library from ./src and
nowhere else.  One single-threaded process calls the library in a closed
loop.  A run does max(1, round(rounds_30 * seconds / 30)) rounds of its
workload, rounds_30 being the workload's rounds for a 30-second run on a
2-core reference machine, so every commit does the same work.  Times are reported at a fixed reference speed: the machine's speed is
sampled with a calibration kernel before every op and each wall time is
scaled by it (see calibrate.py); the wall-clock figures are printed beside
them.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones (see
tracing.py).  Everything else a run records goes to perfbench/out/.
"""

from __future__ import annotations

import os

# One BLAS thread on every run, set before numpy loads (here or in a child).
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from calibrate import Speedometer  # noqa: E402

SETUP_SAMPLES = 12  # spread over the run: before the first round and after each
TAIL_BEYOND = 10  # the tail percentile leaves this many samples beyond it
SAFETY_FACTOR = 3  # stop after the round that takes the run past 3x --seconds


def load_library():
    """Import graphent from ./src of this checkout, or exit 2 without a result."""
    if not (SRC / "graphent" / "__init__.py").is_file():
        sys.exit(f"error: no library at {SRC}; run from the root of a graphent checkout")
    sys.path.insert(0, str(SRC))
    import graphent
    import graphent.cli  # the CLI module is not imported by the package itself

    if Path(graphent.__file__).resolve().parent != SRC / "graphent":
        sys.exit(f"error: imported graphent from {graphent.__file__}, not from {SRC}")
    return graphent


def sample_setup(count: int, speed) -> list[tuple[float, float]]:
    """(start, end) of fresh interpreters importing `graphent.cli`."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import graphent.cli"
    spans = []
    for _ in range(count):
        speed.sample()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        spans.append((t0, time.perf_counter()))
    return spans


def environment(args, rounds: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": rounds,
    }


def execute(op, failures: list, tracer=None) -> tuple[float, float]:
    """Run one op, check it after the clock stops, and return its start and end.

    Garbage left by earlier ops is collected first, outside the clock, as a
    fresh CLI process would not carry it."""
    gc.collect()
    if tracer is not None:
        tracer.install()
        tracer.begin_op()
    t0 = time.perf_counter()
    try:
        result = op.run()
        error = None
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        result, error = None, f"raised {type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.end_op(t0, t1)
        tracer.uninstall()
    if error is None:
        try:
            problems = op.check(result)
        except Exception as exc:  # malformed output
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    else:
        problems = [error]
    if problems:
        failures.append({"op": op.label, "problems": problems})
    return t0, t1


def warm_up(lib, ctx):
    """One untimed pass over a small graph through every entry point the
    workloads use, so lazy imports and numpy's first-call set-up are paid
    before the clock runs."""
    path, out = ctx.graph_file((4, ((1, 2), (2, 3), (3, 4))))
    for argv in (["analyze", path], ["verify", path], ["css", path, "--method", "all"]):
        lib.cli.main(argv + ["--out", out])
    g = lib.parse_graph(Path(path).read_text(encoding="utf-8"))
    lib.dense.best_product_overlap(lib.dense.statevector(g), restarts=1, iterations=2, seed=0)
    lib.transport_css(g, [1], lib.max_independent_set(g))
    lib.lattices.gap_scan("hexagonal", [1], exact=True)


def run_workload(args, lib) -> int:
    from workloads import WORKLOADS, Context

    build, rounds_30, parts = WORKLOADS[args.workload]
    rounds = max(1, round(rounds_30 * args.seconds / 30))
    env = environment(args, rounds)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = Context(lib, workdir)
        warm_up(lib, ctx)
        if args.trace:
            record = traced_run(args, ctx, build, rounds)
        else:
            record = timed_run(args, ctx, build, rounds, Speedometer(parts))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["env"] = env
    if not args.trace:
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["metrics"]["peak_rss_mb"] = {"value": rss_mib, "unit": "MiB"}
    return report(args, record)


def time_metrics(spans, setup, speed) -> tuple[dict, dict]:
    """The timing metrics from (start, end) spans of the ops and of set-up,
    each span divided by the machine's speed factor around it."""
    n = len(spans)
    latencies = [(t1 - t0) / speed.factor(t0, t1) for t0, t1 in spans]
    setups = [(t1 - t0) / speed.factor(t0, t1) for t0, t1 in setup]
    tail_index = max(0, n - 1 - TAIL_BEYOND)
    tail = {"percentile": 100.0 * (tail_index + 1) / n, "samples": n, "beyond": n - 1 - tail_index}
    return tail, {
        "ops_per_s": {"value": n / sum(latencies), "unit": "ops/s"},
        "latency_p50_ms": {"value": 1000.0 * statistics.median(latencies), "unit": "ms"},
        "latency_tail_ms": {"value": 1000.0 * sorted(latencies)[tail_index], "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


def timed_run(args, ctx, build, rounds, speed) -> dict:
    spans: list[tuple[float, float]] = []
    labels: list[str] = []
    failures: list[dict] = []
    # set-up is sampled between rounds, so that its median spans the whole run
    per_slot = max(1, round(SETUP_SAMPLES / (rounds + 1)))
    speed.sample()
    setup = sample_setup(per_slot, speed)
    wall = 0.0
    for r in range(rounds):
        for op in build(args.seed, r, ctx):
            speed.sample()
            t0, t1 = execute(op, failures)
            spans.append((t0, t1))
            labels.append(op.label)
            wall += t1 - t0
        setup += sample_setup(per_slot, speed)
        if wall > SAFETY_FACTOR * args.seconds:
            break
    speed.sample()
    tail, metrics = time_metrics(spans, setup, speed)
    _, wall_metrics = time_metrics(spans, setup, Unscaled())
    return {
        "attempted": len(spans),
        "failures": failures,
        "rounds_done": r + 1,
        "ops": [{"op": label, "start": t0, "end": t1, "factor": speed.factor(t0, t1)}
                for label, (t0, t1) in zip(labels, spans)],
        "setup_spans": setup,
        "tail": tail,
        "speed": speed.summary(),
        "speed_samples": {"parts": list(speed.parts), "times": speed.times, "ratios": speed.ratios},
        "wall": wall_metrics,
        "metrics": metrics,
    }


class Unscaled:
    """A speedometer that reads 1 everywhere: plain wall times."""

    def factor(self, t0, t1):
        return 1.0


def traced_run(args, ctx, build, rounds) -> dict:
    """Half the rounds, each op once untraced and once traced, in alternating
    order; per-layer metrics come from the traced passes."""
    from tracing import METRICS, Tracer

    tracer = Tracer()
    failures: list[dict] = []
    plain = traced = 0.0
    attempted = 0
    flip = False
    for r in range(max(1, (rounds + 1) // 2)):
        for op in build(args.seed, r, ctx):
            for use_tracer in ((False, True) if flip else (True, False)):
                t0, t1 = execute(op, failures, tracer if use_tracer else None)
                elapsed = t1 - t0
                if use_tracer:
                    traced += elapsed
                else:
                    plain += elapsed
                attempted += 1
            flip = not flip
    metrics = tracer.summary()
    metrics["trace.overhead_frac"] = traced / plain - 1.0
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    absent = sorted(set(METRICS) - set(metrics))
    return {
        "attempted": attempted,
        "failures": failures,
        "absent": absent,
        "metrics": {name: {"value": value, "unit": METRICS[name][0]} for name, value in metrics.items()},
    }


def report(args, record) -> int:
    failures = record["failures"]
    attempted = record["attempted"]
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"env {json.dumps(record['env'], sort_keys=True)}")
    for name, m in sorted(record["metrics"].items()):
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if "tail" in record:
        t = record["tail"]
        print(f"latency_tail_ms is p{t['percentile']:.1f} of {t['samples']} ops ({t['beyond']} beyond it)")
        sp = record["speed"]
        print(f"times above are at reference speed; the machine ran at {sp['factor_min']:.3g}-{sp['factor_max']:.3g}x "
              f"the reference time (median {sp['factor_median']:.3g}, {sp['samples']} samples); wall clock:")
        for name, m in sorted(record["wall"].items()):
            print(f"  wall {name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {len(failures) / attempted:.6g} ({len(failures)} of {attempted} ops)")
    for f in failures:
        print(f"FAILED {f['op']}: {'; '.join(f['problems'])}")
    for name in record.get("absent", []):
        print(f"absent: {name} (its wrapped function no longer exists)")
    print(f"record written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process), then one table."""
    rows = []
    for name in ("analyze", "oracle", "certify"):
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(f"== {name}\n{proc.stdout}")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    print("\n== summary")
    for name, result in rows:
        line = ", ".join(f"{k} = {v['value']:.4g} {v['unit']}" for k, v in sorted(result["metrics"].items()))
        frac = result["failed"] / result["attempted"]
        if not args.trace:
            line += f", failed_frac = {frac:.4g} ratio"
        print(f"{name}: {line}")
    return 0 if all(result["correct"] for _, result in rows) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["analyze", "oracle", "certify", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--acceptance", action="store_true",
                        help="run tests/test_acceptance.py once and report its per-criterion times")
    args = parser.parse_args()
    if args.acceptance:
        from acceptance import run_acceptance

        return run_acceptance(ROOT, OUT)
    if args.workload is None:
        parser.error("--workload is required")
    lib = load_library()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, lib)


if __name__ == "__main__":
    sys.exit(main())
