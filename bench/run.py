"""polarsolve benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` beside this directory, never from an installed copy.  The run
repeats its workload's seeded batch as many times as brings the timed
passes nearest to ``--seconds`` (at least one pass), checks every output
outside the timed region, and prints a summary followed, on the last
line, by one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
pass untraced and the same pass traced and reports the per-layer
metrics; the spans go to ``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_RUNS = 5

sys.path.insert(0, str(HERE))
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_package():
    """Import polarsolve from this checkout's src/, or exit 1."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import polarsolve
    except ImportError as exc:
        sys.exit(f"bench: cannot import polarsolve from {src}: {exc}")
    if Path(polarsolve.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"bench: polarsolve came from {polarsolve.__file__}, not {src}")
    return polarsolve


def machine_facts(api) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "polarsolve": api.__version__,
    }


def setup_times() -> tuple[float, float]:
    """Median CPU and wall seconds of a fresh `python -m polarsolve --help`,
    after one untimed run that leaves the bytecode cache warm."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "polarsolve", "--help"]

    def child_cpu() -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    cpu, wall = [], []
    for i in range(SETUP_RUNS + 1):
        c0, t0 = child_cpu(), time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True)
        if i:
            wall.append(time.perf_counter() - t0)
            cpu.append(child_cpu() - c0)
    return statistics.median(cpu), statistics.median(wall)


class Passes:
    """Timings and output fingerprints of a run's passes.  Only the first
    pass's outputs are checked; every later (or traced) pass must
    reproduce them exactly.  No pass's outputs are kept beyond that, so
    peak memory does not grow with the number of passes."""

    def __init__(self, wl, api, inputs) -> None:
        self.wl, self.api, self.inputs = wl, api, inputs
        self.cpu: list[float] = []
        self.wall: list[float] = []
        self.op_cpu_ms: list[float] = []
        self.op_wall_ms: list[float] = []
        self.reference: list[tuple] = []
        self.mismatches = 0

    def run(self, mark=lambda: None) -> list:
        c0, t0 = time.process_time(), time.perf_counter()
        ops = self.wl.run(self.api, self.inputs, mark)
        self.wall.append(time.perf_counter() - t0)
        self.cpu.append(time.process_time() - c0)
        fingerprints = [self.wl.fingerprint(op) for op in ops]
        if len(self.cpu) == 1:
            self.reference = fingerprints
        else:
            self.mismatches += abs(len(ops) - len(self.reference)) + sum(
                1 for a, b in zip(self.reference, fingerprints) if not same(a, b))
        self.op_cpu_ms.extend(op.cpu_s * 1e3 for op in ops)
        self.op_wall_ms.extend(op.wall_s * 1e3 for op in ops)
        return ops


def same(a: tuple, b: tuple) -> bool:
    return len(a) == len(b) and all(x == y or (x != x and y != y) for x, y in zip(a, b))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    api = load_package()
    wl = WORKLOADS[args.workload]
    facts = machine_facts(api)
    inputs = wl.inputs(api, args.seed)
    if not args.trace:
        setup_cpu, setup_wall = setup_times()

    passes = Passes(wl, api, inputs)
    ops = passes.run()
    # peak memory over one pass: later passes would add only allocator growth
    # that depends on how many passes the machine's speed allows
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t0 = time.perf_counter()
    verdicts = wl.check(api, inputs, ops, args.seed)
    check_s = time.perf_counter() - t0
    # per-check durations as run_checks reports them, for the per-layer metrics
    check_durations = {
        r.check_id: r.duration_s for op in ops if isinstance(op.result, list) for r in op.result
    } if args.workload == "certify" else {}
    del ops

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = passes.run(tracer.next_op)
        finally:
            tracer.uninstall()
        n_passes = 1
    else:
        # stop at the pass count whose total lies nearest to --seconds
        while sum(passes.wall) + statistics.fmean(passes.wall) / 2 < args.seconds:
            passes.run()
        n_passes = len(passes.wall)

    # attempted and failed count the seeded batch once.  Every pass repeats
    # the same ops and must reproduce their outputs, so counting each pass
    # would only scale the counts by how many passes the machine's speed
    # allows, and two runs of one seed would disagree on them.
    attempted = len(passes.reference)
    failed = sum(1 for v in verdicts if not v.passed)
    passed = attempted - failed
    correct = attempted > 0 and passes.mismatches == 0 and not any(v.wrong for v in verdicts)

    # ungated: per-op medians, wall-clock versions, and p90 where ten samples lie beyond it
    extra: dict = {}
    if args.trace:
        metrics = {k: metric(v, u) for k, (v, u) in layer_metrics(tracer).items()}
        for check_id in WORKLOADS["certify"].checks:
            metrics[f"verify.{check_id}.s"] = metric(check_durations.get(check_id, 0.0), "s")
        metrics["solver.warnings.single_peak"] = metric(
            sum(op.single_peak_warnings for op in traced), "count")
        metrics["trace.overhead_frac"] = metric(passes.cpu[1] / passes.cpu[0] - 1.0, "ratio")
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json.gz")
    else:
        metrics = {
            "setup_s": metric(setup_cpu, "s"),
            "cpu_s": metric(statistics.median(passes.cpu), "s"),
            "ops_per_cpu_s": metric(passed * n_passes / sum(passes.cpu), "1/s"),
            "certified_frac": metric(passed / attempted, "ratio"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
        extra = {
            "op_cpu_ms_p50": metric(statistics.median(passes.op_cpu_ms), "ms"),
            "setup_wall_s": metric(setup_wall, "s"),
            "wall_s": metric(statistics.median(passes.wall), "s"),
            "ops_per_s": metric(passed * n_passes / sum(passes.wall), "1/s"),
            "op_ms_p50": metric(statistics.median(passes.op_wall_ms), "ms"),
        }
        if attempted >= 100:
            extra["op_ms_p90"] = metric(statistics.quantiles(passes.op_wall_ms, n=10)[-1], "ms")
            extra["op_cpu_ms_p90"] = metric(
                statistics.quantiles(passes.op_cpu_ms, n=10)[-1], "ms")

    failures: dict[str, int] = {}
    for v in verdicts:
        if not v.passed:
            failures[v.reason] = failures.get(v.reason, 0) + 1
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "passes": n_passes,
        "pass_cpu_s": passes.cpu, "pass_wall_s": passes.wall, "check_s": check_s,
        "failures": failures, "nondeterministic_ops": passes.mismatches,
        "ungated_metrics": extra,
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"machine: {json.dumps(facts)}")
    print(f"workload: {args.workload} seed={args.seed} passes={n_passes} "
          f"check_s={check_s:.2f} attempted={attempted} failed={failed} correct={correct}")
    for reason, n in sorted(failures.items()):
        print(f"  failed: {n} x {reason}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, m in extra.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']} (not gated)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
