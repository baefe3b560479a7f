"""Run every workload over several seeds and summarise the spread.

    python3 bench/collect.py --seeds 1-10 --out bench/baseline.json

Runs ``bench/run.py`` once per (seed, workload), with the workloads and
``run_seconds`` of BENCHMARK.json, seed-major so that a slow
spell of the machine spreads over all workloads, then once with
``--trace 1`` per workload at the first seed.  For each end-to-end metric
it reports the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread, the distance between the quartiles as a share of the median,
and it writes all of it, with every run's result line, to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", seconds, "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    machine = json.loads(lines[0].partition("machine: ")[2])
    return {"seed": seed, "machine": machine, **json.loads(lines[-1])}


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    seconds = str(spec["run_seconds"])
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in args.seeds:
        for w in workloads:
            res = run(w, seed, seconds, 0)
            runs[w].append(res)
            print(f"{w} seed={seed} correct={res['correct']} failed={res['failed']}/"
                  f"{res['attempted']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)

    summary: dict = {"seconds": seconds, "seeds": args.seeds,
                     "machine": runs[workloads[0]][0]["machine"], "workloads": {}}
    for w in workloads:
        end_to_end = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs[w]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            end_to_end[name] = {"unit": runs[w][0]["metrics"][name]["unit"], "median": med,
                                "q1": q1, "q3": q3, "spread": spread, "bound": bound}
            print(f"{w:15s} {name:15s} median={med:<11.5g} spread={spread:.3f} "
                  f"(bound {bound}){'' if spread <= bound / 3 else '  above bound/3'}")
        traced = run(w, args.seeds[0], seconds, 1)
        summary["workloads"][w] = {
            "end_to_end": end_to_end,
            "runs": runs[w],
            "per_layer": {"seed": args.seeds[0], **traced},
        }
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
