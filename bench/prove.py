"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/prove.py --workloads analyze-3q,cli --seeds 1-5
    python3 bench/prove.py --seeds 1-10 --write bench/baseline.json --commit <sha>

For every workload and end-to-end metric it prints the median of the
runs, their quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median beside the bound in BENCHMARK.json.  Runs are
sequential, one child process at a time.  With --write it stores the
figures, the machine facts and the pool digests as the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str], float]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1], wall


def machine_facts() -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--write", metavar="PATH", help="store the figures as the baseline")
    parser.add_argument("--commit", default="", help="commit the figures were measured at")
    args = parser.parse_args()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    seeds = parse_seeds(args.seeds)
    out = {"workloads": {}}
    for workload in args.workloads.split(","):
        runs, walls, digests, failed = [], [], {}, 0
        for seed in seeds:
            result, lines, wall = run_once(workload, seed, args.seconds, args.trace)
            runs.append({m: v["value"] for m, v in result["metrics"].items()})
            walls.append(wall)
            failed += result["failed"]
            digests[seed] = next(line.rsplit(" ", 1)[1] for line in lines if line.startswith("pool:"))
            print(f"{workload} seed {seed}: wall {wall:.1f} s, failed {result['failed']}, "
                  + ", ".join(f"{m} {v:.6g}" for m, v in runs[-1].items()), flush=True)
        summary = {}
        for metric in runs[0]:
            values = [r[metric] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            summary[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
            bound = bounds.get(metric)
            flag = "" if bound is None else (
                "  ok" if spread < bound / 3 else "  within bound" if spread < bound else "  OVER BOUND")
            print(f"  {metric:32s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:.4f}"
                  + ("" if bound is None else f"  bound {bound}") + flag)
        print(f"  wall per run: max {max(walls):.1f} s, median {statistics.median(walls):.1f} s; "
              f"failed ops {failed}", flush=True)
        out["workloads"][workload] = {"metrics": summary, "pool_sha256": digests,
                                      "failed_ops": failed, "wall_s_max": max(walls)}
    if args.write:
        baseline_path = ROOT / args.write
        baseline = json.loads(baseline_path.read_text()) if baseline_path.exists() else {}
        baseline.update({"commit": args.commit, "machine": machine_facts()})
        key = "per_layer_runs" if args.trace else "end_to_end_runs"
        runs = baseline.setdefault(key, {"run_seconds": args.seconds, "seeds": seeds, "workloads": {}})
        runs.update({"run_seconds": args.seconds, "seeds": seeds})
        runs["workloads"].update(out["workloads"])
        baseline_path.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
