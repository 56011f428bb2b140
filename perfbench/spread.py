#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command from BENCHMARK.json once per seed and workload, then
prints, per metric, the median of the runs and the distance between the
first and third quartiles as a share of the median (the steadiness test
the benchmark is held to), next to the metric's bound.

    python3 perfbench/spread.py                      # 10 seeds, every workload
    python3 perfbench/spread.py --workloads lang_infer --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seconds 5          # shorter runs while tuning

Run it from the repository root. Each run's result line is appended to
--log (default: none) as JSON with its workload and seed.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return result


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="*", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--log", default=None)
    args = parser.parse_args()

    metrics = bench["end_to_end"]
    worst = 0.0
    for workload in args.workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in args.seeds:
            result = run_once(bench["command"], workload, seed, args.seconds)
            if args.log:
                with open(args.log, "a") as log:
                    log.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{m['name']}={values[m['name']][-1]:.6g}" for m in metrics), flush=True)
        for m in metrics:
            vs = values[m["name"]]
            med = statistics.median(vs)
            if len(vs) >= 2 and med != 0:
                q = statistics.quantiles(vs, n=4)
                spread = (q[2] - q[0]) / abs(med)
            else:
                spread = 0.0
            bound = m["bound"]
            worst = max(worst, spread / bound)
            verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print(f"  {workload:<13} {m['name']:<34} median {med:<14.6g} "
                  f"spread {spread:7.4f}  bound {bound}  {verdict}")
    print(f"worst spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
