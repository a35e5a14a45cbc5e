"""Run-to-run spread of the benchmark, and the committed baseline.

    python3 bench/spread.py --workload blowup-d7 --seeds 1-10 [--trace 1]
                            [--seconds 30] [--baseline bench/baseline.json]

Runs bench/run.py once per seed, one run at a time, and prints for every
metric the median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median over the runs. For traced runs it also reports whether
every .calls count repeated. With
--baseline the summary is merged into that JSON file under
workloads/<workload>/<end_to_end|per_layer>.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import run


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(results, trace):
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {
            "unit": first["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "n": len(values),
        }
        if trace and name in run.EXACT:
            out[name]["repeats_exactly"] = len(set(values)) == 1
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=list(run.WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline")
    args = parser.parse_args()
    results, records = [], os.path.join(run.WORK, "records.jsonl")
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, os.path.join(run.BENCH, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=200)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        vals = " ".join(f"{k}={v['value']:.4g}" for k, v in list(result["metrics"].items())[:6])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {vals}", flush=True)
    summary = summarize(results, args.trace)
    for name, s in summary.items():
        flag = "" if s.get("repeats_exactly", True) else "  COUNT DIFFERS"
        print(f"{name:45s} median {s['median']:.6g} {s['unit']:6s} spread {s['spread']:.4f}{flag}")
    if args.baseline:
        with open(records) as fh:
            provenance = json.loads(fh.readlines()[-1])["provenance"]
        try:
            with open(args.baseline) as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            doc = {"workloads": {}}
        doc["provenance"] = provenance
        entry = doc["workloads"].setdefault(args.workload, {})
        entry["per_layer" if args.trace else "end_to_end"] = {
            "seeds": args.seeds,
            "seconds": args.seconds,
            "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": summary,
        }
        with open(args.baseline, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
