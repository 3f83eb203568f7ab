"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workloads cells_ndim cli_cold --seeds 1-10 \
        [--seconds 25] [--trace 0] [--summary perfbench/out/summary.json]

For every workload and metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the quartile distance as a
share of the median, next to the bound BENCHMARK.json fixes.  With --summary
it also writes those figures, the per-group latencies and accuracy of every
run, and the environment to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summary", type=Path, default=None)
    args = parser.parse_args(argv)

    summary = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    for wl in args.workloads:
        results, records = [], []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(result)
            record = json.loads((HERE / "out" / f"{wl}-seed{seed}-trace{args.trace}.json").read_text())
            records.append(record)
            print(f"{wl} seed={seed} correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        stats = {}
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            stats[name] = {"median": med, "q1": q1, "q3": q3,
                           "iqr_frac": (q3 - q1) / med if med else 0.0,
                           "unit": results[0]["metrics"][name]["unit"]}
            bound = bounds.get(name)
            print(f"  {name:45s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"iqr/median {stats[name]['iqr_frac']:.3f}" + (f"  bound {bound}" if bound else ""))
        groups = {}
        for rec in records:
            for label, p50 in rec["latency"]["per_group_p50_ms"].items():
                groups.setdefault(label, []).append(p50)
        group_p50 = {label: statistics.median(v) for label, v in groups.items()}
        print("  median latency per group (ms): "
              + ", ".join(f"{label} {v:.1f}" for label, v in group_p50.items()))
        summary["workloads"][wl] = {
            "all_correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": stats,
            "group_p50_ms": group_p50,
            "runs": [{k: rec[k] for k in ("seed", "rounds", "elapsed_s", "latency", "accuracy",
                                          "accuracy_n4plus", "accuracy_by_group", "verdict_ok_frac")}
                     for rec in records],
            "environment": records[0]["environment"],
        }
    if args.summary:
        args.summary.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
