"""Run-to-run spread of the benchmark, and the recorded baseline.

    python3 perfbench/spread.py --workload far_zone --seeds 1-10 [--trace 1]
        [--out perfbench/baseline/far_zone.json]

Runs perfbench/run.py once per seed, for BENCHMARK.json's run_seconds, and
prints, per metric, the median of the runs and the distance
between their first and third quartiles as a share of the median
(statistics.quantiles(values, n=4)), next to a third of the metric's bound.
With --out, writes the runs, medians, spreads and the first run's metadata.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    section = "per_layer" if args.trace else "end_to_end"
    runs = []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900,
                              check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        meta = json.loads(lines[-2].removeprefix("# meta "))
        runs.append({"seed": seed, "meta": meta, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    summary = {}
    for m in spec[section]:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                              "unit": m["unit"]}
        limit = f"  (bound/3 {m['bound'] / 3:.4f})" if "bound" in m else ""
        print(f"{m['name']:40s} median {med:12.6g} {m['unit']:6s} spread {spread:.4f}{limit}")

    if args.out:
        doc = {"workload": args.workload, "trace": args.trace, "seconds": seconds,
               "meta": runs[0]["meta"], "summary": summary,
               "runs": [{k: r[k] for k in ("seed", "correct", "attempted", "failed", "metrics")}
                        | {"failures_per_pass": r["meta"]["failures_per_pass"]} for r in runs]}
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
