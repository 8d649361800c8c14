"""Self-test of the benchmark, in seconds, on the --tiny inputs.

    python3 perfbench/selftest.py

For every workload, untraced and traced: the last stdout line is the result
object, every metric of BENCHMARK.json is printed with its unit and a finite
value, and the traced self times of a pass sum to no more than its wall
time. Also: a fixed seed repeats evals_per_point, ok_frac, attempted and
failed exactly, and the command fails without printing a result where there
are no sources.
Exits non-zero, listing what failed.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
problems: list[str] = []


def check(ok: bool, what: str):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        problems.append(what)


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("# meta "))


def main() -> int:
    for w in (w["name"] for w in SPEC["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            tag = f"{w} --trace {trace}"
            proc = run(w, 1, trace)
            check(proc.returncode == 0, f"{tag}: exit code 0 ({proc.stderr.strip()[-300:]})")
            if proc.returncode != 0:
                continue
            result, meta = result_of(proc)
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result keys")
            check(result["correct"] is True, f"{tag}: correct")
            check(isinstance(result["attempted"], int) and result["attempted"] >= 1
                  and isinstance(result["failed"], int), f"{tag}: attempted/failed counts")
            got = result["metrics"]
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            check(set(got) == set(want), f"{tag}: every {section} metric printed")
            check(all(got[n].get("unit") == u and isinstance(got[n].get("value"), (int, float))
                      and math.isfinite(got[n]["value"]) for n, u in want.items() if n in got),
                  f"{tag}: each metric has its unit and a finite value")
            if trace:
                check(all(s <= wall for s, wall in meta["traced_passes"]),
                      f"{tag}: traced self times sum to no more than the pass wall time")

    a = result_of(run("skin_zone", 7, 0))[0]
    b = result_of(run("skin_zone", 7, 0))[0]
    check(all(a["metrics"][k]["value"] == b["metrics"][k]["value"]
              for k in ("evals_per_point", "ok_frac"))
          and (a["attempted"], a["failed"]) == (b["attempted"], b["failed"]),
          "fixed seed repeats evals_per_point, ok_frac, attempted and failed")

    bare = Path(tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("skin_zone", 1, 0, cwd=bare)
        check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
              "without sources: non-zero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)" if problems else "all checks passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
