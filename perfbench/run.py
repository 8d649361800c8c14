"""fermiskin benchmark: one workload, timed end to end or traced per module.

Run from the repository root:

    python3 perfbench/run.py --workload skin_zone --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): skin_zone, far_zone, cli. One process, one
client, closed loop: the same pass, built from --seed, runs again and again
until --seconds are spent, and at least MIN_PASSES times; BLAS/OpenMP threads
are capped at THREAD_CAP, and the process and its children run on one CPU.
A pass's time is the sum over its operations of each one's fastest
repetition: the machine this was built on switches between two speeds about
2x apart, often within a second, and the fastest repetition of a short
operation does not depend on how long it spent in the slow one. Because the
fastest speed itself drifts for minutes at a time, each operation's fastest
time is scaled by a reference computation timed right after it (Reference).
Set-up time is the median of SETUP_REPEATS fresh interpreters spread over the
run, each scaled the same way.

A run attempts one pass's operations, repeated; an operation that failed in
any pass counts as failed once, so `attempted` and `failed` depend only on
the seed.

--trace 0 prints every end-to-end metric of BENCHMARK.json; --trace 1 runs
untraced and traced passes in turn and prints every per-layer metric. The last
line of stdout is one JSON object {correct, attempted, failed, metrics}; the
line before it, starting "# meta", records the run: versions, nproc, thread
cap, kernel path, failures by kind. --tiny shrinks every workload to seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
# Times are scaled by the speed of a fixed reference computation, timed right
# after every operation; its nominal time is its fastest on the machine the
# baseline was recorded on. "numeric" stands in for the profile workloads'
# field points, "startup" for a fresh interpreter.
REFERENCES = {"numeric": 1.3e-4, "startup": 0.11}
STARTUP_REF_CODE = "import numpy"
# every operation is timed at least this often, however slow the machine runs
MIN_PASSES = 3
IMPORT_REPEATS = 3
PROBE_REPEATS = 5
# set-up ends when the package is imported and one field point is computed
SETUP_CODE = (
    "import fermiskin as f; "
    "f.field_ratio_rescaled(1e-5, f.params_for(f.get_material('na'), 1e-2, 1e-4))"
)


def _median(xs):
    return statistics.median(xs)


def setup_once(env) -> float:
    """Time from a fresh interpreter to the first field point."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True,
                   capture_output=True, timeout=120)
    return time.perf_counter() - t0


def _import_tree(stderr: str):
    """Parse `python -X importtime` output into (name, self_us, cum_us, children)."""
    stack = []  # (indent, node)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        head, cum_us, name = line.split("|")
        indent = len(name) - len(name.lstrip())
        node = (name.strip(), int(head.split(":")[1]), int(cum_us), [])
        while stack and stack[-1][0] > indent:
            node[3].insert(0, stack.pop()[1])
        stack.append((indent, node))
    return [node for _, node in stack]


def _package_ms(tree, pkg: str, *, self_only=False) -> float:
    """Cumulative ms of the outermost imports of pkg (or the sum of self
    times of all its modules with self_only)."""
    total = 0
    todo = list(tree)
    while todo:
        name, self_us, cum_us, children = todo.pop()
        if name == pkg or name.startswith(pkg + "."):
            if self_only:
                total += self_us
                todo.extend(children)
            else:
                total += cum_us
        else:
            todo.extend(children)
    return total * 1e-3


def import_ms(env, repeats: int) -> dict[str, float]:
    rows = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fermiskin"],
                              cwd=ROOT, env=env, check=True, capture_output=True,
                              text=True, timeout=120)
        tree = _import_tree(proc.stderr)
        rows.append({
            "import.numpy_ms": _package_ms(tree, "numpy"),
            "import.scipy_ms": _package_ms(tree, "scipy"),
            "import.fermiskin_self_ms": _package_ms(tree, "fermiskin", self_only=True),
        })
    return {k: _median([r[k] for r in rows]) for k in rows[0]}


def family_grid_ns_per_node(n: int, repeats: int) -> float:
    """Permittivity family over a fixed n-node grid spanning the series
    branch, the singular point and the far tail; median ns per node."""
    import numpy as np
    from fermiskin import _kernels

    qs = np.concatenate([
        np.geomspace(1e-6, 5e-3, n // 4),
        np.linspace(5e-3, 0.0995, n // 4),
        0.1 + np.geomspace(1e-6, 0.3, n // 4),
        np.linspace(0.5, 5.0, n - 3 * (n // 4)),
    ])
    _kernels.family_grid(qs, 0, 1e-2, 1e-4, 1)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        _kernels.family_grid(qs, 0, 1e-2, 1e-4, 1)
        times.append(time.perf_counter_ns() - t0)
    return _median(times) / qs.size


def _cycle(seconds: float, passes: list, min_rounds: int) -> list[list]:
    """Run the passes in turn until `seconds` have passed and at least
    min_rounds rounds are done. Returns [(wall_s, out), ...] per pass."""
    runs = [[] for _ in passes]
    start = time.perf_counter()
    while True:
        for fn, sink in zip(passes, runs):
            t0 = time.perf_counter()
            out = fn()
            sink.append((time.perf_counter() - t0, out))
        if time.perf_counter() - start >= seconds and len(runs[0]) >= min_rounds:
            return runs


def best_ops(tallies) -> list[float]:
    """Each operation's fastest time over passes that did the same operations."""
    assert len({len(t.op_s) for t in tallies}) == 1, "passes differ in their operations"
    return [min(ts) for ts in zip(*(t.op_s for t in tallies))]


def numeric_ref() -> float:
    """Complex log/exp on small numpy arrays, like one kernel batch of tens
    of panels; no fermiskin code."""
    import numpy as np

    z = np.exp(1j * np.linspace(0.0, 10.0, 512)) * np.linspace(1.0, 2.0, 512)
    t0 = time.perf_counter()
    for i in range(4):
        w = z * (1.0 + i * 1e-3)
        (np.log(w) * np.exp(-w.imag)).real.sum()
    return time.perf_counter() - t0


def startup_ref(env) -> float:
    """A fresh interpreter that imports numpy; no fermiskin code."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", STARTUP_REF_CODE], cwd=ROOT, env=env, check=True,
                   capture_output=True, timeout=120)
    return time.perf_counter() - t0


class Reference:
    """A reference computation timed right after every operation. The
    machine's fastest speed drifts by up to a third for minutes at a time,
    for a field point and a numpy loop alike, and for `python -m fermiskin`
    and `python -c "import numpy"` alike; an operation's fastest time over
    the fastest reference taken at the same moments does not."""

    def __init__(self, kind: str, once):
        self.kind, self.once = kind, once
        self.nominal = REFERENCES[kind]
        self.samples: list[float] = []

    def __call__(self):
        self.samples.append(self.once())

    def scaled_wall(self, tallies) -> float:
        """Sum over operations of each one's fastest time, at nominal speed."""
        best = best_ops(tallies)
        n = len(best)
        assert len(self.samples) == n * len(tallies)
        return sum(t * self.nominal / min(self.samples[i::n]) for i, t in enumerate(best))


class SetupSampler:
    """Set-up samples spread evenly over a run, each scaled by a startup
    reference taken right after it. Called between operations, it starts a
    fresh interpreter whenever the next sample is due."""

    def __init__(self, env, seconds: float, n: int):
        self.env, self.n, self.every = env, n, seconds / n
        self.due = time.perf_counter() + self.every / 2
        self.samples: list[float] = []
        self.nominal = REFERENCES["startup"]

    def once(self) -> float:
        setup = setup_once(self.env)
        return setup * self.nominal / startup_ref(self.env)

    def __call__(self):
        if len(self.samples) < self.n and time.perf_counter() >= self.due:
            self.samples.append(self.once())
            self.due += self.every

    def all(self) -> list[float]:
        while len(self.samples) < self.n:
            self.samples.append(self.once())
        return self.samples


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool):
    import numpy as np
    import scipy
    from fermiskin import _kernels

    import spans
    import workloads

    env = workloads.child_env(ROOT)
    rng = np.random.default_rng(seed)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if workload == "cli":
            inp = workloads.build_cli(rng, tiny, ROOT, workdir, env)

            def plain(between=None):
                return workloads.pass_cli(inp, between)

            def traced():
                forests = []
                tally = workloads.pass_cli(inp, traced_spans=forests)
                return tally, spans.concat(forests)

            # untimed: the field requests in process, to count evaluations
            with spans.counting_evals() as evals:
                count_points = workloads.cli_field_points(inp)
            count_tally = None
        else:
            build = {"skin_zone": workloads.build_skin_zone,
                     "far_zone": workloads.build_far_zone}[workload]
            run_pass = {"skin_zone": workloads.pass_skin_zone,
                        "far_zone": workloads.pass_far_zone}[workload]
            inputs = build(rng, tiny)
            tracer = spans.Tracer()

            def plain(between=None):
                return run_pass(inputs, between)

            def traced():
                with tracer.installed():
                    tally = run_pass(inputs)
                return tally, tracer.take()

            # untimed first pass: warms up, and counts evaluations (a
            # deterministic figure) without a wrapper in the timed passes
            with spans.counting_evals() as evals:
                count_tally = run_pass(inputs)
            count_points = count_tally.points
        count_evals = evals[0]

        if trace:
            # per-layer figures carry no bound: half the time is enough
            plain_runs, traced_runs = _cycle(seconds / 2, [plain, traced], 1)
            plain_tallies = [t for _, t in plain_runs]
            traced_tallies = [t for _, (t, _) in traced_runs]
            tallies = plain_tallies + traced_tallies
            per_pass = []
            for wall, (tally, sp) in traced_runs:
                m = spans.layer_metrics(sp)
                m["field.bar_uncovered"] = tally.bar_uncovered
                m["trace.self_s"] = spans.total_self_s(sp)
                m["trace.wall_s"] = wall
                per_pass.append(m)
            values = {k: _median([m[k] for m in per_pass]) for k in per_pass[0]}
            values["trace.overhead_frac"] = (
                sum(best_ops(traced_tallies)) / sum(best_ops(plain_tallies)) - 1.0)
            values["kernels.family_grid.ns_per_node"] = family_grid_ns_per_node(
                20_000 if tiny else 200_000, 1 if tiny else PROBE_REPEATS)
            values.update(import_ms(env, 1 if tiny else IMPORT_REPEATS))
            values["cli.command_ms_p50"] = (
                _median(best_ops(plain_tallies)) * 1e3 if workload == "cli" else 0.0)
            extra = {"traced_passes": [[m["trace.self_s"], m["trace.wall_s"]] for m in per_pass]}
        else:
            setups = SetupSampler(env, seconds, 1 if tiny else SETUP_REPEATS)
            ref = (Reference("startup", lambda: startup_ref(env)) if workload == "cli"
                   else Reference("numeric", numeric_ref))

            def between():
                setups()
                ref()

            runs = _cycle(seconds, [lambda: plain(between)], 1 if tiny else MIN_PASSES)[0]
            tallies = [t for _, t in runs]
            who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
            values = {
                "setup_s": _median(setups.all()),
                "wall_s": ref.scaled_wall(tallies),
                "evals_per_point": count_evals / count_points,
                "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            }
            extra = {"setup_samples": len(setups.samples),
                     "unscaled_wall_s": sum(best_ops(tallies)),
                     "unscaled_pass_s": [sum(t.op_s) for t in tallies],
                     "reference": ref.kind, "reference_min_s": min(ref.samples),
                     "reference_samples": len(ref.samples)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # every pass does the same operations, so a run attempts one pass's
    # worth; an operation that failed in any pass counts as failed once
    checked = tallies + ([count_tally] if count_tally is not None else [])
    assert len({t.attempted for t in checked}) == 1, "passes differ in their operations"
    attempted = checked[0].attempted
    failed = len(set().union(*(t.failed_ops for t in checked)))
    values["ok_frac"] = 1.0 - failed / attempted
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "tiny": tiny, "passes": len(tallies),
        "python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__,
        "thread_cap": THREAD_CAP,
        "have_numba": _kernels.HAVE_NUMBA, "jit_enabled": _kernels.jit_enabled(),
        "points_per_pass": count_points, "evals_per_pass": count_evals,
        "failures_per_pass": dict(sorted(tallies[0].failures.items())),
        **extra,
    }
    result = {
        "correct": all(t.wrong == 0 for t in checked),
        "attempted": attempted,
        "failed": failed,
    }
    return values, result, meta


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("skin_zone", "far_zone", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrink every input to run in seconds")
    args = ap.parse_args(argv)

    if not (SRC / "fermiskin" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no fermiskin sources under {SRC} (or no {spec_path.name}); run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # the cap must be in the environment before numpy loads its BLAS, and
    # child processes inherit it
    for var in THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)
    # one CPU for this process and its children, so that the reference
    # computation and the operations run where the other does
    nproc = len(os.sched_getaffinity(0))
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, str(SRC))

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    values, result, meta = measure(args.workload, args.seed, args.seconds,
                                   bool(args.trace), args.tiny)
    section = "per_layer" if args.trace else "end_to_end"
    result["metrics"] = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]
    }
    meta.update(nproc=nproc, pinned_cpu=cpu)
    print("# meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
