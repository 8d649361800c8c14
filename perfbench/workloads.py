"""Inputs, passes and correctness checks of the three benchmark workloads.

A workload is built once from its seed (`build_*`) and then run as a pass any
number of times; every pass of one build does exactly the same work: field
profiles (one route over one set of depths) on skin_zone and far_zone, one
`python -m fermiskin` command per golden payload on cli. Every operation is
checked: each field point, fit, frozen reference and command. An operation
fails when it raises, exits non-zero or fails its check. Every operation is
also timed on its own, so that a run can take each one's fastest repetition.

Failures are of two sorts. Two are known defects of the program: a point of a
far_zone figure curve that exhausts its quadrature budget, and an ibp error
bar that does not cover the gap to the rescaled route. They are failed
operations, counted and reported, but the values that were produced are
right. Any other failure, a budget exhausted anywhere else included, is
wrong and makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from fermiskin import analysis, cli, field
from fermiskin.constants import SPEED_OF_LIGHT
from fermiskin.materials import get_material, params_for
from fermiskin.quadrature import QuadratureError

from spans import failure_kind

# Frozen cross-route references (tests/test_field.py): Na, Omega = 1e-2,
# eps = 1e-4, from an adaptive QAWO evaluation; absolute tolerance 1e-14.
QAWO_REFS = {
    1e-5: -1.5884504680885026e-07 - 2.1855541411803967e-09j,
    3e-5: -4.2630945824250907e-10 + 3.0286961928590405e-10j,
    1e-4: 1.4569133017952493e-11 - 9.650148443586974e-12j,
}
QAWO_TOL = 1e-14

# Frozen crossover depths in micrometres (tests/test_analysis.py); rel 1e-9.
CROSSOVER_UM = {
    ("na", 1e-2): 0.468223647679,
    ("na", 1e-1): 0.791951887308,
    ("au", 1e-2): 0.285087812881,
    ("au", 1e-1): 0.498924186989,
    ("al", 1e-2): 0.142042939147,
    ("al", 1e-1): 0.259253785093,
}

ROUTE_REL_TOL = 1e-6  # direct vs rescaled
DECAY_REL_TOL = 0.15  # near-surface slope vs omega_p / c
SLOPE_TOL = 0.15  # far-zone envelope exponent vs -2
WAVELENGTH_REL_TOL = 0.02  # far-zone wavelength vs 2 pi v_F / (Omega omega_p)
GOLDEN_REL_TOL = 1e-9  # payloads pinned to another kernel path

# skin_zone: every route at depths u = Omega omega_p x / v_F in [0.01, 100]
SKIN_MATERIALS = ("na", "au", "al")
SKIN_OMEGA, SKIN_EPS = 1e-2, 1e-4
SKIN_LOG10_U = (-2.0, 2.0)

# far_zone: the collisionless depth ranges of figures 2-4, as
# (label, material, Omega, x_lo, x_hi, grid points); copied here so the
# benchmark inputs stay fixed whatever the figure recipes become
FAR_CURVES = [
    *((f"fig2-{m}", m, 1e-4, 2e-5, 2e-3, 400) for m in ("na", "au", "al")),
    *((f"fig3-{m}", m, 1e-3, 9e-5, 3e-3, 2000) for m in ("na", "au", "al")),
    *((f"fig4-{om:g}", "al", om, 1.5e-3, 1.8e-3, 2000) for om in (1e-4, 1e-3, 1e-2)),
]
# the acceptance far-zone profile: Na, Omega = 2e-3, eps = 1e-5, u in [4.6, 50.4]
ACCEPT_OMEGA, ACCEPT_EPS, ACCEPT_U, ACCEPT_N = 2e-3, 1e-5, (4.6, 50.4), 100
ACCEPT_WINDOW_U = (5.0, 50.0)

# cli: every golden payload of tests/test_cli.py, as
# (golden file, argv, sidecar golden or None); figures write to a file
CLI_CASES = [
    ("materials_all.csv", ["materials"], None),
    ("materials_na.json", ["materials", "--material", "na", "--format", "json"], None),
    ("epsilon_grid.csv",
     ["epsilon", "--Omega", "0.1", "--eps", "0.01", "--grid", "0.03:0.2:8"], None),
    ("epsilon_single.csv", ["epsilon", "--Omega", "0.1", "--eps", "0", "--q", "0.05"], None),
    ("kohn_scan.csv",
     ["kohn-scan", "--Omega", "0.08", "--eps", "1e-4", "--grid", "0.02:0.2:500"], None),
    ("asymptotic_coef.csv", ["asymptotic", "--Omega", "1e-2", "--material", "na"], None),
    ("asymptotic_profile.csv",
     ["asymptotic", "--Omega", "1e-2", "--material", "na",
      "--grid", "1e-4:3e-4:5", "--normalization", "per_E0"], None),
    ("crossover_na.csv", ["crossover", "--Omega", "1e-2"], None),
    ("crossover_na.json", ["crossover", "--Omega", "1e-2", "--format", "json"], None),
    ("field_rescaled.csv",
     ["field", "--Omega", "0.01", "--eps", "1e-4", "--grid", "1e-5:3e-5:3"], None),
    ("field_ibp.json",
     ["field", "--Omega", "0.01", "--eps", "1e-4", "--grid", "2e-5:4e-5:2",
      "--method", "ibp", "--format", "json"], None),
    *((f"fig{n}.csv", ["figures", "--fig", str(n)],
       f"fig{n}_meta.json" if n in (5, 6) else None) for n in range(1, 7)),
]
# payloads that go through the integration kernels match the goldens to 1e-9
# relative; the others byte for byte
CLI_PATH_DEPENDENT = {"field_rescaled.csv", "field_ibp.json", "fig1.csv"}
CLI_TINY = {"materials_all.csv", "field_rescaled.csv", "fig1.csv", "fig5.csv"}


# failures that are known defects of the program rather than wrong values
BAR_UNCOVERED = "check: ibp gap exceeds error bars"
BUDGET_EXHAUSTED = tuple(f"{QuadratureError.__name__}: {k} budget" for k in ("panel", "tail"))


@dataclass
class Tally:
    """Operations of one pass. `between` runs after each timed operation."""

    between: Callable[[], None] | None = None
    op_s: list = dataclass_field(default_factory=list)  # latency of each timed operation
    attempted: int = 0  # operations: field points, fits, reference checks, commands
    points: int = 0  # field points attempted (the evals_per_point base)
    wrong: int = 0  # failed operations that are not known defects
    failures: Counter = dataclass_field(default_factory=Counter)
    failed_ops: set = dataclass_field(default_factory=set)  # their places in the pass

    def timed(self, t0: float):
        """Close the operation that started at perf_counter() == t0."""
        self.op_s.append(time.perf_counter() - t0)
        if self.between is not None:
            self.between()

    def record(self, failure: str | None, where: str = "", budget_defect: bool = False):
        """Count one operation; a failure is keyed by its label and place.
        budget_defect: an exhausted quadrature budget is a known defect here."""
        self.attempted += 1
        if failure is None:
            return
        self.failed_ops.add(self.attempted)
        self.failures[f"{failure} [{where}]" if where else failure] += 1
        known = failure == BAR_UNCOVERED or (budget_defect and failure in BUDGET_EXHAUSTED)
        self.wrong += not known

    @property
    def bar_uncovered(self) -> int:
        return sum(n for f, n in self.failures.items() if f.startswith(BAR_UNCOVERED))


def _stratified(rng, n: int) -> np.ndarray:
    """n sorted draws in [0, 1), one uniform draw per stratum of width 1/n."""
    return (np.arange(n) + rng.random(n)) / n


def _systematic(rng, n: int) -> np.ndarray:
    """n evenly spaced points in [0, 1), shifted together by a draw from the
    middle fifth of a stratum: every seed gives other points, and nearly the
    same cost, which far-zone failures would otherwise make jump."""
    return (np.arange(n) + 0.4 + 0.2 * rng.random()) / n


def _profile(tally: Tally, fn, xs, params) -> list:
    """fn at every depth of xs. Returns per depth the FieldPointInfo, or the
    failure label of a point that raised."""
    out = []
    for x in xs:
        t0 = time.perf_counter()
        try:
            out.append(fn(float(x), params, full_output=True)[1])
        except Exception as exc:  # the point fails; the profile goes on
            out.append(failure_kind(exc))
        tally.timed(t0)
    tally.points += len(out)
    return out


def _failure(info, check=None) -> str | None:
    """Failure label of one computed point, or None when it passes."""
    if isinstance(info, str):
        return info
    if not (math.isfinite(info.value.real) and math.isfinite(info.value.imag)
            and math.isfinite(info.abs_err_est) and info.abs_err_est >= 0.0):
        return "check: non-finite value"
    return check(info) if check else None


def _check(tally: Tally, where: str, fn):
    """One analysis operation; fn returns None or a failure label."""
    t0 = time.perf_counter()
    try:
        bad = fn()
    except Exception as exc:
        bad = failure_kind(exc)
    tally.timed(t0)
    tally.record(bad, where)


def _crossover_refs(tally: Tally):
    for (name, Omega), um in CROSSOVER_UM.items():
        def check(name=name, Omega=Omega, um=um):
            got = analysis.crossover(Omega, get_material(name)).x_star * 1e4
            return None if abs(got - um) <= 1e-9 * um else "check: crossover depth"
        _check(tally, f"crossover {name} {Omega:g}", check)


# ---------------------------------------------------------------------------
# skin_zone
# ---------------------------------------------------------------------------


def build_skin_zone(rng, tiny: bool):
    n = 28 if tiny else 240
    out = []
    for name in SKIN_MATERIALS:
        mat = get_material(name)
        params = params_for(mat, SKIN_OMEGA, SKIN_EPS)
        L = mat.v_F / (SKIN_OMEGA * mat.omega_p)  # depth of u = 1
        lo, hi = SKIN_LOG10_U
        xs = L * 10.0 ** (lo + (hi - lo) * _stratified(rng, n))
        if name == "na":
            xs = np.union1d(xs, list(QAWO_REFS))
        out.append((params, np.sort(xs)))
    return out


def _qawo(x):
    ref = QAWO_REFS.get(float(x))
    if ref is None:
        return None
    return lambda info: None if abs(info.value - ref) <= QAWO_TOL else "check: QAWO reference"


def _route_gap(info, ref):
    if abs(info.value - ref.value) > ROUTE_REL_TOL * max(abs(info.value), abs(ref.value)):
        return "check: direct vs rescaled"
    return None


def _bar_gap(info, ref):
    if abs(info.value - ref.value) > info.abs_err_est + ref.abs_err_est:
        return BAR_UNCOVERED
    return None


def pass_skin_zone(inputs, between=None) -> Tally:
    """Per material, one profile per route; then every point is checked."""
    tally = Tally(between)
    for params, xs in inputs:
        name = params.material.name
        rescaled = _profile(tally, field.field_ratio_rescaled, xs, params)
        direct = _profile(tally, field.field_ratio_direct, xs, params)
        ibp = _profile(tally, field.field_ratio_ibp, xs, params)
        values = np.full(xs.size, np.nan + 0j)
        for i, x in enumerate(xs):
            qawo = _qawo(x)
            bad = _failure(rescaled[i], qawo)
            tally.record(bad, f"{name} rescaled")
            ref = None if bad else rescaled[i]
            if ref is not None:
                values[i] = ref.value
            tally.record(_failure(direct[i], lambda info: (qawo and qawo(info)) or (
                ref and _route_gap(info, ref))), f"{name} direct")
            tally.record(_failure(ibp[i], lambda info: ref and _bar_gap(info, ref)),
                         f"{name} ibp")

        delta = params.delta
        k = params.material.omega_p / SPEED_OF_LIGHT

        def decay(xs=xs, values=values, delta=delta, k=k):
            fit = analysis.near_surface_fit((xs, values), (0.1 * delta, delta), delta=delta)
            return None if abs(fit.slope + k) <= DECAY_REL_TOL * k else "check: near-surface slope"

        _check(tally, f"near_surface_fit {name}", decay)
    _crossover_refs(tally)
    return tally


# ---------------------------------------------------------------------------
# far_zone
# ---------------------------------------------------------------------------


def build_far_zone(rng, tiny: bool):
    k = 2 if tiny else 16
    out = []
    for label, name, Omega, lo, hi, n in FAR_CURVES:
        grid = np.linspace(lo, hi, n)
        idx = np.floor(_systematic(rng, k) * n).astype(int)
        out.append((label, params_for(get_material(name), Omega, 0.0), grid[idx]))
    na = get_material("na")
    L = na.v_F / (ACCEPT_OMEGA * na.omega_p)
    accept = (params_for(na, ACCEPT_OMEGA, ACCEPT_EPS), L,
              L * np.linspace(*ACCEPT_U, ACCEPT_N))
    return out, accept


def pass_far_zone(inputs, between=None) -> Tally:
    """One profile per figure curve, then the acceptance profile and its fits."""
    curves, (params, L, xs) = inputs
    tally = Tally(between)
    for label, p, cxs in curves:
        for info in _profile(tally, field.field_ratio_rescaled, cxs, p):
            tally.record(_failure(info), label, budget_defect=True)

    values = np.full(xs.size, np.nan + 0j)
    for i, info in enumerate(_profile(tally, field.field_ratio_rescaled, xs, params)):
        bad = _failure(info)
        tally.record(bad, "acceptance")
        if bad is None:
            values[i] = info.value
    window = (ACCEPT_WINDOW_U[0] * L, ACCEPT_WINDOW_U[1] * L)

    def envelope():
        fit = analysis.envelope_fit((xs, values), window=window)
        return None if abs(fit.slope + 2.0) <= SLOPE_TOL else "check: envelope slope"

    def wavelength():
        wl = analysis.wavelength_extract((xs, values), window=window)
        expected = 2.0 * math.pi * L
        ok = abs(wl.wavelength - expected) <= WAVELENGTH_REL_TOL * expected
        return None if ok else "check: wavelength"

    _check(tally, "envelope_fit", envelope)
    _check(tally, "wavelength_extract", wavelength)
    _crossover_refs(tally)
    return tally


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def _strip_stamp(name: str, text: str) -> str:
    """Drop the run-specific timestamp, as tests/test_cli.py does."""
    if name.endswith(".json"):
        doc = json.loads(text)
        if doc.pop("generated", None) is None:
            raise ValueError("no generated stamp")
        return json.dumps(doc, indent=2) + "\n"
    first, _, rest = text.partition("\n")
    if not first.startswith("# generated: "):
        raise ValueError("no generated stamp")
    return rest


# the capture group keeps separators in the token list, so they compare exactly
_TOKEN_SEP = re.compile(r'([\s,\[\]{}:"]+)')


def _numbers_close(a: str, b: str) -> bool:
    """Token-wise comparison: numbers to GOLDEN_REL_TOL, everything else exact."""
    ta, tb = _TOKEN_SEP.split(a), _TOKEN_SEP.split(b)
    if len(ta) != len(tb):
        return False
    for x, y in zip(ta, tb):
        if x == y:
            continue
        try:
            fx, fy = float(x), float(y)
        except ValueError:
            return False
        if abs(fx - fy) > GOLDEN_REL_TOL * max(abs(fx), abs(fy)):
            return False
    return True


def _payload_ok(name: str, got: str, golden: dict) -> bool:
    body = _strip_stamp(name, got)
    if name in CLI_PATH_DEPENDENT:
        return _numbers_close(body, golden[name])
    return body == golden[name]


@dataclass
class CliInputs:
    root: Path
    workdir: Path
    env: dict
    cases: list
    golden: dict


def build_cli(rng, tiny: bool, root: Path, workdir: Path, env: dict) -> CliInputs:
    cases = [c for c in CLI_CASES if not tiny or c[0] in CLI_TINY]
    cases = [cases[i] for i in rng.permutation(len(cases))]
    gdir = root / "tests" / "golden"
    golden = {}
    for name, _, side in cases:
        for g in filter(None, (name, side)):
            golden[g] = (gdir / g).read_text(encoding="utf-8")
    return CliInputs(root, workdir, env, cases, golden)


def _cli_argv(inp: CliInputs, name: str, argv: list, tag: str) -> list:
    if argv[0] == "figures":
        return argv + ["--output", str(inp.workdir / f"{tag}-{name}")]
    return argv


def _check_cli(inp: CliInputs, name, side, argv, proc) -> str | None:
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {(proc.stderr.strip().splitlines() or [''])[-1]}"
    if argv[0] == "figures":
        out = Path(argv[-1])
        if not proc.stdout.startswith("wrote "):
            return "check: figures stdout"
        if not _payload_ok(name, out.read_text(encoding="utf-8"), inp.golden):
            return f"check: golden {name}"
        if side is not None:
            sidecar = out.with_suffix(".json")
            if not _payload_ok(side, sidecar.read_text(encoding="utf-8"), inp.golden):
                return f"check: golden {side}"
        return None
    if proc.stderr:
        return "check: stderr not empty"
    return None if _payload_ok(name, proc.stdout, inp.golden) else f"check: golden {name}"


def pass_cli(inp: CliInputs, between=None, traced_spans: list | None = None) -> Tally:
    """One `python -m fermiskin` call per case. With traced_spans, each call
    runs under spans.py instead and its spans are appended to the list."""
    tally = Tally(between)
    for n, (name, argv, side) in enumerate(inp.cases):
        argv = _cli_argv(inp, name, argv, "t" if traced_spans is not None else "u")
        if traced_spans is None:
            cmd = [sys.executable, "-m", "fermiskin", *argv]
        else:
            spans_path = inp.workdir / f"spans-{n}.json"
            cmd = [sys.executable, str(Path(__file__).with_name("spans.py")),
                   str(spans_path), *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=inp.root, env=inp.env, capture_output=True,
                              text=True, timeout=120)
        tally.timed(t0)
        if traced_spans is not None and spans_path.exists():
            traced_spans.append(json.loads(spans_path.read_text(encoding="utf-8")))
        try:
            bad = _check_cli(inp, name, side, argv, proc)
        except (OSError, ValueError) as exc:
            bad = f"check: {failure_kind(exc)}"
        tally.record(bad, name)
    return tally


def cli_field_points(inp: CliInputs) -> int:
    """Run the field requests in process; return the number of field points
    they ask for."""
    points = 0
    for name, argv, _ in inp.cases:
        if argv[0] != "field":
            continue
        points += int(argv[argv.index("--grid") + 1].split(":")[2])
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
    return points


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
