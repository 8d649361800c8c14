"""Span recording around fermiskin's public functions, from outside the package.

Tracer.installed() swaps the module attributes that callers look up at call
time (fermiskin.field.oscillatory_halfline, fermiskin._kernels.panel_batch,
...) for wrappers that record one span per call: name, start, end, parent
span and a small note (evaluations of a panel batch, branch and tail terms of
a quadrature, or the failure kind when the call raised). Spans stay in memory
until the caller reads them. Nothing under src/ knows about this module.

Run as a script it is the traced stand-in for `python -m fermiskin`:

    python3 perfbench/spans.py SPANS.json <fermiskin arguments...>

runs cli.main with every wrapper installed and writes the spans to SPANS.json.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

PANEL_NODES = 15  # Gauss-Kronrod 15(7): integrand evaluations per panel

# (module callers look the name up in, attribute, span name). The span name's
# first component is the layer the function belongs to.
TARGETS = [
    ("fermiskin._kernels", "panel_batch", "_kernels.panel_batch"),
    ("fermiskin._kernels", "family_grid", "_kernels.family_grid"),
    ("fermiskin.field", "oscillatory_halfline", "quadrature.oscillatory_halfline"),
    ("fermiskin.field", "check_dispersion_roots", "field.check_dispersion_roots"),
    ("fermiskin.field", "field_ratio_rescaled", "field.field_ratio_rescaled"),
    ("fermiskin.field", "field_ratio_direct", "field.field_ratio_direct"),
    ("fermiskin.field", "field_ratio_ibp", "field.field_ratio_ibp"),
    *(
        ("fermiskin.permittivity", f, f"permittivity.{f}")
        for f in ("eps_tr", "d_eps_dq", "d2_eps_dq2", "d2_eps_near_singularity",
                  "small_q_series", "kohn_scan")
    ),
    *(
        ("fermiskin.analysis", f, f"analysis.{f}")
        for f in ("envelope_fit", "wavelength_extract", "near_surface_fit", "crossover")
    ),
    ("fermiskin.cli", "main", "cli.main"),
]

# what a successful call leaves in its span's note
_NOTES = {
    "_kernels.panel_batch": lambda args, out: out[2],
    "_kernels.family_grid": lambda args, out: len(args[0]),
    "quadrature.oscillatory_halfline": lambda args, out: [out.branch, out.n_tail_terms],
}

# span record fields
NAME, START, END, PARENT, NOTE, ERROR = range(6)


def failure_kind(exc: BaseException) -> str:
    """Exception class plus the budget that ran out, or the first message line."""
    msg = str(exc)
    for kind in ("panel budget", "tail budget"):
        if kind in msg:
            return f"{type(exc).__name__}: {kind}"
    return f"{type(exc).__name__}: {msg.splitlines()[0] if msg else ''}"


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn):
        spans, open_, clock = self.spans, self._open, time.perf_counter_ns
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0, open_[-1] if open_ else -1, None, None]
            open_.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec[ERROR] = failure_kind(exc)
                raise
            finally:
                rec[END] = clock()
                open_.pop()
            if note is not None:
                rec[NOTE] = note(args, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for modname, attr, name in TARGETS:
                mod = importlib.import_module(modname)
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(name, orig))
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def take(self) -> list[list]:
        """Return the recorded spans and start an empty record."""
        spans, self.spans = self.spans, []
        self._open.clear()
        return spans


def self_ns(spans: list[list]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    child = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def concat(forests: list[list[list]]) -> list[list]:
    """Join span lists from separate processes into one, re-indexing parents."""
    out: list[list] = []
    for spans in forests:
        base = len(out)
        for s in spans:
            s = list(s)
            if s[PARENT] >= 0:
                s[PARENT] += base
            out.append(s)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _percentile(xs, p):
    return float(np.percentile(xs, p)) if xs else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures of one traced pass (times in s, ns or ms as named)."""
    own = self_ns(spans)

    def self_s(pred):
        return sum(own[i] for i, s in enumerate(spans) if pred(s[NAME])) * 1e-9

    pb = [i for i, s in enumerate(spans) if s[NAME] == "_kernels.panel_batch"]
    evals = sum(spans[i][NOTE] or 0 for i in pb)
    pb_self_ns = sum(own[i] for i in pb)

    quad = [i for i, s in enumerate(spans) if s[NAME] == "quadrature.oscillatory_halfline"]
    quad_evals = dict.fromkeys(quad, 0)
    for i in pb:
        p = spans[i][PARENT]
        if p in quad_evals:
            quad_evals[p] += spans[i][NOTE] or 0
    failed = [i for i in quad if spans[i][ERROR] is not None]
    done = [spans[i][NOTE] for i in quad if spans[i][ERROR] is None]

    points = [i for i, s in enumerate(spans) if s[NAME].startswith("field.field_ratio_")]
    point_ms = [(spans[i][END] - spans[i][START]) * 1e-6 for i in points]
    roots = [i for i, s in enumerate(spans) if s[NAME] == "field.check_dispersion_roots"]
    mains = [s[END] - s[START] for s in spans if s[NAME] == "cli.main"]

    return {
        "kernels.panel_batch.ns_per_eval": _ratio(pb_self_ns, evals),
        "kernels.panel_batch.self_s": pb_self_ns * 1e-9,
        "kernels.panel_batch.evals": evals,
        "kernels.panel_batch.calls": len(pb),
        "kernels.panel_batch.panels_per_call": _ratio(evals / PANEL_NODES, len(pb)),
        "quadrature.self_s": self_s(lambda n: n.startswith("quadrature.")),
        "quadrature.calls": len(quad),
        "quadrature.fail.panel_budget": sum(
            spans[i][ERROR].endswith(": panel budget") for i in failed),
        "quadrature.fail.tail_budget": sum(
            spans[i][ERROR].endswith(": tail budget") for i in failed),
        "quadrature.wasted_eval_frac": _ratio(sum(quad_evals[i] for i in failed), evals),
        "quadrature.branch.envelope": sum(d[0] == "envelope" for d in done),
        "quadrature.branch.oscillatory": sum(d[0] == "oscillatory" for d in done),
        "quadrature.evals_p50": _median(list(quad_evals.values())),
        "quadrature.tail_terms_p50": _median([d[1] for d in done]),
        "field.point_ms_p50": _percentile(point_ms, 50),
        "field.point_ms_p90": _percentile(point_ms, 90),
        "field.point_self_ms_p50": _median([own[i] for i in points]) * 1e-6,
        "field.check_dispersion_roots.self_s": sum(own[i] for i in roots) * 1e-9,
        "field.check_dispersion_roots.calls": len(roots),
        "permittivity.self_s": self_s(lambda n: n.startswith("permittivity.")),
        "analysis.envelope_fit.self_s": self_s(lambda n: n == "analysis.envelope_fit"),
        "analysis.wavelength_extract.self_s": self_s(lambda n: n == "analysis.wavelength_extract"),
        "analysis.near_surface_fit.self_s": self_s(lambda n: n == "analysis.near_surface_fit"),
        "analysis.crossover.self_s": self_s(lambda n: n == "analysis.crossover"),
        "cli.main_ms_p50": _median(mains) * 1e-6,
    }


@contextmanager
def counting_evals():
    """Count the integrand evaluations of every panel-batch call into the
    one-element list it yields; no spans are kept, so no memory grows."""
    from fermiskin import _kernels

    orig, count = _kernels.panel_batch, [0]

    def counted(*args, **kwargs):
        out = orig(*args, **kwargs)
        count[0] += out[2]
        return out

    _kernels.panel_batch = counted
    try:
        yield count
    finally:
        _kernels.panel_batch = orig


def total_self_s(spans: list[list]) -> float:
    return sum(self_ns(spans)) * 1e-9


def _traced_cli(out_path: str, argv: list[str]) -> int:
    from fermiskin import cli

    tracer = Tracer()
    try:
        with tracer.installed():
            code = cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1], sys.argv[2:]))
