"""The package names the benchmark under perfbench/ relies on.

perfbench/spans.py wraps every (module, attribute) pair of its TARGETS,
notes a quadrature's `branch` and `n_tail_terms`, and counts evaluations as
item [2] of what _kernels.panel_batch returns; perfbench/run.py prints
_kernels.HAVE_NUMBA and jit_enabled() on its meta line and times
_kernels.family_grid(q, 0, 1e-2, 1e-4, 1) with positional arguments. A
change to the package API that breaks one of them fails here, in the unit
tests, and not only in perfbench/selftest.py. If the engine stopped routing
the kernel through panel_batch, evals_per_point would read 0.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from fermiskin import _kernels, quadrature
from fermiskin.materials import get_material, params_for

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _span_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize(
    "module,attr,span", [pytest.param(*t, id=t[2]) for t in _span_targets()]
)
def test_span_target_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr))


def test_meta_line_names_exist():
    assert isinstance(_kernels.HAVE_NUMBA, bool)
    assert isinstance(_kernels.jit_enabled(), bool)


def test_family_grid_positional_call():
    # the benchmark's grid: series branch, the singular shell, far tail
    q = np.concatenate([
        np.geomspace(1e-6, 5e-3, 25),
        np.linspace(5e-3, 0.0995, 25),
        0.1 + np.geomspace(1e-6, 0.3, 25),
        np.linspace(0.5, 5.0, 25),
    ])
    plus = _kernels.family_grid(q, 0, 1e-2, 1e-4, 1)
    assert plus.shape == q.shape
    assert np.isfinite(plus).all()
    # im_sign = -1 is the mirror convention exp(+i omega t): the conjugate
    assert np.array_equal(_kernels.family_grid(q, 0, 1e-2, 1e-4, -1), np.conj(plus))


def test_quadrature_result_carries_the_trace_note():
    p = params_for(get_material("na"), 1e-2, 1e-4)
    res = quadrature.oscillatory_halfline(100.0, 0, p.Omega, p.eps, p.b, 1.0)
    assert isinstance(res.branch, str)
    assert isinstance(res.n_tail_terms, int)


def test_panel_batch_returns_its_evaluation_count(monkeypatch):
    nodes = [0]
    real = _kernels.envelope_grid

    def counted(s, *args):
        nodes[0] += len(s)
        return real(s, *args)

    monkeypatch.setattr(_kernels, "envelope_grid", counted)
    out = _kernels.panel_batch(np.array([0.0, 0.5]), np.array([0.5, 2.0]), 0, 1e-2, 1e-4,
                               2.5, 1.0)
    assert isinstance(out, tuple) and len(out) == 3
    assert out[2] == nodes[0] > 0


def test_evaluation_counter_sees_the_mesh_once(monkeypatch):
    # a wrapper on panel_batch, as perfbench/spans.py installs it, counts
    # the mesh's evaluations on a cold cache and none on a warm one
    p = params_for(get_material("al"), 1e-2, 0.0)
    count = [0]
    real = _kernels.panel_batch

    def counted(*args):
        out = real(*args)
        count[0] += out[2]
        return out

    monkeypatch.setattr(_kernels, "panel_batch", counted)
    cold = quadrature.oscillatory_halfline(1e4, 0, p.Omega, p.eps, p.b, 1.0)
    assert count[0] == cold.n_evals > 0
    count[0] = 0
    quadrature.oscillatory_halfline(2e4, 0, p.Omega, p.eps, p.b, 1.0)
    assert count[0] == 0
