"""The package names the benchmark under perfbench/ relies on.

perfbench/spans.py wraps every (module, attribute) pair of its TARGETS,
and perfbench/run.py prints _kernels.HAVE_NUMBA and jit_enabled() on its
meta line and times _kernels.family_grid(q, 0, 1e-2, 1e-4, 1) with
positional arguments. A change to the package API that breaks one of them
fails here, in the unit tests, and not only in perfbench/selftest.py.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from fermiskin import _kernels

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
