"""The benchmark tracer's hooks into the library.

`perfbench/tracing.py` patches conecert by (module, attribute) name and
skips a name it cannot find without a word, so a rename would drop that
layer's metrics from every traced run.  These tests read its table."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from conecert import reach
from conecert.closure import choose_basis, compute_C
from conecert.models import get_builtin


@pytest.fixture(scope="module")
def tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves(tracing):
    missing = [
        (module, attr)
        for _, targets, _ in tracing.LAYERS
        for module, attr in targets
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_tracer_counts_flow_steps_and_gramian(tracing):
    m = get_builtin("bhw")
    control = reach.ControlPath.uniform(0.5, [[0.3], [-0.2]])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.op("hooks", 0):
            flow = reach.integrate_flow(m, np.zeros(2), control, n_steps=40)
            reach.gramian(flow, m)
    finally:
        tracer.uninstall()
    assert tracer.counts["reach.flow.steps"] == len(flow.times) - 1
    assert tracer.stat("reach.flow", 0) == 1
    assert tracer.stat("reach.gramian", 0) == 1


def test_tracer_sees_every_certify_layer(tracing):
    m = get_builtin("langevin")
    basis = choose_basis(compute_C(m))
    options = reach.CertifyOptions(seed=0, n_steps=200, pieces=4)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.op("hooks", 0):
            cert = reach.certify(m, basis, [0.0, 0.0], [1.0, 0.0], 1.0, options)
    finally:
        tracer.uninstall()
    assert cert.verdict == "positive"
    assert tracer.stat("closure.twist", 0) >= 1
    assert tracer.stat("reach.k_rank", 0) == 1
    assert tracer.stat("reach.certify", 0) == 1
    assert tracer.stat("reach.synthesis", 0) >= 1
