"""The benchmark's per-layer tracer (bench/layers.py) still fits the package.

The tracer wraps package functions by name from outside; a rename or a
removed binding would silently zero a span instead of failing, so these
checks load it by path and run a few commands through it.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from qgeodesic import GeodesicState, cli, geometry

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"

COMMANDS = [
    ["geodesic-check", "4"],
    ["compare", "15", "2", "--seed", "1"],
    ["factor", "15", "--method", "shor", "--seed", "1"],
]

# The N = 4 search state on its two class coordinates, at phi = theta = pi/6.
# No command calls integrate_geodesic, so the tests call it directly.
START = GeodesicState(np.array([0.5, np.sqrt(0.75)]), np.array([np.sqrt(0.75), -0.5]),
                      np.pi / 6)


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(layers) -> dict:
    """Identity of every attribute of every loaded qgeodesic module and of
    each validator's ``__post_init__``."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "qgeodesic" or name.startswith("qgeodesic."):
            for attr, value in vars(module).items():
                found[name, attr] = id(value)
    for layer, cls_name in layers.VALIDATORS.items():
        cls = getattr(importlib.import_module(f"qgeodesic.{layer}"), cls_name)
        found[cls_name, "__post_init__"] = id(vars(cls)["__post_init__"])
    return found


def test_span_and_validator_names_exist(layers):
    for layer, names in layers.SPANS.items():
        module = importlib.import_module(f"qgeodesic.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"qgeodesic.{layer}.{name}"
    for layer, cls_name in layers.VALIDATORS.items():
        cls = getattr(importlib.import_module(f"qgeodesic.{layer}"), cls_name, None)
        assert cls is not None, f"qgeodesic.{layer}.{cls_name}"
        assert "__post_init__" in vars(cls), f"{cls_name}.__post_init__"


def test_traced_commands_run_and_bindings_are_restored(layers, capsys):
    before = bindings(layers)
    with layers.Tracer() as tracer:
        codes = [cli.main(argv) for argv in COMMANDS]
        geometry.integrate_geodesic(START, 4.0, np.pi / 2, 1e-2)
    capsys.readouterr()
    assert codes == [0] * len(COMMANDS)
    assert tracer.counts["cli.main.calls"] == len(COMMANDS)
    assert tracer.counts["geometry.integrate_geodesic.steps"] > 0
    assert bindings(layers) == before


def test_shor_samples_are_counted(layers, capsys):
    """shor_period draws through the public shor_sample, so the tracer's
    attempt count and the Shor useful ratio read nonzero."""
    with layers.Tracer() as tracer:
        assert cli.main(["compare", "15", "2", "--seed", "1"]) == 0
    attempts = json.loads(capsys.readouterr().out)["methods"]["shor"]["attempts"]
    metrics = tracer.metrics()
    assert metrics["period.shor_sample.calls"] == attempts == 2
    assert metrics["period.shor.useful_ratio"] == 0.5


def test_integrator_counts_match_the_trajectories(layers):
    """The tracer's step and cell counts equal the totals over the
    trajectories integrate_geodesic returned: a partial last step, whole
    steps only, and a zero span."""
    with layers.Tracer() as tracer:
        trajectories = [geometry.integrate_geodesic(START, 4.0, START.phi + span, 1e-2)
                        for span in (0.105, 0.1, 0.0)]
    assert [len(t) for t in trajectories] == [12, 11, 1]
    assert tracer.counts["geometry.integrate_geodesic.calls"] == 3
    assert tracer.counts["geometry.integrate_geodesic.steps"] == \
        sum(len(t.phis) - 1 for t in trajectories)
    assert tracer.counts["geometry.integrate_geodesic.cells"] == \
        sum(t.x.size for t in trajectories)
