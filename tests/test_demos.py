"""Smoke test: every demo runs to completion and prints its key result."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


KEY_LINES = {
    "01_constant_fisher_search.py": [
        "N= 1024  theta=0.03126  optimal steps=  25  final p_marked=0.999461  "
        "recursion k^2=0.999461",
        "N=   64  fisher min=3.999983  max=3.999983  (target: 4)",
    ],
    "02_geodesic_oscillator.py": [
        "final x[0] = 1.0000000000  (solution amplitude, target 1)",
        "(each halving divides the residual by ~4: second-order convergence)",
    ],
    "03_period_finding_two_ways.py": [
        "collapsed support: [2, 6, 10, 14, 18] ... stride 4, 64 points, amplitude 0.1250",
        "15 = 3 x  5  via grover-adiabatic (2 base attempts, 12 measurements)",
        "fisher trace over the 2 states of the amplification run: min 4.000000, "
        "max 4.000000 (constant at 4)",
    ],
}


@pytest.mark.parametrize("name", sorted(KEY_LINES))
def test_demo_prints_key_lines(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    lines = out.getvalue().splitlines()
    for line in KEY_LINES[name]:
        assert line in lines
