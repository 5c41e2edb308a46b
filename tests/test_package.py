"""The package resolves its names on first use, and a search command never
loads the period-finding layer."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qgeodesic
from qgeodesic import cli, period, states

SRC = str(Path(qgeodesic.__file__).resolve().parents[1])

RUN_CONSTANTS = ("DEFAULT_BUDGET", "DEFAULT_MEMORY_CAP", "DEFAULT_SAMPLES",
                 "FORMAT_VERSION", "GROVER_ADIABATIC", "SHOR")


def fresh(script: str) -> str:
    """Run ``script`` in a new interpreter that imports qgeodesic from this
    tree; returns its stdout."""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": SRC})
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout


def test_search_commands_do_not_load_period():
    out = fresh(
        "import contextlib, io, sys\n"
        "from qgeodesic import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['geodesic-check', '64']),\n"
        "             cli.main(['grover-trace', '64', '--marked', '0', '--steps', '3',\n"
        "                       '--format', 'json'])]\n"
        "print(codes, 'qgeodesic.period' in sys.modules)\n")
    assert out == "[0, 0] False\n"


@pytest.mark.parametrize("argv", [
    ["factor", "15", "--method", "shor", "--seed", "1"],
    ["compare", "15", "2", "--seed", "1"],
])
def test_period_commands_run_in_a_fresh_process(argv):
    out = fresh(
        "import contextlib, io\n"
        "from qgeodesic import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "print(code)\n")
    assert out == "0\n"


def test_public_names_are_their_home_modules_objects():
    listed = dir(qgeodesic)
    assert qgeodesic.__all__ == sorted(set(qgeodesic.__all__))
    for name in qgeodesic.__all__:
        home = importlib.import_module(f"qgeodesic.{qgeodesic._HOMES[name]}")
        value = vars(home)[name]
        assert getattr(qgeodesic, name) is value, name
        assert getattr(value, "__module__", home.__name__) == home.__name__, name
        assert name in listed, name
    for module in ("cli", "geometry", "grover", "paths", "period", "states"):
        assert module in listed
        assert getattr(qgeodesic, module) is sys.modules[f"qgeodesic.{module}"]


def test_run_constants_are_defined_once():
    for name in RUN_CONSTANTS:
        assert getattr(period, name) is getattr(cli, name) is vars(states)[name], name


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        qgeodesic.no_such_name
