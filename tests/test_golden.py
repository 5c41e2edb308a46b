"""Golden outputs: every command's exit code, stdout, stderr and ``--out``
bytes against the digests recorded in ``golden.json``.

Each command runs in-process through ``cli.main`` twice, plainly and with
``--out``, in a fresh working directory.  A change that alters a digest on
purpose regenerates the file with::

    PYTHONPATH=src python tests/test_golden.py --write

and lists each changed command, with the reason, in CHANGES.md.  The
digests hold for the numpy, Python and machine recorded in the file; under
any other the test fails and asks for them to be regenerated and reviewed.

The same loop counts the calls into the dense statevector reference, the
``StateVector`` constructions and the builds of ``PeriodInstance.table``,
the q-long modexp table: no command may reach any of them.

``tests/parity.py`` reuses the runner and digests for a longer command
list, against any git revision.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import json
import os
import platform
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from qgeodesic import PeriodInstance, StateVector, cli

GOLDEN = Path(__file__).with_name("golden.json")
OUT = "out"  # the --out target of every command not listed in UNWRITABLE
UNWRITABLE = {  # --out targets that cannot be written, relative to the run directory
    "geodesic-check 4": "missing/out",
    "factor 15 --method shor --seed 1": "a-directory",
}

# The dense reference: kept for the tests to compare against, never run by
# a command.  StateVector constructions are counted beside these calls.
DENSE = {
    "states": ("new_uniform", "basis_state", "probabilities", "phase_flip",
               "invert_about_average", "qft", "measure_register", "_marked_mask"),
    "grover": ("run_grover", "grover_step", "analytic_trajectory"),
    "period": ("build_register", "shor_project"),
}


def _commands() -> list[list[str]]:
    """Every golden command, once each, in a fixed order."""
    trace = ["grover-trace"]
    commands = [
        # the criterion-8 matrix
        [*trace, "16", "--marked", "0,5", "--steps", "4"],
        [*trace, "64", "--marked", "0", "--steps", "6", "--format", "json"],
        ["geodesic-check", "64"],
        ["factor", "15", "--method", "shor", "--seed", "7"],
        ["factor", "21", "--method", "grover-adiabatic", "--seed", "7"],
        ["compare", "15", "2", "--seed", "7"],
    ]
    commands += [["factor", str(n), "--method", method, "--seed", str(seed)]
                 for n in range(3, 46) for method in ("shor", "grover-adiabatic")
                 for seed in range(4)]
    commands += [["factor", str(n), "--method", method, "--seed", "1"]
                 for n in ("1", "81", "4503599627370449", str((2**61 - 1) ** 2),
                           str(3 * 7**500), str(2**63 + 1))
                 for method in ("shor", "grover-adiabatic")]
    commands += [
        ["factor", "15", "--method", "shor", "--seed", "1", "--budget", "1"],
        ["factor", "33", "--method", "grover-adiabatic", "--seed", "2", "--samples", "2"],
        ["factor", "35", "--method", "grover-adiabatic", "--seed", "3", "--budget", "1",
         "--samples", "2"],
    ]
    commands += [["compare", n, y, "--seed", str(seed)]
                 for n, y in (("15", "2"), ("15", "7"), ("15", "14"), ("21", "2"),
                              ("21", "5"), ("33", "5"), ("35", "3"), ("39", "2"),
                              ("55", "2"), ("77", "3"), ("91", "2"), ("143", "2"),
                              ("4", "3"), ("15", "5"))
                 for seed in range(3)]
    commands += [
        ["compare", "1023", "1022", "--seed", "0"],  # q = 2^20, M = 2^19
        ["compare", "1023", "1022", "--seed", "1"],
        ["compare", "2047", "2", "--seed", "1"],  # q = 2^22, r = 11: gcd(r, q) = 1
        ["compare", "4087", "3", "--seed", "1"],  # q = 2^24, r = 110
        ["compare", "15", "2", "--seed", "1", "--dphi", "0.1"],
        ["compare", "21", "2", "--seed", "1", "--dphi", "0.001"],
        ["compare", "15", "2", "--seed", "1", "--budget", "1", "--samples", "2"],
        ["compare", "91", "2", "--seed", "4", "--budget", "1"],
    ]
    commands += [["geodesic-check", str(n), *dphi]
                 for n in (1, 2, 3, 4, 5, 16, 64, 1024, 8192, 65536, 2**26 + 1)
                 for dphi in ((), ("--dphi", "0.1"), ("--dphi", "0.001"))]
    commands.append(["geodesic-check", str(2**26)])  # N at the default cap
    for n, marked, steps in (("4", "0", "0"), ("4", "0", "1"), ("16", "0,5", "3"),
                             ("16", "0,0,5", "3"), ("64", "0,9", "4"), ("256", "0", "12"),
                             ("1024", "1,2,3", "40"),
                             ("65536", "3,4099,20000,65535", "100")):
        for options in ((), ("--format", "json")):
            commands.append([*trace, n, "--marked", marked, "--steps", steps, *options])
    commands += [[*trace, n, "--marked", marked, "--steps", steps, *options]
                 for n, marked, steps, options in (
                     ("4", "", "1", ()), ("16", ",", "1", ()), ("16", "3,3,-1", "1", ()),
                     ("16", "99999999999999999999", "1", ()), ("1", "0", "1", ()),
                     ("4", "7", "1", ()), ("4", "0", "-2", ()),
                     ("1024", "0", "1", ("--memory-cap", "100")),
                     ("4", "x", "1", ()), ("4", "0", "1.5", ()))]
    # allocation caps
    commands += [
        ["compare", "15", "2", "--seed", "1", "--memory-cap", "64"],
        ["compare", "15", "2", "--seed", "1", "--dphi", "0.0001", "--memory-cap", "4000"],
        ["compare", "15", "2", "--seed", "1", "--memory-cap", "4000"],
        ["geodesic-check", "64", "--memory-cap", "100"],
        ["geodesic-check", "64", "--memory-cap", "384"],
        [*trace, "64", "--marked", "0", "--steps", "10", "--memory-cap", "450"],
        [*trace, "64", "--marked", "0", "--steps", "10", "--memory-cap", "500"],
        [*trace, "64", "--marked", "0", "--steps", "300", "--memory-cap", "500"],
        [*trace, "1024", "--marked", "0", "--steps", "1", "--memory-cap", "5000"],
        ["factor", "15", "--method", "shor", "--seed", "1", "--memory-cap", "300"],
        ["factor", "15", "--method", "shor", "--seed", "1", "--memory-cap", "100"],
        ["factor", "21", "--method", "grover-adiabatic", "--seed", "1", "--memory-cap", "100"],
    ]
    # bad option values, in each command that takes them, and argparse's own errors
    base = {
        "grover-trace": [*trace, "4", "--marked", "0", "--steps", "1"],
        "geodesic-check": ["geodesic-check", "4"],
        "factor": ["factor", "15", "--method", "shor", "--seed", "1"],
        "compare": ["compare", "15", "2", "--seed", "1"],
    }
    for command, args in base.items():
        options = [["--memory-cap", "0"], ["--memory-cap", "-3"]]
        if command in ("geodesic-check", "compare"):
            options += [["--dphi", value] for value in ("0", "0.5", "nan", "-1", "0.1")]
        if command in ("factor", "compare"):
            options += [["--budget", "0"], ["--samples", "1"], ["--samples", "1", "--budget", "0"],
                        ["--samples", "0", "--memory-cap", "-3"], ["--seed", "x"]]
        commands += [args + option for option in options]
    commands += [
        ["compare", "15", "2", "--seed", "1", "--budget", "0", "--dphi", "0"],
        ["factor", "15", "--method", "shor"],
        ["factor", "15", "--method", "rsa", "--seed", "1"],
        ["factor", "15", "--method", "shor", "--seed", "1", "--dphi", "0.01"],
        [*trace, "4", "--marked", "0", "--steps", "1", "--dphi", "0.01"],
        ["geodesic-check", "4", "--seed", "1"],
        [*trace, "4", "--marked", "0", "--steps", "1", "--budget", "2"],
        [*trace, "4", "--steps", "1"],
        ["compare", "15", "--seed", "1"],
        ["geodesic-check"],
        ["bogus"],
        [],
    ]
    return list({_key(args): args for args in commands}.values())


def _key(args: list[str]) -> str:
    return " ".join(args)


COMMANDS = _commands()


def _run(args: list[str]) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(args)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert not caught, f"{_key(args)} warned: {[str(w.message) for w in caught]}"
    return code, stdout.getvalue(), stderr.getvalue()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _outcome_digest(args: list[str]) -> str:
    return _sha(json.dumps(_run(args)).encode())


def _digests(args: list[str]) -> dict:
    """Digests of one command, run in the current directory: the plain run,
    the --out run and the bytes it wrote (None when it wrote nothing)."""
    target = UNWRITABLE.get(_key(args), OUT)
    plain = _outcome_digest(args)
    with_out = _outcome_digest(args + ["--out", target])
    written = Path(target)
    data = None
    if written.is_file():
        data = _sha(written.read_bytes())
        written.unlink()
    return {"plain": plain, "out": with_out, "file": data}


@contextlib.contextmanager
def _counting_dense_calls():
    """Wrap every binding of the dense reference functions, in every loaded
    qgeodesic module, ``StateVector.__post_init__`` and the builds of
    ``PeriodInstance.table`` and ``PeriodInstance.search`` (the marked
    array) with a call counter; restore them on exit."""
    originals = {}
    for layer, names in DENSE.items():
        module = importlib.import_module(f"qgeodesic.{layer}")
        for name in names:
            originals[getattr(module, name)] = f"{layer}.{name}"
    cached = ("table", "search")  # PeriodInstance's q-long reference builds
    calls = dict.fromkeys([*originals.values(), "states.StateVector",
                           *(f"period.PeriodInstance.{name}" for name in cached)], 0)

    def counted(fn, label):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)
        return wrapper

    post_init = StateVector.__post_init__
    patched = [(StateVector, "__post_init__", post_init)]
    StateVector.__post_init__ = counted(post_init, "states.StateVector")
    for name in cached:
        build = vars(PeriodInstance)[name]
        patched.append((PeriodInstance, name, build))
        counted_build = functools.cached_property(
            counted(build.func, f"period.PeriodInstance.{name}"))
        counted_build.__set_name__(PeriodInstance, name)
        setattr(PeriodInstance, name, counted_build)
    for name, module in list(sys.modules.items()):
        if name == "qgeodesic" or name.startswith("qgeodesic."):
            for attr, value in list(vars(module).items()):
                if callable(value) and value in originals:
                    patched.append((module, attr, value))
                    setattr(module, attr, counted(value, originals[value]))
    try:
        yield calls
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


def _environment() -> dict:
    return {"machine": platform.machine(), "numpy": np.__version__,
            "python": ".".join(platform.python_version_tuple()[:2])}


def run_all(commands: list[list[str]] = COMMANDS) -> dict:
    """Digests of every command, from a fresh temporary directory with the
    usage text width fixed."""
    cwd = os.getcwd()
    # argparse wraps its usage text to the terminal width
    with mock.patch.dict(os.environ, COLUMNS="80"), tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            os.mkdir("a-directory")
            return {_key(args): _digests(args) for args in commands}
        finally:
            os.chdir(cwd)


@pytest.fixture(scope="module")
def golden_run():
    """The digests, and the calls into the dense reference while they ran."""
    with _counting_dense_calls() as calls:
        digests = run_all()
    return digests, calls


def test_outputs_match_the_golden_digests(golden_run):
    recorded = json.loads(GOLDEN.read_text())
    env = _environment()
    regenerate = ("regenerate them with `PYTHONPATH=src python tests/test_golden.py "
                  "--write` and review the diff")
    if recorded["environment"] != env:
        pytest.fail(f"digests were recorded under {recorded['environment']}, "
                    f"this is {env}: {regenerate}")
    digests, _ = golden_run
    expected = recorded["commands"]
    differ = sorted(key for key in digests.keys() | expected.keys()
                    if digests.get(key) != expected.get(key))
    assert not differ, (f"{len(differ)} commands differ from {GOLDEN.name}: "
                        f"{differ}; if intended, {regenerate}")


def test_no_command_reaches_the_dense_reference(golden_run):
    _, calls = golden_run
    assert {label: n for label, n in calls.items() if n} == {}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    digests = run_all()
    document = {"environment": _environment(), "commands": digests}
    GOLDEN.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} commands to {GOLDEN}")
