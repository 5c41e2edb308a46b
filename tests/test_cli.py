"""Command-line behavior: outputs, formats, exit codes, determinism."""

import contextlib
import errno
import inspect
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgeodesic import (
    GeodesicState,
    GroverInstance,
    PeriodInstance,
    action,
    cli,
    compare_methods,
    default_register_size,
    factor,
    geometry,
    run_grover,
)
from qgeodesic.cli import (
    FORMAT_VERSION, TRACE_COLUMNS, _emit, _json_text, _parse_marked, _trace_json, main)
from qgeodesic.grover import amplification_path

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def run(args):
    return main(args)


def run_to_file(tmp_path, name, args):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


def load_schema(name):
    return json.loads(
        resources.files("qgeodesic").joinpath(f"schemas/{name}").read_text())


def parse_trace_csv(text):
    lines = text.strip().splitlines()
    assert lines[0] == "# format_version=1"
    header = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        values = line.split(",")
        row = dict(zip(header, values))
        rows.append(row)
    return header, rows


def dense_step_angles(inst, steps):
    """The angle from each dense Grover state to the next, over steps 0 to
    steps + 1, by the signed overlap of the real amplitudes."""
    states = run_grover(inst, steps + 1, record=True).amps.real
    dot = np.sum(states[:-1] * states[1:], axis=1)
    return np.arctan2(np.linalg.norm(states[1:] - dot[:, np.newaxis] * states[:-1], axis=1),
                      dot)


def derivative_passes(monkeypatch, capsys, args):
    """Runs of geometry._derivatives, the finite-difference pass over the
    resampled path, in one successful command."""
    calls = []
    derivatives = geometry._derivatives

    def counting(path):
        calls.append(path.n_samples)
        return derivatives(path)

    monkeypatch.setattr(geometry, "_derivatives", counting)
    assert run(args) == 0
    capsys.readouterr()
    return len(calls)


class TestGroverTrace:
    def test_n4_one_step_csv(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "t.csv", ["grover-trace", "4", "--marked", "0", "--steps", "1"])
        assert code == 0
        header, rows = parse_trace_csv(out.read_text())
        assert header == ["step", "phi", "p_marked", "p_unmarked",
                          "fisher_estimate", "geodesic_residual_max",
                          "action_cumulative"]
        assert len(rows) == 2
        assert float(rows[1]["p_marked"]) == 1.0
        assert float(rows[0]["p_marked"]) == 0.25
        assert float(rows[1]["phi"]) == pytest.approx(np.pi / 2, abs=1e-15)

    def test_fisher_column_near_four(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "t.csv",
            ["grover-trace", "64", "--marked", "0", "--steps", "6"])
        assert code == 0
        _, rows = parse_trace_csv(out.read_text())
        assert len(rows) == 7
        for row in rows:
            assert 3.99 <= float(row["fisher_estimate"]) <= 4.01

    def test_json_format(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "t.json",
            ["grover-trace", "8", "--marked", "0,3", "--steps", "2",
             "--format", "json"])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["format_version"] == 1
        assert len(data["rows"]) == 3
        assert data["rows"][0]["step"] == 0

    def test_action_tracks_phi(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "t.csv",
            ["grover-trace", "256", "--marked", "0", "--steps", "12"])
        assert code == 0
        _, rows = parse_trace_csv(out.read_text())
        for row in rows:
            expected = float(row["phi"]) - float(rows[0]["phi"])
            assert float(row["action_cumulative"]) == pytest.approx(expected, abs=1e-3)

    @pytest.mark.parametrize("n_items,marked,steps", [
        ("16", "0,5", 4), ("64", "0", 6), ("256", "0", 12),
        ("65536", "3,4099,20000,65535", 100),
    ])
    def test_action_column_is_action(self, capsys, n_items, marked, steps):
        assert run(["grover-trace", n_items, "--marked", marked, "--steps", str(steps),
                    "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        inst = GroverInstance(int(n_items), frozenset(_parse_marked(marked)))
        expected = np.concatenate(([0.0], np.cumsum(dense_step_angles(inst, steps)[:-1])))
        for row, turned in zip(rows, expected, strict=True):
            assert row["action_cumulative"] == pytest.approx(turned, abs=1e-10)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_derivative_pass(self, monkeypatch, capsys, fmt):
        # the derived columns come from one pass of step angles over the
        # run's own rows, one more at each end: no finite-difference pass,
        # no resampled path, no interpolation
        def refused(*args, **kwargs):
            raise AssertionError("grover-trace reached a resampling pass")

        rows = []
        step_angles = cli.class_step_angles

        def counting(amps, sizes):
            rows.append(len(amps))
            return step_angles(amps, sizes)

        monkeypatch.setattr(np, "interp", refused)
        monkeypatch.setattr(cli, "class_path", refused)
        monkeypatch.setattr(cli, "amplification_path", refused)
        monkeypatch.setattr(cli, "class_step_angles", counting)
        assert derivative_passes(monkeypatch, capsys, [
            "grover-trace", "1024", "--marked", "1,2,3", "--steps", "40",
            "--format", fmt]) == 0
        assert rows == [43]

    def test_empty_marked_exits_2(self, capsys):
        assert run(["grover-trace", "4", "--marked", "", "--steps", "1"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("marked,message", [
        (",", "marked set must be non-empty"),
        ("3,3,-1", "marked index out of range [0, 16)"),
        ("99999999999999999999", "marked index out of range [0, 16)"),
    ])
    def test_marked_errors_exit_2(self, capsys, marked, message):
        assert run(["grover-trace", "16", "--marked", marked, "--steps", "1"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_instance_exits_2(self):
        assert run(["grover-trace", "1", "--marked", "0", "--steps", "1"]) == 2
        assert run(["grover-trace", "4", "--marked", "7", "--steps", "1"]) == 2
        assert run(["grover-trace", "4", "--marked", "0", "--steps", "-2"]) == 2

    def test_bad_dphi_exits_2(self, capsys):
        # grover-trace takes no --dphi: even a step geodesic-check accepts
        # is a usage error
        with pytest.raises(SystemExit) as exc:
            run(["grover-trace", "4", "--marked", "0", "--steps", "1", "--dphi", "0.01"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: unrecognized arguments: --dphi 0.01\n")

    def test_memory_cap_exits_3(self, capsys):
        assert run(["grover-trace", "1024", "--marked", "0", "--steps", "1",
                    "--memory-cap", "100"]) == 3
        assert "resource" in capsys.readouterr().err


class TestGeodesicCheck:
    def test_n4_passes(self, tmp_path):
        code, out = run_to_file(tmp_path, "g.json", ["geodesic-check", "4"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["checks"]["integrator_vs_simulation"]["max_abs_error"] < 1e-6
        assert report["checks"]["integrator_vs_analytic"]["max_abs_error"] < 1e-6

    def test_n1024_action_value(self, tmp_path):
        code, out = run_to_file(tmp_path, "g.json", ["geodesic-check", "1024"])
        assert code == 0
        report = json.loads(out.read_text())
        expected = np.pi / 2 - np.arcsin(1.0 / 32.0)
        assert report["checks"]["action_vs_distance"]["action"] \
            == pytest.approx(expected, abs=1e-4)

    def test_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        _, out = run_to_file(tmp_path, "g.json", ["geodesic-check", "16"])
        jsonschema.validate(json.loads(out.read_text()),
                            load_schema("geodesic_report.schema.json"))

    def test_degenerate_instance_exits_2(self):
        assert run(["geodesic-check", "1"]) == 2

    def test_one_derivative_pass(self, monkeypatch, capsys):
        # the action is integrated from the Fisher estimate already made
        assert derivative_passes(monkeypatch, capsys, ["geodesic-check", "8192"]) == 1

    @pytest.mark.parametrize("dphi", [None, "0.1", "0.001"])
    @pytest.mark.parametrize("n_items", [2, 3, 4, 1024, 2**26])
    def test_action_is_the_path_action(self, capsys, n_items, dphi):
        # the path runs from theta to exactly pi/2, so its whole cumulative
        # action is action(path, theta, pi/2), bit for bit
        options = [] if dphi is None else ["--dphi", dphi]
        run(["geodesic-check", str(n_items), *options])
        report = json.loads(capsys.readouterr().out)
        inst = GroverInstance(n_items, [0])
        fine = amplification_path(inst, 0.01 if dphi is None else float(dphi))
        assert report["checks"]["action_vs_distance"]["action"] \
            == action(fine, inst.theta, np.pi / 2)

    @pytest.mark.parametrize("n_items", [2, 3, 4, 1024, 8192, 2**26])
    def test_integrator_errors_at_scale(self, capsys, n_items):
        # far inside the 1e-6 tolerance, and tight enough to see a rounding
        # repeated from one target to the next: at N = 2^26, chaining the
        # 6 434 segments between its 6 435 targets and multiplying by one
        # rounded lambda^n per segment drifted to 1e-12
        assert run(["geodesic-check", str(n_items)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dt"] == 1e-4
        for name in ("integrator_vs_simulation", "integrator_vs_analytic"):
            assert report["checks"][name]["max_abs_error"] <= 5e-13

    def test_builds_one_state(self, monkeypatch, capsys):
        # N = 8192: the targets of recursion steps 0..70 plus the final
        # pi/2 are 72 targets, each about 217 RK4 steps after the one
        # before; the command builds only the start state and reads each
        # target's state off the propagator's arrays.
        built = []
        init = GeodesicState.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(GeodesicState, "__init__", counting)
        assert run(["geodesic-check", "8192"]) == 0
        capsys.readouterr()
        assert len(built) == 1

    def test_one_kernel_pass_and_no_integrator_calls(self, monkeypatch, capsys):
        # N = 8192: the 72 targets are the ends of one schedule and one
        # propagator call, each reached from the start state;
        # integrate_geodesic, which builds every row up to its end, is
        # never called
        schedule_calls, propagator_calls, integrator_calls = [], [], []
        schedule = geometry._rk4_schedule
        propagate, integrate = geometry._rk4_propagate, geometry.integrate_geodesic

        def counting_schedule(init, fisher_const, ends, dt):
            schedule_calls.append(len(ends))
            return schedule(init, fisher_const, ends, dt)

        def counting_propagator(x, v, fisher_const, dt, n, h):
            propagator_calls.append((len(n), len(h)))
            return propagate(x, v, fisher_const, dt, n, h)

        def counting_integrator(*args):
            integrator_calls.append(args)
            return integrate(*args)

        for module in (geometry, cli):
            monkeypatch.setattr(module, "_rk4_schedule", counting_schedule)
            monkeypatch.setattr(module, "_rk4_propagate", counting_propagator)
            monkeypatch.setattr(module, "integrate_geodesic", counting_integrator,
                                raising=False)
        assert run(["geodesic-check", "8192"]) == 0
        capsys.readouterr()
        assert schedule_calls == [72]
        assert propagator_calls == [(72, 72)]
        assert integrator_calls == []


class TestFactorCommand:
    def test_factor_15_both_methods(self, tmp_path, capsys):
        for method in ("shor", "grover-adiabatic"):
            code, out = run_to_file(
                tmp_path, f"f-{method}.json",
                ["factor", "15", "--method", method, "--seed", "7"])
            assert code == 0
            result = json.loads(out.read_text())
            assert result["factors"] == [3, 5]
            stdout = capsys.readouterr().out
            assert "15 = 3 x 5" in stdout

    def test_result_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        _, out = run_to_file(
            tmp_path, "f.json",
            ["factor", "21", "--method", "shor", "--seed", "3"])
        jsonschema.validate(json.loads(out.read_text()),
                            load_schema("factor_result.schema.json"))

    def test_even_exits_2(self, capsys):
        assert run(["factor", "8", "--method", "shor", "--seed", "1"]) == 2
        assert "even" in capsys.readouterr().err

    def test_prime_exits_2(self, capsys):
        assert run(["factor", "13", "--method", "shor", "--seed", "1"]) == 2
        assert "prime" in capsys.readouterr().err

    def test_missing_seed_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["factor", "15", "--method", "shor"])
        assert exc.value.code == 2

    def test_budget_exhaustion_exits_1(self, tmp_path, capsys):
        code, out = run_to_file(
            tmp_path, "f.json",
            ["factor", "35", "--method", "shor", "--seed", "5", "--budget", "1"])
        assert code == 1
        result = json.loads(out.read_text())  # file still written
        assert result["succeeded"] is False
        assert "budget" in capsys.readouterr().err


class TestCompareCommand:
    def test_compare_15_2(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "c.json", ["compare", "15", "2", "--seed", "7"])
        assert code == 0
        report = json.loads(out.read_text())
        shor = report["methods"]["shor"]
        grover = report["methods"]["grover-adiabatic"]
        assert shor["period"] == 4 and grover["period"] == 4
        assert shor["projective_measurements"] >= 2 * shor["attempts"]
        fisher = np.array(report["fisher_trace"]["fisher"])
        assert np.max(np.abs(fisher - 4.0)) < 1e-3

    def test_compare_21_periods(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "c.json", ["compare", "21", "2", "--seed", "11"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["methods"]["shor"]["period"] == 6
        assert report["methods"]["grover-adiabatic"]["period"] == 6

    def test_method_failure_exits_1_but_writes(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "c.json",
            ["compare", "21", "2", "--seed", "2", "--budget", "1"])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["methods"]["shor"]["succeeded"] is False

    def test_invalid_base_exits_2(self):
        assert run(["compare", "15", "5", "--seed", "1"]) == 2

    # Seed 103 needs 18 amplification rounds and seed 395 needs 17 Shor
    # attempts: more than the shared budget of 16, so both runs fail.
    @pytest.mark.parametrize("base,seed,exit_code", [(14, 103, 1), (14, 395, 1), (2, 7, 0)])
    def test_library_writes_the_cli_document(self, tmp_path, base, seed, exit_code):
        code, out = run_to_file(
            tmp_path, "c.json", ["compare", "15", str(base), "--seed", str(seed)])
        assert code == exit_code
        report = compare_methods(PeriodInstance(15, base), seed)
        assert _json_text(report.to_dict()).encode() == out.read_bytes()

    @pytest.mark.parametrize("function", [compare_methods, factor])
    def test_library_defaults_are_the_cli_defaults(self, function):
        parameters = inspect.signature(function).parameters
        for name in ("budget", "samples", "memory_cap"):
            assert parameters[name].default == cli._OPTIONS[name.replace("_", "-")]["default"]
        if "trace_dphi" in parameters:
            assert parameters["trace_dphi"].default == cli._OPTIONS["dphi"]["default"]

    def test_memory_cap_exits_3(self):
        assert run(["compare", "15", "2", "--seed", "1",
                    "--memory-cap", "64"]) == 3


class TestNoItemMask:
    """The period commands hold the marked set as an index array; only the
    dense reference builds the q-long mask."""

    @pytest.mark.parametrize("args", [
        ["compare", "91", "2", "--seed", "4"],
        ["compare", "1023", "1022", "--seed", "0"],
        # seeds whose first base shares no factor with N, so the
        # amplification route runs
        *(["factor", n, "--method", "grover-adiabatic", "--seed", seed]
          for n, seed in (("21", "1"), ("21", "2"), ("35", "1"), ("35", "2"),
                          ("45", "0"), ("45", "1"), ("45", "2"))),
    ])
    def test_never_built(self, monkeypatch, capsys, args):
        masks = []
        marked_mask = GroverInstance.marked_mask
        monkeypatch.setattr(GroverInstance, "marked_mask",
                            lambda inst: masks.append(inst) or marked_mask(inst))
        assert run(args) == 0
        capsys.readouterr()
        assert masks == []


class TestDeterminism:
    COMMANDS = [
        ("trace.csv", ["grover-trace", "16", "--marked", "0,5", "--steps", "3"]),
        ("trace.json", ["grover-trace", "16", "--marked", "0", "--steps", "3",
                        "--format", "json"]),
        ("geo.json", ["geodesic-check", "64"]),
        ("factor.json", ["factor", "15", "--method", "grover-adiabatic",
                         "--seed", "42"]),
        ("compare.json", ["compare", "15", "2", "--seed", "42"]),
    ]

    @pytest.mark.parametrize("name,args", COMMANDS, ids=[c[0] for c in COMMANDS])
    def test_rerun_is_byte_identical(self, tmp_path, name, args):
        _, first = run_to_file(tmp_path, "a-" + name, args)
        _, second = run_to_file(tmp_path, "b-" + name, args)
        assert first.read_bytes() == second.read_bytes()


class TestParserReuse:
    """The parser is built once per process.  Different subcommands run
    back to back through main give, call for call, the stdout, stderr,
    exit code and --out bytes of a fresh ``python -m qgeodesic`` process."""

    SEQUENCES = {  # (argv, exit code) per call
        "compare-then-default-dphi": [
            (["compare", "15", "2", "--seed", "1", "--dphi", "0.1"], 0),
            (["geodesic-check", "64"], 0),
        ],
        "usage-error-then-factor": [
            (["factor", "15", "--method", "shor"], 2),
            (["factor", "21", "--method", "shor", "--seed", "3"], 0),
        ],
        "csv-then-json": [
            (["grover-trace", "64", "--marked", "0,9", "--steps", "4"], 0),
            (["grover-trace", "64", "--marked", "0,9", "--steps", "4", "--format", "json"], 0),
        ],
    }

    @staticmethod
    def outcome(code, out, err, path):
        return code, out, err, path.read_bytes() if path.exists() else None

    def fresh(self, args, path):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "qgeodesic", *args, "--out", str(path)],
                              capture_output=True, text=True, env=env, check=False)
        return self.outcome(proc.returncode, proc.stdout, proc.stderr, path)

    def reused(self, args, path, capsys):
        try:
            code = main(args + ["--out", str(path)])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return self.outcome(code, captured.out, captured.err, path)

    @pytest.mark.parametrize("name", sorted(SEQUENCES))
    def test_back_to_back_matches_fresh_processes(self, name, tmp_path, capsys):
        assert cli.build_parser() is cli.build_parser()
        for index, (args, code) in enumerate(self.SEQUENCES[name]):
            reused = self.reused(args, tmp_path / f"reused{index}", capsys)
            assert reused == self.fresh(args, tmp_path / f"fresh{index}")
            assert reused[0] == code

    def test_handlers_are_looked_up_when_they_run(self, monkeypatch):
        # a rebinding after the parser is cached (as the benchmark's tracer
        # does) is the handler that runs
        cli.build_parser()
        monkeypatch.setattr(cli, "cmd_geodesic_check", lambda args: 7)
        assert main(["geodesic-check", "4"]) == 7


COMMANDS = ("grover-trace", "geodesic-check", "factor", "compare")
OPTION_STRINGS = (*(f"--{name}" for name in cli._OPTIONS),
                  "--marked", "--steps", "--method", "-h", "--help")
# Whole option strings, abbreviations such as --meth, and =-joined values.
OPTIONS = st.sampled_from(OPTION_STRINGS).flatmap(lambda option: st.one_of(
    st.just(option),
    st.integers(2, len(option)).map(lambda k: option[:k]),
    st.tuples(st.just(option), st.sampled_from(["1", "x", ""])).map("=".join)))
VALUES = st.sampled_from(["15", "2", "0,5", "4", "shor", "grover-adiabatic", "csv",
                          "json", "0.01", "1e-3", "-1", "-0.5", "0", "a.json"])
JUNK = st.sampled_from(["--", "-", "-x", "--bogus", "-h", "-hx", "x", "", " ", "--=1",
                        "facto", "Factor"]) | st.text(max_size=6)
TOKENS = st.one_of(OPTIONS, VALUES, JUNK, st.sampled_from(COMMANDS))
# Per subcommand, its arguments in chunks that parse: positionals, then
# options with a value, required ones first.
CHUNKS = {
    "grover-trace": [["16"], ["--marked", "0,5"], ["--steps", "3"], ["--format", "json"],
                     ["--memory-cap", "99"], ["--out", "t.csv"]],
    "geodesic-check": [["4"], ["--dphi", "0.1"], ["--memory-cap", "9"], ["--out", "g"]],
    "factor": [["15"], ["--method", "shor"], ["--seed", "1"], ["--budget", "2"],
               ["--samples", "3"], ["--memory-cap", "9"], ["--out", "f"]],
    "compare": [["15", "2"], ["--seed", "-1"], ["--dphi", "0.01"], ["--budget", "4"],
                ["--samples", "2"], ["--memory-cap", "9"], ["--out", "c"]],
}


@st.composite
def command_argvs(draw):
    """A subcommand with most of its chunks in any order, options at times
    abbreviated, and at times a stray token put anywhere."""
    command = draw(st.sampled_from(COMMANDS))
    tokens = [token for chunk in draw(st.permutations(CHUNKS[command]))
              if draw(st.integers(0, 5)) for token in chunk]
    tokens = [token[:draw(st.integers(3, len(token)))]
              if token.startswith("--") and draw(st.booleans()) else token
              for token in tokens]
    for _ in range(draw(st.integers(0, 2))):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(TOKENS))
    return [command, *tokens]


ARGVS = command_argvs() | st.lists(TOKENS, max_size=6)


def parse_outcome(parse, argv):
    """(namespace dict or None, exit code, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv)), None, out.getvalue(), err.getvalue()
        except SystemExit as exc:
            return None, exc.code, out.getvalue(), err.getvalue()


class TestParseBySubcommand:
    """main parses with the named subcommand's parser and gives what the
    whole argparse tree gives: the namespace, or the exit and its text."""

    @settings(max_examples=600, deadline=None)
    @given(ARGVS)
    def test_matches_the_top_level_parser(self, argv):
        reference = parse_outcome(cli.build_parser().parse_args, argv)
        assert parse_outcome(cli._parse_args, argv) == reference

    @pytest.mark.parametrize("argv", [
        ["factor", "15", "--method", "shor", "--seed", "1", "junk", "--x=1"],
        ["geodesic-check", "4", "--", "5"],
        ["compare", "-h"],
        [], ["-h"], ["--help"], ["factr", "15"], ["--", "factor"],
    ])
    def test_edges(self, argv):
        reference = parse_outcome(cli.build_parser().parse_args, argv)
        assert parse_outcome(cli._parse_args, argv) == reference

    def test_argv_defaults_to_the_process_arguments(self, monkeypatch):
        argv = ["geodesic-check", "4", "--dphi", "0.1"]
        monkeypatch.setattr(sys, "argv", ["qgeodesic", *argv])
        assert cli._parse_args(None) == cli.build_parser().parse_args(argv)

    def test_top_level_parser_is_not_run_for_a_named_subcommand(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("top-level parse")
        monkeypatch.setattr(cli.build_parser(), "parse_known_args", refuse)
        assert main(["grover-trace", "4", "--marked", "0", "--steps", "1"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["geodesic-check", "4", "extra"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "qgeodesic: error: unrecognized arguments: extra\n")


class TestStdoutFallback:
    def test_trace_to_stdout(self, capsys):
        assert run(["grover-trace", "4", "--marked", "0", "--steps", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# format_version=1")

    def test_failing_stream_without_fd_exits_2(self, monkeypatch, capsys):
        class Full(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        monkeypatch.setattr(sys, "stdout", Full())
        assert run(["geodesic-check", "4"]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n")


class TestDroppedFlags:
    """Each subcommand accepts only the options it reads."""

    CASES = [
        ["grover-trace", "4", "--marked", "0", "--steps", "1", "--seed", "1"],
        ["grover-trace", "4", "--marked", "0", "--steps", "1", "--budget", "2"],
        ["grover-trace", "4", "--marked", "0", "--steps", "1", "--samples", "2"],
        ["geodesic-check", "4", "--seed", "1"],
        ["geodesic-check", "4", "--budget", "2"],
        ["geodesic-check", "4", "--samples", "2"],
        ["factor", "15", "--method", "shor", "--seed", "1", "--dphi", "0.01"],
    ]

    @pytest.mark.parametrize("args", CASES, ids=[f"{c[0]}{c[-2]}" for c in CASES])
    def test_exits_2(self, args):
        with pytest.raises(SystemExit) as exc:
            run(args)
        assert exc.value.code == 2


class TestOptionChecks:
    """Bad option values exit 2 with one message, checked in the order
    dphi, memory cap, budget, samples whatever the order on the command
    line; each command checks only the options it takes, and refuses the
    others as usage errors before any check (message None)."""

    BASE = {
        "grover-trace": ["grover-trace", "4", "--marked", "0", "--steps", "1"],
        "geodesic-check": ["geodesic-check", "4"],
        "factor": ["factor", "15", "--method", "shor", "--seed", "1"],
        "compare": ["compare", "15", "2", "--seed", "1"],
    }

    CASES = [
        *[(cmd, ["--dphi", value], f"dphi must lie in (0, 0.1], got {shown}")
          for cmd in ("geodesic-check", "compare")
          for value, shown in (("0", "0.0"), ("0.5", "0.5"), ("nan", "nan"))],
        *[("grover-trace", ["--dphi", value], None) for value in ("0", "0.5", "nan")],
        *[(cmd, ["--memory-cap", "0"], "memory cap must be positive, got 0")
          for cmd in BASE],
        *[(cmd, ["--budget", "0"], "budget must be >= 1, got 0")
          for cmd in ("factor", "compare")],
        *[(cmd, ["--samples", "1"], "samples must be >= 2, got 1")
          for cmd in ("factor", "compare")],
        ("compare", ["--budget", "0", "--dphi", "0"], "dphi must lie in (0, 0.1], got 0.0"),
        *[(cmd, ["--samples", "1", "--budget", "0"], "budget must be >= 1, got 0")
          for cmd in ("factor", "compare")],
        *[(cmd, ["--samples", "0", "--memory-cap", "-3"], "memory cap must be positive, got -3")
          for cmd in ("factor", "compare")],
    ]

    @pytest.mark.parametrize("command,options,message", CASES,
                             ids=[" ".join([c, *o]) for c, o, _ in CASES])
    def test_exits_2_with_the_first_failed_check(self, command, options, message, capsys):
        if message is None:
            with pytest.raises(SystemExit) as exc:
                run(self.BASE[command] + options)
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.endswith(f"error: unrecognized arguments: {' '.join(options)}\n")
            return
        assert run(self.BASE[command] + options) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestResourceErrors:
    def test_memory_error_exits_3(self, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 430. GiB")
        monkeypatch.setattr(cli, "recursion_trajectory", exhausted)
        assert run(["geodesic-check", "16"]) == 3
        assert capsys.readouterr().err == "resource error: Unable to allocate 430. GiB\n"
        assert run(["grover-trace", "16", "--marked", "0", "--steps", "2"]) == 3

    def test_bare_memory_error_is_named(self, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(cli, "recursion_trajectory", exhausted)
        assert run(["geodesic-check", "16"]) == 3
        assert capsys.readouterr().err == "resource error: out of memory\n"


class TestAllocationCaps:
    """Each allocation that grows with the problem is charged before it
    happens, after the N or q check whose message it must not change."""

    @pytest.mark.parametrize("args,message", [
        (["compare", "15", "2", "--seed", "1", "--memory-cap", "64"],
         "register needs 256 amplitudes, cap is 64"),
        (["compare", "15", "2", "--seed", "1", "--dphi", "0.0001", "--memory-cap", "4000"],
         "resampled path needs 20946 amplitudes, cap is 4000"),
        (["geodesic-check", "64", "--memory-cap", "100"],
         "resampled path needs 292 amplitudes, cap is 100"),
        (["grover-trace", "64", "--marked", "0", "--steps", "10", "--memory-cap", "450"],
         "trace rows needs 451 amplitudes, cap is 450"),
        (["grover-trace", "64", "--marked", "0", "--steps", "300", "--memory-cap", "500"],
         "trajectory needs 602 amplitudes, cap is 500"),
    ])
    def test_exits_3_before_allocating(self, args, message, capsys):
        assert run(args) == 3
        assert capsys.readouterr().err == f"resource error: {message}\n"

    @pytest.mark.parametrize("args", [
        ["geodesic-check", "4"],
        ["compare", "15", "2", "--seed", "1"],
    ])
    def test_subnormal_dphi_exits_3(self, args, capsys):
        # span / dphi overflows to inf: the row count must not reach int()
        assert run(args + ["--dphi", "5e-324"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "resource error: resampled path needs inf amplitudes, cap is 67108864\n")

    @staticmethod
    def peak_in_registers(args, capsys):
        # q = 2^20 with M = 2^19 marked: the charged register is q complex
        # amplitudes (16 MiB); f(a) is read off the orbit of y, so there is
        # no q-long modexp table.
        tracemalloc.start()
        try:
            assert run(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        return peak / ((1 << 20) * 16)

    def test_compare_peak_is_a_few_registers(self, capsys):
        # the Shor readout holds the float distribution and its half-period
        # sin^2 table, with no complex column
        registers = self.peak_in_registers(["compare", "1023", "1022", "--seed", "1"], capsys)
        assert registers <= 1.0, f"peak {registers:.2f} registers"

    def test_amplified_factor_peak_is_under_a_register(self, capsys):
        # the amplified readouts are drawn from two amplitudes, with no
        # q-long distribution, CDF or marked array
        registers = self.peak_in_registers(
            ["factor", "1023", "--method", "grover-adiabatic", "--seed", "1"], capsys)
        assert registers <= 0.1, f"peak {registers:.2f} registers"

    def test_shor_fits_where_the_pair_state_did_not(self, capsys):
        # q = 256 fits, q * N = 3840 would not
        assert run(["factor", "15", "--method", "shor", "--seed", "1",
                    "--memory-cap", "300"]) == 0
        assert capsys.readouterr().out.startswith("15 = 3 x 5")

    @pytest.mark.parametrize("args", [
        ["geodesic-check", "64", "--memory-cap", "384"],
        ["grover-trace", "1024", "--marked", "0", "--steps", "1", "--memory-cap", "5000"],
        ["compare", "15", "2", "--seed", "1", "--memory-cap", "4000"],
    ])
    def test_class_paths_fit_where_item_paths_did_not(self, args, capsys):
        # trajectories and resampled paths are charged 2 cells per row, not N or q
        assert run(args) == 0
        assert capsys.readouterr().err == ""


class TestResidentPeak:
    """The period commands' real peak, as the OS counts it, stays under their
    charge: in a fresh process, ru_maxrss grows over a tiny-q run of the same
    command by at most 16 B per amplitude of the largest charge (the q of the
    argument register) plus ALLOWANCE for the interpreter.  tracemalloc
    cannot bound this, since it misses memory that native code allocates
    outside Python's allocator."""

    ALLOWANCE = 8 << 20  # bytes: the interpreter's own heap growth and slack

    @staticmethod
    def maxrss(args):
        script = ("import contextlib, io, resource, sys\n"
                  "from qgeodesic import cli\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    code = cli.main(sys.argv[1:])\n"
                  "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                              text=True, env=env, check=True, timeout=120)
        code, kib = map(int, proc.stdout.split())  # Linux counts ru_maxrss in KiB
        assert code == 0, proc.stderr
        return kib << 10

    @pytest.mark.parametrize("command", [
        lambda n, y: ["factor", n, "--method", "shor", "--seed", "1"],
        lambda n, y: ["factor", n, "--method", "grover-adiabatic", "--seed", "1"],
        lambda n, y: ["compare", n, y, "--seed", "1"],
    ], ids=["factor-shor", "factor-grover-adiabatic", "compare"])
    def test_growth_is_under_the_charge(self, command):
        tiny = self.maxrss(command("15", "2"))  # q = 2^8
        for n, y in (("187", "2"), ("1023", "1022"), ("2047", "2")):  # q = 2^16, 2^20, 2^22
            charge = 16 * default_register_size(int(n))
            growth = self.maxrss(command(n, y)) - tiny
            assert growth <= charge + self.ALLOWANCE, (
                f"{command(n, y)}: grew {growth / 2**20:.1f} MiB, charge {charge / 2**20:.0f} MiB")


class TestNoFft:
    def test_no_command_reaches_the_fft(self, monkeypatch, capsys):
        def refused(*args, **kwargs):
            raise AssertionError("a command reached np.fft")

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, refused)
        assert run(["compare", "143", "2", "--seed", "1"]) == 0
        assert run(["factor", "91", "--method", "shor", "--seed", "3"]) == 0
        assert capsys.readouterr().err == ""


class TestTraceRows:
    """grover-trace charges its output rows, per format, after its trajectory
    and before it computes the step columns."""

    def test_rows_are_charged_before_they_are_built(self, capsys):
        # 20 001 rows at 41 cells each; the trajectory (40 002 cells) fits
        # the cap.  The run peaks at 1.1 MiB before the charge, where the
        # csv rows would add about 13 MB.
        tracemalloc.start()
        try:
            assert run(["grover-trace", "1024", "--marked", "0", "--steps", "20000",
                        "--memory-cap", "100000"]) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "resource error: trace rows needs 820041 amplitudes, cap is 100000\n")
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_json_rows_are_charged_more(self, capsys):
        args = ["grover-trace", "65536", "--marked", "0", "--steps", "1000",
                "--memory-cap", "100000"]
        assert run(args) == 0
        assert capsys.readouterr().err == ""
        assert run(args + ["--format", "json"]) == 3
        assert capsys.readouterr().err == (
            "resource error: trace rows needs 133133 amplitudes, cap is 100000\n")

    @staticmethod
    def peak_per_row(options, capsys):
        steps = 20000
        tracemalloc.start()
        try:
            assert run(["grover-trace", "67108864", "--marked", "0",
                        "--steps", str(steps), *options]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        return peak / steps

    def test_csv_peak_per_row(self, capsys):
        # 646 B/row measured, with no dict per row
        per_row = self.peak_per_row([], capsys)
        assert per_row <= 700, f"{per_row:.0f} B/step"

    def test_json_peak_per_row(self, capsys):
        # within the json rows' charge of 133 cells a row; one dict per row
        # and each row's text once
        per_row = self.peak_per_row(["--format", "json"], capsys)
        assert per_row <= cli._TRACE_ROW_AMPLITUDES["json"] * 16, f"{per_row:.0f} B/step"


# Scalars that json writes in a spelling of its own, or that its string
# escapes must carry through.
json_floats = st.floats() | st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16, 0.1])
json_scalars = (st.none() | st.booleans() | st.integers() | json_floats
                | st.text(st.characters(), max_size=8)
                | json_floats.map(np.float64))
text_keys = st.text(st.characters(), max_size=8)


def json_containers(children):
    return st.one_of(
        st.lists(children, max_size=5), st.lists(children, max_size=5).map(tuple),
        st.lists(json_floats, max_size=5),
        st.dictionaries(text_keys, children, max_size=5))


def json_documents():
    return st.recursive(json_scalars, json_containers, max_leaves=30)


def json_dumps_text(document):
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def same_outcome(write, reference, document):
    """Both writers' text, or the type of the error both raise."""
    try:
        expected = reference(document)
    except TypeError:
        with pytest.raises(TypeError):
            write(document)
        return
    assert write(document) == expected


class TestJsonWriter:
    """The reports' writer is json.dumps(indent=2, sort_keys=True) byte for
    byte, without json's pure-Python encoder."""

    @settings(max_examples=300, deadline=None)
    @given(json_documents())
    def test_equals_json_dumps(self, document):
        same_outcome(_json_text, json_dumps_text, document)

    @pytest.mark.parametrize("document", [
        {"a": np.int64(1)}, [np.int64(1)], np.int64(1), {np.int64(1): 0},
        {"rows": [{"step": 0, "phi": np.int64(2)}]}])
    def test_int64_is_refused_by_both(self, document):
        with pytest.raises(TypeError):
            json_dumps_text(document)
        with pytest.raises(TypeError):
            _json_text(document)

    @pytest.mark.parametrize("key", [1, 0.5, True, None, np.int64(1)],
                             ids=["int", "float", "bool", "None", "int64"])
    def test_non_str_key_is_refused(self, key):
        # json.dumps writes the first four as strings; no report holds them
        with pytest.raises(TypeError):
            _json_text({"rows": [{key: 0}]})

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 10**30),
                              *[json_floats] * (len(TRACE_COLUMNS) - 1)), max_size=5))
    @example([(0, -0.0, 5e-324, 1e308, -1e308, float("nan"), float("-inf"))])
    @example([(2**63, float("inf"), 0.1, 1.0, 0.0, 1e16, 4.0)] * 2)
    @example([])
    def test_trace_rows_equal_json_dumps(self, rows):
        # the trace template, non-finite floats included, writes the
        # document of one dict per row
        document = {"format_version": FORMAT_VERSION,
                    "rows": [dict(zip(TRACE_COLUMNS, row)) for row in rows]}
        assert _trace_json(rows) == json_dumps_text(document)


class TestFactorModuli:
    def test_prime_power_reports_the_prime(self, capsys):
        assert run(["factor", "81", "--method", "shor", "--seed", "1"]) == 2
        assert "(trivial factor 3)" in capsys.readouterr().err

    def test_modulus_beyond_float_range_is_a_usage_error(self, capsys):
        assert run(["factor", str(3 * 7**500), "--method", "shor", "--seed", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: modulus of 1406 bits is beyond the simulator's signed "
            "64-bit range (N < 2^63)\n")

    def test_huge_modulus_is_refused_without_an_exponent_scan(self, capsys):
        # 14 039 bits: a Newton root per exponent up to the bit length took over 16 s
        start = time.perf_counter()
        assert run(["factor", str(3 * 7**5000), "--method", "shor", "--seed", "1"]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "error: modulus of 14039 bits is beyond the simulator's signed "
            "64-bit range (N < 2^63)\n")

    def test_large_prime_is_refused_without_trial_division(self, capsys):
        # a 52-bit prime: trial division to sqrt(N) took seconds
        start = time.perf_counter()
        assert run(["factor", "4503599627370449", "--method", "shor", "--seed", "1"]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "error: 4503599627370449 is prime; not a valid target\n")

    @pytest.mark.parametrize("method", ["shor", "grover-adiabatic"])
    def test_huge_modulus_is_refused_before_it_is_classified(self, method, capsys):
        # 14 001 bits with no small factor: Miller-Rabin alone took over 4 s
        start = time.perf_counter()
        assert run(["factor", str(2**14000 + 1), "--method", method, "--seed", "1"]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "error: modulus of 14001 bits is beyond the simulator's signed "
            "64-bit range (N < 2^63)\n")

    @pytest.mark.parametrize("method", ["shor", "grover-adiabatic"])
    def test_modulus_beyond_int64_is_a_usage_error(self, method, capsys):
        assert run(["factor", str(2**63 + 1), "--method", method, "--seed", "1"]) == 2
        assert "signed 64-bit range" in capsys.readouterr().err


def file_mode(path):
    umask = os.umask(0)
    os.umask(umask)
    return stat.S_IMODE(os.stat(path).st_mode), 0o666 & ~umask


class TestAtomicWrite:
    def test_file_matches_stdout_bytes(self, tmp_path, capsys):
        args = ["grover-trace", "16", "--marked", "0,5", "--steps", "3"]
        assert run(args) == 0
        stdout = capsys.readouterr().out
        code, out = run_to_file(tmp_path, "t.csv", args)
        assert code == 0
        assert out.read_bytes() == stdout.encode("utf-8")
        assert os.listdir(tmp_path) == ["t.csv"]

    def test_mode_matches_plain_open(self, tmp_path):
        target = tmp_path / "r.json"
        _emit("{}\n", str(target))
        mode, expected = file_mode(target)
        assert mode == expected

    def test_failed_encode_leaves_nothing(self, tmp_path):
        target = tmp_path / "r.json"
        target.write_bytes(b"old")
        with pytest.raises(UnicodeEncodeError):
            _emit("x" * 100_000 + "\ud800", str(target))
        assert target.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["r.json"]

    def test_failure_after_write_leaves_nothing(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise OSError("device lost")
        monkeypatch.setattr(cli.os, "replace", fail)
        with pytest.raises(OSError, match="device lost"):
            _emit("row\n" * 1000, str(tmp_path / "r.csv"))
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_mode_is_the_umask_of_0o666(self, tmp_path, umask):
        # the umask is process-wide, so each case runs in its own process
        target = tmp_path / "r.json"
        src = str(Path(cli.__file__).resolve().parents[1])
        script = ("import os, sys; os.umask(int(sys.argv[1])); "
                  "from qgeodesic.cli import _emit; _emit('{}\\n', sys.argv[2])")
        subprocess.run([sys.executable, "-c", script, str(umask), str(target)],
                       env={**os.environ, "PYTHONPATH": src}, check=True)
        assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask
        assert target.read_bytes() == b"{}\n"

    def test_no_umask_chmod_or_tempfile(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("called")
        for name in ("umask", "chmod"):
            monkeypatch.setattr(os, name, refuse)
        for name in ("mkstemp", "mkdtemp", "NamedTemporaryFile", "TemporaryFile",
                     "_get_candidate_names"):
            monkeypatch.setattr(tempfile, name, refuse)
        _emit("{}\n", str(tmp_path / "r.json"))
        assert (tmp_path / "r.json").read_bytes() == b"{}\n"
        assert not hasattr(cli, "tempfile")

    def test_stale_temp_name_is_skipped(self, tmp_path, monkeypatch):
        target = tmp_path / "r.json"
        stale = tmp_path / f"r.json.{os.getpid()}.0.tmp"
        stale.write_bytes(b"stale")
        renamed = []
        replace = os.replace
        monkeypatch.setattr(os, "replace", lambda src, dst: renamed.append(src) or replace(src, dst))
        _emit("{}\n", str(target))
        assert renamed == [f"{target}.{os.getpid()}.1.tmp"]
        assert target.read_bytes() == b"{}\n"
        assert stale.read_bytes() == b"stale"
        assert sorted(os.listdir(tmp_path)) == ["r.json", stale.name]

    def test_threads_writing_one_target(self, tmp_path):
        # more threads than cores, switching often, each writing its own
        # document to the same target 50 times
        target = str(tmp_path / "r.csv")
        documents = [f"{j}\n" * (40_000 + 10_000 * j) for j in range(4)]
        start = threading.Barrier(len(documents))
        errors = []

        def write(text):
            start.wait()
            try:
                for _ in range(50):
                    _emit(text, target)
            except BaseException as exc:  # reported below, not lost in the thread
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(text,)) for text in documents]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert Path(target).read_text() in documents
        assert os.listdir(tmp_path) == ["r.csv"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
class TestUnwritableStdout:
    """A stdout that cannot take the output exits 2 with one line, whether
    the write fails in the command (unbuffered) or at the final flush."""

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("args", [
        ["grover-trace", "65536", "--marked", "0", "--steps", "20000"],
        ["geodesic-check", "4"],
        ["factor", "15", "--method", "shor", "--seed", "1"],
    ], ids=["grover-trace", "geodesic-check", "factor"])
    def test_dev_full_exits_2(self, args, unbuffered):
        self.assert_exits_2(args, unbuffered)

    def test_out_is_written_before_stdout_fails(self, tmp_path):
        out = tmp_path / "f.json"
        self.assert_exits_2(["factor", "15", "--method", "shor", "--seed", "1",
                             "--out", str(out)], "")
        assert json.loads(out.read_text())["factors"] == [3, 5]

    def test_stdout_failing_after_out_is_named_stdout(self, tmp_path):
        # unbuffered, the summary line fails inside the command, after --out
        out = tmp_path / "f.json"
        self.assert_exits_2(["factor", "15", "--method", "shor", "--seed", "1",
                             "--out", str(out)], "1")
        assert json.loads(out.read_text())["factors"] == [3, 5]

    @staticmethod
    def assert_exits_2(args, unbuffered):
        src = str(Path(cli.__file__).resolve().parents[1])
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                [sys.executable, "-m", "qgeodesic", *args], stdout=full,
                stderr=subprocess.PIPE, timeout=120,
                env={**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered})
        assert done.returncode == 2
        assert done.stderr.decode() == (
            f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n")


class TestUnwritableOut:
    """An --out that cannot be written exits 2 with one line naming it,
    prints nothing on stdout and leaves no temp file."""

    @pytest.mark.parametrize("args,target,code", [
        (["geodesic-check", "4"], "missing/x.json", errno.ENOENT),
        (["factor", "15", "--method", "shor", "--seed", "1"], "a-directory", errno.EISDIR),
    ], ids=["missing-directory", "target-is-a-directory"])
    def test_exits_2(self, tmp_path, capsys, args, target, code):
        (tmp_path / "a-directory").mkdir()
        path = str(tmp_path / target)
        assert run(args + ["--out", path]) == 2
        assert capsys.readouterr() == (
            "", f"error: cannot write {path}: {os.strerror(code)}\n")
        assert os.listdir(tmp_path) == ["a-directory"]
        assert os.listdir(tmp_path / "a-directory") == []

    def test_error_without_errno_keeps_its_text(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise OSError("device lost")
        monkeypatch.setattr(cli.os, "replace", fail)
        path = str(tmp_path / "r.json")
        assert run(["geodesic-check", "4", "--out", path]) == 2
        assert capsys.readouterr() == ("", f"error: cannot write {path}: device lost\n")
        assert os.listdir(tmp_path) == []
