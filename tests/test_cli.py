"""Command-line behavior: outputs, formats, exit codes, determinism."""

import errno
import json
import os
import stat
import subprocess
import sys
import time
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgeodesic import GeodesicState, GroverInstance, action, cli, geometry
from qgeodesic.cli import _emit, _json_text, _parse_marked, main
from qgeodesic.grover import amplification_path, trace_path

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
        fine = trace_path(inst, steps, 0.01)
        for row in rows:
            expected = action(fine, inst.theta, row["phi"])
            assert row["action_cumulative"] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_derivative_pass(self, monkeypatch, capsys, fmt):
        # the Fisher column comes from the residual pass, not a second one
        assert derivative_passes(monkeypatch, capsys, [
            "grover-trace", "1024", "--marked", "1,2,3", "--steps", "40",
            "--format", fmt]) == 1

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

    def test_bad_dphi_exits_2(self):
        assert run(["grover-trace", "4", "--marked", "0", "--steps", "1",
                    "--dphi", "0.5"]) == 2

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

    def test_one_state_per_segment(self, monkeypatch, capsys):
        # N = 8192: the targets of recursion steps 0..70 plus the final
        # pi/2 make 72 segments of about 217 RK4 steps; the command builds
        # the initial state and reads the last state of each segment,
        # nothing per step.
        built = []
        init = GeodesicState.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(GeodesicState, "__init__", counting)
        assert run(["geodesic-check", "8192"]) == 0
        capsys.readouterr()
        assert 0 < len(built) <= 72 + 1

    def test_one_kernel_pass_and_no_integrator_calls(self, monkeypatch, capsys):
        # N = 8192: the 72 segment ends are the stops of one stepping pass
        # that records no rows; integrate_geodesic, whose every call would
        # also run the kernel, is never called
        kernel_calls, integrator_calls = [], []
        kernel, integrate = geometry._rk4_to_stops, geometry.integrate_geodesic

        def counting_kernel(init, fisher_const, stops, dt, rows=False):
            kernel_calls.append((len(stops), rows))
            return kernel(init, fisher_const, stops, dt, rows)

        def counting_integrator(*args):
            integrator_calls.append(args)
            return integrate(*args)

        for module in (geometry, cli):
            monkeypatch.setattr(module, "_rk4_to_stops", counting_kernel)
            monkeypatch.setattr(module, "integrate_geodesic", counting_integrator,
                                raising=False)
        assert run(["geodesic-check", "8192"]) == 0
        capsys.readouterr()
        assert kernel_calls == [(72, False)]
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


class TestStdoutFallback:
    def test_trace_to_stdout(self, capsys):
        assert run(["grover-trace", "4", "--marked", "0", "--steps", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# format_version=1")


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
    line; each command checks only the options it takes."""

    BASE = {
        "grover-trace": ["grover-trace", "4", "--marked", "0", "--steps", "1"],
        "geodesic-check": ["geodesic-check", "4"],
        "factor": ["factor", "15", "--method", "shor", "--seed", "1"],
        "compare": ["compare", "15", "2", "--seed", "1"],
    }

    CASES = [
        *[(cmd, ["--dphi", value], f"dphi must lie in (0, 0.1], got {shown}")
          for cmd in ("grover-trace", "geodesic-check", "compare")
          for value, shown in (("0", "0.0"), ("0.5", "0.5"), ("nan", "nan"))],
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
        (["grover-trace", "64", "--marked", "0", "--steps", "10", "--memory-cap", "500"],
         "resampled path needs 512 amplitudes, cap is 500"),
        (["grover-trace", "64", "--marked", "0", "--steps", "300", "--memory-cap", "500"],
         "trajectory needs 602 amplitudes, cap is 500"),
    ])
    def test_exits_3_before_allocating(self, args, message, capsys):
        assert run(args) == 3
        assert capsys.readouterr().err == f"resource error: {message}\n"

    def test_trace_path_is_charged_before_its_grid(self, capsys):
        # 104 719 761 rows: the grid alone would be 799 MiB
        tracemalloc.start()
        try:
            assert run(["grover-trace", "4", "--marked", "0", "--steps", "2",
                        "--dphi", "2e-8", "--memory-cap", "1000"]) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err == (
            "resource error: resampled path needs 209439522 amplitudes, cap is 1000\n")
        assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("args", [
        ["grover-trace", "4", "--marked", "0", "--steps", "2"],
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
        # the Shor readout holds the complex column and its float distribution
        registers = self.peak_in_registers(["compare", "1023", "1022", "--seed", "1"], capsys)
        assert registers <= 1.75, f"peak {registers:.2f} registers"

    def test_amplified_factor_peak_is_under_a_register(self, capsys):
        # the amplified readout holds one float distribution and the marked
        # arguments' int64 indices
        registers = self.peak_in_registers(
            ["factor", "1023", "--method", "grover-adiabatic", "--seed", "1"], capsys)
        assert registers <= 0.6, f"peak {registers:.2f} registers"

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


class TestTraceRows:
    """grover-trace charges its output rows, per format, after its trajectory
    and resampled path and before it interpolates the step columns."""

    def test_rows_are_charged_before_they_are_built(self, capsys):
        # 20 001 rows at 41 cells each; the trajectory (40 002 cells) and the
        # resampled path (25 002 cells) fit the cap.  The run peaks at 1.1 MiB
        # before the charge, where the csv rows would add about 13 MB.
        tracemalloc.start()
        try:
            assert run(["grover-trace", "1024", "--marked", "0", "--steps", "20000",
                        "--dphi", "0.1", "--memory-cap", "100000"]) == 3
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
        # 655 B/row measured, with no dict per row
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
number_keys = st.integers() | json_floats | st.booleans()  # they sort among themselves


def json_containers(children):
    return st.one_of(
        st.lists(children, max_size=5), st.lists(children, max_size=5).map(tuple),
        st.lists(json_floats, max_size=5),
        st.dictionaries(text_keys, children, max_size=5),
        st.dictionaries(number_keys, children, max_size=5),
        # None keys, and mixed keys that do not sort
        st.dictionaries(text_keys | number_keys | st.none(), children, max_size=2))


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
