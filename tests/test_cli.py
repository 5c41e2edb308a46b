"""Command-line behavior: outputs, formats, exit codes, determinism."""

import json
import os
import stat
from importlib import resources

import numpy as np
import pytest

from qgeodesic import cli
from qgeodesic.cli import _emit, main

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

    def test_empty_marked_exits_2(self, capsys):
        assert run(["grover-trace", "4", "--marked", "", "--steps", "1"]) == 2
        assert "error" in capsys.readouterr().err

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


class TestFactorModuli:
    def test_prime_power_reports_the_prime(self, capsys):
        assert run(["factor", "81", "--method", "shor", "--seed", "1"]) == 2
        assert "(trivial factor 3)" in capsys.readouterr().err

    def test_modulus_beyond_float_range_is_a_usage_error(self, capsys):
        assert run(["factor", str(3 * 7**500), "--method", "shor", "--seed", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: modulus of 1406 bits is beyond the simulator's signed "
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
