"""Self-test of the benchmark harness.

Usage, from the repository root::

    python3 bench/selftest.py

It runs every workload at a tiny size with tracing alternating off and on,
and checks that:

* every command passes its oracle and reruns byte-identically, traced or not,
  and passes its oracle in every probe;
* every per-layer metric of ``BENCHMARK.json`` is produced by some workload,
  and the counters repeat exactly between two runs with the same seed;
* the checker counts corrupted outputs as failed: a swapped factor pair, a
  trace row whose probabilities do not sum to 1, a geodesic report with
  ``"passed": false``, a rerun whose output differs, and a swapped factor
  pair in a probe;
* the tracer restores every binding it replaced;
* the Beta CDF matches its closed forms, and the Harrell-Davis quantile
  gives the known median and 90th percentile of 1..240;
* the harness exits non-zero, printing no result, outside a checkout.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import layers
import run
import workloads

ROOT = Path(__file__).resolve().parents[1]
COUNT_UNITS = ("count", "bytes")


def expect(condition: bool, message: str):
    if not condition:
        raise AssertionError(message)


def tiny_run(workload: str, seed: int = 3) -> tuple[list, dict]:
    commands = workloads.commands(workload, seed, tiny=True)
    return commands, run.measure(ROOT, commands, commands, seconds=0.0, trace=True)


def corrupt(child: dict, index: int, edit) -> dict:
    """A copy of ``child`` whose first output for command ``index`` is edited."""
    broken = copy.deepcopy(child)
    broken["outputs"][index] = edit(broken["outputs"][index])
    return broken


def json_edit(change):
    def edit(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)
    return edit


def expect_counted(commands, child, index: int, what: str):
    failed = {(k, i) for k, i, _ in run.failures(commands, child)}
    expected = {(k, index) for k in range(len(child["passes"]))}
    expect(failed == expected, f"{what}: counted {sorted(failed)}, want {sorted(expected)}")


def swap_factors(doc):
    doc["factors"].reverse()


def unbalance_row(doc):
    doc["rows"][1]["p_marked"] += 1e-3


def fail_report(doc):
    doc["passed"] = False


def check_workloads(per_layer_spec):
    produced, runs = {}, {}
    for workload in workloads.NAMES:
        commands, child = tiny_run(workload)
        expect([p["traced"] for p in child["passes"]] == [False, True, False],
               f"{workload}: expected warm-up, traced and untraced passes")
        expect(not run.failures(commands, child),
               f"{workload}: {run.failures(commands, child)}")
        expect(len(child["probes"]) == run.SETUP_PROBES
               and not run.probe_failures(commands, child),
               f"{workload}: probes {run.probe_failures(commands, child)}")
        values = run.per_layer(child)
        for name, value in values.items():
            produced[name] = produced.get(name, 0) or value
        runs[workload] = (commands, child, values)

    for metric in per_layer_spec:
        if metric["name"] != "trace.overhead_s":
            expect(produced.get(metric["name"], 0) > 0,
                   f"no workload produced {metric['name']}")

    counted = [m["name"] for m in per_layer_spec if m["unit"] in COUNT_UNITS]
    for workload, (_, _, first) in runs.items():
        again = run.per_layer(tiny_run(workload)[1])
        changed = [n for n in counted if first.get(n, 0) != again.get(n, 0)]
        expect(not changed, f"{workload}: counters differ between runs: {changed}")
    return runs


def check_corruption(runs):
    commands, child, _ = runs["factor-sweep"]
    expect_counted(commands, corrupt(child, 0, json_edit(swap_factors)), 0,
                   "swapped factor pair")
    broken = copy.deepcopy(child)
    broken["probes"][2]["outputs"][1] = json_edit(swap_factors)(
        broken["probes"][2]["outputs"][1])
    failed = [(k, i) for k, i, _ in run.probe_failures(commands, broken)]
    expect(failed == [(2, 1)], f"swapped factor pair in a probe: counted {failed}")

    commands, child, _ = runs["search"]
    index = next(i for i, argv in enumerate(commands) if "json" in argv)
    expect_counted(commands, corrupt(child, index, json_edit(unbalance_row)), index,
                   "trace row off the simplex")
    index = next(i for i, argv in enumerate(commands) if argv[0] == "geodesic-check")
    expect_counted(commands, corrupt(child, index, json_edit(fail_report)), index,
                   "failed geodesic report")

    commands, child, _ = runs["period"]
    broken = copy.deepcopy(child)
    broken["passes"][1]["digests"][0] = "0" * 64
    failed = [(k, i) for k, i, _ in run.failures(commands, broken)]
    expect(failed == [(1, 0)], f"differing rerun: counted {failed}")


def check_restore():
    sys.path.insert(0, str(ROOT / "src"))
    import qgeodesic.period
    import qgeodesic.states

    modules = [m for name, m in sys.modules.items() if name.startswith("qgeodesic")]
    before = [dict(vars(m)) for m in modules]
    measure = qgeodesic.period.measure_register
    post_init = qgeodesic.states.StateVector.__post_init__
    with layers.Tracer():
        expect(qgeodesic.period.measure_register is not measure,
               "period.measure_register not wrapped")
    for module, bindings in zip(modules, before):
        replaced = [k for k, v in bindings.items() if vars(module)[k] is not v]
        expect(not replaced, f"tracer left {module.__name__}.{replaced} replaced")
    expect(qgeodesic.states.StateVector.__post_init__ is post_init,
           "tracer left StateVector.__post_init__ replaced")


def check_quantiles():
    # I_x(a, b) in closed form: I_x(1, b) = 1 - (1-x)^b, I_x(a, 1) = x^a.
    for a, b, x, want in ((1, 3, 0.3, 1 - 0.7 ** 3), (2.5, 1, 0.6, 0.6 ** 2.5),
                          (120.5, 120.5, 0.5, 0.5), (3.6, 0.4, 1 / 3, None)):
        got = run.beta_cdf(a, b, x)
        expect(0 <= got <= 1 and (want is None or abs(got - want) < 1e-12),
               f"beta_cdf({a}, {b}, {x}) = {got}, want {want}")
    values = [float(v) for v in range(1, 241)]
    expect(abs(run.harrell_davis(values, 0.5) - 120.5) < 1e-9, "HD median of 1..240")
    p90 = run.harrell_davis(values, 0.9)
    expect(215 < p90 < 218, f"HD p90 of 1..240 is {p90}")
    gapped = [1.0] * 101 + [10.0] * 139
    expect(1.0 < run.harrell_davis(gapped, 0.5) <= 10.0, "HD median of a gapped sample")


def check_outside_checkout():
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "bench", Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "search", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"outside a checkout: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = check_workloads(spec["per_layer"])
    check_corruption(runs)
    check_restore()
    check_quantiles()
    check_outside_checkout()
    print("bench self-test: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
