"""Workload benchmark for the four qgeodesic CLI commands.

Usage, from the repository root::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed generates the workload's CLI argument lists (see ``workloads.py``).
One fresh single-threaded child process imports ``qgeodesic`` from ``src/``
once and runs the list in passes through ``qgeodesic.cli.main(argv)``, with
every ``--out`` in a private directory under ``.bench_work/``.  Between the
passes, while that child waits, short-lived probe children import the CLI
and run the workload's tiny command list once, cold: they measure the set-up
every fresh CLI process pays, import and first calls together.  Every output is
checked by an oracle, and every command of the workload is rerun and
compared byte for byte.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the ``end_to_end``
metrics of ``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics
with ``--trace 1``.  The line before it describes the machine and the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"
SETUP_PROBES = 16  # timed probes per run, at least
MIN_PASSES = 3  # the warm-up pass and two timed passes
RUN_LIMIT_S = 150  # every process of a run is stopped by then
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env(src: Path, work: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env.update(PYTHONPATH=str(src), TMPDIR=str(work), PYTHONHASHSEED="0")
    return env


def write_spec(work: Path, name: str, commands) -> Path:
    """A child's spec file, with its own output directory."""
    out_dir = work / name
    out_dir.mkdir()
    path = work / f"{name}.json"
    path.write_text(json.dumps({"commands": commands, "work_dir": str(out_dir)}))
    return path


def checked_import(report: dict, src: Path):
    if Path(report["qgeodesic_file"]).resolve().parent.parent != src:
        raise BenchError(f"imported qgeodesic from {report['qgeodesic_file']}, not {src}")


class Probe:
    """Short-lived children: each imports the CLI, runs the workload's tiny
    command list once, cold, and exits."""

    def __init__(self, spec: Path, env, src: Path, deadline: float):
        self.args = [sys.executable, str(CHILD), "--probe", str(spec)]
        self.env, self.src, self.deadline = env, src, deadline

    def __call__(self) -> dict:
        launched = time.monotonic()
        try:
            proc = subprocess.run(self.args, env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - launched))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"probe still running after {RUN_LIMIT_S} s") from exc
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"probe exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        report = json.loads(lines[-1])
        checked_import(report, self.src)
        import_s = report["imported_at"] - launched
        return {"import_s": import_s, "setup_s": import_s + report["cold_s"],
                "codes": report["codes"], "outputs": report["outputs"]}


class Child:
    """The workload process, driven one pass at a time over its stdin."""

    def __init__(self, spec: Path, env, src: Path, deadline: float, work: Path):
        self.stderr = open(work / "child.err", "w+", encoding="utf-8")
        self.proc = subprocess.Popen([sys.executable, str(CHILD), str(spec)], env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.stderr, text=True)
        self.timer = threading.Timer(max(0.0, deadline - time.monotonic()), self.proc.kill)
        self.timer.daemon = True
        self.timer.start()
        try:
            checked_import(self._read(), src)
        except BaseException:
            self.close()
            raise

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            self.stderr.seek(0)
            raise BenchError(f"child exited {self.proc.returncode} "
                             f"(killed after {RUN_LIMIT_S} s if -9):\n"
                             f"{self.stderr.read()[-2000:]}")
        return json.loads(line)

    def _ask(self, request: str) -> dict:
        try:
            self.proc.stdin.write(request + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass  # the child has exited; _read reports how
        return self._read()

    def run_pass(self, traced: bool) -> dict:
        return self._ask("traced" if traced else "plain")

    def end(self) -> dict:
        return self._ask("end")

    def close(self):
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout, self.stderr):
            try:
                stream.close()
            except BrokenPipeError:
                pass


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


def machine(child: dict) -> dict:
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l3": _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip() or "unknown",
        "ram_bytes": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"),
        "python": child["python"],
        "numpy": child["numpy"],
        "threads_env": {name: "1" for name in THREAD_VARS},
    }


def failures(commands, child) -> list[tuple[int, int, str]]:
    """(pass, command, reason) for every execution that failed a check.

    The first pass's outputs are checked by the oracles; later passes must
    reproduce them byte for byte, with tracing on or off."""
    passes = child["passes"]
    first = passes[0]
    found = []
    for i, argv in enumerate(commands):
        reason = workloads.check(argv, first["codes"][i], child["outputs"][i])
        for k, record in enumerate(passes):
            if reason:
                found.append((k, i, reason))
            elif (record["digests"][i], record["codes"][i]) != (
                    first["digests"][i], first["codes"][i]):
                found.append((k, i, "output differs from the first pass"))
    return found


def probe_failures(probe_commands, child) -> list[tuple[int, int, str]]:
    """(probe, command, reason) for every probe execution that failed its oracle."""
    return [(k, i, reason)
            for k, probe in enumerate(child["probes"])
            for i, argv in enumerate(probe_commands)
            if (reason := workloads.check(argv, probe["codes"][i], probe["outputs"][i]))]


def timed_passes(child, traced: bool) -> list[dict]:
    """The passes after the warm-up pass, traced or untraced."""
    return [p for p in child["passes"][1:] if p["traced"] == traced]


def lower_quartile(values) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            return h
    raise ArithmeticError(f"incomplete beta ({a}, {b}, {x}) did not converge")


def beta_cdf(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
    order statistics.  Unlike the interpolated sample quantile it does not
    jump when the quantile falls in a gap between clusters of latencies, as
    the median of ``factor-sweep`` does (fast shared-factor commands below,
    period-finding ones above)."""
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def pass_quantile_ms(passes, q: float) -> float:
    """Median over ``passes`` of each pass's own q-quantile of its command
    latencies.  A pass has few commands on some workloads, where a quantile
    pooled over all passes would sit on the slowest samples of the run."""
    return 1e3 * statistics.median(harrell_davis(p["latencies_s"], q) for p in passes)


def end_to_end(child) -> dict[str, float]:
    passes = timed_passes(child, traced=False)
    return {
        "setup_s": lower_quartile([p["setup_s"] for p in child["probes"]]),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cmd_p50_ms": pass_quantile_ms(passes, 0.5),
        "cmd_p90_ms": pass_quantile_ms(passes, 0.9),
        "peak_rss_mb": child["peak_rss_kb"] / 1024,
    }


def per_layer(child) -> dict[str, float]:
    untraced = timed_passes(child, traced=False)
    traced = timed_passes(child, traced=True)
    values = {}
    for key in {key for p in traced for key in p["layers"]}:
        samples = [p["layers"].get(key, 0) for p in traced]
        # Counts repeat in every pass; median_low keeps them whole numbers.
        values[key] = (statistics.median_low(samples) if isinstance(samples[0], int)
                       else statistics.median(samples))
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - statistics.median(
        p["wall_s"] for p in untraced)
    values["cli.import_s"] = lower_quartile([p["import_s"] for p in child["probes"]])
    values["cli.output_bytes"] = sum(len(out.encode()) for out in child["outputs"])
    return values


def measure(root: Path, commands, probe_commands, seconds: float, trace: bool) -> dict:
    """Run ``commands`` in passes in one fresh child, and ``probe_commands``
    in short-lived probes started between the passes; returns the child's
    passes and final report with the probes' results under ``probes``.

    The whole run, the untimed first probe and warm-up pass included, ends
    about ``seconds`` after it starts: once MIN_PASSES have run, another pass
    starts only if it and the probes before it are expected to end by then."""
    src = root / "src"
    if not (src / "qgeodesic" / "cli.py").is_file():
        raise BenchError(f"run from a qgeodesic checkout: no {src / 'qgeodesic'}")
    work_root = root / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    child = None
    try:
        env = child_env(src, work)
        probe = Probe(write_spec(work, "probe", probe_commands), env, src, deadline)
        probe()  # compiles the package's bytecode; not timed
        probe_s = time.monotonic() - started
        child = Child(write_spec(work, "main", commands), env, src, deadline, work)
        passes = [child.run_pass(traced=False)]  # warm-up
        # Spread the probes over the run: about SETUP_PROBES in the gaps.
        left = started + seconds - time.monotonic() - SETUP_PROBES * probe_s
        per_gap = math.ceil(SETUP_PROBES / max(1.0, left / passes[0]["wall_s"]))
        probes = []
        while True:
            passes.append(child.run_pass(traced=trace and len(passes) % 2 == 1))
            next_end = time.monotonic() + per_gap * probe_s + passes[-1]["wall_s"]
            if len(passes) >= MIN_PASSES and (
                    next_end > started + seconds
                    or time.monotonic() + 2 * passes[-1]["wall_s"] > deadline):
                break
            probes += [probe() for _ in range(per_gap)]
        final = child.end()
        probes += [probe() for _ in range(SETUP_PROBES - len(probes))]
    finally:
        if child:
            child.close()
        shutil.rmtree(work, ignore_errors=True)
        if not any(work_root.iterdir()):
            work_root.rmdir()
    return {**final, "passes": passes, "probes": probes}


def run(args) -> dict:
    root = Path.cwd().resolve()
    spec_file = root / "BENCHMARK.json"
    if not spec_file.is_file():
        raise BenchError(f"run from a qgeodesic checkout: no {spec_file}")
    wanted = json.loads(spec_file.read_text())["per_layer" if args.trace else "end_to_end"]
    commands = workloads.commands(args.workload, args.seed)
    probe_commands = workloads.commands(args.workload, args.seed, tiny=True)
    child = measure(root, commands, probe_commands, args.seconds, bool(args.trace))

    values = per_layer(child) if args.trace else end_to_end(child)
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    failed = failures(commands, child)
    for k, i, reason in failed[:10]:
        print(f"FAILED pass {k} `{' '.join(commands[i])}`: {reason}", file=sys.stderr)
    failed_probes = probe_failures(probe_commands, child)
    for k, i, reason in failed_probes[:10]:
        print(f"FAILED probe {k} `{' '.join(probe_commands[i])}`: {reason}", file=sys.stderr)
    attempted = (len(commands) * len(child["passes"])
                 + len(probe_commands) * len(child["probes"]))
    n_failed = len(failed) + len(failed_probes)
    print(json.dumps({
        "machine": machine(child),
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "commands": len(commands), "passes": len(child["passes"]),
        "traced_passes": sum(p["traced"] for p in child["passes"]),
        "probe_commands": len(probe_commands), "probes": len(child["probes"]),
        "latency_samples": sum(len(p["latencies_s"])
                               for p in timed_passes(child, traced=False)),
        "failed_frac": n_failed / attempted,
    }))
    return {"correct": not n_failed, "attempted": attempted, "failed": n_failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
