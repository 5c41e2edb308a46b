"""Workload generators and output checkers for the CLI benchmark.

A workload turns a seed into a list of CLI argument lists.  The program under
test receives nothing but those argv lists.  Every check is an oracle on the
output, independent of the package: none compares against a recorded hash,
so a change that legitimately alters seeded readouts still passes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from pathlib import Path

NAMES = ("search", "period", "factor-sweep")

TRACE_MARKED = 4
PROB_SUM_TOL = 1e-9
# The trace resamples the closed-form path at dphi = 0.01; the central
# difference error of the Fisher estimate is O(dphi^2), well inside 1e-3.
FISHER_TOL = 1e-3

PERIOD_MODULI = ("91", "119", "143")
PERIOD_PER_MODULUS = 2
FACTOR_SEEDS = 20  # per N and method, split over the outcome classes
FACTOR_METHODS = ("shor", "grover-adiabatic")
TINY_MODULI = ("15", "21")
# Inputs with a fixed amount of random work; see make_pools.py.
_POOLS = Path(__file__).with_name("pools.json")


def optimal_steps(n_items: int, n_marked: int) -> int:
    """floor(pi / (4 theta)) with sin(theta)^2 = M / N."""
    return math.floor(math.pi / (4 * math.asin(math.sqrt(n_marked / n_items))))


def _search(rng: random.Random, tiny: bool) -> list[list[str]]:
    n = 256 if tiny else 65536
    marked = ",".join(str(i) for i in sorted(rng.sample(range(n), TRACE_MARKED)))
    steps = str(optimal_steps(n, TRACE_MARKED))
    geodesic = ["geodesic-check", "64" if tiny else "8192"]
    return [geodesic] + [["grover-trace", str(n), "--marked", marked, "--steps", steps,
                          "--format", fmt] for fmt in ("csv", "json")]


def _period(rng: random.Random, tiny: bool) -> list[list[str]]:
    pool = json.loads(_POOLS.read_text())["compare"]
    moduli, per_modulus = (TINY_MODULI, 1) if tiny else (PERIOD_MODULI, PERIOD_PER_MODULUS)
    return [["compare", n, str(y), "--seed", str(s)]
            for n in moduli for y, s in rng.sample(pool[n], per_modulus)]


def _factor_sweep(rng: random.Random, tiny: bool) -> list[list[str]]:
    """Per N and method, ``per_run`` seeds from each outcome class's pool;
    one per class when tiny."""
    commands = []
    for key, pool in json.loads(_POOLS.read_text())["factor"].items():
        n, method, _ = key.split()
        if tiny and n not in TINY_MODULI:
            continue
        count = min(pool["per_run"], 1) if tiny else pool["per_run"]
        commands += [["factor", n, "--method", method, "--seed", str(s)]
                     for s in rng.sample(pool["seeds"], count)]
    return commands


_GENERATORS = {
    "search": _search,
    "period": _period,
    "factor-sweep": _factor_sweep,
}


def commands(workload: str, seed: int, tiny: bool = False) -> list[list[str]]:
    """The workload's command list for ``seed``; ``tiny`` shrinks every size."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")
    return _GENERATORS[workload](random.Random(f"{workload}/{seed}"), tiny)


def _option(argv: list[str], flag: str, default: str | None = None) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else default


def order(y: int, n: int) -> int:
    """Multiplicative order of y modulo n, by iteration."""
    value, r = y % n, 1
    while value != 1:
        value, r = value * y % n, r + 1
    return r


def _check_geodesic(argv, doc) -> str | None:
    if doc.get("n_items") != int(argv[1]):
        return "report is for another N"
    if doc.get("passed") is not True:
        return "geodesic report did not pass"
    return None


def _trace_rows(argv, text) -> list[dict]:
    if _option(argv, "--format", "csv") == "json":
        return json.loads(text)["rows"]
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return [{key: float(value) for key, value in row.items()}
            for row in csv.DictReader(io.StringIO("\n".join(lines)))]


def _check_trace(argv, rows) -> str | None:
    steps = int(_option(argv, "--steps"))
    if [int(row["step"]) for row in rows] != list(range(steps + 1)):
        return "trace rows do not cover steps 0..K"
    for row in rows:
        if abs(row["p_marked"] + row["p_unmarked"] - 1.0) > PROB_SUM_TOL:
            return f"step {int(row['step'])}: p_marked + p_unmarked != 1"
        if abs(row["fisher_estimate"] - 4.0) > FISHER_TOL:
            return f"step {int(row['step'])}: fisher estimate {row['fisher_estimate']} != 4"
    return None


def _check_compare(argv, doc) -> str | None:
    n, y = int(argv[1]), int(argv[2])
    if doc["instance"]["modulus"] != n or doc["instance"]["base"] != y:
        return "report is for another instance"
    expected = order(y, n)
    for method, report in doc["methods"].items():
        if not report["succeeded"] or report["period"] != expected:
            return f"{method}: period {report['period']} != order {expected}"
    return None


def _check_factor(argv, doc) -> str | None:
    n = int(argv[1])
    if doc["modulus"] != n or not doc["succeeded"] or not doc["factors"]:
        return "no factorization reported"
    p, q = doc["factors"]
    if not 1 < p <= q < n or p * q != n:
        return f"factors {p} x {q} are not an ascending nontrivial split of {n}"
    return None


def check(argv: list[str], code, output: str) -> str | None:
    """Why the command's exit code and output file are wrong, or None."""
    if code != 0:
        return f"exit code {code!r}"
    try:
        if argv[0] == "grover-trace":
            return _check_trace(argv, _trace_rows(argv, output))
        doc = json.loads(output)
        if argv[0] == "geodesic-check":
            return _check_geodesic(argv, doc)
        if argv[0] == "compare":
            return _check_compare(argv, doc)
        if argv[0] == "factor":
            return _check_factor(argv, doc)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed output: {exc!r}"
    return f"no checker for command {argv[0]!r}"
