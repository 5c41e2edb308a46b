"""Regenerate ``pools.json``, the seeded inputs the ``period`` and
``factor-sweep`` workloads draw from.

The cost of ``compare`` and ``factor`` is set by how often their random
draws fail: each failed Shor sample rebuilds and transforms the dense q x N
pair state, and each failed base draw runs period finding again.  Drawing
seeds freely makes the work of a run, and with it the median and the tail of
its command latencies, swing by a factor of two to five between benchmark
seeds.  The pools therefore fix how much random work each drawn input does,
read from the command's own report:

* ``compare``: for each N, (y, seed) pairs that need exactly two Shor
  attempts, one failing and one succeeding.
* ``factor``: for each N and method, the RNG seeds are split into three
  outcome classes.  ``shared-factor``: the first base shares a factor with
  N, and no period finding runs.  ``single-shot``: the first base factors N
  with one Shor sample or one round of Grover readouts.  ``retry``: every
  other successful draw, through failed samples, odd periods or trivial
  roots.  A run draws from each class in the proportion it has over the
  acceptance suite's seeds 0..199.  The ``retry`` pool holds only seeds whose
  period-finding work (Shor samples, or Grover rounds) equals the median of
  that class over the same seeds, so the long tail of many retries is
  represented at the median's cost.

Every benchmark seed then does the same amount of work on different inputs.
Only inputs on which the command succeeds are kept, so the pools are also
free of failing commands.

Usage, from the repository root::

    python3 bench/make_pools.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
import sys
import tempfile
from pathlib import Path

from workloads import FACTOR_METHODS, FACTOR_SEEDS

ROOT = Path(__file__).resolve().parents[1]
PATH = Path(__file__).with_name("pools.json")

COMPARE_MODULI = (15, 21, 91, 119, 143)
COMPARE_SHOR_ATTEMPTS = 2
COMPARE_POOL = 8

FACTOR_MODULI = (15, 21, 33, 35, 39, 45)
FACTOR_SAMPLES = 3  # the CLI's default --samples
FACTOR_CLASSES = ("shared-factor", "single-shot", "retry")
SUITE_SEEDS = range(200)  # the seeds of acceptance criterion 5
FACTOR_POOL = 40


def _report(cli_main, out: Path, argv: list[str]) -> dict | None:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv + ["--out", str(out)])
    return json.loads(out.read_text()) if code == 0 else None


def compare_pool(cli_main, out: Path, n: int) -> list[list[int]]:
    rng = random.Random(n)
    bases = [y for y in range(2, n) if math.gcd(y, n) == 1]
    pairs = []
    while len(pairs) < COMPARE_POOL:
        y, s = rng.choice(bases), rng.randrange(1 << 20)
        doc = _report(cli_main, out, ["compare", str(n), str(y), "--seed", str(s),
                                      "--budget", str(COMPARE_SHOR_ATTEMPTS)])
        if (doc and doc["methods"]["shor"]["attempts"] == COMPARE_SHOR_ATTEMPTS
                and [y, s] not in pairs):
            pairs.append([y, s])
    return pairs


def work_units(doc: dict) -> int:
    """Shor samples, or rounds of Grover readouts, over all attempts."""
    if doc["method"] == "shor":
        return doc["oracle_calls"]
    return doc["measurements"] // FACTOR_SAMPLES


def outcome_class(doc: dict | None) -> str | None:
    """The draw's class, or None if the command failed."""
    if not doc or not doc["succeeded"]:
        return None
    outcomes = [a["outcome"] for a in doc["attempts"]]
    if outcomes == ["shared-factor"]:
        return "shared-factor"
    if outcomes == ["factored"] and work_units(doc) == 1:
        return "single-shot"
    return "retry"


def shares(counts: dict[str, int], total: int) -> dict[str, int]:
    """``counts`` scaled to sum to ``total``, by largest remainder."""
    whole = sum(counts.values())
    exact = {name: total * c / whole for name, c in counts.items()}
    result = {name: math.floor(x) for name, x in exact.items()}
    by_remainder = sorted(exact, key=lambda name: result[name] - exact[name])
    for name in by_remainder[:total - sum(result.values())]:
        result[name] += 1
    return result


def factor_pools(cli_main, out: Path, n: int, method: str) -> dict[str, dict]:
    def run(seed):
        return _report(cli_main, out, ["factor", str(n), "--method", method,
                                       "--seed", str(seed)])

    suite = [(doc, outcome_class(doc)) for doc in map(run, SUITE_SEEDS)]
    counts = {name: sum(c == name for _, c in suite) for name in FACTOR_CLASSES}
    retry_units = statistics.median_low(
        work_units(doc) for doc, c in suite if c == "retry")
    per_run = shares(counts, FACTOR_SEEDS)

    rng = random.Random(f"{n}/{method}")
    pools = {name: [] for name in FACTOR_CLASSES}
    while any(len(seeds) < FACTOR_POOL for seeds in pools.values()):
        s = rng.randrange(1 << 20)
        doc = run(s)
        name = outcome_class(doc)
        if (name and len(pools[name]) < FACTOR_POOL and s not in pools[name]
                and (name != "retry" or work_units(doc) == retry_units)):
            pools[name].append(s)
    return {name: {"per_run": per_run[name], "seeds": pools[name]}
            for name in FACTOR_CLASSES}


def _section(name: str, entries: dict) -> str:
    """One JSON object member with one line per pool."""
    body = ",\n".join(f"  {json.dumps(key)}: {json.dumps(values)}"
                      for key, values in entries.items())
    return f" {json.dumps(name)}: {{\n{body}\n }}"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from qgeodesic.cli import main as cli_main

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = Path(tmp) / "report.json"
        factor = {}
        for n in FACTOR_MODULI:
            for method in FACTOR_METHODS:
                for name, pool in factor_pools(cli_main, out, n, method).items():
                    factor[f"{n} {method} {name}"] = pool
        pools = {
            "compare": {str(n): compare_pool(cli_main, out, n) for n in COMPARE_MODULI},
            "factor": factor,
        }
    PATH.write_text("{\n" + ",\n".join(
        _section(name, entries) for name, entries in pools.items()) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
