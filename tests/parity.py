"""Byte identity of every command against a git revision, on a longer
command list than the golden set.

Usage::

    python tests/parity.py REV

extracts ``git archive REV`` to a temporary directory, then runs the command
list below twice, each time in a fresh process that imports one tree's
``src``: REV's, then this work tree's.  Each process runs the commands
in-process with the runner and digests of ``test_golden.py`` (exit code,
stdout, stderr and ``--out`` bytes).  The script prints every command whose
digests differ and one summary line, and exits 1 if any differ, except in a
subcommand whose output the work tree changes on purpose: one that has a
command in ``tests/golden.json`` at both REV and the work tree with a
different digest.  Differences in such a subcommand are listed as accepted
and do not fail the run; a golden command that is only added accepts
nothing.

The list holds the golden commands; ``factor`` N = 3..50 with both methods
at seeds 0-3; ``compare`` over every valid base of 13 moduli up to 143 at
seeds 0-1; ``geodesic-check`` at 14 sizes; 60 seeded random
``grover-trace`` runs, half csv and half json; and the q = 2^20, 2^22 and
2^24 instances ``compare 1023 1022``, ``compare 2047 2`` (r = 11, odd, so
the readout kernel's period is all of q), ``compare 4087 3``, ``factor
1023`` and ``factor 4087`` with both methods at seeds 0-2.  It takes
minutes and peaks near 0.7 GiB per process at q = 2^24, so it is not part
of the test suite.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
METHODS = ("shor", "grover-adiabatic")
COMPARE_MODULI = (15, 21, 33, 35, 39, 45, 51, 55, 57, 63, 65, 91, 143)


def commands(test_golden) -> list[list[str]]:
    """The golden commands, then the extended list, each once."""
    extended = [["factor", str(n), "--method", method, "--seed", str(seed)]
                for n in range(3, 51) for method in METHODS for seed in range(4)]
    extended += [["compare", str(n), str(y), "--seed", str(seed)]
                 for n in COMPARE_MODULI for y in range(2, n) if math.gcd(y, n) == 1
                 for seed in range(2)]
    extended += [["geodesic-check", str(n)]
                 for n in (1, 2, 3, 4, 5, 7, 16, 100, 1024, 8192, 65536, 10**6,
                           2**24, 2**26)]
    rng = random.Random(16)
    for index in range(60):
        n = rng.choice((2, 4, rng.randrange(3, 1000), rng.randrange(1000, 2**26)))
        marked = sorted({rng.randrange(n) for _ in range(rng.randint(1, 4))})
        if len(marked) == n:
            marked = marked[:1]
        steps = rng.randrange(0, 400)
        extended.append(["grover-trace", str(n), "--marked", ",".join(map(str, marked)),
                         "--steps", str(steps), "--format", ("csv", "json")[index % 2]])
    extended += [[*instance, "--seed", str(seed)]
                 for instance in (["compare", "1023", "1022"], ["compare", "2047", "2"],
                                  ["compare", "4087", "3"],
                                  *(["factor", n, "--method", method]
                                    for n in ("1023", "4087") for method in METHODS))
                 for seed in range(3)]
    keys = {test_golden._key(args): args for args in test_golden.COMMANDS + extended}
    return list(keys.values())


def side_digests(src: Path) -> tuple[dict, float]:
    """The digests of every command in a fresh process importing ``src``,
    and the seconds it took."""
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "digests.json"
        start = time.monotonic()
        subprocess.run([sys.executable, __file__, "--digests", str(src), str(out)],
                       env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        return json.loads(out.read_text()), time.monotonic() - start


def changed_subcommands(sha: str) -> set[str]:
    """The subcommands with a golden digest that differs between ``sha``
    and the work tree, over the commands that both record."""
    shown = subprocess.run(["git", "show", f"{sha}:tests/golden.json"], cwd=REPO,
                           capture_output=True, text=True)
    theirs = json.loads(shown.stdout)["commands"] if shown.returncode == 0 else {}
    ours = json.loads((REPO / "tests" / "golden.json").read_text())["commands"]
    return {key.split(" ")[0] for key in ours.keys() & theirs.keys()
            if ours[key] != theirs[key]}


def main(rev: str) -> int:
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=REPO,
                         check=True, capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory() as tree:
        archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=REPO,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
        theirs, their_s = side_digests(Path(tree) / "src")
    ours, our_s = side_digests(REPO / "src")
    differ = [key for key in ours if ours[key] != theirs.get(key)]
    changed = changed_subcommands(sha)
    accepted = [key for key in differ if key.split(" ")[0] in changed]
    for key in differ:
        print(f"differs{' (golden digests changed)' if key in accepted else ''}: {key}")
    print(f"parity: {len(ours)} commands, {len(differ)} differ between {rev} "
          f"({sha[:12]}, {their_s:.0f} s) and the work tree ({our_s:.0f} s), "
          f"{len(accepted)} of them in subcommands whose golden digests changed")
    return 1 if len(differ) > len(accepted) else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--digests"]:  # one side, in its own process
        src, out = map(Path, sys.argv[2:4])
        import qgeodesic
        import test_golden  # imports the package: only a side's process does
        assert Path(qgeodesic.__file__).resolve().is_relative_to(src.resolve()), \
            f"imported {qgeodesic.__file__}, not the tree at {src}"
        out.write_text(json.dumps(test_golden.run_all(commands(test_golden))))
        sys.exit(0)
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} REV")
    sys.exit(main(sys.argv[1]))
