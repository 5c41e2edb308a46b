"""Command-line entry point for reproducible, file-oriented experiments.

Subcommands::

    qgeodesic grover-trace N --marked 0[,i,...] --steps K [--out F] [--format csv|json]
    qgeodesic geodesic-check N [--out F]
    qgeodesic factor N --method {shor,grover-adiabatic} --seed S [--out F]
    qgeodesic compare N Y --seed S [--out F]

Exit codes: 0 success, 1 check or budget failure, 2 usage error,
3 resource limit.  Every command is deterministic given its arguments and
seed; output files are written atomically (temp file + rename) and re-runs
produce byte-identical bytes.

Importing this module loads the search layers (``states``, ``paths``,
``grover``, ``geometry``); ``factor`` and ``compare`` load ``period`` when
they run.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import operator
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .geometry import (
    GeodesicState,
    _rk4_propagate,
    _rk4_schedule,
    class_step_angles,
    geodesic_columns,
)
from .grover import GroverInstance, class_path, phi_of_step, recursion_trajectory
from .states import (
    DEFAULT_BUDGET,
    DEFAULT_MEMORY_CAP,
    DEFAULT_SAMPLES,
    FORMAT_VERSION,
    GROVER_ADIABATIC,
    SHOR,
    ResourceLimitError,
    require_amplitudes,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

GEODESIC_DT = 1e-4

TRACE_COLUMNS = (
    "step", "phi", "p_marked", "p_unmarked",
    "fisher_estimate", "geodesic_residual_max", "action_cumulative",
)
# A csv row: the step, then each float to 17 digits (round-trip safe).
_TRACE_ROW = "%d," + ",".join(["%.17g"] * (len(TRACE_COLUMNS) - 1))
# A json row as _json_text writes it in the document's "rows" list: keys in
# sorted order, the step by %d and each float by its repr; the getter puts a
# row's values in that order.
_TRACE_JSON_ROW = "{\n" + ",\n".join(
    f'      "{name}": %{"d" if name == "step" else "r"}' for name in sorted(TRACE_COLUMNS)
) + "\n    }"
_TRACE_JSON_ORDER = operator.itemgetter(*map(TRACE_COLUMNS.index, sorted(TRACE_COLUMNS)))

# Peak bytes per output row while grover-trace builds its text, in 16-byte
# amplitude units: tracemalloc of `grover-trace 67108864 --marked 0 --steps
# 20000` peaks at 646 B/row for csv and 1085 B/row for json.  The json charge
# is the 2117 B/row that json.dumps took, kept so that no cap case moves.
_TRACE_ROW_AMPLITUDES = {"csv": 41, "json": 133}


def _emit(text: str, path: str | None):
    """Write atomically to ``path``, or to stdout when no path is given.

    The text goes to a new temp file ``<path>.<pid>.<n>.tmp`` beside
    ``path`` that is renamed over it.  The file is created exclusively, so
    overlapping runs and threads never share one (a name that exists
    already is skipped for the next n), and with mode 0o666, which the
    kernel narrows by the umask as it does for ``open()``.  A failed write
    leaves neither a temp file nor a partial target behind, and its OSError
    names ``path`` as its ``filename``, with its text kept as ``strerror``.
    """
    if path is None:
        sys.stdout.write(text)
        return
    data = memoryview(text.encode("utf-8"))
    stem = f"{os.path.abspath(path)}.{os.getpid()}."
    try:
        for n in itertools.count():
            tmp = f"{stem}{n}.tmp"
            with contextlib.suppress(FileExistsError):
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                break
        try:
            try:
                while data:  # a write may stop short, past 2 GiB on Linux
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:  # strerror first: a filename changes str(exc)
        exc.strerror, exc.filename = exc.strerror or str(exc), path
        raise


def _json_text(document: dict) -> str:
    """``json.dumps(document, indent=2, sort_keys=True) + "\\n"``, byte for
    byte, for str keys and dict, list, tuple, str, int, float, bool or None
    values; any other type raises TypeError.  json runs its pure-Python
    encoder whenever ``indent`` is set; this joins each container once."""
    return _json_value(document, "\n") + "\n"


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_value(value, newline: str) -> str:
    """One JSON value as json writes it at the depth whose line break and
    indent is ``newline``; a str, int or float subclass as its base."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float):  # its repr, or json's NaN and +-Infinity
        text = float.__repr__(value)
        return _NONFINITE.get(text, text)
    if isinstance(value, bool):  # before int, its base
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if value is None:
        return "null"
    if isinstance(value, (list, tuple)):
        opener, closer = "[", "]"
    elif isinstance(value, dict):
        opener, closer = "{", "}"
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} "
                        "is not JSON serializable")
    if not value:
        return opener + closer
    inner = newline + "  "
    separator = "," + inner
    if opener == "{":
        # encode_basestring_ascii raises TypeError for a key that is not str
        items = [f"{encode_basestring_ascii(key)}: {_json_value(item, inner)}"
                 for key, item in sorted(value.items())]
    elif all(type(item) is float for item in value) and "n" not in (
            text := separator.join(map(float.__repr__, value))):
        items = [text]  # finite reprs hold no "n"; nan and inf go item by item
    else:
        items = [_json_value(item, inner) for item in value]
    # The brackets join the first and last items, so the body is copied once.
    items[0] = opener + inner + items[0]
    items[-1] += newline + closer
    return separator.join(items)


def _trace_csv(rows) -> str:
    """The trace table from its rows, each a step and its floats."""
    lines = [f"# format_version={FORMAT_VERSION}", ",".join(TRACE_COLUMNS)]
    lines.extend(map(_TRACE_ROW.__mod__, rows))
    return "\n".join(lines) + "\n"


def _trace_json(rows) -> str:
    """``_json_text({"format_version": FORMAT_VERSION, "rows": [...]})`` with
    one dict per row, each a step and its floats in TRACE_COLUMNS order,
    byte for byte; every row is one fill of a template.  A value is the
    only text after ": ", so nan and +-inf are respelled as json's there."""
    body = ",\n    ".join(map(_TRACE_JSON_ROW.__mod__, map(_TRACE_JSON_ORDER, rows)))
    for text, spelling in _NONFINITE.items():
        body = body.replace(f": {text}", f": {spelling}")
    rows_text = f"[\n    {body}\n  ]" if body else "[]"
    return f'{{\n  "format_version": {FORMAT_VERSION},\n  "rows": {rows_text}\n}}\n'


def _check(error_name: str, error: float, tolerance: float, **values) -> dict:
    """One entry of a report's ``checks``: its values, its error under
    ``error_name``, the tolerance and whether the error is within it."""
    return {**values, error_name: error, "tolerance": tolerance,
            "passed": bool(error <= tolerance)}


def _run_checks(inst: GroverInstance, amps: np.ndarray) -> dict:
    """The two checks on the rows ``amps`` of (k_j, l_j), j = 0..s, of a run
    of ``inst``: Fisher 4 at every step, within 64 eps / theta, and the s
    step angles adding up to the Fubini-Study distance from the first state
    to the last, within 64 eps (s + 1).  The distance is an atan2, exact at
    s = 0."""
    fisher, _, action = geodesic_columns(inst, amps)
    act = float(action[-1])
    dist = float(class_step_angles(amps[[0, -1]], inst.class_sizes)[0])
    eps = float(np.finfo(float).eps)
    return {
        "action_vs_distance": _check("abs_error", abs(act - dist), 64.0 * eps * len(amps),
                                     action=act, fubini_study_distance=dist),
        "fisher_constancy": _check("max_abs_deviation", float(np.max(np.abs(fisher - 4.0))),
                                   64.0 * eps / inst.theta),
    }


def cmd_grover_trace(args: argparse.Namespace) -> int:
    """Write the per-step trajectory table of a search run."""
    steps = args.steps
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    require_amplitudes(args.n_items, args.memory_cap, "statevector")
    inst = GroverInstance(args.n_items, args.marked)
    amps = recursion_trajectory(inst, steps, args.memory_cap)
    require_amplitudes((steps + 1) * _TRACE_ROW_AMPLITUDES[args.format],
                       args.memory_cap, "trace rows")
    columns = (phi_of_step(inst, np.arange(steps + 1)), *(inst.class_sizes * amps**2).T,
               *geodesic_columns(inst, amps))
    rows = zip(range(steps + 1), *(column.tolist() for column in columns))

    _emit((_trace_csv if args.format == "csv" else _trace_json)(rows), args.out)
    return EXIT_OK


def cmd_geodesic_check(args: argparse.Namespace) -> int:
    """Integrate the oscillator reduction on the two class coordinates and
    compare it against the analytic path and the recursion, and check the
    recursion's own Fisher and action; write a JSON report."""
    n_items = args.n_items
    require_amplitudes(n_items, args.memory_cap, "statevector")
    inst = GroverInstance(n_items, [0])
    theta = inst.theta
    last_step = max(0, int(np.floor((np.pi / (2 * theta) - 1) / 2 + 1e-12)))
    amps = recursion_trajectory(inst, last_step, args.memory_cap)

    # Target j <= last_step is recursion step j; a last target pi/2 follows
    # when the final step falls short of it.
    targets = phi_of_step(inst, np.arange(last_step + 1)).tolist()
    if targets[-1] < np.pi / 2 - 1e-12:
        targets.append(np.pi / 2)
    # Per-item probabilities are class probabilities over class size.
    sizes = inst.class_sizes
    analytic = class_path(np.minimum(targets, np.pi / 2)).probs / sizes
    uniform = np.sqrt(sizes) / np.sqrt(n_items)
    start = GeodesicState(uniform, np.array([np.cos(theta), -np.sin(theta)]), theta)
    x, v, n, h = _rk4_schedule(start, 4.0, targets, GEODESIC_DT)
    probs = _rk4_propagate(x, v, 4.0, GEODESIC_DT, n, h)[0]**2 / sizes
    dev_analytic = float(np.max(np.abs(probs - analytic)))
    dev_sim = float(np.max(np.abs(probs[:len(amps)] - amps**2)))

    checks = {
        "integrator_vs_simulation": _check("max_abs_error", dev_sim, 1e-6),
        "integrator_vs_analytic": _check("max_abs_error", dev_analytic, 1e-6),
        **_run_checks(inst, amps),
    }
    passed = all(c["passed"] for c in checks.values())
    report = {
        "format_version": FORMAT_VERSION,
        "n_items": n_items,
        "dt": GEODESIC_DT,
        "checks": checks,
        "passed": passed,
    }
    _emit(_json_text(report), args.out)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_factor(args: argparse.Namespace) -> int:
    """Factor N with the chosen period finder; print the pair and counters."""
    from .period import factor

    n, method = args.modulus, args.method
    result = factor(n, method, np.random.default_rng(args.seed), budget=args.budget,
                    samples=args.samples, memory_cap=args.memory_cap)
    if args.out is not None:
        _emit(_json_text({**vars(result), "format_version": FORMAT_VERSION,
                          "seed": args.seed, "budget": args.budget,
                          "samples": args.samples}), args.out)
    if result.classical_route is not None:
        note = f" (trivial factor {result.factors[0]})" if result.factors else ""
        print(f"error: {n} is {result.classical_route}; not a valid target{note}",
              file=sys.stderr)
        return EXIT_USAGE
    if result.succeeded:
        p, q = result.factors
        print(f"{n} = {p} x {q}  method={method} attempts={len(result.attempts)} "
              f"oracle_calls={result.oracle_calls} measurements={result.measurements}")
        return EXIT_OK
    print(f"factorization budget exhausted after {len(result.attempts)} attempts",
          file=sys.stderr)
    return EXIT_CHECK_FAILED


def cmd_compare(args: argparse.Namespace) -> int:
    """Write the side-by-side period-finding report for (N, y)."""
    from .period import PeriodInstance, compare_methods

    report = compare_methods(
        PeriodInstance(args.modulus, args.base), args.seed, samples=args.samples,
        budget=args.budget, memory_cap=args.memory_cap)
    _emit(_json_text(report.to_dict()), args.out)
    ok = all(rep.succeeded for rep in report.methods.values())
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _parse_marked(text: str) -> list[int]:
    items = [part for part in text.split(",") if part.strip() != ""]
    return [int(part) for part in items]


_OPTIONS = {
    "out": dict(default=None, metavar="PATH", help="output file (stdout when omitted)"),
    "seed": dict(type=int, required=True, help="64-bit RNG seed (required)"),
    "format": dict(choices=("csv", "json"), default="csv"),
    "memory-cap": dict(type=int, default=DEFAULT_MEMORY_CAP,
                       help="complex-amplitude budget"),
    "budget": dict(type=int, default=DEFAULT_BUDGET,
                   help="attempt budget for period finding / factoring"),
    "samples": dict(type=int, default=DEFAULT_SAMPLES,
                    help="readouts of the amplified state per round"),
}

# Option checks, run in this order before any command; a command without
# the option skips its check.
_CHECKS = (
    ("memory_cap", lambda v: v >= 1, "memory cap must be positive, got {}"),
    ("budget", lambda v: v >= 1, "budget must be >= 1, got {}"),
    ("samples", lambda v: v >= 2, "samples must be >= 2, got {}"),
)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process.  ``parse_args`` returns a
    fresh namespace on every call, so no state carries over between calls."""
    parser = argparse.ArgumentParser(
        prog="qgeodesic",
        description="Search and period-finding simulations with "
                    "information-geometric diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def options(p, *names):
        for name in names:
            p.add_argument(f"--{name}", **_OPTIONS[name])

    # Each subcommand names its handler; main looks the name up when it
    # runs, so a rebinding of cmd_* in this module (a tracer's wrapper, a
    # test's monkeypatch) reaches the cached parser.
    p_trace = sub.add_parser("grover-trace", help="per-step search trajectory table")
    p_trace.add_argument("n_items", type=int)
    p_trace.add_argument("--marked", required=True, type=_parse_marked,
                         metavar="I[,J,...]", help="marked basis indices")
    p_trace.add_argument("--steps", required=True, type=int)
    options(p_trace, "out", "format", "memory-cap")
    p_trace.set_defaults(run="cmd_grover_trace")

    p_geo = sub.add_parser("geodesic-check",
                           help="oscillator integration vs path and simulation")
    p_geo.add_argument("n_items", type=int)
    options(p_geo, "out", "memory-cap")
    p_geo.set_defaults(run="cmd_geodesic_check")

    p_factor = sub.add_parser("factor", help="factor an odd composite")
    p_factor.add_argument("modulus", type=int)
    p_factor.add_argument("--method", choices=(SHOR, GROVER_ADIABATIC), required=True)
    options(p_factor, "out", "seed", "memory-cap", "budget", "samples")
    p_factor.set_defaults(run="cmd_factor")

    p_cmp = sub.add_parser("compare", help="projection vs amplification report")
    p_cmp.add_argument("modulus", type=int)
    p_cmp.add_argument("base", type=int)
    options(p_cmp, "out", "seed", "memory-cap", "budget", "samples")
    p_cmp.set_defaults(run="cmd_compare")

    parser.subcommands = sub.choices  # name -> subcommand parser, for main
    return parser


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``: the same namespace, or the same
    output and exit.  When argv[0] names a subcommand, argparse hands all
    the rest to that subcommand's parser, so that parser is called
    directly, and the top-level parser refuses what it leaves over with
    argparse's own message."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.subcommands.get(argv[0]) if argv else None
    if command is None:  # no arguments, -h, or an unknown command
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    try:
        given = vars(args)
        for name, valid, message in _CHECKS:
            if name in given and not valid(given[name]):
                raise ValueError(message.format(given[name]))
        code = globals()[args.run](args)
        sys.stdout.flush()  # a failure shows here, not at interpreter exit
        return code
    except (ResourceLimitError, MemoryError) as exc:
        print(f"resource error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        name = exc.filename  # the --out path, as _emit names it
        if name is None:  # stdout: its unwritten rest goes to os.devnull, not the exit flush
            name = "stdout"
            with contextlib.suppress(OSError, ValueError), open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        print(f"error: cannot write {name}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
