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
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
import tempfile
from json.encoder import encode_basestring_ascii

import numpy as np

from .geometry import (
    GeodesicState,
    _residuals,
    _rk4_to_stops,
    cumulative_action,
    fisher_discrete,
)
from .grover import (
    GroverInstance,
    amplification_path,
    class_path,
    phi_of_step,
    recursion_trajectory,
    trace_path,
)
from .period import (
    DEFAULT_MEMORY_CAP,
    FORMAT_VERSION,
    GROVER_ADIABATIC,
    SHOR,
    PeriodInstance,
    compare_methods,
    factor,
)
from .states import ResourceLimitError, require_amplitudes

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

GEODESIC_DT = 1e-4

TRACE_COLUMNS = (
    "step", "phi", "p_marked", "p_unmarked",
    "fisher_estimate", "geodesic_residual_max", "action_cumulative",
)

# Peak bytes per output row while grover-trace builds its text, in 16-byte
# amplitude units: tracemalloc of `grover-trace 67108864 --marked 0 --steps
# 20000` peaks at 655 B/row for csv and 1133 B/row for json.  The json charge
# is the 2117 B/row that json.dumps took, kept so that no cap case moves.
_TRACE_ROW_AMPLITUDES = {"csv": 41, "json": 133}


def _fmt(value: float) -> str:
    """17 significant digits: round-trip safe for double precision."""
    return f"{value:.17g}"


def _emit(text: str, path: str | None):
    """Write atomically to ``path``, or to stdout when no path is given.

    The text goes to a fresh temp file beside ``path`` that is renamed over
    it, so overlapping runs never share a temp file and a failed write
    leaves neither a temp file nor a partial target behind.
    """
    if path is None:
        sys.stdout.write(text)
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp creates 0600; match open()
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _json_text(document: dict) -> str:
    """``json.dumps(document, indent=2, sort_keys=True) + "\\n"``, byte for
    byte.  json runs its pure-Python encoder, a generator per container,
    whenever ``indent`` is set; this formats each container with one join."""
    return _json_value(document, "\n") + "\n"


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(value: float) -> str:
    """A float as json writes it: its repr, or NaN and +-Infinity."""
    text = float.__repr__(value)
    return _NONFINITE.get(text, text)


_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _json_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


@functools.cache  # one entry per type written: a handful
def _json_scalar(kind: type):
    """json's formatter for a scalar of this type, or None for any other
    type; a subclass of str, int or float is written as its base."""
    for base in (kind, str, int, float):
        if base in _JSON_SCALARS and issubclass(kind, base):
            return _JSON_SCALARS[base]
    return None


def _json_key(key) -> str:
    """A dict key as json writes it: a scalar's JSON text, as a string."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    scalar = _json_scalar(type(key))
    if scalar is None:
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {key.__class__.__name__}")
    return f'"{scalar(key)}"'


def _json_value(value, newline: str) -> str:
    """One JSON value as json writes it at the depth whose line break and
    indent is ``newline``."""
    scalar = _json_scalar(type(value))
    if scalar is not None:
        return scalar(value)
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
        items = [f"{_json_key(key)}: {_json_value(item, inner)}"
                 for key, item in sorted(value.items())]
    elif all(type(item) is float for item in value):
        # Finite reprs hold no "n"; nan and inf take json's spelling.
        text = separator.join(map(float.__repr__, value))
        items = [text] if "n" not in text else list(map(_json_float, value))
    else:
        items = [_json_value(item, inner) for item in value]
    # The brackets join the first and last items, so the body is copied once.
    items[0] = opener + inner + items[0]
    items[-1] += newline + closer
    return separator.join(items)


def _trace_csv(rows) -> str:
    """The trace table from its rows of floats; row j is step j."""
    lines = [f"# format_version={FORMAT_VERSION}", ",".join(TRACE_COLUMNS)]
    lines.extend(",".join([str(j), *map(_fmt, row)]) for j, row in enumerate(rows))
    return "\n".join(lines) + "\n"


def cmd_grover_trace(args: argparse.Namespace) -> int:
    """Write the per-step trajectory table of a search run."""
    steps = args.steps
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    require_amplitudes(args.n_items, args.memory_cap, "statevector")
    inst = GroverInstance(args.n_items, args.marked)
    sizes = inst.class_sizes
    p_marked, p_unmarked = (sizes * recursion_trajectory(inst, steps, args.memory_cap)**2).T

    fine = trace_path(inst, steps, args.dphi, args.memory_cap)
    require_amplitudes((steps + 1) * _TRACE_ROW_AMPLITUDES[args.format],
                       args.memory_cap, "trace rows")
    residuals, fisher = _residuals(fine, 2, fine.n_samples - 2)
    # Per-item residual: the class residual over sqrt(class size).
    res_phis = fine.phis[2:-2]
    res_max = np.max(np.abs(residuals / np.sqrt(sizes)), axis=1)
    cumulative = cumulative_action(fine.phis, fisher)
    action_origin = np.interp(inst.theta, fine.phis, cumulative)

    phis = phi_of_step(inst, np.arange(steps + 1))
    columns = (phis, p_marked, p_unmarked,
               np.interp(phis, fine.phis, fisher),
               np.interp(phis, res_phis, res_max),
               np.interp(phis, fine.phis, cumulative) - action_origin)
    rows = zip(*(column.tolist() for column in columns))

    if args.format == "csv":
        _emit(_trace_csv(rows), args.out)
    else:
        rows = [dict(zip(TRACE_COLUMNS, (j, *row))) for j, row in enumerate(rows)]
        _emit(_json_text({"format_version": FORMAT_VERSION, "rows": rows}), args.out)
    return EXIT_OK


def cmd_geodesic_check(args: argparse.Namespace) -> int:
    """Integrate the oscillator reduction on the two class coordinates and
    compare it against the analytic path and the recursion; write a JSON
    report."""
    n_items, dphi = args.n_items, args.dphi
    require_amplitudes(n_items, args.memory_cap, "statevector")
    inst = GroverInstance(n_items, [0])
    theta = inst.theta
    last_step = max(0, int(np.floor((np.pi / (2 * theta) - 1) / 2 + 1e-12)))
    fine = amplification_path(inst, dphi, args.memory_cap)
    sim = recursion_trajectory(inst, last_step, args.memory_cap) ** 2

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
    probs = _rk4_to_stops(start, 4.0, targets, GEODESIC_DT).x[1:]**2 / sizes
    dev_analytic = float(np.max(np.abs(probs - analytic)))
    dev_sim = float(np.max(np.abs(probs[:len(sim)] - sim)))

    fisher = fisher_discrete(fine).fisher
    # The path runs from theta to exactly pi/2: its whole action.
    act = float(cumulative_action(fine.phis, fisher)[-1])
    dist = float(np.arccos(uniform[0]))  # Fubini-Study distance to the marked class

    def check(error_name, error, tolerance, **values):
        return {**values, error_name: error, "tolerance": tolerance,
                "passed": bool(error <= tolerance)}

    checks = {
        "integrator_vs_simulation": check("max_abs_error", dev_sim, 1e-6),
        "integrator_vs_analytic": check("max_abs_error", dev_analytic, 1e-6),
        "action_vs_distance": check("abs_error", abs(act - dist), 5.0 * dphi * dphi,
                                    action=act, fubini_study_distance=dist),
        "fisher_constancy": check("max_abs_deviation",
                                  float(np.max(np.abs(fisher - 4.0))),
                                  max(1e-3, 10.0 * dphi * dphi)),
    }
    passed = all(c["passed"] for c in checks.values())
    report = {
        "format_version": FORMAT_VERSION,
        "n_items": n_items,
        "dphi": dphi,
        "dt": GEODESIC_DT,
        "checks": checks,
        "passed": passed,
    }
    _emit(_json_text(report), args.out)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_factor(args: argparse.Namespace) -> int:
    """Factor N with the chosen period finder; print the pair and counters."""
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
    report = compare_methods(
        PeriodInstance(args.modulus, args.base), args.seed, samples=args.samples,
        shor_attempts=args.budget, grover_rounds=args.budget,
        trace_dphi=args.dphi, memory_cap=args.memory_cap)
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
    "dphi": dict(type=float, default=0.01,
                 help="sampling step for analytic resampling, in (0, 0.1]"),
    "memory-cap": dict(type=int, default=DEFAULT_MEMORY_CAP,
                       help="complex-amplitude budget"),
    "budget": dict(type=int, default=16,
                   help="attempt budget for period finding / factoring"),
    "samples": dict(type=int, default=3,
                    help="readouts of the amplified state per round"),
}

# Option checks, run in this order before any command; a command without
# the option skips its check.
_CHECKS = (
    ("dphi", lambda v: 0.0 < v <= 0.1, "dphi must lie in (0, 0.1], got {}"),
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
    options(p_trace, "out", "format", "dphi", "memory-cap")
    p_trace.set_defaults(run="cmd_grover_trace")

    p_geo = sub.add_parser("geodesic-check",
                           help="oscillator integration vs path and simulation")
    p_geo.add_argument("n_items", type=int)
    options(p_geo, "out", "dphi", "memory-cap")
    p_geo.set_defaults(run="cmd_geodesic_check")

    p_factor = sub.add_parser("factor", help="factor an odd composite")
    p_factor.add_argument("modulus", type=int)
    p_factor.add_argument("--method", choices=(SHOR, GROVER_ADIABATIC), required=True)
    options(p_factor, "out", "seed", "memory-cap", "budget", "samples")
    p_factor.set_defaults(run="cmd_factor")

    p_cmp = sub.add_parser("compare", help="projection vs amplification report")
    p_cmp.add_argument("modulus", type=int)
    p_cmp.add_argument("base", type=int)
    options(p_cmp, "out", "seed", "dphi", "memory-cap", "budget", "samples")
    p_cmp.set_defaults(run="cmd_compare")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        given = vars(args)
        for name, valid, message in _CHECKS:
            if name in given and not valid(given[name]):
                raise ValueError(message.format(given[name]))
        return globals()[args.run](args)
    except (ResourceLimitError, MemoryError) as exc:
        print(f"resource error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        if args.out is None:  # the one file a command opens is its --out
            raise
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
