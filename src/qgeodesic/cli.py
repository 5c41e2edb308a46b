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
import json
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from .geometry import (
    GeodesicState,
    _residuals,
    action,
    fisher_discrete,
    fubini_study_distance,
    integrate_geodesic,
)
from .grover import (
    GroverInstance,
    amplification_path,
    amplification_samples,
    class_path,
    phi_of_step,
    recursion_trajectory,
)
from .period import (
    DEFAULT_MEMORY_CAP,
    GROVER_ADIABATIC,
    SHOR,
    PeriodInstance,
    compare_methods,
    factor,
)
from .states import ResourceLimitError, StateVector, basis_state, require_amplitudes

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

GEODESIC_DT = 1e-4
FORMAT_VERSION = 1

TRACE_COLUMNS = (
    "step", "phi", "p_marked", "p_unmarked",
    "fisher_estimate", "geodesic_residual_max", "action_cumulative",
)


@dataclass(frozen=True)
class RunConfig:
    """Reproducibility knobs shared by the subcommands."""

    seed: int | None = None
    output_path: str | None = None
    format: str = "csv"
    sampling_dphi: float = 0.01
    memory_cap: int = DEFAULT_MEMORY_CAP
    budget: int = 16
    samples: int = 3

    def __post_init__(self):
        if not 0.0 < self.sampling_dphi <= 0.1:
            raise ValueError(f"dphi must lie in (0, 0.1], got {self.sampling_dphi}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        if self.memory_cap < 1:
            raise ValueError(f"memory cap must be positive, got {self.memory_cap}")
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if self.samples < 2:
            raise ValueError(f"samples must be >= 2, got {self.samples}")


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
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _trace_csv(rows: list[dict]) -> str:
    lines = [f"# format_version={FORMAT_VERSION}", ",".join(TRACE_COLUMNS)]
    for row in rows:
        lines.append(",".join(
            str(row["step"]) if col == "step" else _fmt(row[col])
            for col in TRACE_COLUMNS))
    return "\n".join(lines) + "\n"


def _fine_grid(phi_lo: float, phi_hi: float, dphi: float) -> np.ndarray:
    """Uniform grid at step <= dphi padded two steps beyond both ends, so
    every requested phi is served by central difference stencils."""
    start = max(0.0, phi_lo - 2 * dphi)
    end = phi_hi + 2 * dphi
    count = max(7, int(np.ceil((end - start) / dphi)) + 1)
    return np.linspace(start, end, count)


def cmd_grover_trace(n_items: int, marked: list[int], steps: int, config: RunConfig) -> int:
    """Write the per-step trajectory table of a search run."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    require_amplitudes(n_items, config.memory_cap, "statevector")
    inst = GroverInstance(n_items, frozenset(marked))
    require_amplitudes((steps + 1) * 2, config.memory_cap, "trajectory")
    sizes = inst.class_sizes
    p_marked, p_unmarked = (sizes * recursion_trajectory(inst, steps) ** 2).T

    grid = _fine_grid(inst.theta, phi_of_step(inst, steps), config.sampling_dphi)
    require_amplitudes(grid.size * 2, config.memory_cap, "resampled path")
    fine = class_path(grid)
    fisher = fisher_discrete(fine).fisher
    # Per-item residual: the class residual over sqrt(class size).
    res_phis = fine.phis[2:-2]
    res_max = np.max(np.abs(_residuals(fine, 2, fine.n_samples - 2) / np.sqrt(sizes)),
                     axis=1)
    integrand = 0.5 * np.sqrt(np.maximum(fisher, 0.0))
    cumulative = np.concatenate(([0.0], np.cumsum(
        0.5 * (integrand[1:] + integrand[:-1]) * np.diff(fine.phis))))
    action_origin = np.interp(inst.theta, fine.phis, cumulative)

    rows = []
    for j in range(steps + 1):
        phi = phi_of_step(inst, j)
        rows.append({
            "step": j,
            "phi": phi,
            "p_marked": float(p_marked[j]),
            "p_unmarked": float(p_unmarked[j]),
            "fisher_estimate": float(np.interp(phi, fine.phis, fisher)),
            "geodesic_residual_max": float(np.interp(phi, res_phis, res_max)),
            "action_cumulative": float(
                np.interp(phi, fine.phis, cumulative) - action_origin),
        })

    if config.format == "csv":
        _emit(_trace_csv(rows), config.output_path)
    else:
        _emit(_json_text({"format_version": FORMAT_VERSION, "rows": rows}),
              config.output_path)
    return EXIT_OK


def cmd_geodesic_check(n_items: int, config: RunConfig) -> int:
    """Integrate the oscillator reduction on the two class coordinates and
    compare it against the analytic path and the recursion; write a JSON
    report."""
    require_amplitudes(n_items, config.memory_cap, "statevector")
    inst = GroverInstance(n_items, frozenset({0}))
    theta = inst.theta
    dphi = config.sampling_dphi
    # The trajectory, 2 (last_step + 1) <= N cells, fits wherever N does.
    last_step = max(0, int(np.floor((np.pi / (2 * theta) - 1) / 2 + 1e-12)))
    require_amplitudes(amplification_samples(inst, dphi) * 2, config.memory_cap,
                       "resampled path")
    sim = recursion_trajectory(inst, last_step) ** 2

    targets = [(phi_of_step(inst, j), j) for j in range(last_step + 1)]
    if targets[-1][0] < np.pi / 2 - 1e-12:
        targets.append((np.pi / 2, None))
    # Per-item probabilities are class probabilities over class size.
    sizes = inst.class_sizes
    analytic = class_path([min(phi, np.pi / 2) for phi, _ in targets]).probs / sizes
    uniform = np.sqrt(sizes) / np.sqrt(n_items)
    state = GeodesicState(uniform, np.array([np.cos(theta), -np.sin(theta)]), theta)
    dev_sim = dev_analytic = 0.0
    for (phi_target, j), expected in zip(targets, analytic):
        state = integrate_geodesic(state, 4.0, phi_target, GEODESIC_DT)[-1]
        probs = state.x**2 / sizes
        dev_analytic = max(dev_analytic, float(np.max(np.abs(probs - expected))))
        if j is not None:
            dev_sim = max(dev_sim, float(np.max(np.abs(probs - sim[j]))))

    fine = amplification_path(inst, dphi)
    fisher = fisher_discrete(fine).fisher
    act = action(fine, theta, np.pi / 2)
    dist = fubini_study_distance(StateVector(uniform), basis_state(2, 0))

    tol_integrator = 1e-6
    tol_action = 5.0 * dphi * dphi
    tol_fisher = max(1e-3, 10.0 * dphi * dphi)
    checks = {
        "integrator_vs_simulation": {
            "max_abs_error": dev_sim, "tolerance": tol_integrator,
            "passed": dev_sim <= tol_integrator,
        },
        "integrator_vs_analytic": {
            "max_abs_error": dev_analytic, "tolerance": tol_integrator,
            "passed": dev_analytic <= tol_integrator,
        },
        "action_vs_distance": {
            "action": act, "fubini_study_distance": dist,
            "abs_error": abs(act - dist), "tolerance": tol_action,
            "passed": abs(act - dist) <= tol_action,
        },
        "fisher_constancy": {
            "max_abs_deviation": float(np.max(np.abs(fisher - 4.0))),
            "tolerance": tol_fisher,
            "passed": bool(np.max(np.abs(fisher - 4.0)) <= tol_fisher),
        },
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
    _emit(_json_text(report), config.output_path)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_factor(n: int, method: str, config: RunConfig) -> int:
    """Factor N with the chosen period finder; print the pair and counters."""
    rng = np.random.default_rng(config.seed)
    result = factor(n, method, rng, budget=config.budget,
                    samples=config.samples, memory_cap=config.memory_cap)
    document = {
        "format_version": FORMAT_VERSION,
        "modulus": n,
        "method": method,
        "seed": config.seed,
        "budget": config.budget,
        "samples": config.samples,
        "succeeded": result.succeeded,
        "factors": list(result.factors) if result.factors else None,
        "classical_route": result.classical_route,
        "attempts": result.attempts,
        "oracle_calls": result.oracle_calls,
        "measurements": result.measurements,
    }
    if config.output_path is not None:
        _emit(_json_text(document), config.output_path)
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


def cmd_compare(n: int, base: int, config: RunConfig) -> int:
    """Write the side-by-side period-finding report for (N, y)."""
    report = compare_methods(
        PeriodInstance(n, base), config.seed, samples=config.samples,
        shor_attempts=config.budget, grover_rounds=config.budget,
        trace_dphi=config.sampling_dphi, memory_cap=config.memory_cap)
    _emit(_json_text(report.to_dict()), config.output_path)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgeodesic",
        description="Search and period-finding simulations with "
                    "information-geometric diagnostics.")
    # Options a subcommand does not read keep these defaults.
    parser.set_defaults(**{name.replace("-", "_"): spec.get("default")
                           for name, spec in _OPTIONS.items()})
    sub = parser.add_subparsers(dest="command", required=True)

    def options(p, *names):
        for name in names:
            p.add_argument(f"--{name}", **_OPTIONS[name])

    p_trace = sub.add_parser("grover-trace", help="per-step search trajectory table")
    p_trace.add_argument("n_items", type=int)
    p_trace.add_argument("--marked", required=True, type=_parse_marked,
                         metavar="I[,J,...]", help="marked basis indices")
    p_trace.add_argument("--steps", required=True, type=int)
    options(p_trace, "out", "format", "dphi", "memory-cap")

    p_geo = sub.add_parser("geodesic-check",
                           help="oscillator integration vs path and simulation")
    p_geo.add_argument("n_items", type=int)
    options(p_geo, "out", "dphi", "memory-cap")

    p_factor = sub.add_parser("factor", help="factor an odd composite")
    p_factor.add_argument("modulus", type=int)
    p_factor.add_argument("--method", choices=(SHOR, GROVER_ADIABATIC), required=True)
    options(p_factor, "out", "seed", "memory-cap", "budget", "samples")

    p_cmp = sub.add_parser("compare", help="projection vs amplification report")
    p_cmp.add_argument("modulus", type=int)
    p_cmp.add_argument("base", type=int)
    options(p_cmp, "out", "seed", "dphi", "memory-cap", "budget", "samples")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(
            seed=args.seed,
            output_path=args.out,
            format=args.format,
            sampling_dphi=args.dphi,
            memory_cap=args.memory_cap,
            budget=args.budget,
            samples=args.samples,
        )
        if args.command == "grover-trace":
            return cmd_grover_trace(args.n_items, args.marked, args.steps, config)
        if args.command == "geodesic-check":
            return cmd_geodesic_check(args.n_items, config)
        if args.command == "factor":
            return cmd_factor(args.modulus, args.method, config)
        if args.command == "compare":
            return cmd_compare(args.modulus, args.base, config)
        raise AssertionError(f"unhandled command {args.command!r}")
    except (ResourceLimitError, MemoryError) as exc:
        print(f"resource error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
