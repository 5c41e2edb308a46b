"""Period finding two ways: fast projection vs unitary amplification.

The projection route measures the function register of
q^{-1/2} sum |a>|y^a mod N>, Fourier-transforms what is left, and reads a
frequency; the measurement is a non-unitary state reduction.  The
amplification route keeps everything unitary (constant Fisher information)
until the very end: it amplifies the arguments with y^a = y (mod N) and
reads the register a few times, paying with more oracle applications.

Run:  python demos/03_period_finding_two_ways.py
"""

import json

import numpy as np

from qgeodesic import (
    GROVER_ADIABATIC,
    SHOR,
    PeriodInstance,
    build_register,
    compare_methods,
    factor,
    grover_period,
    marked_arguments,
    order_bruteforce,
    shor_period,
    shor_project,
)

print("=== the register state and its projection (N=15, y=2) ===")
inst = PeriodInstance(15, 2)
print(f"q = {inst.register_size} (smallest power of two in (225, 450))")
state = build_register(inst)
outcome, collapsed = shor_project(state, np.random.default_rng(1))
support = np.nonzero(np.abs(collapsed.as_matrix()).sum(axis=1) > 1e-12)[0]
print(f"measured second register -> {outcome}")
print(f"collapsed support: {support[:5].tolist()} ... stride "
      f"{int(np.diff(support)[0])}, {support.size} points, "
      f"amplitude {abs(collapsed.as_matrix()[support[0], outcome]):.4f}")

print()
print("=== both finders, side by side ===")
for n, y in ((15, 2), (21, 2), (35, 3)):
    inst = PeriodInstance(n, y)
    truth = order_bruteforce(y, n)
    tau = marked_arguments(inst).size
    shor = shor_period(inst, np.random.default_rng(2))
    grover = grover_period(inst, np.random.default_rng(3))
    print(f"N={n:2d} y={y}  r={truth:2d}  tau={tau:4d}  "
          f"projection: r={shor.period} ({shor.measurements} measurements)  "
          f"amplification: r={grover.period} "
          f"({grover.oracle_calls} oracle calls, {grover.measurements} readouts)")

print()
print("=== factoring ===")
for n in (15, 21, 33):
    for method in (SHOR, GROVER_ADIABATIC):
        result = factor(n, method, np.random.default_rng(7))
        p, q = result.factors
        print(f"{n:2d} = {p} x {q:2d}  via {method:16s} "
              f"({len(result.attempts)} base attempts, "
              f"{result.measurements} measurements)")

print()
print("=== the comparison report (same thing the CLI writes) ===")
report = compare_methods(PeriodInstance(15, 2), seed=7)
document = report.to_dict()
fisher = np.array(document["fisher_trace"]["fisher"])
print(f"fisher trace over the {fisher.size} states of the amplification run: "
      f"min {fisher.min():.6f}, max {fisher.max():.6f} (constant at 4)")
print(json.dumps(document["methods"], indent=2, sort_keys=True))
print()
# compare_methods and the CLI share their defaults (DEFAULT_BUDGET and
# DEFAULT_SAMPLES in qgeodesic.states), so this command writes `document`
# itself, as indented JSON with sorted keys.
print("CLI equivalent:  qgeodesic compare 15 2 --seed 7 --out report.json")
