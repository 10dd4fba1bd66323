"""Anatomy of one collective decay burst.

Propagates the ladder rate equations for twenty fully excited emitters
without residual loss and prints the two signatures of the burst: the
top rung drains as a plain exponential at rate N, and the residence time
of every rung (reach probability over out-rate, here one over the rate)
equals the inverse of its own collective rate, smallest in the middle of
the ladder where emission peaks at rates of order N^2/4.  The residence
profile is mirror symmetric about the ladder midpoint.

Writes cascade_trace.csv (t, P_0..P_N, sum) next to this script.
"""
import math
import pathlib

import numpy as np

from dickeqfi import (
    LossModel,
    collection_probability_product,
    collective_rates,
    dicke_populations,
    superradiance_timescale,
)

HERE = pathlib.Path(__file__).resolve().parent
N = 20

print(f"N = {N} emitters, cascade duration {superradiance_timescale(N, 1.0):.4f} / rate "
      f"(log estimate {math.log(N) / N:.4f})")

lossless = LossModel(1.0, 0.0)
trace = dicke_populations(N, lossless)
print(f"collection probability without loss: "
      f"{collection_probability_product(N, lossless):.12f}")
print(f"worst conservation defect on the grid: {np.max(np.abs(trace.sum_deficit)):.2e}")

rates = collective_rates(N, 1.0)
print("\nrung   rate      residence   1/rate")
for m in (1, 5, 10, 11, 16, 20):
    print(f"{m:4d}  {rates[m-1]:7.1f}   {trace.residence[m]:.6f}   {1/rates[m-1]:.6f}")

mirror = np.max(np.abs(trace.residence[1:] - trace.residence[1:][::-1]))
print(f"\nmirror asymmetry of the residence profile: {mirror:.2e}")

csv_path = HERE / "cascade_trace.csv"
with open(csv_path, "w") as handle:
    handle.write("t," + ",".join(f"P_{m}" for m in range(N + 1)) + ",sum\n")
    for k, t in enumerate(trace.times):
        values = ",".join(f"{trace.populations[m, k]:.17g}" for m in range(N + 1))
        handle.write(f"{t:.17g},{values},{1.0 - trace.sum_deficit[k]:.17g}\n")
print(f"wrote {csv_path}")
