"""Collection error versus the guided-to-residual rate ratio.

Residual emission removes weight from the collective ladder at a rate
proportional to the excitation number, so the probability of losing at
least one photon out of the burst sums the per-rung branching errors.
The sum is a harmonic number over the rate ratio, which is why curves
for different emitter numbers collapse onto (roughly) ln(N) over the
ratio.  The ladder is an absorbing chain with no re-entry, so the exact
collection probability is the per-rung branching product; the demo
compares it with the logarithmic estimate and writes loss_scaling.csv.

Note the deliberate honesty check: at N = 10 the harmonic number is 27
percent above ln(10), so the logarithmic estimate is a scaling law, not
a 10-percent-accurate number there.
"""
import math
import pathlib

from dickeqfi import LossModel, dicke_collection_probability

HERE = pathlib.Path(__file__).resolve().parent

rows = []
for n in (10, 100, 1000):
    for decade in range(3):
        purcell = 100.0 * math.log(n) * 10.0**decade
        est = dicke_collection_probability(n, LossModel(1.0, 1.0 / purcell))
        rows.append((n, purcell, 1.0 - est.p, math.log(n) / purcell))
        print(f"N={n:5d}  P={purcell:10.1f}  1-p={1.0 - est.p:.4e}  "
              f"ln(N)/P={math.log(n) / purcell:.4e}  "
              f"ratio={(1.0 - est.p) / (math.log(n) / purcell):.3f}")

csv_path = HERE / "loss_scaling.csv"
with open(csv_path, "w") as handle:
    handle.write("N,purcell,one_minus_p,log_estimate\n")
    for row in rows:
        handle.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")
print(f"wrote {csv_path}")
