"""Compare decoy-state photon-number bounds against exact statistics.

The estimation pipeline sees only five (gain, QBER) pairs — vacuum, three
decoys, signal — yet must bound the single- and two-photon yields and
error rates. This demo checks the bounds against the exact per-photon-
number statistics the honest channel actually produces: the yield bounds
sit below the truth and the error bounds above it, and both tighten at
short distance where multiphoton corrections are small. The last column
shows ``bounds.clamps``, the clamps that fired at each distance: at the
default nu3 = 0.01, e2U is clamped to 1 at every distance.

It ends with what the looseness costs: each decoy protocol's cutoff with
the estimated bounds next to its exact-statistics ceiling, the cutoff of
the same rate with the exact statistics in their place. Both come from
one cutoff search, on the two bounds sources of the rate.

Run with: python demos/photon_bounds.py
"""

import numpy as np

from decoyqkd import (
    GYS,
    construct_intensity_set,
    estimate_photon_bounds,
    exact_ceiling_km,
    exact_stats,
    max_secure_distance,
    synthesize_tallies,
)

MU = 0.30

s = construct_intensity_set(MU)
print(f"intensity set: mu={s.mu}, nu1={s.nu1}, nu2={s.nu2:.6f}, nu3={s.nu3}")
print("clamps: photon number 1|2, each x where (Y vacuous, Y clamped to 1, "
      "e clamped to its cap, e clamped to 0)")
print()
header = (f"{'d [km]':>7}  {'Y1_lower':>10}  {'Y1 exact':>10}  "
          f"{'e1_upper':>8}  {'e1 exact':>8}  {'Y2_lower':>10}  {'Y2 exact':>10}  clamps")
print(header)
for d in np.arange(0.0, 141.0, 20.0):
    params = GYS.at_distance(d)
    bounds = estimate_photon_bounds(synthesize_tallies(s, params), s)
    one = exact_stats(1, MU, params)
    two = exact_stats(2, MU, params)
    clamps = "|".join("".join("x" if hit else "." for hit in kinds) for kinds in bounds.clamps)
    print(
        f"{d:7.0f}  {bounds.y1_lower:10.3e}  {one.detection_yield:10.3e}  "
        f"{bounds.e1_upper:8.4f}  {one.error_rate:8.4f}  "
        f"{bounds.y2_lower:10.3e}  {two.detection_yield:10.3e}  {clamps}"
    )

print()
print("Relative slack of the single-photon yield bound, 1 - Y1_lower / Y1:")
for d in (0.0, 60.0, 120.0):
    params = GYS.at_distance(d)
    bounds = estimate_photon_bounds(synthesize_tallies(s, params), s)
    exact = exact_stats(1, MU, params).detection_yield
    print(f"  d={d:5.0f} km: {1.0 - bounds.y1_lower / exact:.2%}")

print()
print("Cutoff with the estimated bounds vs the exact-statistics ceiling:")
for protocol, mu in [("nonorthogonal-decoy", 0.30), ("nonorthogonal-decoy", 0.48),
                     ("bb84-decoy", 0.48)]:
    cutoff = max_secure_distance(protocol, mu, GYS)
    ceiling = exact_ceiling_km(protocol, mu, GYS)
    print(f"  {protocol:19} mu={mu:.2f}: {cutoff:5.1f} km estimated, {ceiling:5.1f} km ceiling")
