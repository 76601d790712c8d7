"""Walk through the honest fiber-channel model.

Shows how the overall transmittance, gain, and QBER of a weak coherent
pulse evolve with fiber length: at short distance the gain is dominated
by transmitted photons and the QBER sits near the misalignment floor; at
long distance dark counts take over and the QBER climbs toward 1/2.

Run with: python demos/channel_model.py
"""

import numpy as np

from decoyqkd import GYS, honest_tally, transmittance

MU = 0.48

print(f"Honest channel observables for a signal pulse (mu = {MU})")
print(f"fiber {GYS.alpha_db_per_km} dB/km, receiver efficiency {GYS.eta_bob}, "
      f"dark-count yield {GYS.y0:g}, misalignment {GYS.e_det}")
print()
print(f"{'d [km]':>7}  {'eta':>10}  {'gain Q':>10}  {'QBER E':>8}")
for d in np.arange(0.0, 201.0, 20.0):
    params = GYS.at_distance(d)
    eta = transmittance(params)
    signal = honest_tally(MU, params)
    print(f"{d:7.0f}  {eta:10.3e}  {signal.gain:10.3e}  {signal.qber:8.4f}")

print()
print("The QBER crosses useful thresholds when the dark-count contribution")
print("Y0/2 becomes comparable to the misalignment errors e_det * eta * mu:")
d_half = 10.0 / GYS.alpha_db_per_km * np.log10(
    2.0 * GYS.e_det * GYS.eta_bob * MU / GYS.y0
)
print(f"equal-contribution distance ~ {d_half:.0f} km")
