#!/usr/bin/env python3
"""Thermal attenuator: the degradable extension bound and its competitors.

The attenuator is extended by feeding one arm of an entangled pair through a
second beam splitter coupled to the same two-mode-squeezed environment. For
transmissivity above 1/2 the extension is degradable, so its one-shot
coherent information is its capacity and upper-bounds the attenuator's. The
script reproduces the ratio comparison against the two-way and
weak-degradability bounds, locates their crossing, and shows the extra
improvement from minimizing over two-stage data-processing decompositions.
"""

import numpy as np

from gausscap import (
    PhaseInsensitiveParams,
    attenuator_extension,
    attenuator_rosati,
    bounds_attenuator,
    combined_decomposition_bound,
)
from gausscap.figures import fig3_inset_series, fig3_series, write_csv

N = 0.05

print("=" * 72)
print(f"Upper bounds relative to the lower bound at N = {N}")
print("=" * 72)
for eta in (0.6, 0.7, 0.8, 0.9, 0.95):
    report = bounds_attenuator(eta, N)
    low = report["lower"].clamped
    print(
        f"eta={eta:4.2f}: lower={low:7.4f}  "
        + "  ".join(
            f"{name}/lower={report[name].clamped / low:6.4f}"
            for name in ("plob", "rosati", "extension")
            if report[name].applicable
        )
    )

etas = np.arange(0.55, 0.9951, 0.0025)
diff = np.array([attenuator_extension(e, N) - attenuator_rosati(e, N) for e in etas])
k = int(np.argmax(np.diff(np.sign(diff)) != 0))
print()
print(f"extension and weak-degradability bounds cross once, near eta = "
      f"{etas[k]:.4f}")

print()
print("=" * 72)
print("Combining bounds over two-stage decompositions near the crossing")
print("=" * 72)
for eta in (0.67, 0.69, 0.71):
    target = PhaseInsensitiveParams(eta, (1 - eta) * (2 * N + 1))
    result = combined_decomposition_bound(target)
    direct = bounds_attenuator(eta, N).combined
    print(
        f"eta={eta:4.2f}: direct={direct:.6f}  combined={result.value:.6f}"
        f"  improvement={direct - result.value:.2e}"
    )
    print(f"   via {result.witness.describe()}")

print()
write_csv(fig3_series(N=N), "fig3.csv")
write_csv(fig3_inset_series(N=N), "fig3-inset.csv")
print("wrote fig3.csv and fig3-inset.csv")
