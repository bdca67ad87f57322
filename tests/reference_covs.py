"""Entry-by-entry covariance references for the two degradable extensions
that only tests compare against: the flagged additive-noise channel acting
on half of a purified thermal probe, and the two-mode attenuator extension
on a thermal input."""

import math

import numpy as np

from gausscap.verify import reference_flagged_thermal_cov


def reference_flagged_joint_cov(beta: float, M: float) -> np.ndarray:
    """Expected joint output covariance when the thermal probe is purified
    and the flagged channel acts on its first half; the purifying mode is
    carried last."""
    V = np.zeros((8, 8))
    V[:6, :6] = reference_flagged_thermal_cov(beta, M)
    V[6, 6] = V[7, 7] = 2 * M + 1
    c = 2 * math.sqrt(M * (M + 1))
    V[0, 6] = V[6, 0] = c
    V[1, 7] = V[7, 1] = -c
    return V


def reference_extended_attenuator_thermal_cov(
    eta: float, N: float, M: float
) -> np.ndarray:
    """Expected output covariance of the extended attenuator on a thermal
    input with photon number M; modes (signal, flag)."""
    c = (1 - eta) * 2 * math.sqrt(N * (N + 1))
    V = np.zeros((4, 4))
    V[0, 0] = V[1, 1] = eta * (2 * M + 1) + (1 - eta) * (2 * N + 1)
    V[2, 2] = V[3, 3] = eta + (1 - eta) * (2 * N + 1)
    V[0, 2] = V[2, 0] = c
    V[1, 3] = V[3, 1] = -c
    return V
