"""Numerical certification of the structural identities behind the bounds.

Each check recomputes one identity from scratch (reference matrices are
written out entry by entry, not taken from the channel constructors) and
reports the largest residual seen. Sampling is seeded, so the whole suite is
deterministic for a given seed; each check draws its samples as one batch and
evaluates them as array stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

from ._np import np

from .channels import (
    GaussianChannel,
    _outputs,
    apply,
    classical_mixing,
    compose,
    extended_attenuator,
    extended_attenuator_pair,
    flagged_additive_noise,
    flagged_mixing_matrix,
    tensor_with_identity,
)
from .symplectic import (
    CHECK_EXACT_TOL,
    CHECK_GAUGE_TOL,
    CHECK_GROWTH_TOL,
    CHECK_UNIT_TOL,
    _physical,
    direct_sum,
    gauge_rotation,
    squeezed_vacuum_cov,
    symplectic_eigenvalues,
    thermal_cov,
    thermal_state,
    two_mode_squeezed_cov,
)

__all__ = [
    "CheckOutcome",
    "DEFAULT_SEED",
    "check_extended_attenuator_degradability",
    "check_flag_condition",
    "check_gauge_covariance",
    "check_classical_mixing_representation",
    "check_spectrum_asymptotics",
    "reference_flagged_thermal_cov",
    "suite_entries",
    "run_all_checks",
]

DEFAULT_SEED = 20250808
_LADDER = (1e3, 1e4, 1e5, 1e6)  # spectrum_asymptotics probe energies; CHECK_GROWTH_TOL: 10 / 1e6
_FLAG_SAMPLES = 1000  # label pairs drawn by flag_condition
_GAUGE_SAMPLES = 20  # (theta, state) draws per gauge_covariance family


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    max_residual: float
    tolerance: float
    samples: int
    details: str
    applicable: bool = True

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        if not self.applicable:
            status = "N/A "
        return (
            f"{status}  {self.name:<40s} residual {self.max_residual:9.3e}"
            f"  (tol {self.tolerance:.0e}, {self.samples} samples)"
        )


# ---------------------------------------------------------------------------
# Reference matrices, written out entry by entry
# ---------------------------------------------------------------------------


def reference_flagged_thermal_cov(beta: float, M: float) -> np.ndarray:
    """Expected output covariance of the flagged additive channel on a
    thermal input with photon number M; modes (signal, flag X', flag P')."""
    V = np.zeros((6, 6))
    V[0, 0] = V[1, 1] = 2 * M + 1 + 2 / beta
    V[2, 2] = V[4, 4] = 2 / beta
    V[3, 3] = V[5, 5] = beta / 2 + 1 / (2 * beta)
    V[1, 3] = V[3, 1] = 1 / beta
    V[0, 5] = V[5, 0] = -1 / beta
    return V


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_extended_attenuator_degradability(eta: float, N: float) -> CheckOutcome:
    """The complement of the two-mode attenuator extension factors through
    the extension itself: composing with the (1-eta)/eta member reproduces
    the 1-eta member. Holds for eta > 1/2, where (1-eta)/eta <= 1. The residual
    and the degrading stage's CP defect get CHECK_EXACT_TOL x max(1, |X|, |Y|)."""
    name = f"extended_attenuator_degradability(eta={eta:g}, N={N:g})"
    if eta <= 0.5:
        details = "degrading parameter (1-eta)/eta exceeds 1; outside the degradability regime"
        return CheckOutcome(name, True, 0.0, CHECK_EXACT_TOL, 0, details, applicable=False)
    forward = extended_attenuator_pair(eta, N)
    degrading = extended_attenuator_pair((1 - eta) / eta, N)
    target = extended_attenuator_pair(1 - eta, N)
    chained = compose(degrading, forward)
    pairs = ((chained.X, target.X), (chained.Y, target.Y))
    residual = max(np.abs(a - b).max() for a, b in pairs)
    tol = CHECK_EXACT_TOL * max(1.0, *(np.abs(m).max() for pair in pairs for m in pair))
    defect = degrading.cp_defect()
    details = (
        f"degrading stage CP defect {defect:.3e}; "
        f"(X, Y) residual against the complement {residual:.3e}"
    )
    passed = bool(residual <= tol and defect >= -tol)
    return CheckOutcome(name, passed, float(residual), float(tol), 1, details)


def _flag_overlap(gamma: float, bra, flag, beta):
    """Position-basis overlap of the product flag state at label `flag`,
    evaluated at the rescaled point gamma * bra; labels are (..., 2) arrays
    and beta broadcasts against their leading axes."""
    a, b = np.transpose(bra)
    x, p = np.transpose(flag)
    return np.sqrt(beta / (2 * np.pi)) * np.exp(
        -beta * gamma**2 * (a * a + b * b) / 4 - gamma * (1j * b * x - 1j * a * p) / 2
    )


def check_flag_condition(gamma: float = 1.0, seed: int = DEFAULT_SEED) -> CheckOutcome:
    """Scalar degradability condition of the flagged additive channel.

    For displacement labels r, r' the flag overlaps must intertwine the two
    orders of the displacement pair; commuting the displacements costs the
    Weyl phase exp(-i r'^T Omega r), which reduces the operator identity to
    a scalar one. It holds exactly for the rescaling gamma = 1 and for no
    other gamma. Each of the _FLAG_SAMPLES samples draws beta ~ U[0.25, 4]
    and two labels; all are drawn as one batch and evaluated as arrays.
    """
    rng = np.random.default_rng(seed)
    b = rng.uniform(0.25, 4.0, _FLAG_SAMPLES)
    r, rp = rng.normal(size=(2, _FLAG_SAMPLES, 2))
    # r'^T Omega r with Omega = [[0, 1], [-1, 0]]
    weyl = np.exp(-1j * (rp[:, 0] * r[:, 1] - rp[:, 1] * r[:, 0]))
    lhs = _flag_overlap(gamma, rp, r, b) * np.exp(-b * (r[:, 0] ** 2 + r[:, 1] ** 2) / 4) * weyl
    rhs = _flag_overlap(gamma, r, rp, b) * np.exp(-b * (rp[:, 0] ** 2 + rp[:, 1] ** 2) / 4)
    worst = float(np.abs(lhs - rhs).max())
    name = f"flag_condition(gamma={gamma:g}, beta~U[0.25,4])"
    details = f"max |lhs - rhs| over sampled label pairs = {worst:.3e}"
    passed = bool(worst <= CHECK_EXACT_TOL)
    return CheckOutcome(name, passed, worst, CHECK_EXACT_TOL, _FLAG_SAMPLES, details)


def check_gauge_covariance(family: str, seed: int = DEFAULT_SEED) -> CheckOutcome:
    """Rotating the input commutes with the channel up to the matching
    output rotation, at the level of means and covariances, over
    _GAUGE_SAMPLES sampled (channel, theta, state) triples. Each channel is
    built by its public constructor; the angles and states are drawn as one
    batch, and every input and output covariance is checked as a state."""
    if family == "flagged_additive":
        make, ranges, out_pattern = flagged_additive_noise, [(0.3, 4.0)], "flagged"
    elif family == "extended_attenuator":
        make, ranges, out_pattern = extended_attenuator, [(0.05, 0.95), (0.0, 2.0)], "extended"
    else:
        raise ValueError(f"no gauge-covariance rule for family {family!r}")

    rng = np.random.default_rng(seed)
    draws = [rng.uniform(lo, hi, _GAUGE_SAMPLES).tolist() for lo, hi in ranges]
    channels = [make(*params) for params in zip(*draws)]
    thetas = rng.uniform(0.0, 2 * np.pi, _GAUGE_SAMPLES).tolist()
    A = rng.normal(size=(_GAUGE_SAMPLES, 2, 2))
    means = rng.normal(size=(_GAUGE_SAMPLES, 2, 1))
    rot_in = np.array([gauge_rotation(theta, "single") for theta in thetas])
    rot_out = np.array([gauge_rotation(theta, out_pattern) for theta in thetas])
    V = _physical(A @ A.swapaxes(-1, -2) + np.eye(2))
    rotated = _physical(rot_in @ V @ rot_in.swapaxes(-1, -2))
    X = np.array([c.X for c in channels])
    stacked = SimpleNamespace(X=X, Y=np.array([c.Y for c in channels]))
    lhs = _outputs(stacked, rotated)
    rhs = rot_out @ _outputs(stacked, V) @ rot_out.swapaxes(-1, -2)
    mean_gap = np.abs(X @ (rot_in @ means) - rot_out @ (X @ means)).max()
    worst = float(max(np.abs(lhs - rhs).max(), mean_gap))
    name = f"gauge_covariance({family})"
    details = f"max mean/cov residual over sampled (theta, state) = {worst:.3e}"
    passed = bool(worst <= CHECK_GAUGE_TOL)
    return CheckOutcome(name, passed, worst, CHECK_GAUGE_TOL, _GAUGE_SAMPLES, details)


def check_classical_mixing_representation(beta: float, M: float = 1.0) -> CheckOutcome:
    """The flagged additive channel equals a classical mixing channel acting
    after the two squeezed flags are appended, and its thermal output matches
    the reference covariance entry by entry."""
    flagged = flagged_additive_noise(beta)
    flag = squeezed_vacuum_cov(2.0 / beta)
    embed = GaussianChannel(
        np.vstack([np.eye(2), np.zeros((4, 2))]),
        direct_sum(np.zeros((2, 2)), flag, flag),
    )
    mixing = classical_mixing(flagged_mixing_matrix(beta))
    rebuilt = compose(mixing, embed)
    residual = max(
        np.abs(rebuilt.X - flagged.X).max(), np.abs(rebuilt.Y - flagged.Y).max()
    )
    out = apply(flagged, thermal_state(M))
    residual_vm = np.abs(out.cov - reference_flagged_thermal_cov(beta, M)).max()
    y_min_eig = float(np.linalg.eigvalsh(flagged_mixing_matrix(beta)).min())
    worst = max(float(residual), float(residual_vm), max(0.0, -y_min_eig))
    name = f"classical_mixing_representation(beta={beta:g}, M={M:g})"
    details = (
        f"(X, Y) residual {residual:.3e}; thermal-output residual "
        f"{residual_vm:.3e}; mixing noise min eigenvalue {y_min_eig:.3e}"
    )
    passed = bool(worst <= CHECK_EXACT_TOL)
    return CheckOutcome(name, passed, float(worst), CHECK_EXACT_TOL, 1, details)


def _leading_coefficient(tops, xs) -> float:
    """Slope between the two largest ladder points; kills the O(1) offset."""
    return (tops[-1] - tops[-2]) / (xs[-1] - xs[-2])


def check_spectrum_asymptotics(
    beta: float | None = None,
    eta: float | None = None,
    N: float = 0.0,
) -> CheckOutcome:
    """Growth of the symplectic spectra with the probe energy.

    For the flagged channel the top eigenvalue of the thermal output grows
    as 2M, the joint (purified-probe) output has two eigenvalues growing as
    2 sqrt(M / beta) and two pinned at exactly 1; for the extended
    attenuator the top eigenvalue grows as 2 eta M. Leading coefficients are
    extracted by a finite difference over the probe energies M in _LADDER,
    with relative tolerance CHECK_GROWTH_TOL.
    """
    if (beta is None) == (eta is None):
        raise ValueError("give exactly one of beta (flagged) or eta (attenuator)")
    if beta is not None:
        name = f"spectrum_asymptotics(flagged, beta={beta:g})"
        channel, growth = flagged_additive_noise(beta), 2.0
    else:
        name = f"spectrum_asymptotics(attenuator, eta={eta:g}, N={N:g})"
        channel, growth = extended_attenuator(eta, N), 2.0 * eta
    thermal = _physical(np.array([thermal_cov(m) for m in _LADDER]))
    a = _leading_coefficient(symplectic_eigenvalues(_outputs(channel, thermal))[:, 0], _LADDER)
    residual = abs(a / growth - 1.0)
    reports = [f"thermal-output growth {a:.8f} per M (expect {growth:g})"]
    unit_dev = 0.0
    if beta is not None:
        probes = _physical(np.array([two_mode_squeezed_cov(m) for m in _LADDER]))
        dj = symplectic_eigenvalues(_outputs(tensor_with_identity(channel), probes))
        aj = _leading_coefficient(dj[:, 0], [math.sqrt(m) for m in _LADDER])
        joint = 2.0 / math.sqrt(beta)
        residual = max(residual, abs(aj / joint - 1.0))
        reports.append(f"joint-output growth {aj:.8f} per sqrt(M) (expect {joint:.8f})")
        unit_dev = float(np.abs(dj[:, 2:] - 1.0).max())
        reports.append(f"unit-eigenvalue deviation {unit_dev:.3e}")
    passed = residual <= CHECK_GROWTH_TOL and unit_dev <= CHECK_UNIT_TOL
    return CheckOutcome(
        name,
        bool(passed),
        float(max(residual, unit_dev)),
        max(CHECK_GROWTH_TOL, CHECK_UNIT_TOL),
        len(_LADDER),
        "; ".join(reports),
    )


def suite_entries(seed: int = DEFAULT_SEED, gamma: float = 1.0) -> list:
    """Named thunks for the full suite, sorted by check name.

    `gamma` overrides the rescaling factor fed to the flag condition; any
    value other than 1 makes that check fail, which is itself evidence that
    the condition pins gamma down.
    """
    entries = [
        (
            "classical_mixing_representation(beta=1, M=2)",
            lambda: check_classical_mixing_representation(1.0, M=2.0),
        ),
        (
            "classical_mixing_representation(beta=2, M=1)",
            lambda: check_classical_mixing_representation(2.0, M=1.0),
        ),
        (
            "extended_attenuator_degradability(eta=0.51, N=2)",
            lambda: check_extended_attenuator_degradability(0.51, 2.0),
        ),
        (
            "extended_attenuator_degradability(eta=0.8, N=0.05)",
            lambda: check_extended_attenuator_degradability(0.8, 0.05),
        ),
        (
            f"flag_condition(gamma={gamma:g}, beta~U[0.25,4])",
            lambda: check_flag_condition(gamma=gamma, seed=seed),
        ),
        (
            "gauge_covariance(extended_attenuator)",
            lambda: check_gauge_covariance("extended_attenuator", seed=seed + 1),
        ),
        (
            "gauge_covariance(flagged_additive)",
            lambda: check_gauge_covariance("flagged_additive", seed=seed + 2),
        ),
        (
            "spectrum_asymptotics(attenuator, eta=0.8, N=0.05)",
            lambda: check_spectrum_asymptotics(eta=0.8, N=0.05),
        ),
        (
            "spectrum_asymptotics(flagged, beta=1)",
            lambda: check_spectrum_asymptotics(beta=1.0),
        ),
    ]
    return sorted(entries, key=lambda e: e[0])


def run_all_checks(seed: int = DEFAULT_SEED, gamma: float = 1.0) -> list:
    """Run the full certification suite deterministically, in name order."""
    return [thunk() for _, thunk in suite_entries(seed, gamma)]
