"""Symplectic linear algebra for bosonic modes.

Conventions: quadratures are ordered (x1, p1, ..., xn, pn); the vacuum
covariance matrix is the identity, so a thermal state with mean photon
number N has covariance (2N+1)*I. All entropies are in bits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

from ._np import np

__all__ = [
    "NonSymmetricError",
    "NonFiniteError",
    "SpectrumPairingError",
    "EntropyDomainError",
    "symplectic_form",
    "symplectic_eigenvalues",
    "bosonic_entropy",
    "entropy_from_cov",
    "is_physical_cov",
    "thermal_cov",
    "two_mode_squeezed_cov",
    "squeezed_vacuum_cov",
    "gauge_rotation",
    "direct_sum",
    "GaussianState",
    "vacuum_state",
    "thermal_state",
    "two_mode_squeezed_state",
]

# Tolerances: every accept/reject threshold of the package, named once and
# imported by the other modules. "abs" compares as is; "x scale" multiplies by
# scale = max(1, |V|max) of the matrix under test, as `_validated` returns it.
# Algorithm parameters (golden-section stop, the scan's probe step _STEP, oracle
# divergence) stay beside their algorithm in `bounds`.
SYMMETRY_TOL = 1e-12  # x scale: largest |V - V^T| of a matrix taken as symmetric
PAIRING_TOL = 1e-9  # x max(1, |eig|max), + _EIG_SLACK x scale: Omega V's +/- i d pairing
_EIG_SLACK = 64 * sys.float_info.epsilon  # x scale: eigensolver backward error
PHYSICALITY_TOL = 1e-10  # x scale: V + i Omega of a state may dip this far below 0
PURITY_TOL = 1e-9  # x scale: a pure state's symplectic eigenvalues are this close to 1
ENTROPY_DOMAIN_TOL = 1e-10  # abs: bosonic_entropy takes x >= 1 - this, with h = 0 below 1
CP_TOL = 1e-10  # abs, + _EIG_SLACK x scale of Y: a channel's CP form may dip this far below 0
CP_SLACK = 1e-12  # abs: a phase-insensitive y may fall this far below |1 - tau|
MIXING_PSD_TOL = 1e-12  # abs: a classical-mixing covariance may dip this far below 0
ISO_TOL = 1e-10  # abs: isotropy of a single-mode (X, Y)
GRID_END_TOL = 1e-9  # x step, + ulp(|lo| + |hi|): a stepped figure grid keeps an end this far past hi
CHECK_EXACT_TOL = 1e-12  # abs: verify's degradability, flag-condition and mixing residuals
CHECK_GAUGE_TOL = 1e-10  # abs: verify's gauge-covariance residuals
CHECK_GROWTH_TOL = 1e-5  # relative: verify's spectrum growth rates, 10 / the top probe M 1e6
CHECK_UNIT_TOL = 1e-8  # abs: verify's pinned unit symplectic eigenvalues

LN2 = math.log(2.0)


class NonSymmetricError(ValueError):
    """Matrix expected to be symmetric is not, beyond tolerance."""


class NonFiniteError(ValueError):
    """Matrix with a NaN or infinite entry."""


class SpectrumPairingError(ValueError):
    """Eigenvalues of the symplectic eigenproblem do not pair up as +/- i*d."""


class EntropyDomainError(ValueError):
    """Argument of the bosonic entropy function below the physical range."""


def symplectic_form(n: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form, block diagonal in [[0,1],[-1,0]]."""
    omega = np.zeros((2 * n, 2 * n))
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for k in range(n):
        omega[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = block
    return omega


@lru_cache(maxsize=None)
def _forms(n: int) -> tuple:
    """(Omega, i*Omega) for n modes, built once and read-only; the internal
    users share them, while symplectic_form returns a fresh array."""
    omega = symplectic_form(n)
    i_omega = 1j * omega
    omega.flags.writeable = i_omega.flags.writeable = False
    return omega, i_omega


def _validated(V: np.ndarray, what: str = "covariance matrix", stack: bool = False) -> tuple:
    """The one validation pass of a 2n x 2n matrix, or with `stack` of each in a
    (..., 2n, 2n) stack: shape, finite entries, symmetry. Returns V as floats and
    its scale max(1, |V|max), per matrix, the "x scale" unit; `what` names V.

    Raises:
        ValueError: if V is not 2n x 2n with n >= 1.
        NonFiniteError: if an entry is NaN or infinite.
        NonSymmetricError: if V is not symmetric within tolerance.
    """
    V = np.asarray(V, dtype=float)
    if stack and V.ndim > 2:
        return V, np.array([_validated(v, what, stack)[1] for v in V])
    if V.ndim != 2 or V.shape[0] != V.shape[1] or V.shape[0] % 2 != 0 or V.shape[0] == 0:
        raise ValueError(f"expected a 2n x 2n matrix with n >= 1, got shape {V.shape}")
    # ndarray.max propagates NaN, so one comparison catches NaN and inf.
    top = float(np.abs(V).max())
    if not top < math.inf:
        raise NonFiniteError(f"{what} must be finite")
    # Tolerance scales with the matrix so that exactly-built large covariance
    # matrices (entries ~1e6) are not rejected for eps-level asymmetry.
    scale = max(1.0, top)
    asym = float(np.abs(V - V.T).max())
    if asym > SYMMETRY_TOL * scale:
        raise NonSymmetricError(f"{what}: asymmetry {asym:.3e} exceeds tolerance")
    return V, scale


def symplectic_eigenvalues(V: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, sorted descending.

    Returns the n positive values d_k such that the spectrum of i*Omega*V is
    {+d_k, -d_k}. The covariance matrix must be finite, symmetric and even
    dimensional; a physical matrix has all d_k >= 1. A (..., 2n, 2n) stack
    gives each matrix's spectrum, bit for bit, and raises if one matrix would.

    Raises:
        NonFiniteError: if V has a NaN or infinite entry.
        NonSymmetricError: if V is not symmetric within tolerance.
        SpectrumPairingError: if the eigenvalues of Omega*V do not split into
            +/- i*d pairs, which signals a corrupted or badly unphysical
            matrix.
    """
    V, scale = _validated(V, stack=True)
    n = V.shape[-1] // 2
    eigs = np.linalg.eigvals(_forms(n)[0] @ V)
    # Backward error of the eigensolver grows with the matrix norm; without
    # the second term, strongly squeezed pure states would be rejected.
    slack = PAIRING_TOL * np.maximum(1.0, np.abs(eigs).max(axis=-1)) + _EIG_SLACK * scale
    real = np.abs(eigs.real).max(axis=-1)
    if (real > slack).any():
        raise SpectrumPairingError(f"real residue {real[real > slack].max():.3e} exceeds tolerance")
    imag = np.sort(eigs.imag, axis=-1)
    # imag is sorted ascending: entry k must cancel entry -(k+1).
    mismatch = np.abs(imag + imag[..., ::-1]).max(axis=-1)
    if (mismatch > slack).any():
        raise SpectrumPairingError(
            f"eigenvalues do not pair as +/- i*d (residue {mismatch[mismatch > slack].max():.3e})"
        )
    return imag[..., n:][..., ::-1].copy()


def is_physical_cov(V: np.ndarray) -> bool:
    """Whether V satisfies the uncertainty relation V + i*Omega >= 0; False
    for a matrix with a NaN or infinite entry.

    Checked on the Hermitian form directly: the Hermitian eigenproblem is
    backward stable even for strongly squeezed matrices, where the values
    of the near-unit symplectic eigenvalues themselves are ill-conditioned.
    """
    try:
        V, scale = _validated(V)
    except NonFiniteError:
        return False
    return _uncertainty_holds(V, scale)


def _uncertainty_holds(V: np.ndarray, scale) -> bool:
    """is_physical_cov on each matrix that `_validated` returned with `scale`."""
    defect = np.linalg.eigvalsh(V + _forms(V.shape[-1] // 2)[1]).min(axis=-1)
    return bool((defect >= -PHYSICALITY_TOL * scale).all())


def _physical(V: np.ndarray) -> np.ndarray:
    """Each matrix of a (..., 2n, 2n) stack, checked as GaussianState checks one."""
    V, scale = _validated(V, stack=True)
    if not _uncertainty_holds(V, scale):
        raise ValueError("covariance violates the uncertainty relation")
    return V


def bosonic_entropy(x: float) -> float:
    """Entropy h(x) in bits of a thermal mode with symplectic eigenvalue x.

    h(x) = ((x+1)/2) log2((x+1)/2) - ((x-1)/2) log2((x-1)/2), evaluated for
    one float as (log1p(b) + b log1p(1/b)) / ln 2 with b = (x - 1)/2: both
    terms are nonnegative, so nothing cancels at any x. h = 0 on
    [1 - ENTROPY_DOMAIN_TOL, 1] and h(inf) = inf, its limit.

    Raises:
        EntropyDomainError: for x < 1 - ENTROPY_DOMAIN_TOL, and for NaN.
    """
    if not x >= 1.0 - ENTROPY_DOMAIN_TOL:
        raise EntropyDomainError(f"argument {x} below 1")
    if x <= 1.0:
        return 0.0
    if x == math.inf:
        return x  # b log1p(1/b) would be inf * 0
    b = (x - 1.0) / 2.0
    return (math.log1p(b) + b * math.log1p(1.0 / b)) / LN2


def entropy_from_cov(V: np.ndarray) -> float:
    """Von Neumann entropy in bits of the Gaussian state with covariance V."""
    # The eigensolver undershoots 1 on near-pure blocks at large energy.
    return sum(bosonic_entropy(max(d, 1.0)) for d in symplectic_eigenvalues(V).tolist())


def _thermal_variance(N: float, purified: bool = False) -> float:
    """2N + 1, the quadrature variance of a thermal mode with photon number N.
    An N that makes no finite covariance is rejected, named, before any array
    is built: NaN, N < 0, an overflowing 2N + 1 and, for the purification, an
    overflowing N(N + 1)."""
    N = float(N)  # a numpy scalar would warn where the terms overflow
    if not N >= 0.0:
        raise ValueError(f"photon number must be nonnegative, got N={N}")
    if not 2.0 * N + 1.0 < math.inf:
        raise ValueError(f"photon number needs 2N + 1 finite, got N={N}")
    if purified and not N * (N + 1.0) < math.inf:
        raise ValueError(f"photon number needs N(N + 1) finite, got N={N}")
    return 2.0 * N + 1.0


def thermal_cov(N: float) -> np.ndarray:
    """Covariance (2N+1)*I2 of a single thermal mode with photon number N."""
    return _thermal_variance(N) * np.eye(2)


def two_mode_squeezed_cov(N: float) -> np.ndarray:
    """Covariance of the two-mode squeezed state purifying thermal(N).

    Diagonal blocks are (2N+1)*I2 and off-diagonal blocks are
    2*sqrt(N(N+1))*diag(1,-1); the state is pure, so both symplectic
    eigenvalues equal 1.
    """
    d = _thermal_variance(N, purified=True)
    c = 2.0 * math.sqrt(N * (N + 1.0))
    return np.array(
        [[d, 0.0, c, 0.0], [0.0, d, 0.0, -c], [c, 0.0, d, 0.0], [0.0, -c, 0.0, d]]
    )


def squeezed_vacuum_cov(variance_x: float) -> np.ndarray:
    """Covariance diag(v, 1/v) of a squeezed vacuum with x-variance v."""
    if variance_x <= 0:
        raise ValueError("variance must be positive")
    return np.diag([variance_x, 1.0 / variance_x])


# Rotation patterns: "single" rotates one mode; "flagged" is the matching
# three-mode output rotation of the flagged additive-noise channel (the two
# flag modes rotate into each other); "extended" is the two-mode output
# rotation of the extended attenuator (flag mode counter-rotates).
_GAUGE_PATTERNS = ("single", "flagged", "extended")


def gauge_rotation(theta: float, pattern: str = "single") -> np.ndarray:
    """Orthogonal symplectic rotation implementing gauge covariance.

    Args:
        theta: rotation angle in radians.
        pattern: "single" (2x2), "flagged" (6x6) or "extended" (4x4).
    """
    c, s = np.cos(theta), np.sin(theta)
    if pattern == "single":
        return np.array([[c, s], [-s, c]])
    if pattern == "flagged":
        return np.array(
            [
                [c, s, 0, 0, 0, 0],
                [-s, c, 0, 0, 0, 0],
                [0, 0, c, 0, s, 0],
                [0, 0, 0, c, 0, s],
                [0, 0, -s, 0, c, 0],
                [0, 0, 0, -s, 0, c],
            ]
        )
    if pattern == "extended":
        return np.array(
            [
                [c, s, 0, 0],
                [-s, c, 0, 0],
                [0, 0, c, -s],
                [0, 0, s, c],
            ]
        )
    raise ValueError(f"pattern must be one of {_GAUGE_PATTERNS}, got {pattern!r}")


def direct_sum(*blocks: np.ndarray) -> np.ndarray:
    """Block-diagonal composition; mode counts add. Blocks may be rectangular
    (the X matrix of a channel between different mode counts)."""
    blocks = [np.atleast_2d(np.asarray(b, dtype=float)) for b in blocks if np.asarray(b).size]
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)))
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


@dataclass(frozen=True)
class GaussianState:
    """Gaussian state given by its mean vector and covariance matrix."""

    mean: np.ndarray
    cov: np.ndarray = field(repr=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).ravel()
        cov, scale = _validated(self.cov)
        if mean.shape[0] != cov.shape[0]:
            raise ValueError(
                f"mean length {mean.shape[0]} does not match covariance "
                f"dimension {cov.shape[0]}"
            )
        if not np.isfinite(mean).all():
            raise NonFiniteError("mean vector must be finite")
        if not _uncertainty_holds(cov, scale):
            raise ValueError("covariance violates the uncertainty relation")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.cov.shape[0] // 2

    def entropy(self) -> float:
        """Von Neumann entropy in bits."""
        return entropy_from_cov(self.cov)

    def is_pure(self) -> bool:
        d = symplectic_eigenvalues(self.cov)
        return bool(np.abs(d - 1.0).max() <= PURITY_TOL * max(1.0, np.abs(self.cov).max()))


def _mode_count(n_modes) -> int:
    """`n_modes` as a mode count of at least 1: a Python or numpy integer
    (not a bool), or a ValueError that names n_modes."""
    if isinstance(n_modes, bool) or not isinstance(n_modes, (int, np.integer)):
        raise ValueError(f"n_modes must be an integer, got n_modes={n_modes!r}")
    if n_modes < 1:
        raise ValueError(f"need n_modes >= 1, got n_modes={n_modes}")
    return int(n_modes)


def vacuum_state(n_modes: int = 1) -> GaussianState:
    """Vacuum on the given number of modes (at least one)."""
    n_modes = _mode_count(n_modes)
    return GaussianState(np.zeros(2 * n_modes), np.eye(2 * n_modes))


def thermal_state(N: float) -> GaussianState:
    """Single-mode thermal state with mean photon number N."""
    return GaussianState(np.zeros(2), thermal_cov(N))


def two_mode_squeezed_state(N: float) -> GaussianState:
    """Two-mode squeezed state purifying a thermal state with photon number N."""
    return GaussianState(np.zeros(4), two_mode_squeezed_cov(N))
