"""Symplectic linear algebra for bosonic modes.

Conventions: quadratures are ordered (x1, p1, ..., xn, pn); the vacuum
covariance matrix is the identity, so a thermal state with mean photon
number N has covariance (2N+1)*I. All entropies are in bits.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NonSymmetricError",
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
    "embed_mean",
    "GaussianState",
    "vacuum_state",
    "thermal_state",
    "two_mode_squeezed_state",
]

SYMMETRY_TOL = 1e-12
PAIRING_TOL = 1e-9
PHYSICALITY_TOL = 1e-10
LN2 = math.log(2.0)


class NonSymmetricError(ValueError):
    """Matrix expected to be symmetric is not, beyond tolerance."""


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


def _require_even_square_symmetric(V: np.ndarray) -> np.ndarray:
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[0] != V.shape[1] or V.shape[0] % 2 != 0:
        raise ValueError(f"expected a 2n x 2n matrix, got shape {V.shape}")
    # Tolerance scales with the matrix so that exactly-built large covariance
    # matrices (entries ~1e6) are not rejected for eps-level asymmetry.
    scale = max(1.0, np.abs(V).max())
    asym = np.abs(V - V.T).max()
    if asym > SYMMETRY_TOL * scale:
        raise NonSymmetricError(f"asymmetry {asym:.3e} exceeds tolerance")
    return V


def symplectic_eigenvalues(V: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, sorted descending.

    Returns the n positive values d_k such that the spectrum of i*Omega*V is
    {+d_k, -d_k}. The covariance matrix must be symmetric and even
    dimensional; a physical matrix has all d_k >= 1.

    Raises:
        NonSymmetricError: if V is not symmetric within tolerance.
        SpectrumPairingError: if the eigenvalues of Omega*V do not split into
            +/- i*d pairs, which signals a corrupted or badly unphysical
            matrix.
    """
    V = _require_even_square_symmetric(V)
    n = V.shape[0] // 2
    eigs = np.linalg.eigvals(symplectic_form(n) @ V)
    # Backward error of the eigensolver grows with the matrix norm; without
    # the second term, strongly squeezed pure states would be rejected.
    slack = PAIRING_TOL * max(1.0, np.abs(eigs).max()) + 64 * np.finfo(
        float
    ).eps * max(1.0, np.abs(V).max())
    if np.abs(eigs.real).max() > slack:
        raise SpectrumPairingError(
            f"real residue {np.abs(eigs.real).max():.3e} exceeds tolerance"
        )
    imag = np.sort(eigs.imag)
    # imag is sorted ascending: entry k must cancel entry -(k+1).
    mismatch = np.abs(imag + imag[::-1]).max()
    if mismatch > slack:
        raise SpectrumPairingError(
            f"eigenvalues do not pair as +/- i*d (residue {mismatch:.3e})"
        )
    return imag[::-1][:n].copy()


def is_physical_cov(V: np.ndarray, tol: float = PHYSICALITY_TOL) -> bool:
    """Whether V satisfies the uncertainty relation V + i*Omega >= 0.

    Checked on the Hermitian form directly: the Hermitian eigenproblem is
    backward stable even for strongly squeezed matrices, where the values
    of the near-unit symplectic eigenvalues themselves are ill-conditioned.
    """
    V = _require_even_square_symmetric(V)
    form = V + 1j * symplectic_form(V.shape[0] // 2)
    defect = float(np.linalg.eigvalsh(form).min())
    return defect >= -tol * max(1.0, np.abs(V).max())


def bosonic_entropy(x: float) -> float:
    """Entropy h(x) in bits of a thermal mode with symplectic eigenvalue x.

    h(x) = ((x+1)/2) log2((x+1)/2) - ((x-1)/2) log2((x-1)/2), evaluated for
    one float as (log1p(b) + b log1p(1/b)) / ln 2 with b = (x - 1)/2: both
    terms are nonnegative, so nothing cancels at any x. h = 0 on [1 - 1e-10, 1].

    Raises:
        EntropyDomainError: for x < 1 - 1e-10, and for NaN.
    """
    if not x >= 1.0 - PHYSICALITY_TOL:
        raise EntropyDomainError(f"argument {x} below 1")
    if x <= 1.0:
        return 0.0
    b = (x - 1.0) / 2.0
    return (math.log1p(b) + b * math.log1p(1.0 / b)) / LN2


def entropy_from_cov(V: np.ndarray) -> float:
    """Von Neumann entropy in bits of the Gaussian state with covariance V."""
    # The eigensolver undershoots 1 on near-pure blocks at large energy.
    return sum(bosonic_entropy(max(d, 1.0)) for d in symplectic_eigenvalues(V).tolist())


def thermal_cov(N: float) -> np.ndarray:
    """Covariance (2N+1)*I2 of a single thermal mode with photon number N."""
    if N < 0:
        raise ValueError("photon number must be nonnegative")
    return (2.0 * N + 1.0) * np.eye(2)


def two_mode_squeezed_cov(N: float) -> np.ndarray:
    """Covariance of the two-mode squeezed state purifying thermal(N).

    Diagonal blocks are (2N+1)*I2 and off-diagonal blocks are
    2*sqrt(N(N+1))*diag(1,-1); the state is pure, so both symplectic
    eigenvalues equal 1.
    """
    if N < 0:
        raise ValueError("photon number must be nonnegative")
    diag = (2.0 * N + 1.0) * np.eye(2)
    corr = 2.0 * np.sqrt(N * (N + 1.0)) * np.diag([1.0, -1.0])
    return np.block([[diag, corr], [corr, diag]])


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


def embed_mean(*means: np.ndarray) -> np.ndarray:
    """Concatenate mean vectors of subsystems into one mode-ordered vector."""
    parts = [np.asarray(m, dtype=float).ravel() for m in means]
    return np.concatenate(parts) if parts else np.zeros(0)


@dataclass(frozen=True)
class GaussianState:
    """Gaussian state given by its mean vector and covariance matrix."""

    mean: np.ndarray
    cov: np.ndarray = field(repr=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).ravel()
        cov = _require_even_square_symmetric(self.cov)
        if mean.shape[0] != cov.shape[0]:
            raise ValueError(
                f"mean length {mean.shape[0]} does not match covariance "
                f"dimension {cov.shape[0]}"
            )
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov)):
            raise ValueError("mean and covariance must be finite")
        if not is_physical_cov(cov):
            raise ValueError("covariance violates the uncertainty relation")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.cov.shape[0] // 2

    def entropy(self) -> float:
        """Von Neumann entropy in bits."""
        return entropy_from_cov(self.cov)

    def is_pure(self, tol: float = 1e-9) -> bool:
        d = symplectic_eigenvalues(self.cov)
        return bool(np.abs(d - 1.0).max() <= tol * max(1.0, np.abs(self.cov).max()))


def vacuum_state(n_modes: int = 1) -> GaussianState:
    """Vacuum on the given number of modes."""
    return GaussianState(np.zeros(2 * n_modes), np.eye(2 * n_modes))


def thermal_state(N: float) -> GaussianState:
    """Single-mode thermal state with mean photon number N."""
    return GaussianState(np.zeros(2), thermal_cov(N))


def two_mode_squeezed_state(N: float) -> GaussianState:
    """Two-mode squeezed state purifying a thermal state with photon number N."""
    return GaussianState(np.zeros(4), two_mode_squeezed_cov(N))
