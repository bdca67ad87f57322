"""Gaussian channels as affine moment maps.

A channel acts on means and covariances as m -> X m and V -> X V X^T + Y.
Complete positivity of the map is certified numerically at construction from
Y + i(Omega_out - X Omega_in X^T) >= 0, after one validation pass has found
X and Y finite and Y symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._np import np

from .symplectic import (
    CP_SLACK,
    CP_TOL,
    ISO_TOL,
    MIXING_PSD_TOL,
    _EIG_SLACK,
    GaussianState,
    NonFiniteError,
    _forms,
    _mode_count,
    _physical,
    _validated,
    direct_sum,
    squeezed_vacuum_cov,
    two_mode_squeezed_cov,
)

__all__ = [
    "ParamDomainError",
    "CPViolationError",
    "DimensionMismatchError",
    "NotPhaseInsensitiveError",
    "NoKnownComplementError",
    "GaussianChannel",
    "PhaseInsensitiveParams",
    "attenuator",
    "amplifier",
    "additive_noise",
    "classical_mixing",
    "identity_channel",
    "extended_attenuator",
    "extended_attenuator_pair",
    "flagged_additive_noise",
    "flagged_mixing_matrix",
    "apply",
    "compose",
    "tensor_with_identity",
    "to_phase_insensitive",
    "phase_insensitive_family",
    "from_phase_insensitive",
    "complementary",
]

class ParamDomainError(ValueError):
    """Channel parameter outside its allowed domain."""


def _domain_error(rule: str, **params) -> ParamDomainError:
    """Error for parameters outside `rule`; a non-finite one is named alone."""
    for name, value in params.items():
        if not math.isfinite(value):
            return ParamDomainError(f"{name} must be finite, got {value}")
    got = ", ".join(f"{name}={value}" for name, value in params.items())
    return ParamDomainError(f"need {rule}, got {got}")


def _finite_term(value: float, term: str, **params) -> float:
    """`value` of a matrix term computed from `params`; an overflow to inf or
    NaN is rejected with the parameters named, before any matrix is built."""
    if not math.isfinite(value):
        raise _domain_error(f"{term} finite", **params)
    return value


class CPViolationError(ValueError):
    """The (X, Y) pair does not define a completely positive map."""


class DimensionMismatchError(ValueError):
    """Mode counts of the operands do not line up."""


class NotPhaseInsensitiveError(ValueError):
    """Channel is not of the isotropic single-mode form (sqrt(tau) I, y I)."""


class NoKnownComplementError(ValueError):
    """No closed-form complementary channel is available for this family."""


@dataclass(frozen=True)
class GaussianChannel:
    """Affine moment map (X, Y) between mode counts, with optional family tag.

    The family tag records which constructor produced the channel; it is what
    makes closed-form complements available.
    """

    X: np.ndarray = field(repr=False)
    Y: np.ndarray = field(repr=False)
    family: str = ""
    params: tuple = ()

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        Y = np.atleast_2d(np.asarray(self.Y, dtype=float))
        if X.shape[0] % 2 or X.shape[1] % 2 or Y.shape[0] != Y.shape[1]:
            raise ValueError(f"bad moment-map shapes X{X.shape}, Y{Y.shape}")
        if Y.shape[0] != X.shape[0]:
            raise ValueError("Y dimension must match the output side of X")
        if not np.isfinite(X).all():
            raise NonFiniteError("moment-map matrix X must be finite")
        Y, scale = _validated(Y, "added-noise matrix Y")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        defect = self.cp_defect()
        if defect < -(CP_TOL + _EIG_SLACK * scale):
            raise CPViolationError(
                f"CP certificate failed (min eigenvalue {defect:.3e})"
            )

    @property
    def n_in(self) -> int:
        return self.X.shape[1] // 2

    @property
    def n_out(self) -> int:
        return self.X.shape[0] // 2

    def cp_defect(self) -> float:
        """Min eigenvalue of Y + i(Omega_out - X Omega_in X^T); >= 0 iff CP."""
        omega_in = _forms(self.n_in)[0]
        omega_out = _forms(self.n_out)[0]
        form = self.Y + 1j * (omega_out - self.X @ omega_in @ self.X.T)
        return float(np.linalg.eigvalsh(form).min())


def attenuator(eta: float, N: float = 0.0) -> GaussianChannel:
    """Thermal attenuator: V -> eta V + (1-eta)(2N+1) I2."""
    if not (0.0 <= eta <= 1.0 and 0.0 <= N < math.inf):
        raise _domain_error("0 <= eta <= 1 and N >= 0", eta=eta, N=N)
    noise = _finite_term((1.0 - eta) * (2.0 * N + 1.0), "(1 - eta)(2N + 1)", eta=eta, N=N)
    X = np.sqrt(eta) * np.eye(2)
    Y = noise * np.eye(2)
    return GaussianChannel(X, Y, "attenuator", (eta, N))


def amplifier(g: float, N: float = 0.0) -> GaussianChannel:
    """Thermal amplifier: V -> g V + (g-1)(2N+1) I2."""
    if not (1.0 <= g < math.inf and 0.0 <= N < math.inf):
        raise _domain_error("g >= 1 and N >= 0", g=g, N=N)
    noise = _finite_term((g - 1.0) * (2.0 * N + 1.0), "(g - 1)(2N + 1)", g=g, N=N)
    X = np.sqrt(g) * np.eye(2)
    Y = noise * np.eye(2)
    return GaussianChannel(X, Y, "amplifier", (g, N))


def additive_noise(beta: float) -> GaussianChannel:
    """Additive Gaussian noise with inverse temperature beta: V -> V + (2/beta) I2."""
    return GaussianChannel(np.eye(2), _added_variance(beta) * np.eye(2), "additive", (beta,))


def _added_variance(beta: float) -> float:
    """Quadrature variance 2/beta added by additive noise of inverse
    temperature beta, checked for the domain and for overflow."""
    if not 0.0 < beta < math.inf:
        raise _domain_error("beta > 0", beta=beta)
    return _finite_term(2.0 / beta, "2/beta", beta=beta)


def classical_mixing(Y: np.ndarray) -> GaussianChannel:
    """Random-displacement channel adding Gaussian noise with covariance Y >= 0."""
    Y = _validated(np.atleast_2d(Y), "mixing covariance Y")[0]
    if np.linalg.eigvalsh((Y + Y.T) / 2).min() < -MIXING_PSD_TOL:
        raise ParamDomainError("classical mixing requires Y >= 0")
    return GaussianChannel(np.eye(Y.shape[0]), Y, "classical_mixing", ())


def identity_channel(n_modes: int = 1) -> GaussianChannel:
    """Identity map on the given number of modes (at least one)."""
    n_modes = _mode_count(n_modes)
    return GaussianChannel(np.eye(2 * n_modes), np.zeros((2 * n_modes, 2 * n_modes)))


def extended_attenuator_pair(eta: float, N: float) -> GaussianChannel:
    """Two-mode attenuator extension: both inputs couple to a shared
    two-mode-squeezed environment through equal beam splitters.

    Acts as V -> eta V + (1-eta) V_tms(N) on two modes. Degradable for
    eta > 1/2, with complementary channel obtained by eta -> 1-eta.
    """
    _check_extension(eta, N)
    X = np.sqrt(eta) * np.eye(4)
    Y = (1.0 - eta) * two_mode_squeezed_cov(N)
    return GaussianChannel(X, Y, "extended_attenuator_pair", (eta, N))


def extended_attenuator(eta: float, N: float) -> GaussianChannel:
    """Degradable one-to-two-mode extension of the thermal attenuator.

    The ancilla input of the two-mode extension is fixed in vacuum, so the
    map takes one signal mode to (signal, flag). Its capacity upper-bounds
    the thermal attenuator's.
    """
    _check_extension(eta, N)
    X = math.sqrt(eta) * np.eye(4, 2)
    Y = (1.0 - eta) * two_mode_squeezed_cov(N)
    Y[2:, 2:] += eta * np.eye(2)  # the vacuum ancilla's share
    return GaussianChannel(X, Y, "extended_attenuator", (eta, N))


def _check_extension(eta: float, N: float):
    """Domain of the attenuator extensions. The environment's covariance
    (two_mode_squeezed_cov) takes sqrt(N(N + 1)), whose argument overflows
    first."""
    if not (0.0 <= eta <= 1.0 and 0.0 <= N < math.inf):
        raise _domain_error("0 <= eta <= 1 and N >= 0", eta=eta, N=N)
    _finite_term(N * (N + 1.0), "N(N + 1)", eta=eta, N=N)


def flagged_mixing_matrix(beta: float) -> np.ndarray:
    """Noise covariance of the three-mode classical mixing that realizes the
    flagged additive-noise channel: correlated displacements on the signal
    and on the momentum quadratures of the two flag modes."""
    variance = _added_variance(beta)
    Y = np.zeros((6, 6))
    Y[0, 0] = Y[1, 1] = variance
    Y[3, 3] = Y[5, 5] = 1.0 / (2.0 * beta)
    Y[1, 3] = Y[3, 1] = 1.0 / beta
    Y[0, 5] = Y[5, 0] = -1.0 / beta
    return Y


def flagged_additive_noise(beta: float) -> GaussianChannel:
    """Degradable flagged extension of the additive Gaussian noise channel.

    One signal mode goes to three output modes (signal, flag X', flag P').
    Each flag is a squeezed vacuum displaced in proportion to the random
    kick applied to the signal, so the flags record which displacement
    occurred. The capacity of this map upper-bounds the additive channel's.
    """
    variance = _added_variance(beta)
    X = np.vstack([np.eye(2), np.zeros((4, 2))])
    flag = squeezed_vacuum_cov(variance)
    Y = flagged_mixing_matrix(beta) + direct_sum(np.zeros((2, 2)), flag, flag)
    return GaussianChannel(X, Y, "flagged_additive", (beta,))


def apply(channel: GaussianChannel, state: GaussianState) -> GaussianState:
    """Send a Gaussian state through a channel."""
    if state.n_modes != channel.n_in:
        raise DimensionMismatchError(
            f"channel expects {channel.n_in} modes, state has {state.n_modes}"
        )
    mean = channel.X @ state.mean
    cov = channel.X @ state.cov @ channel.X.T + channel.Y
    return GaussianState(mean, (cov + cov.T) / 2)


def _outputs(channel: GaussianChannel, V: np.ndarray) -> np.ndarray:
    """`apply`'s output covariances, checked as it checks them, on a checked stack V;
    the channel's X and Y may be stacks of the same length."""
    out = channel.X @ V @ channel.X.swapaxes(-1, -2) + channel.Y
    return _physical((out + out.swapaxes(-1, -2)) / 2)


def compose(second: GaussianChannel, first: GaussianChannel) -> GaussianChannel:
    """Channel running `first` then `second`; (X, Y) multiply accordingly."""
    if first.n_out != second.n_in:
        raise DimensionMismatchError(
            f"cannot feed {first.n_out} modes into a {second.n_in}-mode input"
        )
    X = second.X @ first.X
    Y = second.X @ first.Y @ second.X.T + second.Y
    return GaussianChannel(X, (Y + Y.T) / 2)


def tensor_with_identity(channel: GaussianChannel) -> GaussianChannel:
    """Extend a channel by an identity wire on one mode after its own."""
    X = direct_sum(channel.X, np.eye(2))
    return GaussianChannel(X, direct_sum(channel.Y, np.zeros((2, 2))))


@dataclass(frozen=True)
class PhaseInsensitiveParams:
    """Scaling/noise pair (tau, y) of an isotropic single-mode channel.

    tau < 1 is an attenuator, tau > 1 an amplifier, tau == 1.0 additive noise,
    or the identity where y is 0; tau is read exactly, with no rounding to 1.
    Complete positivity requires y >= |1 - tau|.
    """

    tau: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.tau) and math.isfinite(self.y)):
            raise _domain_error("finite tau and y", tau=self.tau, y=self.y)
        if self.tau <= 0:
            raise ParamDomainError(f"need tau > 0, got {self.tau}")
        if self.y < max(0.0, abs(1.0 - self.tau) - CP_SLACK):
            raise CPViolationError(
                f"(tau={self.tau}, y={self.y}) violates y >= |1 - tau|"
            )

    def then(self, second: "PhaseInsensitiveParams") -> "PhaseInsensitiveParams":
        """Parameters of `second` composed after this channel."""
        return PhaseInsensitiveParams(
            self.tau * second.tau, second.tau * self.y + second.y
        )


def to_phase_insensitive(channel: GaussianChannel) -> PhaseInsensitiveParams:
    """Extract (tau, y) from an isotropic single-mode channel."""
    if channel.n_in != 1 or channel.n_out != 1:
        raise NotPhaseInsensitiveError("channel is not single-mode to single-mode")
    X, Y = channel.X, channel.Y
    if (
        np.abs(X - X[0, 0] * np.eye(2)).max() > ISO_TOL
        or np.abs(Y - Y[0, 0] * np.eye(2)).max() > ISO_TOL
        or X[0, 0] < 0
    ):
        raise NotPhaseInsensitiveError("moment map is not isotropic")
    return PhaseInsensitiveParams(float(X[0, 0] ** 2), max(float(Y[0, 0]), 0.0))


def phase_insensitive_family(params: PhaseInsensitiveParams) -> tuple[str, tuple]:
    """Family name and parameters of the channel realizing (tau, y).

    Returns ("identity", ()), ("additive", (beta,)), ("attenuator", (eta, N))
    or ("amplifier", (g, N)); the parameters are in the order the family's
    constructor takes them. The family comes from the exact tau (`_family_of`).
    """
    return _family_of(params.tau, params.y)


def _family_of(tau: float, y: float) -> tuple[str, tuple]:
    """phase_insensitive_family on plain floats (the decomposition scan's
    inner loop calls it without building PhaseInsensitiveParams): tau == 1.0
    is additive noise with beta = 2 / y, or the identity where y <= 0; tau < 1
    an attenuator and tau > 1 an amplifier, N = max(0, (y / |1 - tau| - 1) / 2)."""
    if tau == 1.0:
        return ("additive", (2.0 / y,)) if y > 0.0 else ("identity", ())
    if tau < 1.0:
        return "attenuator", (tau, max(0.0, (y / (1.0 - tau) - 1.0) / 2.0))
    return "amplifier", (tau, max(0.0, (y / (tau - 1.0) - 1.0) / 2.0))


def from_phase_insensitive(params: PhaseInsensitiveParams) -> GaussianChannel:
    """Build the channel realizing (tau, y), in the family picked by
    phase_insensitive_family.

    An attenuator or amplifier comes from its constructor, with the moments
    of (tau, y) up to the rounding of its N. At tau == 1.0 the moments are
    (I, y I) themselves, tagged as additive noise with beta = 2 / y, or
    untagged for the identity; so y keeps its value, also where 2 / y
    overflows and no additive_noise(beta) exists.
    """
    family, args = phase_insensitive_family(params)
    if family == "attenuator":
        return attenuator(*args)
    if family == "amplifier":
        return amplifier(*args)
    return GaussianChannel(np.eye(2), params.y * np.eye(2), "additive" if args else "", args)


_COMPLEMENT_BY_EXCHANGE = {
    "attenuator": attenuator,
    "extended_attenuator": extended_attenuator,
    "extended_attenuator_pair": extended_attenuator_pair,
}


def complementary(channel: GaussianChannel) -> GaussianChannel:
    """Closed-form complementary channel (environment output) where known.

    For the extended attenuators and the pure-loss attenuator (N = 0) the
    complement is the same family with the transmissivity exchanged,
    eta -> 1 - eta. A thermal attenuator (N > 0) has none here: its complement
    also outputs the mode that purifies the thermal environment, and
    attenuator(1 - eta, N) is only its weak complement.
    """
    maker = _COMPLEMENT_BY_EXCHANGE.get(channel.family)
    if maker is None:
        raise NoKnownComplementError(
            f"no closed-form complement for family {channel.family!r}"
        )
    eta, N = channel.params
    if channel.family == "attenuator" and N > 0.0:
        raise NoKnownComplementError(
            f"no single-mode complement for a thermal attenuator (N={N} > 0): "
            "attenuator(1 - eta, N) is only its weak complement"
        )
    return maker(1.0 - eta, N)
