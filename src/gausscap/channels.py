"""Gaussian channels as affine moment maps.

A channel acts on means and covariances as m -> X m and V -> X V X^T + Y.
Complete positivity of the map is certified numerically at construction from
Y + i(Omega_out - X Omega_in X^T) >= 0.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .symplectic import (
    GaussianState,
    direct_sum,
    squeezed_vacuum_cov,
    symplectic_form,
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

CP_TOL = 1e-10
ISO_TOL = 1e-10


class ParamDomainError(ValueError):
    """Channel parameter outside its allowed domain."""


def _domain_error(rule: str, **params) -> ParamDomainError:
    """Error for parameters outside `rule`; a non-finite one is named alone."""
    for name, value in params.items():
        if not math.isfinite(value):
            return ParamDomainError(f"{name} must be finite, got {value}")
    got = ", ".join(f"{name}={value}" for name, value in params.items())
    return ParamDomainError(f"need {rule}, got {got}")


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
        if np.abs(Y - Y.T).max() > 1e-12 * max(1.0, np.abs(Y).max()):
            raise ValueError("added-noise matrix Y must be symmetric")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        defect = self.cp_defect()
        if defect < -CP_TOL:
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
        omega_in = symplectic_form(self.n_in)
        omega_out = symplectic_form(self.n_out)
        form = self.Y + 1j * (omega_out - self.X @ omega_in @ self.X.T)
        return float(np.linalg.eigvalsh(form).min())


def attenuator(eta: float, N: float = 0.0) -> GaussianChannel:
    """Thermal attenuator: V -> eta V + (1-eta)(2N+1) I2."""
    if not (0.0 <= eta <= 1.0 and 0.0 <= N < math.inf):
        raise _domain_error("0 <= eta <= 1 and N >= 0", eta=eta, N=N)
    X = np.sqrt(eta) * np.eye(2)
    Y = (1.0 - eta) * (2.0 * N + 1.0) * np.eye(2)
    return GaussianChannel(X, Y, "attenuator", (eta, N))


def amplifier(g: float, N: float = 0.0) -> GaussianChannel:
    """Thermal amplifier: V -> g V + (g-1)(2N+1) I2."""
    if not (1.0 <= g < math.inf and 0.0 <= N < math.inf):
        raise _domain_error("g >= 1 and N >= 0", g=g, N=N)
    X = np.sqrt(g) * np.eye(2)
    Y = (g - 1.0) * (2.0 * N + 1.0) * np.eye(2)
    return GaussianChannel(X, Y, "amplifier", (g, N))


def additive_noise(beta: float) -> GaussianChannel:
    """Additive Gaussian noise with inverse temperature beta: V -> V + (2/beta) I2."""
    if not 0.0 < beta < math.inf:
        raise _domain_error("beta > 0", beta=beta)
    return GaussianChannel(np.eye(2), (2.0 / beta) * np.eye(2), "additive", (beta,))


def classical_mixing(Y: np.ndarray) -> GaussianChannel:
    """Random-displacement channel adding Gaussian noise with covariance Y >= 0."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if np.linalg.eigvalsh((Y + Y.T) / 2).min() < -1e-12:
        raise ParamDomainError("classical mixing requires Y >= 0")
    return GaussianChannel(np.eye(Y.shape[0]), Y, "classical_mixing", ())


def identity_channel(n_modes: int = 1) -> GaussianChannel:
    """Identity map on the given number of modes."""
    return GaussianChannel(np.eye(2 * n_modes), np.zeros((2 * n_modes, 2 * n_modes)))


def extended_attenuator_pair(eta: float, N: float) -> GaussianChannel:
    """Two-mode attenuator extension: both inputs couple to a shared
    two-mode-squeezed environment through equal beam splitters.

    Acts as V -> eta V + (1-eta) V_tms(N) on two modes. Degradable for
    eta > 1/2, with complementary channel obtained by eta -> 1-eta.
    """
    if not (0.0 <= eta <= 1.0 and 0.0 <= N < math.inf):
        raise _domain_error("0 <= eta <= 1 and N >= 0", eta=eta, N=N)
    X = np.sqrt(eta) * np.eye(4)
    Y = (1.0 - eta) * two_mode_squeezed_cov(N)
    return GaussianChannel(X, Y, "extended_attenuator_pair", (eta, N))


def extended_attenuator(eta: float, N: float) -> GaussianChannel:
    """Degradable one-to-two-mode extension of the thermal attenuator.

    The ancilla input of the two-mode extension is fixed in vacuum, so the
    map takes one signal mode to (signal, flag). Its capacity upper-bounds
    the thermal attenuator's.
    """
    if not (0.0 <= eta <= 1.0 and 0.0 <= N < math.inf):
        raise _domain_error("0 <= eta <= 1 and N >= 0", eta=eta, N=N)
    X = np.sqrt(eta) * np.vstack([np.eye(2), np.zeros((2, 2))])
    Y = (1.0 - eta) * two_mode_squeezed_cov(N) + eta * direct_sum(
        np.zeros((2, 2)), np.eye(2)
    )
    return GaussianChannel(X, Y, "extended_attenuator", (eta, N))


def flagged_mixing_matrix(beta: float) -> np.ndarray:
    """Noise covariance of the three-mode classical mixing that realizes the
    flagged additive-noise channel: correlated displacements on the signal
    and on the momentum quadratures of the two flag modes."""
    if not 0.0 < beta < math.inf:
        raise _domain_error("beta > 0", beta=beta)
    Y = np.zeros((6, 6))
    Y[0, 0] = Y[1, 1] = 2.0 / beta
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
    if not 0.0 < beta < math.inf:
        raise _domain_error("beta > 0", beta=beta)
    X = np.vstack([np.eye(2), np.zeros((4, 2))])
    flag = squeezed_vacuum_cov(2.0 / beta)
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


def compose(second: GaussianChannel, first: GaussianChannel) -> GaussianChannel:
    """Channel running `first` then `second`; (X, Y) multiply accordingly."""
    if first.n_out != second.n_in:
        raise DimensionMismatchError(
            f"cannot feed {first.n_out} modes into a {second.n_in}-mode input"
        )
    X = second.X @ first.X
    Y = second.X @ first.Y @ second.X.T + second.Y
    return GaussianChannel(X, (Y + Y.T) / 2)


def tensor_with_identity(
    channel: GaussianChannel, extra_modes: int, side: str = "right"
) -> GaussianChannel:
    """Extend a channel by identity wires on the given side."""
    if extra_modes < 0:
        raise ValueError("extra_modes must be nonnegative")
    if extra_modes == 0:
        return channel
    eye = np.eye(2 * extra_modes)
    zero = np.zeros((2 * extra_modes, 2 * extra_modes))
    if side == "right":
        X = direct_sum(channel.X, eye)
        Y = direct_sum(channel.Y, zero)
    elif side == "left":
        X = direct_sum(eye, channel.X)
        Y = direct_sum(zero, channel.Y)
    else:
        raise ValueError("side must be 'left' or 'right'")
    return GaussianChannel(X, Y)


@dataclass(frozen=True)
class PhaseInsensitiveParams:
    """Scaling/noise pair (tau, y) of an isotropic single-mode channel.

    tau < 1 is an attenuator, tau > 1 an amplifier, tau = 1 additive noise.
    Complete positivity requires y >= |1 - tau|.
    """

    tau: float
    y: float

    def __post_init__(self):
        if self.tau <= 0:
            raise ParamDomainError(f"need tau > 0, got {self.tau}")
        if self.y < max(0.0, abs(1.0 - self.tau) - 1e-12):
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
        abs(X[0, 0] - X[1, 1]) > ISO_TOL
        or np.abs(X - X[0, 0] * np.eye(2)).max() > ISO_TOL
        or np.abs(Y - Y[0, 0] * np.eye(2)).max() > ISO_TOL
        or X[0, 0] < 0
    ):
        raise NotPhaseInsensitiveError("moment map is not isotropic")
    return PhaseInsensitiveParams(float(X[0, 0] ** 2), max(float(Y[0, 0]), 0.0))


def phase_insensitive_family(params: PhaseInsensitiveParams) -> tuple[str, tuple]:
    """Family name and parameters of the channel realizing (tau, y).

    Returns ("identity", ()), ("additive", (beta,)), ("attenuator", (eta, N))
    or ("amplifier", (g, N)); the parameters are in the order the family's
    constructor takes them. tau within ISO_TOL of 1 is additive noise, and
    the identity when y is also within ISO_TOL of 0.
    """
    tau, y = params.tau, params.y
    if abs(tau - 1.0) <= ISO_TOL:
        if y <= ISO_TOL:
            return "identity", ()
        return "additive", (2.0 / y,)
    if tau < 1.0:
        return "attenuator", (tau, max(0.0, (y / (1.0 - tau) - 1.0) / 2.0))
    return "amplifier", (tau, max(0.0, (y / (tau - 1.0) - 1.0) / 2.0))


def from_phase_insensitive(params: PhaseInsensitiveParams) -> GaussianChannel:
    """Build the channel realizing (tau, y), in the family picked by
    phase_insensitive_family."""
    family, args = phase_insensitive_family(params)
    constructors = {
        "identity": identity_channel,
        "additive": additive_noise,
        "attenuator": attenuator,
        "amplifier": amplifier,
    }
    return constructors[family](*args)


_COMPLEMENT_BY_EXCHANGE = {
    "attenuator": attenuator,
    "extended_attenuator": extended_attenuator,
    "extended_attenuator_pair": extended_attenuator_pair,
}


def complementary(channel: GaussianChannel) -> GaussianChannel:
    """Closed-form complementary channel (environment output) where known.

    For the attenuator families the complement is the same family with the
    transmissivity exchanged, eta -> 1 - eta.
    """
    maker = _COMPLEMENT_BY_EXCHANGE.get(channel.family)
    if maker is None:
        raise NoKnownComplementError(
            f"no closed-form complement for family {channel.family!r}"
        )
    eta, N = channel.params
    return maker(1.0 - eta, N)
