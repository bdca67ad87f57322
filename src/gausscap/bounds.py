"""Capacity bounds for phase-insensitive bosonic Gaussian channels.

Every closed-form bound is exposed as a scalar function. `FAMILIES` declares,
once per channel family, its parameters, their domain and the ordered bound
rows with their applicability rules; reports, the decomposition scan, the
figures and the CLI all read that table. A numerical coherent-information
estimator on thermal probes provides an independent check of the
degradable-extension formulas. All values are in bits; raw bound values may
be negative, the clamped value max(raw, 0) is what bounds the capacity.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channels import (
    GaussianChannel,
    ParamDomainError,
    PhaseInsensitiveParams,
    _domain_error,
    apply,
    phase_insensitive_family,
    tensor_with_identity,
)
from .symplectic import (
    LN2,
    bosonic_entropy,
    thermal_state,
    two_mode_squeezed_state,
)

__all__ = [
    "OracleDivergedError",
    "InfeasibleDecompositionError",
    "BoundRow",
    "BoundFamily",
    "FAMILIES",
    "BoundEntry",
    "BoundReport",
    "CoherentInfoEstimate",
    "DecompositionWitness",
    "DecompositionBound",
    "additive_lower",
    "additive_naj",
    "additive_plob",
    "additive_flagged_extension",
    "amplifier_lower",
    "amplifier_plob",
    "amplifier_naj",
    "amplifier_flagged_extension",
    "beta_tilde",
    "attenuator_lower",
    "attenuator_plob",
    "attenuator_rosati",
    "attenuator_extension",
    "bounds_additive",
    "bounds_amplifier",
    "bounds_attenuator",
    "bounds_report",
    "coherent_info_thermal",
    "combined_decomposition_bound",
    "golden_section_minimize",
]

ORACLE_DEFAULT_M = 1e6
ORACLE_DIVERGENCE_GAP = 1e-2
ORACLE_DIVERGENCE_M = 1e5

MAX_GRID_POINTS = 10**6  # largest grid a figure or the decomposition scan allocates
DECOMPOSITION_GAIN_MAX = 50.0  # the scan's gains reach this multiple of max(1, tau)


class OracleDivergedError(RuntimeError):
    """Coherent-information estimate failed to converge in the probe energy."""


class InfeasibleDecompositionError(RuntimeError):
    """No completely positive two-stage decomposition found on the grid."""


# ---------------------------------------------------------------------------
# Closed forms: additive Gaussian noise (inverse temperature beta)
# ---------------------------------------------------------------------------


def additive_lower(beta: float) -> float:
    """Raw one-shot coherent information on an infinite-temperature input."""
    _check_beta(beta)
    return math.log2(beta) - 1.0 / LN2


def additive_naj(beta: float) -> float:
    """Raw data-processing bound log2(beta - 1); -inf where it clamps to 0."""
    _check_beta(beta)
    return math.log2(beta - 1.0) if beta > 1.0 else float("-inf")


def additive_plob(beta: float) -> float:
    """Two-way assisted capacity bound for additive Gaussian noise."""
    _check_beta(beta)
    return math.log2(beta) - 1.0 / LN2 + 1.0 / (beta * LN2)


def additive_flagged_extension(beta: float) -> float:
    """Capacity of the degradable flagged extension of additive noise."""
    _check_beta(beta)
    return (
        math.log2(beta)
        - 1.0 / LN2
        + 2.0 * bosonic_entropy(math.hypot(1.0, 1.0 / beta))
    )


def _check_beta(beta: float):
    if not (0.0 < beta < math.inf and 1.0 / beta < math.inf):
        raise _domain_error("beta > 0 with a finite 1/beta", beta=beta)


# ---------------------------------------------------------------------------
# Closed forms: thermal amplifier (gain g, environment photon number N)
# ---------------------------------------------------------------------------


def amplifier_lower(g: float, N: float) -> float:
    """Raw one-shot coherent information on an infinite-temperature input."""
    _check_amp(g, N)
    return math.log2(g / (g - 1.0)) - bosonic_entropy(2.0 * N + 1.0)


def amplifier_plob(g: float, N: float) -> float:
    """Two-way assisted capacity bound for the thermal amplifier."""
    _check_amp(g, N)
    return (N + 1.0) * math.log2(g) - math.log2(g - 1.0) - bosonic_entropy(2.0 * N + 1.0)


def beta_tilde(g: float, N: float) -> float:
    """Inverse temperature of the additive factor in amplifier = additive o
    quantum-limited amplifier; defined for g > 1 and N > 0."""
    _check_amp(g, N)
    if N == 0:
        raise ParamDomainError("additive-factor route needs N > 0")
    return 1.0 / ((g - 1.0) * N)


def amplifier_naj(g: float, N: float) -> float:
    """Raw data-processing bound through the additive factor."""
    return additive_naj(beta_tilde(g, N))


def amplifier_flagged_extension(g: float, N: float) -> float:
    """Flagged-extension bound applied to the additive factor."""
    return additive_flagged_extension(beta_tilde(g, N))


def _check_amp(g: float, N: float):
    if not (1.0 < g < math.inf and 0.0 <= N < math.inf):
        raise _domain_error("g > 1 and N >= 0", g=g, N=N)
    gn = (g - 1.0) * N  # 1 / beta_tilde where N > 0
    if N > 0.0 and not (0.0 < gn < math.inf and 1.0 / gn < math.inf):
        raise _domain_error("(g - 1) N and its reciprocal positive and finite", g=g, N=N)


# ---------------------------------------------------------------------------
# Closed forms: thermal attenuator (transmissivity eta, photon number N)
# ---------------------------------------------------------------------------


def attenuator_lower(eta: float, N: float) -> float:
    """Raw one-shot coherent information on an infinite-temperature input."""
    _check_att(eta, N)
    return math.log2(eta / (1.0 - eta)) - bosonic_entropy(2.0 * N + 1.0)


def attenuator_plob(eta: float, N: float) -> float:
    """Two-way assisted capacity bound for the thermal attenuator."""
    _check_att(eta, N)
    return (
        -math.log2(1.0 - eta)
        - N * math.log2(eta)
        - bosonic_entropy(2.0 * N + 1.0)
    )


def attenuator_rosati(eta: float, N: float) -> float | None:
    """Weak-degradability bound via a zero-temperature attenuator of
    transmissivity eta - N(1-eta); None where that transmissivity is not
    positive."""
    _check_att(eta, N)
    t = eta - N * (1.0 - eta)
    if t <= 0.0:
        return None
    return math.log2(t / ((N + 1.0) * (1.0 - eta)))


def attenuator_extension(eta: float, N: float) -> float:
    """Capacity of the degradable two-mode extension of the attenuator.

    Valid as a capacity (and hence as a bound on the attenuator) for
    eta > 1/2, where the extension is degradable; the formula itself is
    defined on all of (0, 1).
    """
    _check_att(eta, N)
    return (
        math.log2(eta / (1.0 - eta))
        + bosonic_entropy((1.0 - eta) * (2.0 * N + 1.0) + eta)
        - bosonic_entropy(eta * (2.0 * N + 1.0) + 1.0 - eta)
    )


def _check_att(eta: float, N: float):
    if not (0.0 < eta < 1.0 and 0.0 <= N < math.inf):
        raise _domain_error("0 < eta < 1 and N >= 0", eta=eta, N=N)


# ---------------------------------------------------------------------------
# The bound table: each family's parameters, domain and bounds, declared once
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundRow:
    """One bound of a family, evaluated on the family's parameters in order.

    `applies` is the applicability predicate (None: the row always applies).
    Where a row does not apply its raw value is NaN, unless the formula is
    `defined_everywhere`; then its value is still reported, as inapplicable.
    `note` is the report text, or a callable (applies, *params) -> text.
    """

    name: str
    formula: Callable[..., float]
    applies: Callable[..., bool] | None = None
    note: str | Callable[..., str] = ""
    defined_everywhere: bool = False


@dataclass(frozen=True)
class BoundFamily:
    """A channel family: parameter names, the one domain validator shared
    with its closed forms, the lower-bound row and the upper-bound rows."""

    params: tuple
    check: Callable[..., None]
    lower: BoundRow
    upper_rows: tuple

    @cached_property
    def rows(self) -> tuple:
        return (self.lower, *self.upper_rows)


def _has_additive_factor(g: float, N: float) -> bool:
    return N > 0.0  # beta_tilde is undefined at N = 0


def _additive_factor_note(text: str):
    """Note for an amplifier row that routes through the additive factor."""

    def note(applies: bool, g: float, N: float) -> str:
        if not applies:
            return "additive-factor route undefined at N = 0"
        return f"{text} (beta={beta_tilde(g, N):.6g})"

    return note


_LOWER_NOTE = "one-shot coherent information, infinite-temperature input"
_PLOB_NOTE = "two-way assisted capacity bound"

FAMILIES = {
    "additive": BoundFamily(
        ("beta",),
        _check_beta,
        BoundRow("lower", additive_lower, note=_LOWER_NOTE),
        (
            BoundRow("naj", additive_naj, note="data processing, additive-noise route"),
            BoundRow("plob", additive_plob, note=_PLOB_NOTE),
            BoundRow(
                "extension",
                additive_flagged_extension,
                note="degradable flagged-extension capacity",
            ),
        ),
    ),
    "amplifier": BoundFamily(
        ("g", "N"),
        _check_amp,
        BoundRow("lower", amplifier_lower, note=_LOWER_NOTE),
        (
            BoundRow(
                "naj",
                amplifier_naj,
                _has_additive_factor,
                _additive_factor_note("data processing through the additive factor"),
            ),
            BoundRow("plob", amplifier_plob, note=_PLOB_NOTE),
            BoundRow(
                "extension",
                amplifier_flagged_extension,
                _has_additive_factor,
                _additive_factor_note("flagged-extension bound on the additive factor"),
            ),
        ),
    ),
    "attenuator": BoundFamily(
        ("eta", "N"),
        _check_att,
        BoundRow("lower", attenuator_lower, note=_LOWER_NOTE),
        (
            BoundRow("plob", attenuator_plob, note=_PLOB_NOTE),
            BoundRow(
                "rosati",
                attenuator_rosati,
                lambda eta, N: eta - N * (1.0 - eta) > 0.0,
                "weak-degradability data processing to a pure-loss channel",
            ),
            BoundRow(
                "extension",
                attenuator_extension,
                lambda eta, N: eta > 0.5,
                "degradable two-mode extension capacity (valid for eta > 1/2)",
                defined_everywhere=True,
            ),
        ),
    ),
}


# ---------------------------------------------------------------------------
# Bound reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundEntry:
    """One named bound value: raw (possibly negative), applicability, note."""

    raw: float
    applicable: bool = True
    note: str = ""

    @property
    def clamped(self) -> float:
        return max(self.raw, 0.0)


@dataclass(frozen=True)
class BoundReport:
    """Named collection of bound values for one channel.

    Entries are keyed by bound name ("lower", "naj", "plob", "rosati",
    "extension", "combined"); "combined" is the minimum over the applicable
    upper bounds, clamped at zero.
    """

    family: str
    params: dict
    entries: dict

    def __getitem__(self, name: str) -> BoundEntry:
        return self.entries[name]

    @property
    def lower(self) -> BoundEntry:
        return self.entries["lower"]

    @property
    def combined(self) -> float:
        return self.entries["combined"].clamped

    def upper_entries(self) -> dict:
        return {
            k: v
            for k, v in self.entries.items()
            if k not in ("lower", "combined")
        }

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "params": dict(self.params),
            "entries": {
                name: {
                    "raw": entry.raw,
                    "clamped": entry.clamped,
                    "applicable": entry.applicable,
                    "note": entry.note,
                }
                for name, entry in self.entries.items()
            },
        }


def bounds_report(family: str, **params) -> BoundReport:
    """Every bound in one family's table, named by row, plus "combined": the
    minimum over the applicable upper bounds, clamped at zero."""
    fam = FAMILIES.get(family)
    if fam is None:
        raise ParamDomainError(f"unknown channel family {family!r}")
    args = [params[name] for name in fam.params]
    fam.check(*args)
    entries = {}
    best = math.inf
    for row in fam.rows:
        applies = row.applies is None or row.applies(*args)
        raw = row.formula(*args) if applies or row.defined_everywhere else math.nan
        note = row.note if isinstance(row.note, str) else row.note(applies, *args)
        entries[row.name] = BoundEntry(raw, applies, note)
        if applies and row is not fam.lower and raw < best:  # NaN never compares less
            best = raw
    entries["combined"] = BoundEntry(
        max(best, 0.0), True, "minimum over the applicable upper bounds"
    )
    return BoundReport(family, dict(zip(fam.params, args)), entries)


def bounds_additive(beta: float) -> BoundReport:
    """All bounds for additive Gaussian noise with inverse temperature beta."""
    return bounds_report("additive", beta=beta)


def bounds_amplifier(g: float, N: float) -> BoundReport:
    """All bounds for the thermal amplifier with gain g and photon number N."""
    return bounds_report("amplifier", g=g, N=N)


def bounds_attenuator(eta: float, N: float) -> BoundReport:
    """All bounds for the thermal attenuator with transmissivity eta and
    photon number N."""
    return bounds_report("attenuator", eta=eta, N=N)


# ---------------------------------------------------------------------------
# Numerical coherent-information oracle on thermal probes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoherentInfoEstimate:
    """Coherent-information estimate at finite probe energy.

    convergence_gap is |value(M) - value(M/10)|; it is always reported so the
    caller can judge how far from the infinite-energy limit the value sits.
    """

    value: float
    m_used: float
    convergence_gap: float


def coherent_info_thermal(
    channel: GaussianChannel,
    M: float = ORACLE_DEFAULT_M,
    complement: GaussianChannel | None = None,
) -> CoherentInfoEstimate:
    """Coherent information of a single-mode-input channel on a thermal probe.

    With `complement` given, evaluates S(channel output) minus S(complement
    output) on the thermal state with photon number M. Without it, purifies
    the probe with a two-mode squeezed state and uses S(channel output) minus
    S(joint output of channel tensor identity), which equals the entropy of
    the environment by purity.

    Raises:
        OracleDivergedError: if the convergence gap exceeds 1e-2 at M >= 1e5,
            the signature of a mis-specified channel pair.
    """
    if channel.n_in != 1:
        raise ParamDomainError("thermal-probe estimator needs a one-mode input")
    if not 1.0 <= M < math.inf:
        raise _domain_error("probe photon number M >= 1", M=M)
    if complement is not None and complement.n_in != 1:
        raise ParamDomainError("complement channel must take one mode")

    if complement is None:
        other, probe = tensor_with_identity(channel, 1, side="right"), two_mode_squeezed_state
    else:
        other, probe = complement, thermal_state

    def one(m: float) -> float:
        return apply(channel, thermal_state(m)).entropy() - apply(other, probe(m)).entropy()

    value = one(M)
    gap = abs(value - one(M / 10.0))
    if M >= ORACLE_DIVERGENCE_M and gap > ORACLE_DIVERGENCE_GAP:
        raise OracleDivergedError(
            f"convergence gap {gap:.3e} at M={M:g}; channel pair is suspect"
        )
    return CoherentInfoEstimate(value, M, gap)


# ---------------------------------------------------------------------------
# Combined bound over two-stage data-processing decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecompositionWitness:
    """Which decomposition achieved the combined bound."""

    kind: str  # "direct", "amplifier_first" or "amplifier_last"
    allocation: str = ""  # "min_noise_first" / "min_noise_last" for two-stage
    stage1: PhaseInsensitiveParams | None = None
    stage2: PhaseInsensitiveParams | None = None

    def describe(self) -> str:
        if self.kind == "direct":
            return "direct bounds on the target channel"
        return (
            f"{self.kind}, {self.allocation}: "
            f"stage1 (tau={self.stage1.tau:.6g}, y={self.stage1.y:.6g}) then "
            f"stage2 (tau={self.stage2.tau:.6g}, y={self.stage2.y:.6g})"
        )


@dataclass(frozen=True)
class DecompositionBound:
    value: float
    witness: DecompositionWitness


def _direct_upper_bound(p: PhaseInsensitiveParams) -> float:
    """Best (smallest) clamped upper bound on a phase-insensitive channel:
    the minimum over its family's applicable upper rows, without building a
    report (this sits in the decomposition scan's inner loop)."""
    family, args = phase_insensitive_family(p)
    fam = FAMILIES.get(family)
    if fam is None:
        return math.inf  # identity stage carries no bound
    best = math.inf
    for row in fam.upper_rows:
        if row.applies is None or row.applies(*args):
            best = min(best, max(0.0, row.formula(*args)))
    return best


def _stage_pair(target, gain, kind, allocation):
    """Stage parameters for one decomposition candidate, or None if the
    noise split is not completely positive."""
    if kind == "amplifier_first":
        tau1, tau2 = gain, target.tau / gain
    else:
        tau1, tau2 = target.tau / gain, gain
    if allocation == "min_noise_first":
        y1 = abs(1.0 - tau1)
        y2 = target.y - tau2 * y1
        if y2 < abs(1.0 - tau2) - 1e-12:
            return None
        y2 = max(y2, abs(1.0 - tau2))
    else:
        y2 = abs(1.0 - tau2)
        y1 = (target.y - y2) / tau2
        if y1 < abs(1.0 - tau1) - 1e-12:
            return None
        y1 = max(y1, abs(1.0 - tau1))
    return (
        PhaseInsensitiveParams(tau1, y1),
        PhaseInsensitiveParams(tau2, y2),
    )


def golden_section_minimize(f, a: float, b: float, tol: float = 1e-6, max_iter: int = 200):
    """Deterministic golden-section minimum of f on [a, b]; returns (x, f(x))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        if b - a <= tol * max(1.0, abs(a) + abs(b)):
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    x = x1 if f1 <= f2 else x2
    return x, min(f1, f2)


def combined_decomposition_bound(
    target: PhaseInsensitiveParams,
    grid: int = 200,
) -> DecompositionBound:
    """Best upper bound over two-stage attenuator/amplifier decompositions.

    Every candidate writes the target as amplifier-then-attenuator or
    attenuator-then-amplifier at the (tau, y) level, parametrized by the
    amplifier gain; the added noise is allocated by putting the minimum
    CP-allowed noise on one stage and the remainder on the other, both ways.
    Each feasible candidate bounds the target by the smaller of the two
    stages' best direct upper bounds; the direct bounds on the target itself
    enter as the trivial decomposition, so the result never exceeds them.
    """
    if not 2 <= grid <= MAX_GRID_POINTS:
        raise ParamDomainError(f"need 2 <= grid <= {MAX_GRID_POINTS}, got {grid}")
    best = DecompositionBound(_direct_upper_bound(target), DecompositionWitness("direct"))
    if not math.isfinite(best.value):
        raise InfeasibleDecompositionError(
            "target admits no finite direct bound; is it the identity?"
        )

    gain_lo = max(1.0, target.tau) * (1.0 + 1e-4)
    gain_hi = max(1.0, target.tau) * DECOMPOSITION_GAIN_MAX
    gains = np.geomspace(gain_lo, gain_hi, grid)

    for kind in ("amplifier_first", "amplifier_last"):
        for allocation in ("min_noise_first", "min_noise_last"):

            def value_at(gain: float) -> float:
                stages = _stage_pair(target, gain, kind, allocation)
                if stages is None:
                    return float("inf")
                return min(_direct_upper_bound(stages[0]), _direct_upper_bound(stages[1]))

            values = [value_at(g) for g in gains]
            i = int(np.argmin(values))
            if not math.isfinite(values[i]):
                continue
            lo = gains[max(i - 1, 0)]
            hi = gains[min(i + 1, grid - 1)]
            g_best, v_best = golden_section_minimize(
                lambda lg: value_at(math.exp(lg)), math.log(lo), math.log(hi)
            )
            g_best = math.exp(g_best)
            if min(v_best, values[i]) < best.value:
                gain = g_best if v_best <= values[i] else gains[i]
                stages = _stage_pair(target, gain, kind, allocation)
                best = DecompositionBound(
                    min(v_best, values[i]),
                    DecompositionWitness(kind, allocation, stages[0], stages[1]),
                )
    return best
