"""Capacity bounds for phase-insensitive bosonic Gaussian channels.

Every closed-form bound is exposed as a scalar function. `FAMILIES` declares,
once per channel family, its parameters, their domain and the ordered bound
rows with their applicability rules; reports, the decomposition scan, the
figures and the CLI all read that table. A numerical coherent-information
estimator on thermal probes provides an independent check of the
degradable-extension formulas. All values are in bits; raw bound values may
be negative, the clamped value max(raw, 0) is what bounds the capacity.
"""

import functools
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

from .channels import (
    GaussianChannel,
    ParamDomainError,
    PhaseInsensitiveParams,
    _domain_error,
    _family_of,
    _finite_term,
    _outputs,
    tensor_with_identity,
)
from ._np import np
from .symplectic import (
    LN2,
    _physical,
    bosonic_entropy,
    symplectic_eigenvalues,
    thermal_cov,
    two_mode_squeezed_cov,
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

MAX_GRID_POINTS = 10**6  # largest grid a figure allocates or the decomposition scan accepts
DECOMPOSITION_GRID = 200  # default `grid` of the decomposition scan, which no longer steers it
DECOMPOSITION_GAIN_MAX = 50.0  # the scan's gains reach this multiple of max(1, tau)
# Largest float whose reciprocal overflows: for x > 0, 1/x < inf iff x > it.
_RECIP_OVERFLOW = 2.0**-1024
# Below this N no term of lower or plob overflows in either family, since
# log2(g) <= 1024 and |log2(eta)| <= 1074 for every positive finite float.
_SAFE_N = sys.float_info.max / 1100.0


class OracleDivergedError(RuntimeError):
    """Coherent-information estimate failed to converge in the probe energy."""


class InfeasibleDecompositionError(RuntimeError):
    """The target has no finite direct bound to decompose (the identity)."""


# ---------------------------------------------------------------------------
# Closed forms: the arithmetic once, for floats and columns; checked publics
# ---------------------------------------------------------------------------


def _closed_forms(log2, log2_or_ninf, h, hypot) -> dict:
    """Every closed form's arithmetic by name, over its elementary functions:
    log2, log2_or_ninf (-inf at or below 0), the entropy kernel h and hypot,
    at a checked point where the table row applies. `_SCALAR` (floats) feeds
    the public closed forms, the reports and the decomposition scan;
    `_column_forms` (float64 columns) feeds the figures."""

    # additive Gaussian noise (inverse temperature beta)
    def additive_lower(beta: float) -> float:
        """Raw one-shot coherent information on an infinite-temperature input."""
        return log2(beta) - 1.0 / LN2

    def additive_naj(beta: float) -> float:
        """Raw data-processing bound log2(beta - 1); -inf where it clamps to 0."""
        return log2_or_ninf(beta - 1.0)

    def additive_plob(beta: float) -> float:
        """Two-way assisted capacity bound for additive Gaussian noise."""
        return log2(beta) - 1.0 / LN2 + 1.0 / (beta * LN2)

    def additive_flagged_extension(beta: float) -> float:
        """Capacity of the degradable flagged extension of additive noise."""
        return log2(beta) - 1.0 / LN2 + 2.0 * h(hypot(1.0, 1.0 / beta))

    # thermal amplifier (gain g, environment photon number N)
    def amplifier_lower(g: float, N: float) -> float:
        """Raw one-shot coherent information on an infinite-temperature input."""
        return log2(g / (g - 1.0)) - h(2.0 * N + 1.0)

    def amplifier_plob(g: float, N: float) -> float:
        """Two-way assisted capacity bound for the thermal amplifier."""
        return (N + 1.0) * log2(g) - log2(g - 1.0) - h(2.0 * N + 1.0)

    def beta_tilde(g: float, N: float) -> float:
        """Inverse temperature of the additive factor in amplifier = additive o
        quantum-limited amplifier; defined for g > 1 and N > 0 where it is a
        positive finite float."""
        return 1.0 / ((g - 1.0) * N)

    def amplifier_naj(g: float, N: float) -> float:
        """Raw data-processing bound through the additive factor; -inf where
        (g - 1) N >= 1, since there beta_tilde <= 1, even where (g - 1) N
        overflows and beta_tilde is 1 / inf = 0."""
        return additive_naj(beta_tilde(g, N))

    def amplifier_flagged_extension(g: float, N: float) -> float:
        """Flagged-extension bound applied to the additive factor."""
        return additive_flagged_extension(beta_tilde(g, N))

    # thermal attenuator (transmissivity eta, photon number N)
    def attenuator_lower(eta: float, N: float) -> float:
        """Raw one-shot coherent information on an infinite-temperature input."""
        return log2(eta / (1.0 - eta)) - h(2.0 * N + 1.0)

    def attenuator_plob(eta: float, N: float) -> float:
        """Two-way assisted capacity bound for the thermal attenuator."""
        return -log2(1.0 - eta) - N * log2(eta) - h(2.0 * N + 1.0)

    def attenuator_rosati(eta: float, N: float) -> float:
        """Weak-degradability bound where eta - N(1 - eta) > 0."""
        return log2((eta - N * (1.0 - eta)) / ((N + 1.0) * (1.0 - eta)))

    def attenuator_extension(eta: float, N: float) -> float:
        """Capacity of the degradable two-mode extension of the attenuator.

        Valid as a capacity (and hence as a bound on the attenuator) for
        eta > 1/2, where the extension is degradable; the formula itself is
        defined on all of (0, 1).
        """
        return (
            log2(eta / (1.0 - eta))
            + h((1.0 - eta) * (2.0 * N + 1.0) + eta)
            - h(eta * (2.0 * N + 1.0) + 1.0 - eta)
        )

    return {f.__name__: f for f in (
        additive_lower, additive_naj, additive_plob, additive_flagged_extension,
        amplifier_lower, amplifier_plob, beta_tilde, amplifier_naj, amplifier_flagged_extension,
        attenuator_lower, attenuator_plob, attenuator_rosati, attenuator_extension,
    )}


def _log2_or_ninf(x: float) -> float:
    return math.log2(x) if x > 0.0 else -math.inf


# h looks `bosonic_entropy` up at each call, so a wrapper set on the module
# attribute (a tracer, a test double) sees the calls of every row.
_SCALAR = _closed_forms(math.log2, _log2_or_ninf, lambda x: bosonic_entropy(x), math.hypot)


@functools.cache
def _column_forms() -> dict:
    """`_closed_forms` on float64 columns, built at the first figure: numpy
    does the + - * /, which round as on floats, and each log2, log1p and
    hypot is the `math` call mapped over the elements, so every element is
    bit-identical to the scalar closed form. (numpy's log2, log1p and hypot
    differ from `math` in the last bit at some points.) A memoryview hands
    `math` one float at a time, so no column becomes a list of floats."""

    def mapped(f):
        def column(*cols):
            cols = np.broadcast_arrays(*cols) if len(cols) > 1 else cols
            return np.fromiter(map(f, *map(memoryview, cols)), float, cols[0].size)

        return column

    log1p, log2 = mapped(math.log1p), mapped(math.log2)

    def h(x):  # `bosonic_entropy` at x >= 1 - ENTROPY_DOMAIN_TOL, as at every checked point
        out = np.where(x > 1.0, x, 0.0)  # 0 up to 1, inf at inf
        live = (x > 1.0) & (x < math.inf)
        b = (x[live] - 1.0) / 2.0
        out[live] = (log1p(b) + b * log1p(1.0 / b)) / LN2
        return out

    def log2_or_ninf(x):  # `_log2_or_ninf`: -inf at or below 0, and at NaN
        out, live = np.full(np.shape(x), -math.inf), x > 0.0
        out[live] = log2(x[live])
        return out

    return _closed_forms(log2, log2_or_ninf, h, mapped(math.hypot))


def _checked_by(*checks):
    """Decorator making a public closed form from a `_SCALAR` formula: it runs
    `checks` on the same arguments, the family's domain check first, then the
    formula. The table rows hold the formula itself: their callers check a
    point once and evaluate only the rows that apply."""

    def public(formula):
        @functools.wraps(formula)
        def closed_form(*args, **kwargs):
            for check in checks:
                check(*args, **kwargs)
            return formula(*args, **kwargs)

        closed_form.__qualname__ = formula.__name__
        return closed_form

    return public


def _check_beta(beta: float):
    # The additive `domain`, inlined, as sharing it cost lines or speed; test-pinned.
    if not _RECIP_OVERFLOW < beta < math.inf:
        raise _domain_error("beta > 0 with a finite 1/beta", beta=beta)


def _check_amp(g: float, N: float):
    # Fast path: the amplifier `domain`, inlined, as sharing it cost lines or speed; test-pinned.
    if 1.0 < g < math.inf and 0.0 <= N < _SAFE_N:
        return
    if not (1.0 < g < math.inf and 0.0 <= N < math.inf):
        raise _domain_error("g > 1 and N >= 0", g=g, N=N)
    if not (N + 1.0) * math.log2(g) + 2.0 * N < math.inf:  # the terms of lower and plob
        raise _domain_error("(N + 1) log2(g) + 2N finite", g=g, N=N)


def _check_att(eta: float, N: float):
    # Fast path: the attenuator `domain`, inlined, as sharing it cost lines or speed; test-pinned.
    if 0.0 < eta < 1.0 and 0.0 <= N < _SAFE_N:
        return
    if not (0.0 < eta < 1.0 and 0.0 <= N < math.inf):
        raise _domain_error("0 < eta < 1 and N >= 0", eta=eta, N=N)
    # the terms of lower and plob
    if not (2.0 * N + 1.0 < math.inf and N * math.log2(eta) > -math.inf):
        raise _domain_error("2N + 1 and N log2(eta) finite", eta=eta, N=N)


# Applicability predicates, on floats or float64 columns


def _has_additive_factor(g, N):
    """Whether beta_tilde = 1/((g - 1) N) exists as a positive finite float.

    It is undefined at N = 0, and (g - 1) N or its reciprocal overflows at
    extreme (g, N); there the extension does not apply, nor naj unless
    (g - 1) N overflows (see `_has_naj`), and lower and plob are still
    reported.
    """
    gn = (g - 1.0) * N
    return (gn > _RECIP_OVERFLOW) & (gn < math.inf)


def _has_naj(g, N):
    """Whether naj applies: as `_has_additive_factor`, but also where
    (g - 1) N overflows, since naj is -inf for any (g - 1) N >= 1."""
    return (g - 1.0) * N > _RECIP_OVERFLOW


def _has_rosati(eta, N):
    """Whether rosati's zero-temperature transmissivity eta - N(1 - eta) is positive."""
    return eta - N * (1.0 - eta) > 0.0


def _check_route(g: float, N: float, applies=_has_additive_factor):
    """Check of a public closed form through the additive factor."""
    if not applies(g, N):
        raise _domain_error("(g - 1) N and its reciprocal positive and finite", g=g, N=N)


additive_lower = _checked_by(_check_beta)(_SCALAR["additive_lower"])
additive_naj = _checked_by(_check_beta)(_SCALAR["additive_naj"])
additive_plob = _checked_by(_check_beta)(_SCALAR["additive_plob"])
additive_flagged_extension = _checked_by(_check_beta)(_SCALAR["additive_flagged_extension"])
amplifier_lower = _checked_by(_check_amp)(_SCALAR["amplifier_lower"])
amplifier_plob = _checked_by(_check_amp)(_SCALAR["amplifier_plob"])
beta_tilde = _checked_by(_check_amp, _check_route)(_SCALAR["beta_tilde"])
amplifier_naj = _checked_by(_check_amp, functools.partial(_check_route, applies=_has_naj))(
    _SCALAR["amplifier_naj"]
)
amplifier_flagged_extension = _checked_by(_check_amp, _check_route)(
    _SCALAR["amplifier_flagged_extension"]
)
attenuator_lower = _checked_by(_check_att)(_SCALAR["attenuator_lower"])
attenuator_plob = _checked_by(_check_att)(_SCALAR["attenuator_plob"])
attenuator_extension = _checked_by(_check_att)(_SCALAR["attenuator_extension"])


@_checked_by(_check_att)
def attenuator_rosati(eta: float, N: float) -> float | None:
    """Weak-degradability bound via a zero-temperature attenuator of
    transmissivity eta - N(1-eta); None where that transmissivity is not
    positive."""
    return _SCALAR["attenuator_rosati"](eta, N) if _has_rosati(eta, N) else None


# ---------------------------------------------------------------------------
# The bound table: each family's parameters, domain and bounds, declared once
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundRow:
    """One bound of a family, evaluated on the family's parameters in order.

    `formula` is the bound's `_SCALAR` formula, its public closed form
    without the checks: the caller runs the family's `check` once per point,
    before any row. `applies` is the applicability predicate, on floats or
    float64 columns (None: the row always applies).
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
    with its closed forms, the validator's fast path as a predicate on
    float64 columns, the lower-bound row and the upper-bound rows."""

    params: tuple
    check: Callable[..., None]
    domain: Callable
    lower: BoundRow
    upper_rows: tuple

    @cached_property
    def rows(self) -> tuple:
        return (self.lower, *self.upper_rows)


def _additive_factor_note(text: str):
    """Note for an amplifier row that routes through the additive factor."""

    def note(applies: bool, g: float, N: float) -> str:
        if not applies:
            if N == 0.0:
                return "additive-factor route undefined at N = 0"
            return "additive-factor route undefined: 1/((g - 1) N) is not a positive finite float"
        gn = (g - 1.0) * N
        if gn < math.inf:  # the row applies, so 1/gn is beta_tilde
            return f"{text} (beta={1.0 / gn:.6g})"
        return f"{text} (beta < 1: (g - 1) N overflows)"

    return note


_LOWER_NOTE = "one-shot coherent information, infinite-temperature input"
_PLOB_NOTE = "two-way assisted capacity bound"

FAMILIES = {
    "additive": BoundFamily(
        ("beta",),
        _check_beta,
        lambda beta: (beta > _RECIP_OVERFLOW) & (beta < math.inf),
        BoundRow("lower", _SCALAR["additive_lower"], note=_LOWER_NOTE),
        (
            BoundRow("naj", _SCALAR["additive_naj"], note="data processing, additive-noise route"),
            BoundRow("plob", _SCALAR["additive_plob"], note=_PLOB_NOTE),
            BoundRow(
                "extension",
                _SCALAR["additive_flagged_extension"],
                note="degradable flagged-extension capacity",
            ),
        ),
    ),
    "amplifier": BoundFamily(
        ("g", "N"),
        _check_amp,
        lambda g, N: (g > 1.0) & (g < math.inf) & (N >= 0.0) & (N < _SAFE_N),
        BoundRow("lower", _SCALAR["amplifier_lower"], note=_LOWER_NOTE),
        (
            BoundRow(
                "naj",
                _SCALAR["amplifier_naj"],
                _has_naj,
                _additive_factor_note("data processing through the additive factor"),
            ),
            BoundRow("plob", _SCALAR["amplifier_plob"], note=_PLOB_NOTE),
            BoundRow(
                "extension",
                _SCALAR["amplifier_flagged_extension"],
                _has_additive_factor,
                _additive_factor_note("flagged-extension bound on the additive factor"),
            ),
        ),
    ),
    "attenuator": BoundFamily(
        ("eta", "N"),
        _check_att,
        lambda eta, N: (eta > 0.0) & (eta < 1.0) & (N >= 0.0) & (N < _SAFE_N),
        BoundRow("lower", _SCALAR["attenuator_lower"], note=_LOWER_NOTE),
        (
            BoundRow("plob", _SCALAR["attenuator_plob"], note=_PLOB_NOTE),
            BoundRow(
                "rosati",
                _SCALAR["attenuator_rosati"],
                _has_rosati,
                "weak-degradability data processing to a pure-loss channel",
            ),
            BoundRow(
                "extension",
                _SCALAR["attenuator_extension"],
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
    """Named bound values for one channel.

    `rows` holds (name, raw, applicable, note) for each row of the family's
    table in order ("lower", then the upper bounds among "naj", "plob",
    "rosati" and "extension"), and last "combined": the minimum over the
    applicable upper bounds, clamped at zero. `entries` is the same rows as
    `BoundEntry` objects keyed by name, built on first access.
    """

    family: str
    params: dict
    rows: tuple

    @cached_property
    def entries(self) -> dict:
        return {
            name: BoundEntry(raw, applicable, note) for name, raw, applicable, note in self.rows
        }

    def __getitem__(self, name: str) -> BoundEntry:
        return self.entries[name]

    @property
    def lower(self) -> BoundEntry:
        return self.entries["lower"]

    @property
    def combined(self) -> float:
        return self.rows[-1][1]  # "combined" is stored clamped

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
                    "raw": raw,
                    "clamped": max(raw, 0.0),
                    "applicable": applicable,
                    "note": note,
                }
                for name, raw, applicable, note in self.rows
            },
        }


def _row_values(fam: BoundFamily, args, rows=None) -> tuple:
    """Each of `rows` (default: every row of `fam`) evaluated at `args`, in
    table order, as (applies, raw), and the minimum raw over the applicable
    upper rows (inf if none). It feeds the reports and, on the upper rows
    alone, the decomposition scan's direct bounds; `_bound_columns` is the
    same loop on float64 columns, for the figures."""
    fam.check(*args)
    values = []
    best = math.inf
    for row in fam.rows if rows is None else rows:
        applies = row.applies is None or row.applies(*args)
        raw = row.formula(*args) if applies or row.defined_everywhere else math.nan
        values.append((applies, raw))
        if applies and row is not fam.lower and raw < best:  # NaN never compares less
            best = raw
    return values, best


def _bound_columns(family: str, *params) -> dict:
    """`_row_values` on float64 parameter columns, element for element
    bit-identical: {row name, then "combined": (applies, clamped)} columns,
    clamped NaN where a row is not evaluated. A point outside the family's
    `domain` gets the scalar check, which raises as a report would."""
    fam, params = FAMILIES[family], [np.asarray(p, dtype=float) for p in params]
    cols = np.broadcast_arrays(*params)
    for i in np.flatnonzero(~fam.domain(*cols)).tolist():
        fam.check(*(c[i].item() for c in cols))
    forms, n = _column_forms(), len(cols[0])
    everywhere, best, values = np.full(n, True), np.full(n, math.inf), {}
    with np.errstate(over="ignore"):  # (g - 1) N may overflow, as it does on floats
        for row in fam.rows:
            applies = everywhere if row.applies is None else row.applies(*cols)
            live = everywhere if row.defined_everywhere else applies
            # A scalar parameter stays 0-d, so a term in it alone, h(2N + 1), runs once.
            formula = forms[row.formula.__name__]
            if live.all():  # no copy of the live points, no masked store
                raw = formula(*params)
            else:
                raw = np.full(n, math.nan)
                raw[live] = formula(*(p[live] if p.ndim else p for p in params))
            values[row.name] = applies, raw
            if row is not fam.lower:
                best = np.where(applies & (raw < best), raw, best)
    values["combined"] = everywhere, best
    for _, raw in values.values():  # max(raw, 0.0) as on floats, where -0.0 and NaN stay
        raw[raw < 0.0] = 0.0
    return values


def bounds_report(family: str, **params) -> BoundReport:
    """Every bound in one family's table, named by row, plus "combined": the
    minimum over the applicable upper bounds, clamped at zero."""
    fam = FAMILIES.get(family)
    if fam is None:
        raise ParamDomainError(f"unknown channel family {family!r}")
    args = [params[name] for name in fam.params]
    values, best = _row_values(fam, args)
    rows = [
        (row.name, raw, applies,
         row.note if isinstance(row.note, str) else row.note(applies, *args))
        for row, (applies, raw) in zip(fam.rows, values)
    ]
    rows.append(("combined", max(best, 0.0), True, "minimum over the applicable upper bounds"))
    return BoundReport(family, dict(zip(fam.params, args)), tuple(rows))


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
    the environment by purity. M and M/10 run as one stack through each
    eigensolve, with every probe and output covariance checked as a state.

    Raises:
        ParamDomainError: for M < 1, or where 2M + 1, or on the purified
            path M(M + 1), overflows; the message names M.
        OracleDivergedError: if the convergence gap exceeds 1e-2 at M >= 1e5,
            the signature of a mis-specified channel pair, or of M not far
            above the channel's noise: `flagged_additive_noise(1e-9)`, whose
            added variance is 2/beta = 2e9, raises it at the default M = 1e6.
    """
    if channel.n_in != 1:
        raise ParamDomainError("thermal-probe estimator needs a one-mode input")
    if not 1.0 <= M < math.inf:
        raise _domain_error("probe photon number M >= 1", M=M)
    if complement is not None and complement.n_in != 1:
        raise ParamDomainError("complement channel must take one mode")
    _finite_term(2.0 * M + 1.0, "2M + 1", M=M)
    if complement is None:
        _finite_term(M * (M + 1.0), "M(M + 1)", M=M)

    energies = (M, M / 10.0)
    thermal = _physical(np.array([thermal_cov(m) for m in energies]))
    if complement is None:
        other = tensor_with_identity(channel)
        probes = _physical(np.array([two_mode_squeezed_cov(m) for m in energies]))
    else:
        other, probes = complement, thermal

    def entropies(V) -> list:  # entropy_from_cov of each matrix in the stack
        spectra = symplectic_eigenvalues(V).tolist()
        return [sum(bosonic_entropy(max(d, 1.0)) for d in row) for row in spectra]

    s_out = entropies(_outputs(channel, thermal))
    s_env = entropies(_outputs(other, probes))
    value = s_out[0] - s_env[0]
    gap = abs(value - (s_out[1] - s_env[1]))
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

    kind: str  # "direct", or "amplifier_first": amplifier G, then attenuator tau / G
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


def _direct_upper_bound(tau: float, y: float) -> float:
    """Smallest clamped upper bound on the channel (tau, y): its report's
    "combined", from the upper rows alone; inf for the identity, which has none."""
    family, args = _family_of(tau, y)
    fam = FAMILIES.get(family)
    return math.inf if fam is None else max(0.0, _row_values(fam, args, fam.upper_rows)[1])


_GOLDEN_TOL = 1e-6  # golden section stops at this bracket width over max(1, |a| + |b|)
_GOLDEN_MAX_ITER = 200


def _stage_pair(target, gain, allocation):
    """Stages (tau1, y1, tau2, y2) of one decomposition candidate, amplifier G
    then attenuator tau / G, or None where a stage breaks complete positivity
    exactly (its noise below |1 - tau|, with no slack), where tau / G is 0, or
    where the first stage's noise overflows. A split that passes composes to
    the target's (tau, y) up to rounding, never to a noisier channel."""
    tau1, tau2 = gain, target.tau / gain
    if tau2 == 0.0:
        return None
    if allocation == "min_noise_first":
        y1 = abs(1.0 - tau1)
        y2 = target.y - tau2 * y1
    else:
        y2 = abs(1.0 - tau2)
        y1 = (target.y - y2) / tau2
    if not (abs(1.0 - tau1) <= y1 < math.inf and abs(1.0 - tau2) <= y2):
        return None
    return tau1, y1, tau2, y2


def _stages_bound(tau1: float, y1: float, tau2: float, y2: float) -> float:
    """The smaller of a candidate's two stage direct bounds; inf if a stage is off its domain."""
    try:
        return min(_direct_upper_bound(tau1, y1), _direct_upper_bound(tau2, y2))
    except ParamDomainError:
        return math.inf


def golden_section_minimize(f, a: float, b: float):
    """Deterministic golden-section minimum of f on [a, b]; returns (x, f(x))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(_GOLDEN_MAX_ITER):
        if b - a <= _GOLDEN_TOL * max(1.0, abs(a) + abs(b)):
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


def _gain_interval(target: PhaseInsensitiveParams) -> tuple:
    """Gains [max(1, tau), G_max] with a CP stage pair in both allocations
    (`_stage_pair`'s rule solved for G): G <= 2 tau / (1 + tau - y), or any G
    if 1 + tau <= y; G_max is capped at DECOMPOSITION_GAIN_MAX times the start.
    Rounding can put G_max a few ulps past the CP limit, where that end reads inf."""
    start = max(1.0, target.tau)
    excess = 1.0 + target.tau - target.y
    end = 2.0 * target.tau / excess if excess > 0.0 else math.inf
    return start, max(start, min(end, DECOMPOSITION_GAIN_MAX * start))


_STEP = math.exp(1e-6)  # a row's search probes its ends this factor (1e-6 in log G) inside


def _branch_minimum(target, allocation, lo, hi) -> tuple:
    """(bound, gain) of the best candidate of one allocation on the gains [lo, hi].

    One stage is quantum-limited, so its bound falls with the gain and is
    least at hi; the other (noisy) stage moves on a line in (tau, y), in one
    family inside (lo, hi): attenuators for min_noise_first, amplifiers for
    min_noise_last. The minimum is thus the best of the two ends, taken
    whole, and of each noisy upper row's minimum; a row reads inf where it
    does not apply. A row is searched by golden section only when it falls
    away from both ends, read one and two steps inside them (a row need not
    be defined at an end itself); the winner is re-evaluated whole.
    """

    def whole(gain):
        stages = _stage_pair(target, gain, allocation)
        return math.inf if stages is None else _stages_bound(*stages), gain

    k, family = (2, "attenuator") if allocation == "min_noise_first" else (0, "amplifier")
    fam = FAMILIES[family]

    def noisy(gain):
        """Checked parameters of the noisy stage, or None off its family or its domain."""
        stages = _stage_pair(target, gain, allocation)
        name, args = _family_of(*stages[k : k + 2]) if stages else ("", ())
        if name == family:
            try:
                fam.check(*args)
            except ParamDomainError:
                return None
            return args

    def value(row, args):
        applies = args and (row.applies is None or row.applies(*args))
        return row.formula(*args) if applies else math.inf

    best, row_best = min(whole(lo), whole(hi)), (math.inf, lo)
    gains = (lo * _STEP, lo * _STEP**2, hi / _STEP**2, hi / _STEP)
    stage_args = [noisy(g) for g in gains]
    for row in fam.upper_rows if stage_args[0] and stage_args[3] else ():
        probes = [(value(row, args), g) for args, g in zip(stage_args, gains)]
        if probes[1][0] < probes[0][0] and probes[2][0] < probes[3][0]:
            x, fx = golden_section_minimize(
                lambda lg: value(row, noisy(math.exp(lg))), math.log(lo), math.log(hi)
            )
            probes.append((fx, math.exp(x)))
        row_best = min(row_best, *probes)
    return min(best, whole(row_best[1])) if row_best < best else best


def combined_decomposition_bound(
    target: PhaseInsensitiveParams,
    grid: int = DECOMPOSITION_GRID,
) -> DecompositionBound:
    """Best upper bound over two-stage amplifier-then-attenuator decompositions.

    Each candidate writes the target in (tau, y) as an amplifier of gain G,
    then an attenuator tau / G, with the minimum CP-allowed noise on one
    stage and the rest on the other, both ways; each of these allocations is
    minimized exactly over its feasible gains (`_gain_interval`,
    `_branch_minimum`), both ends included. A candidate bounds the target by
    the smaller of its stages' direct upper bounds, and the target's own
    enter as the trivial decomposition, so the result never exceeds them.
    Attenuator-first splits are not searched: on 20,000 random targets they
    never gave a smaller value (a census, not a proof), though they can where
    the G = 1 noise (y - 1 + tau) / tau overflows. `grid` is validated but unused.
    The target and every stage read their family from the exact tau
    (`_family_of`). A target with tau >= 1, where a scan gains nothing past
    rounding (README), returns its own family's "combined".
    """
    if not 2 <= grid <= MAX_GRID_POINTS:
        raise ParamDomainError(f"need 2 <= grid <= {MAX_GRID_POINTS}, got {grid}")
    direct = _direct_upper_bound(target.tau, target.y)
    if not math.isfinite(direct):
        raise InfeasibleDecompositionError(
            "target admits no finite direct bound; is it the identity?"
        )
    best = DecompositionBound(direct, DecompositionWitness("direct"))
    if direct == 0.0 or target.tau >= 1.0:
        return best  # nothing is below 0, and tau >= 1 is not scanned

    lo, hi = _gain_interval(target)
    for allocation in ("min_noise_first", "min_noise_last"):
        value, gain = _branch_minimum(target, allocation, lo, hi)
        if value < best.value:
            stages = _stage_pair(target, gain, allocation)
            pair = PhaseInsensitiveParams(*stages[:2]), PhaseInsensitiveParams(*stages[2:])
            witness = DecompositionWitness("amplifier_first", allocation, *pair)
            best = DecompositionBound(value, witness)
    return best
