import dataclasses
import itertools
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gausscap.bounds import (
    DECOMPOSITION_GAIN_MAX,
    FAMILIES,
    DecompositionWitness,
    MAX_GRID_POINTS,
    InfeasibleDecompositionError,
    OracleDivergedError,
    additive_flagged_extension,
    additive_lower,
    additive_naj,
    additive_plob,
    amplifier_flagged_extension,
    amplifier_lower,
    amplifier_naj,
    amplifier_plob,
    attenuator_extension,
    attenuator_lower,
    attenuator_plob,
    attenuator_rosati,
    beta_tilde,
    bounds_additive,
    bounds_amplifier,
    bounds_attenuator,
    bounds_report,
    coherent_info_thermal,
    combined_decomposition_bound,
    golden_section_minimize,
)
from gausscap.bounds import (
    _SAFE_N,
    _direct_upper_bound,
    _gain_interval,
    _stage_pair,
    _stages_bound,
)
from gausscap.channels import _family_of
from gausscap.channels import (
    ParamDomainError,
    PhaseInsensitiveParams,
    attenuator,
    complementary,
    extended_attenuator,
    flagged_additive_noise,
    from_phase_insensitive,
    identity_channel,
    phase_insensitive_family,
    tensor_with_identity,
)
from gausscap.symplectic import CP_SLACK, bosonic_entropy


def test_additive_report_zero_capacity_regime():
    report = bounds_additive(2.0)
    assert report["naj"].raw == 0.0
    assert report.combined == 0.0


def test_additive_lower_vanishes_at_e():
    assert abs(additive_lower(math.e)) < 1e-15
    assert bounds_additive(math.e)["lower"].clamped == pytest.approx(0.0, abs=1e-15)


def test_additive_frozen_values_at_beta_4():
    # extension cross-checked against the coherent-information estimator in
    # test_oracle_matches_extension_closed_form below.
    report = bounds_additive(4.0)
    assert report["extension"].raw == pytest.approx(0.7873823004681361, abs=1e-12)
    assert report["plob"].raw == pytest.approx(0.9179787193332775, abs=1e-12)
    assert report["extension"].raw < report["plob"].raw
    assert report.combined == pytest.approx(report["extension"].raw, abs=1e-12)


def test_additive_naj_below_one_clamps():
    assert additive_naj(0.5) == float("-inf")
    assert bounds_additive(0.5)["naj"].clamped == 0.0


def test_amplifier_quantum_limited_capacity_known():
    report = bounds_amplifier(2.0, 0.0)
    assert report["plob"].raw == pytest.approx(1.0, abs=1e-12)
    assert report["lower"].raw == pytest.approx(1.0, abs=1e-12)
    assert not report["naj"].applicable
    assert not report["extension"].applicable
    assert report.combined == pytest.approx(1.0, abs=1e-12)


def test_amplifier_naj_clamps_high_noise():
    # (g-1)N >= 1/2 makes the additive factor too hot to carry quantum data.
    report = bounds_amplifier(2.0, 1.0)
    assert report["naj"].clamped == 0.0
    assert report.combined == 0.0


def test_amplifier_beta_tilde_route():
    g, N = 1.01, 10.0
    assert beta_tilde(g, N) == pytest.approx(10.0, abs=1e-12)
    report = bounds_amplifier(g, N)
    assert report["extension"].raw == pytest.approx(
        additive_flagged_extension(10.0), abs=1e-12
    )
    assert report["naj"].raw == pytest.approx(math.log2(9.0), abs=1e-12)


def test_amplifier_extension_wins_somewhere_at_high_temperature():
    # At N=10 there is a gain window where the flagged-extension route beats
    # both the two-way bound and the additive-factor data-processing bound.
    N = 10.0
    wins = [
        g
        for g in 1.0 + np.geomspace(1e-3, 0.2, 200)
        if amplifier_flagged_extension(g, N)
        < min(amplifier_plob(g, N), amplifier_naj(g, N))
    ]
    assert len(wins) >= 2


def test_attenuator_extension_raw_zero_at_half():
    report = bounds_attenuator(0.5, 0.1)
    assert report["extension"].raw == 0.0
    assert not report["extension"].applicable


def test_attenuator_pure_loss_collapse():
    for eta in [0.6, 0.75, 0.9]:
        target = math.log2(eta / (1 - eta))
        assert attenuator_extension(eta, 0.0) == pytest.approx(target, abs=1e-12)
        assert attenuator_rosati(eta, 0.0) == pytest.approx(target, abs=1e-12)
        assert attenuator_lower(eta, 0.0) == pytest.approx(target, abs=1e-12)


def test_attenuator_rosati_applicability():
    report = bounds_attenuator(0.3, 1.0)  # eta - N(1-eta) = -0.4
    assert not report["rosati"].applicable
    assert math.isnan(report["rosati"].raw)
    assert attenuator_rosati(0.3, 1.0) is None


def test_attenuator_extension_beats_plob_at_high_transmissivity():
    assert attenuator_extension(0.95, 0.05) < attenuator_plob(0.95, 0.05)


def test_attenuator_extension_rosati_cross_once():
    etas = np.arange(0.55, 0.9951, 0.0025)
    diff = np.array(
        [attenuator_extension(e, 0.05) - attenuator_rosati(e, 0.05) for e in etas]
    )
    assert np.sum(np.diff(np.sign(diff)) != 0) == 1


def test_bounds_report_dispatch():
    assert bounds_report("additive", beta=2.0).family == "additive"
    assert bounds_report("amplifier", g=2.0, N=0.0).family == "amplifier"
    assert bounds_report("attenuator", eta=0.7, N=0.1).family == "attenuator"
    with pytest.raises(ParamDomainError):
        bounds_report("squeezer", r=1.0)


_LOWER_NOTE = "one-shot coherent information, infinite-temperature input"
_PLOB_NOTE = "two-way assisted capacity bound"
_COMBINED_NOTE = "minimum over the applicable upper bounds"
_N0_NOTE = "additive-factor route undefined at N = 0"
_NO_FACTOR_NOTE = "additive-factor route undefined: 1/((g - 1) N) is not a positive finite float"
_ROSATI_NOTE = "weak-degradability data processing to a pure-loss channel"
_EXT_NOTE = "degradable two-mode extension capacity (valid for eta > 1/2)"

# to_dict() of reports frozen before reports stored their row values: points
# in figure range, N = 0, eta <= 1/2 (extension reported but inapplicable),
# rosati with t <= 0, an amplifier whose (g - 1) N overflows and one whose
# beta_tilde is not a positive finite float. Rows: (name, raw, clamped,
# applicable, note).
_FROZEN_REPORTS = [
    ("additive", {"beta": 4.0}, [
        ("lower", 0.5573049591110366, 0.5573049591110366, True, _LOWER_NOTE),
        ("naj", 1.584962500721156, 1.584962500721156, True,
         "data processing, additive-noise route"),
        ("plob", 0.9179787193332775, 0.9179787193332775, True, _PLOB_NOTE),
        ("extension", 0.7873823004681357, 0.7873823004681357, True,
         "degradable flagged-extension capacity"),
        ("combined", 0.7873823004681357, 0.7873823004681357, True, _COMBINED_NOTE),
    ]),
    ("additive", {"beta": 0.5}, [
        ("lower", -2.4426950408889634, 0.0, True, _LOWER_NOTE),
        ("naj", -math.inf, 0.0, True, "data processing, additive-noise route"),
        ("plob", 0.4426950408889634, 0.4426950408889634, True, _PLOB_NOTE),
        ("extension", 0.6620491825262329, 0.6620491825262329, True,
         "degradable flagged-extension capacity"),
        ("combined", 0.0, 0.0, True, _COMBINED_NOTE),
    ]),
    ("amplifier", {"g": 1.01, "N": 10.0}, [
        ("lower", 1.823744626615147, 1.823744626615147, True, _LOWER_NOTE),
        ("naj", 3.169925001442311, 3.169925001442311, True,
         "data processing through the additive factor (beta=10)"),
        ("plob", 1.967297556385847, 1.967297556385847, True, _PLOB_NOTE),
        ("extension", 1.929567241090923, 1.929567241090923, True,
         "flagged-extension bound on the additive factor (beta=10)"),
        ("combined", 1.929567241090923, 1.929567241090923, True, _COMBINED_NOTE),
    ]),
    ("amplifier", {"g": 2.0, "N": 0.0}, [
        ("lower", 1.0, 1.0, True, _LOWER_NOTE),
        ("naj", math.nan, math.nan, False, _N0_NOTE),
        ("plob", 1.0, 1.0, True, _PLOB_NOTE),
        ("extension", math.nan, math.nan, False, _N0_NOTE),
        ("combined", 1.0, 1.0, True, _COMBINED_NOTE),
    ]),
    ("amplifier", {"g": 1e+200, "N": 1e+200}, [
        ("lower", -665.8283140183615, 0.0, True, _LOWER_NOTE),
        ("naj", -math.inf, 0.0, True,
         "data processing through the additive factor (beta < 1: (g - 1) N overflows)"),
        ("plob", 6.643856189774725e+202, 6.643856189774725e+202, True, _PLOB_NOTE),
        ("extension", math.nan, math.nan, False, _NO_FACTOR_NOTE),
        ("combined", 0.0, 0.0, True, _COMBINED_NOTE),
    ]),
    ("amplifier", {"g": 1.000000000000001, "N": 1e-300}, [
        ("lower", 49.67807190511264, 49.67807190511264, True, _LOWER_NOTE),
        ("naj", math.nan, math.nan, False, _NO_FACTOR_NOTE),
        ("plob", 49.67807190511264, 49.67807190511264, True, _PLOB_NOTE),
        ("extension", math.nan, math.nan, False, _NO_FACTOR_NOTE),
        ("combined", 49.67807190511264, 49.67807190511264, True, _COMBINED_NOTE),
    ]),
    ("attenuator", {"eta": 0.8, "N": 0.05}, [
        ("lower", 1.7099948009696644, 1.7099948009696644, True, _LOWER_NOTE),
        ("plob", 2.0480193006013945, 2.0480193006013945, True, _PLOB_NOTE),
        ("rosati", 1.9114633253983428, 1.9114633253983428, True, _ROSATI_NOTE),
        ("extension", 1.836336290712577, 1.836336290712577, True, _EXT_NOTE),
        ("combined", 1.836336290712577, 1.836336290712577, True, _COMBINED_NOTE),
    ]),
    ("attenuator", {"eta": 0.8, "N": 0.0}, [
        ("lower", 2.0000000000000004, 2.0000000000000004, True, _LOWER_NOTE),
        ("plob", 2.3219280948873626, 2.3219280948873626, True, _PLOB_NOTE),
        ("rosati", 2.0000000000000004, 2.0000000000000004, True, _ROSATI_NOTE),
        ("extension", 2.0000000000000004, 2.0000000000000004, True, _EXT_NOTE),
        ("combined", 2.0000000000000004, 2.0000000000000004, True, _COMBINED_NOTE),
    ]),
    ("attenuator", {"eta": 0.4, "N": 0.1}, [
        ("lower", -1.0684091863348206, 0.0, True, _LOWER_NOTE),
        ("plob", 0.38571171804127785, 0.38571171804127785, True, _PLOB_NOTE),
        ("rosati", -0.9569312781081141, 0.0, True, _ROSATI_NOTE),
        ("extension", -0.4969218757941701, 0.0, False, _EXT_NOTE),
        ("combined", 0.0, 0.0, True, _COMBINED_NOTE),
    ]),
    ("attenuator", {"eta": 0.3, "N": 1.0}, [
        ("lower", -3.2223924213364477, 0.0, True, _LOWER_NOTE),
        ("plob", 0.25153876699596456, 0.25153876699596456, True, _PLOB_NOTE),
        ("rosati", math.nan, math.nan, False, _ROSATI_NOTE),
        ("extension", -0.5739369200182669, 0.0, False, _EXT_NOTE),
        ("combined", 0.25153876699596456, 0.25153876699596456, True, _COMBINED_NOTE),
    ]),
]


@pytest.mark.parametrize("family, params, rows", _FROZEN_REPORTS)
def test_report_frozen_outputs(family, params, rows):
    expected = {
        "family": family,
        "params": params,
        "entries": {
            name: {"raw": raw, "clamped": clamped, "applicable": applicable, "note": note}
            for name, raw, clamped, applicable, note in rows
        },
    }
    # json.dumps writes each float by its shortest round-trip repr (and NaN
    # as NaN), so equal text is equal bits, key order included.
    assert json.dumps(bounds_report(family, **params).to_dict()) == json.dumps(expected)


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("family, params", [(f, p) for f, p, _ in _FROZEN_REPORTS])
def test_report_views_agree(family, params):
    report = bounds_report(family, **params)
    entries = report.entries
    assert list(entries) == [row.name for row in FAMILIES[family].rows] + ["combined"]
    assert report.entries is entries
    assert report.lower is entries["lower"]
    assert list(report.upper_entries()) == list(entries)[1:-1]
    assert report.combined == entries["combined"].clamped == entries["combined"].raw
    as_dict = report.to_dict()["entries"]
    assert list(as_dict) == list(entries)
    for name, entry in entries.items():
        assert report[name] is entry
        view = as_dict[name]
        assert _same(view["raw"], entry.raw) and _same(view["clamped"], entry.clamped), name
        assert (view["applicable"], view["note"]) == (entry.applicable, entry.note)
    with pytest.raises(dataclasses.FrozenInstanceError):
        entries["lower"].raw = 0.0


def test_amplifier_rows_follow_table_order():
    names = list(bounds_amplifier(1.01, 10.0).entries)
    assert names == ["lower", "naj", "plob", "extension", "combined"]
    assert names[:-1] == [row.name for row in FAMILIES["amplifier"].rows]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_closed_forms_reject_non_finite_parameters(value):
    with pytest.raises(ParamDomainError, match="beta must be finite"):
        additive_plob(value)
    with pytest.raises(ParamDomainError, match="g must be finite"):
        amplifier_plob(value, 1.0)
    with pytest.raises(ParamDomainError, match="N must be finite"):
        amplifier_naj(2.0, value)
    with pytest.raises(ParamDomainError, match="eta must be finite"):
        attenuator_plob(value, 0.1)
    with pytest.raises(ParamDomainError, match="N must be finite"):
        bounds_attenuator(0.8, value)


def test_decomposition_rejects_non_finite_target():
    # A NaN y would reach the family rule as N = max(0, NaN) = 0: a bound
    # of 0 bits with a two-stage witness.
    with pytest.raises(ParamDomainError, match="y must be finite"):
        combined_decomposition_bound(PhaseInsensitiveParams(0.8, math.nan))


@pytest.mark.parametrize(
    "family, points",
    [
        ("additive", [(0.5,), (2.0,), (1e-300,), (1e300,)]),
        ("amplifier", [(1.01, 10.0), (2.0, 0.0), (1.5, 1e-3), (1e200, 1e200)]),
        ("attenuator", [(0.3, 0.1), (0.8, 0.05), (0.9, 1e16), (1e-300, 1e300)]),
    ],
)
def test_table_rows_hold_the_closed_forms_unchecked(family, points):
    # The rows are the public closed forms without their domain check: the
    # report runs the family check once and every row gives the same value.
    fam = FAMILIES[family]
    public = {
        "additive": [additive_lower, additive_naj, additive_plob, additive_flagged_extension],
        "amplifier": [amplifier_lower, amplifier_naj, amplifier_plob,
                      amplifier_flagged_extension],
        "attenuator": [attenuator_lower, attenuator_plob, attenuator_rosati,
                       attenuator_extension],
    }[family]
    for args in points:
        fam.check(*args)
        for row, closed_form in zip(fam.rows, public):
            if row.applies is None or row.applies(*args) or row.defined_everywhere:
                assert row.formula(*args) == closed_form(*args), (row.name, args)
    with pytest.raises(ParamDomainError, match="must be finite"):
        public[0](*[math.nan] * len(fam.params))


@pytest.mark.parametrize(
    "tau, y, family",
    [
        (0.7, 0.3 * 1.1, "attenuator"),
        (1.5, 0.5 * 2.0, "amplifier"),
        (1.0, 0.5, "additive"),
        (1.0 - 5e-11, 0.5, "attenuator"),  # tau is read exactly: no rounding to 1
        (1.0 + 5e-11, 0.5, "amplifier"),
    ],
)
def test_decomposition_and_channels_agree_on_family(tau, y, family):
    target = PhaseInsensitiveParams(tau, y)
    name, args = phase_insensitive_family(target)
    assert name == family
    assert from_phase_insensitive(target).family == family
    params = dict(zip(FAMILIES[family].params, args))
    assert _direct_upper_bound(tau, y) == bounds_report(family, **params).combined


# mpmath at 60 digits of attenuator_extension(0.8, 1e10) at those doubles.
_EXTENSION_08_1E10 = 2.7050532011032544895107048475141711202171722501252e-10


def test_attenuator_edges_of_the_entropy_kernel():
    # Each row subtracts entropies of 35-55 bits here, so the kernel must be
    # accurate to a few ulps of h for the differences to keep their sign.
    assert attenuator_lower(0.8, 1e16) < -50.0
    assert bounds_attenuator(0.8, 1e16).lower.clamped == 0.0
    assert abs(bounds_attenuator(0.8, 1e10).combined - _EXTENSION_08_1E10) <= 1e-14


def _assert_sandwich(report):
    assert math.isfinite(report.combined)
    assert report.lower.clamped <= report.combined * (1.0 + 1e-12) + 1e-12


@pytest.mark.parametrize("beta", [1e-200, 1e-160, 1e200])
def test_additive_report_at_extreme_beta(beta):
    report = bounds_additive(beta)
    assert math.isfinite(report["extension"].raw)
    _assert_sandwich(report)


def test_additive_factor_overflow_is_a_domain_error():
    with pytest.raises(ParamDomainError, match="beta=5e-309"):
        bounds_additive(5e-309)  # 1/beta overflows
    with pytest.raises(ParamDomainError, match=r"g=1e\+200, N=1e\+200"):
        beta_tilde(1e200, 1e200)  # (g - 1) N overflows
    with pytest.raises(ParamDomainError, match=r"g=1\.0000001, N=1e-310"):
        amplifier_naj(1.0000001, 1e-310)  # beta_tilde overflows
    with pytest.raises(ParamDomainError, match=r"g=1\.0000001, N=1e-310"):
        amplifier_flagged_extension(1.0000001, 1e-310)
    with pytest.raises(ParamDomainError, match=r"g=1\.5, N=1e\+308"):
        bounds_amplifier(1.5, 1e308)  # 2N + 1 overflows in lower and plob


@pytest.mark.parametrize(
    "x", [math.nextafter(2.0**-1024, 0.0), 2.0**-1024, math.nextafter(2.0**-1024, 1.0)]
)
def test_reciprocal_overflow_edge(x):
    # 1/x overflows up to 2**-1024 and not past it: the additive domain and
    # the additive-factor rows switch exactly where 1/beta or 1/((g - 1) N) does
    finite = 1.0 / x < math.inf
    report = bounds_amplifier(2.0, x)  # (g - 1) N = x
    assert report["naj"].applicable is report["extension"].applicable is finite
    if finite:
        assert math.isfinite(bounds_additive(x).combined)
    else:
        with pytest.raises(ParamDomainError, match="finite 1/beta"):
            bounds_additive(x)


# 0, 1, 2**-1024 and _SAFE_N with one ulp either side, the largest float, inf and NaN.
_DOMAIN_EDGES = [
    math.nextafter(x, to)
    for x in (0.0, 1.0, 2.0**-1024, _SAFE_N)
    for to in (-math.inf, x, math.inf)
] + [sys.float_info.max, math.inf, math.nan]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_domain_predicate_agrees_with_the_check(family):
    # The checks inline their family's `domain`. `_bound_columns` runs the
    # scalar check only outside `domain`, so `domain` must not hold where the
    # check raises; it may fail where the check passes only in the check's
    # slow path, N >= _SAFE_N.
    fam = FAMILIES[family]
    for args in itertools.product(_DOMAIN_EDGES, repeat=len(fam.params)):
        inside = bool(fam.domain(*(np.array([x]) for x in args))[0])
        try:
            fam.check(*args)
        except ParamDomainError:
            assert not inside, args
        else:
            assert inside or dict(zip(fam.params, args)).get("N", 0.0) >= _SAFE_N, args


@pytest.mark.parametrize("g, N", [(1.000000000000001, 1e-300)])
def test_amplifier_report_without_additive_factor(g, N):
    # beta_tilde = 1/((g - 1) N) overflows: only the two rows routed through
    # it stop applying, and lower and plob are still reported.
    report = bounds_amplifier(g, N)
    assert not report["naj"].applicable and not report["extension"].applicable
    assert report["lower"].applicable and report["plob"].applicable
    assert math.isfinite(report["lower"].raw)
    assert report.combined == report["plob"].clamped
    assert math.isfinite(report.combined)
    assert report.lower.clamped <= report.combined


def test_amplifier_naj_applies_where_additive_factor_overflows():
    # (g - 1) N overflows, so beta_tilde is not a float; but (g - 1) N >= 1
    # already puts beta_tilde <= 1, where naj is -inf and the capacity is 0.
    report = bounds_amplifier(1e200, 1e200)
    assert report["naj"].applicable and report["naj"].raw == -math.inf
    assert "overflows" in report["naj"].note
    assert not report["extension"].applicable
    assert report["lower"].applicable and math.isfinite(report["lower"].raw)
    assert report.combined == 0.0
    assert amplifier_naj(1e200, 1e200) == -math.inf
    assert amplifier_naj(3.0, 0.5) == additive_naj(1.0) == -math.inf  # (g - 1) N = 1


@pytest.mark.parametrize("eta, N", [(0.5, 9e307), (1e-300, 1e306)])
def test_attenuator_overflowing_terms_are_a_domain_error(eta, N):
    # 2N + 1, or N log2(eta), overflows in lower and plob
    for build in (bounds_attenuator, lambda eta, N: bounds_report("attenuator", eta=eta, N=N)):
        with pytest.raises(ParamDomainError, match=re.escape(f"eta={eta}, N={N}")):
            build(eta, N)


def test_attenuator_near_the_overflow_stays_finite():
    report = bounds_attenuator(0.5, 8.9e307)
    for name in ("lower", "plob", "combined"):
        assert math.isfinite(report[name].raw), name
    assert report.lower.clamped <= report.combined


_PHOTONS = st.one_of(st.just(0.0), st.floats(-300.0, 300.0).map(lambda e: 10.0**e))


@given(st.floats(-6.0, 6.0).map(lambda e: 1.0 + 10.0**e), _PHOTONS)
@example(1.0 + 1e-6, 1e20)
def test_amplifier_sandwich(g, N):
    _assert_sandwich(bounds_amplifier(g, N))


@given(st.floats(-15.0, math.log10(0.5)), st.booleans(), _PHOTONS)
@example(-15.0, True, 1e15)
def test_attenuator_sandwich(log_eta, complement, N):
    eta = 1.0 - 10.0**log_eta if complement else 10.0**log_eta
    _assert_sandwich(bounds_attenuator(eta, N))


@given(st.floats(-300.0, 300.0).map(lambda e: 10.0**e))
def test_additive_sandwich(beta):
    _assert_sandwich(bounds_additive(beta))


def _attenuator_point(log_d, complement, N):
    eta = 1.0 - 10.0**log_d if complement else 10.0**log_d
    return eta, (1.0 - eta) * (2.0 * N + 1.0)


def _amplifier_point(log_gain_excess, N):
    excess = 10.0**log_gain_excess
    return 1.0 + excess, excess * (2.0 * N + 1.0)


# (tau, y) of attenuators (tau -> 0, 1/2 and 1), amplifiers (tau -> 1 and
# 10^6) and additive noise, each with photon numbers out to 10^+-300; 1 - eta
# and g - 1 reach 1e-16, where tau rounds to 1 - ulp, 1 + ulp or 1 itself
_POINTS = st.one_of(
    st.builds(_attenuator_point, st.floats(-16.0, math.log10(0.5)), st.booleans(), _PHOTONS),
    st.builds(_amplifier_point, st.floats(-16.0, 6.0), _PHOTONS),
    st.floats(-300.0, 300.0).map(lambda e: (1.0, 2.0 / 10.0**e)),  # additive, y = 2/beta
)


@given(_POINTS)
@example((0.7, 0.3 * 1.1))
@example((1.5, 0.5 * 2.0))
@example((1.0 + 5e-11, 0.5))
@example((1.0, 2.0 / 5e-309))  # 1/beta overflows
@example((1.0, 0.0))  # the identity
def test_direct_upper_bound_is_the_report_combined(point):
    # The decomposition scan's direct bound is the minimum over the same
    # applicable rows as a report's combined, and fails on the same points.
    tau, y = point
    family, args = _family_of(tau, y)
    if family == "identity":  # (1, 0): no bound to take
        assert _direct_upper_bound(tau, y) == math.inf
        return
    params = dict(zip(FAMILIES[family].params, args))
    try:
        expected = bounds_report(family, **params).combined
    except ParamDomainError as exc:
        with pytest.raises(ParamDomainError, match=re.escape(str(exc))):
            _direct_upper_bound(tau, y)
        return
    assert _direct_upper_bound(tau, y) == expected


def test_report_combined_not_above_any_applicable_upper():
    for report in (
        bounds_additive(3.0),
        bounds_amplifier(1.3, 2.0),
        bounds_attenuator(0.8, 0.3),
    ):
        for entry in report.upper_entries().values():
            if entry.applicable:
                assert report.combined <= entry.clamped + 1e-12


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 5.0, 10.0])
def test_oracle_matches_extension_closed_form(beta):
    estimate = coherent_info_thermal(flagged_additive_noise(beta), M=1e6)
    assert abs(estimate.value - additive_flagged_extension(beta)) < 1e-4
    assert estimate.convergence_gap < 1e-3


@pytest.mark.parametrize("eta", [0.6, 0.8, 0.95])
@pytest.mark.parametrize("N", [0.05, 1.0])
def test_oracle_matches_attenuator_extension_closed_form(eta, N):
    channel = extended_attenuator(eta, N)
    estimate = coherent_info_thermal(channel, M=1e6, complement=complementary(channel))
    assert abs(estimate.value - attenuator_extension(eta, N)) < 1e-4


def test_oracle_purified_and_complement_strategies_agree():
    channel = extended_attenuator(0.8, 0.05)
    purified = coherent_info_thermal(channel, M=1e5)
    complemented = coherent_info_thermal(channel, M=1e5, complement=complementary(channel))
    assert purified.value == pytest.approx(complemented.value, abs=1e-9)


def test_oracle_identity_channel():
    estimate = coherent_info_thermal(identity_channel(1), M=100.0)
    assert estimate.value == pytest.approx(bosonic_entropy(201.0), abs=1e-9)
    expected_gap = bosonic_entropy(201.0) - bosonic_entropy(21.0)
    assert estimate.convergence_gap == pytest.approx(expected_gap, abs=1e-9)


def test_oracle_divergence_detected():
    # The identity channel's coherent information grows without bound in the
    # probe energy; at high M that must be flagged, not silently reported.
    with pytest.raises(OracleDivergedError):
        coherent_info_thermal(identity_channel(1), M=1e6)


def test_oracle_monotone_in_probe_energy():
    for maker in (
        lambda: flagged_additive_noise(1.0),
        lambda: extended_attenuator(0.8, 0.05),
    ):
        values = [
            coherent_info_thermal(maker(), M=m).value for m in (1e2, 1e3, 1e4)
        ]
        assert values[0] <= values[1] <= values[2]


def test_oracle_rejects_multimode_input():
    from gausscap.channels import extended_attenuator_pair

    with pytest.raises(ParamDomainError):
        coherent_info_thermal(extended_attenuator_pair(0.8, 0.0), M=10.0)
    two_mode = tensor_with_identity(attenuator(0.2))
    with pytest.raises(ParamDomainError, match="complement channel must take one mode"):
        coherent_info_thermal(attenuator(0.2), M=10.0, complement=two_mode)


@pytest.mark.parametrize("M", [math.nan, math.inf])
def test_oracle_rejects_non_finite_probe_energy(M):
    with pytest.raises(ParamDomainError, match="M must be finite"):
        coherent_info_thermal(identity_channel(1), M=M)


def test_oracle_at_its_domain_edge():
    channel = extended_attenuator(0.8, 0.05)
    for comp in (None, complementary(channel)):
        estimate = coherent_info_thermal(channel, M=1.0, complement=comp)
        assert estimate.m_used == 1.0 and math.isfinite(estimate.value)
    with pytest.raises(ParamDomainError, match="M >= 1"):
        coherent_info_thermal(channel, M=math.nextafter(1.0, 0.0))


@pytest.mark.parametrize(
    "strategy, solves",
    [("complement", {"eigvalsh": 3, "eigvals": 2}), ("purified", {"eigvalsh": 5, "eigvals": 2})],
)
def test_oracle_eigensolves_per_estimate(monkeypatch, strategy, solves):
    # M and M/10 share every eigensolve: one uncertainty check per probe and
    # per output stack, one spectrum per output side, and on the purified
    # path the CP check of channel tensor identity.
    channel = extended_attenuator(0.8, 0.05)
    comp = complementary(channel) if strategy == "complement" else None
    calls = dict.fromkeys(solves, 0)
    for name in solves:
        def counted(*args, _solve=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    coherent_info_thermal(channel, M=1e4, complement=comp)
    assert calls == solves


# (value, convergence_gap) of the thermal-probe oracle, frozen with numpy
# 2.4.6 on OpenBLAS 0.3.31. Validation and matrix assembly may change only
# if the same eigensolves run on the same matrices, so these repeat bit for
# bit. An eigensolver's last bits depend on the LAPACK build, so on another
# numpy the comparison allows 1e-6 (the purified path's floor at M = 1e8 is
# ~2e-7).
_ORACLE_FROZEN_BUILD = np.__version__ == "2.4.6"
_EXT, _FLAG, _ID = "extended_attenuator", "flagged", "identity"
_FROZEN_ORACLE = [
    (_EXT, "complement", 1e2, 1.8146776413324783, 0.1669247144404471),
    (_EXT, "purified", 1e2, 1.8146776413326773, 0.16692471444066026),
    (_FLAG, "purified", 1e2, 0.21271030975296945, 0.01405388326377377),
    (_ID, "purified", 1e2, 8.093740780281834, 3.259273924145453),
    (_EXT, "complement", 1e4, 1.836115992743439, 0.001979244085777765),
    (_EXT, "purified", 1e4, 1.8361159927337223, 0.001979244070062336),
    (_FLAG, "purified", 1e4, 0.21440402153469051, 0.00015530482421510783),
    (_ID, "purified", 1e4, 14.730479552786084, 3.3212791200436094),
    (_EXT, "complement", 1e6, 1.8363340873539507, 1.982988307780431e-05),
    (_EXT, "purified", 1e6, 1.8363340897479823, 1.98325457532178e-05),
    (_FLAG, "purified", 1e6, 0.2144211192588088, 1.5527982526464257e-06),
    (_EXT, "purified", 1e8, 1.8363367436228586, 6.699207588667377e-07),
]


def _oracle_channel(family):
    if family == _EXT:
        return extended_attenuator(0.8, 0.05)
    if family == _FLAG:
        return flagged_additive_noise(2.0)
    return identity_channel(1)


@pytest.mark.parametrize("family, strategy, M, value, gap", _FROZEN_ORACLE)
def test_oracle_frozen_outputs(family, strategy, M, value, gap):
    channel = _oracle_channel(family)
    comp = complementary(channel) if strategy == "complement" else None
    estimate = coherent_info_thermal(channel, M=M, complement=comp)
    assert estimate.m_used == M
    if _ORACLE_FROZEN_BUILD:
        assert (estimate.value, estimate.convergence_gap) == (value, gap)
    else:
        assert estimate.value == pytest.approx(value, rel=1e-6, abs=1e-6)
        assert estimate.convergence_gap == pytest.approx(gap, rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("M, gap", [(1e6, "3.321e+00"), (1e8, "2.509e+00")])
def test_oracle_frozen_divergence(M, gap):
    with pytest.raises(OracleDivergedError, match=re.escape(f"convergence gap {gap} at M={M:g}")):
        coherent_info_thermal(identity_channel(1), M=M)


def test_golden_section_minimize_quadratic():
    x, fx = golden_section_minimize(lambda t: (t - 1.3) ** 2 + 0.5, 0.0, 4.0)
    assert x == pytest.approx(1.3, abs=1e-5)
    assert fx == pytest.approx(0.5, abs=1e-9)


def test_combined_bound_pure_loss_is_tight():
    for eta in [0.7, 0.9]:
        target = PhaseInsensitiveParams(eta, 1.0 - eta)
        result = combined_decomposition_bound(target, grid=60)
        assert result.value == pytest.approx(math.log2(eta / (1 - eta)), abs=1e-12)


def test_combined_bound_zero_capacity_amplifier():
    g, N = 2.0, 1.0  # (g-1)N >= 1/2
    target = PhaseInsensitiveParams(g, (g - 1.0) * (2.0 * N + 1.0))
    result = combined_decomposition_bound(target, grid=60)
    assert result.value == 0.0


def test_combined_bound_never_above_direct_bounds():
    for eta, N in [(0.69, 0.05), (0.8, 0.3), (0.95, 1.0)]:
        target = PhaseInsensitiveParams(eta, (1.0 - eta) * (2.0 * N + 1.0))
        result = combined_decomposition_bound(target, grid=100)
        report = bounds_attenuator(eta, N)
        for entry in report.upper_entries().values():
            if entry.applicable:
                assert result.value <= entry.clamped + 1e-12


def test_combined_bound_improves_near_crossing():
    target = PhaseInsensitiveParams(0.69, (1.0 - 0.69) * 1.1)
    result = combined_decomposition_bound(target)
    direct = bounds_attenuator(0.69, 0.05).combined
    assert direct - result.value > 1e-4
    assert result.witness.kind != "direct"
    assert "stage1" in result.witness.describe()
    assert DecompositionWitness("direct").describe() == "direct bounds on the target channel"


def test_combined_bound_grid_validation():
    with pytest.raises(ParamDomainError):
        combined_decomposition_bound(PhaseInsensitiveParams(0.7, 0.3), grid=1)
    with pytest.raises(ParamDomainError, match="grid"):
        combined_decomposition_bound(
            PhaseInsensitiveParams(0.7, 0.3), grid=MAX_GRID_POINTS + 1
        )


def test_combined_bound_identity_target_infeasible():
    # The identity channel has no finite upper bound to process through.
    with pytest.raises(InfeasibleDecompositionError):
        combined_decomposition_bound(PhaseInsensitiveParams(1.0, 0.0), grid=10)


def _attenuator_target(eta, N):
    return PhaseInsensitiveParams(eta, (1.0 - eta) * (2.0 * N + 1.0))


def _amplifier_target(g, N):
    return PhaseInsensitiveParams(g, (g - 1.0) * (2.0 * N + 1.0))


# Ceiling and witness (kind, allocation, stage1 tau and y, stage2 tau and y)
# of the default scan. The ceiling is the value of the 200-gain grid scan that
# the exact interval scan replaced, which may exceed it by 1e-11 at most; the
# stages are pinned from the exact scan, and its value is their bound.
_PINNED_DECOMPOSITIONS = [
    (_attenuator_target(0.69, 0.05), 1.0446881690278012, "amplifier_first", "min_noise_first",
     (1.0155563298919699, 0.015556329891969867, 0.6794305541607908, 0.3304305541607909)),
    # the bench ledger's point; the grid missed its minimum by 9.1e-4
    (_attenuator_target(0.696, 0.2), 0.8001051829782155, "amplifier_first", "min_noise_first",
     (1.0941782606875516, 0.09417826068755164, 0.6360937929461811, 0.3656937929461811)),
    # t = eta - N(1 - eta) < 0, so every gain of amplifier_first is feasible;
    # the first (G = 1: additive noise, then the target's pure loss) already gives 0
    (_attenuator_target(0.3, 1.0), 0.0, "amplifier_first", "min_noise_last",
     (1.0, 4.666666666666666, 0.3, 0.7)),
    (_amplifier_target(1.05, 0.01), 4.312083908253085, "direct", "", None),
    (_amplifier_target(1.5, 0.1), 1.1600120651796073, "direct", "", None),
    # tau >= 1 reads the target's own rows: log2(0.52 / 0.48) up to rounding
    (_amplifier_target(1.6, 0.8), 0.11547721741993558, "direct", "", None),
    (_attenuator_target(0.8, 0.0), 2.0000000000000004, "direct", "", None),  # pure loss
    # zero capacity: the direct bound is already 0
    (_amplifier_target(2.0, 1.0), 0.0, "direct", "", None),
    # g - 1 below 1e-10: the report's combined, where rounding tau to 1
    # (additive noise) raised (y <= 1e-10) or read 6e-6 bits below it
    (_amplifier_target(1.0 + 1e-12, 0.5), 38.4855651368402, "direct", "", None),
    (_amplifier_target(1.0 + 1e-11, 100.0), 28.447468145390193, "direct", "", None),
]


@pytest.mark.parametrize("target, value, kind, allocation, stages", _PINNED_DECOMPOSITIONS)
def test_combined_bound_pinned_outputs(target, value, kind, allocation, stages):
    _assert_decomposition(combined_decomposition_bound(target), value, kind, allocation, stages)


def _assert_decomposition(result, ceiling, kind, allocation, stages):
    witness = result.witness
    assert result.value <= ceiling + 1e-11
    assert (witness.kind, witness.allocation) == (kind, allocation)
    if stages is None:
        assert witness.stage1 is None and witness.stage2 is None
        assert result.value == ceiling  # the direct bounds are unchanged
    else:
        s1, s2 = witness.stage1, witness.stage2
        assert (s1.tau, s1.y, s2.tau, s2.y) == stages
        assert result.value == _stages_bound(*stages)


def _random_targets(seed, count):
    rng = np.random.default_rng(seed)
    targets = []
    for _ in range(count):
        N = 10.0 ** rng.uniform(-3.0, 1.0)
        targets.append(_attenuator_target(rng.uniform(0.05, 0.99), N))
        targets.append(_amplifier_target(10.0 ** rng.uniform(0.005, 1.0), N))
    return targets


# (ceiling, kind, allocation, stages) at a non-default grid or a near
# entanglement-breaking target, as in _PINNED_DECOMPOSITIONS; the ceilings are
# the 2-gain grid scan's values. `grid` no longer steers the scan, so the
# stages are those of the default grid.
_PINNED_EDGE_DECOMPOSITIONS = [
    # 1 + tau - y = 1e-13: the direct bound is already 0
    (PhaseInsensitiveParams(0.7, 1.7 - 1e-13), 200, 0.0, "direct", "", None),
    (_attenuator_target(0.69, 0.05), 2, 1.0446881690278007, "amplifier_first", "min_noise_first",
     (1.0155563298919699, 0.015556329891969867, 0.6794305541607908, 0.3304305541607909)),
    (_amplifier_target(1.6, 0.8), 2, 0.11547721741993558, "direct", "", None),
]


@pytest.mark.parametrize(
    "target, grid, value, kind, allocation, stages", _PINNED_EDGE_DECOMPOSITIONS
)
def test_combined_bound_pinned_edge_outputs(target, grid, value, kind, allocation, stages):
    result = combined_decomposition_bound(target, grid=grid)
    _assert_decomposition(result, value, kind, allocation, stages)


# The scan's output bit for bit: value.hex(), witness kind and allocation,
# and the stages' (tau, y) as hex. Any change to the scan's arithmetic or to
# the order of its comparisons shows here.
_FROZEN_SCANS = [
    (_attenuator_target(0.893, 0.558), "0x1.d9606e94b8404p+0", "direct", "", None),
    (_amplifier_target(1.317, 0.389), "0x1.0559e23233c5dp+0", "direct", "", None),
    (PhaseInsensitiveParams(1.0, 0.5), "0x1.9323c5dbeb768p-1", "direct", "", None),  # additive
    (_attenuator_target(0.546, 0.199), "0x0.0p+0", "direct", "", None),  # direct bound 0
    # min_noise_first won without a golden search
    (_attenuator_target(0.542, 0.051), "0x1.b8d8f2f7991f1p-4", "amplifier_first", "min_noise_first",
     ("0x1.0b8788e5a71d7p+0", "0x1.70f11cb4e3ae0p-5", "0x1.098b71b8aa002p-1", "0x1.ece91c8eabffep-2")),
    # once min_noise_first, up to 1.5e-13 relative lower; tau >= 1 reads its own rows
    (_amplifier_target(2.669, 0.29), "0x1.7a161ea4086c6p-4", "direct", "", None),
    # min_noise_first at the minimum of a golden-searched attenuator row
    (_attenuator_target(0.692, 0.355), "0x1.ecfad4d892e82p-2", "amplifier_first", "min_noise_first",
     ("0x1.3008facc789b3p+0", "0x1.8047d663c4d98p-3", "0x1.2a53abd7d6105p-1", "0x1.ab5db24a2c6a3p-2")),
    (_attenuator_target(0.683, 0.019), "0x1.0f70f4050722fp+0", "amplifier_first", "min_noise_first",
     ("0x1.003d2f2604772p+0", "0x1.e9793023b9000p-11", "0x1.5d5ead26cfd4cp-1", "0x1.504a6f74785b3p-2")),
    # once min_noise_first, up to 1.5e-13 relative lower; tau >= 1 reads its own rows
    (_amplifier_target(1.344, 1.353), "0x1.99325aa8e1a20p-3", "direct", "", None),
    (_amplifier_target(6.402, 0.092), "0x1.1d295ff72270ep-6", "direct", "", None),
    # min_noise_last at G = 1: additive noise, then the target's pure loss
    (_attenuator_target(0.919, 3.836), "0x1.f64d546eb6047p-2", "amplifier_first", "min_noise_last",
     ("0x1.0000000000000p+0", "0x1.5a377c44b352bp-1", "0x1.d6872b020c49cp-1", "0x1.4bc6a7ef9db20p-4")),
    (_attenuator_target(0.862, 7.393), "0x0.0p+0", "amplifier_first", "min_noise_last",
     ("0x1.0000000000000p+0", "0x1.2efe3088c62abp+1", "0x1.b95810624dd2fp-1", "0x1.1a9fbe76c8b44p-3")),
]


@pytest.mark.parametrize("target, value, kind, allocation, stages", _FROZEN_SCANS)
def test_decomposition_scan_frozen_bits(target, value, kind, allocation, stages):
    result = combined_decomposition_bound(target)
    witness = result.witness
    assert (result.value.hex(), witness.kind, witness.allocation) == (value, kind, allocation)
    if stages is None:
        assert witness.stage1 is None and witness.stage2 is None
    else:
        s1, s2 = witness.stage1, witness.stage2
        assert tuple(x.hex() for x in (s1.tau, s1.y, s2.tau, s2.y)) == stages


@pytest.mark.parametrize(
    "target, error, message",
    [
        (PhaseInsensitiveParams(1.0, 0.0), InfeasibleDecompositionError,
         "target admits no finite direct bound; is it the identity?"),
        # an attenuator whose N = (y / (1 - eta) - 1) / 2 overflows
        (PhaseInsensitiveParams(0.5, 0.5 + 9e307), ParamDomainError, "N must be finite, got inf"),
    ],
)
def test_decomposition_scan_frozen_errors(target, error, message):
    with pytest.raises(error) as info:
        combined_decomposition_bound(target)
    assert str(info.value) == message


def test_stages_bound_off_domain_is_inf():
    # The second stage is an attenuator whose N log2(eta) overflows: off its
    # family's domain, so the candidate reads inf and the scan passes it by.
    assert _stages_bound(2.0, 1.0, 1e-300, 1e308) == math.inf


def test_direct_upper_bound_skips_the_lower_row(monkeypatch):
    # At an attenuator with eta > 1/2 the upper rows call the entropy kernel
    # 3 times (plob 1, extension 2); the report adds the lower row's 1.
    calls = []

    def counted(x):
        calls.append(x)
        return bosonic_entropy(x)

    monkeypatch.setattr("gausscap.bounds.bosonic_entropy", counted)
    eta, N = 0.8, 0.5
    _direct_upper_bound(eta, (1.0 - eta) * (2.0 * N + 1.0))
    assert len(calls) == 3
    calls.clear()
    bounds_attenuator(eta, N)
    assert len(calls) == 4


_KINDS = ("amplifier_first", "amplifier_last")
_ALLOCATIONS = ("min_noise_first", "min_noise_last")


# The scan searches amplifier_first only. amplifier_last, attenuator tau / G
# then amplifier G, is kept here as a reference: its gains end at the CP
# limit (1 + tau + y) / 2, and `_pair` splits its noise by `_stage_pair`'s
# rule: a stage's noise is never below its |1 - tau|.
def _interval(target, kind):
    if kind == "amplifier_first":
        return _gain_interval(target)
    start = max(1.0, target.tau)
    end = (1.0 + target.tau + target.y) / 2.0
    return start, max(start, min(end, DECOMPOSITION_GAIN_MAX * start))


def _split(target, gain, kind, allocation):
    """Stages (tau1, y1, tau2, y2) of a split, by `_stage_pair`'s arithmetic
    and unchecked."""
    tau1, tau2 = (gain, target.tau / gain) if kind == "amplifier_first" else (target.tau / gain, gain)
    if allocation == "min_noise_first":
        y1 = abs(1.0 - tau1)
        return tau1, y1, tau2, target.y - tau2 * y1
    y2 = abs(1.0 - tau2)
    return tau1, (target.y - y2) / tau2, tau2, y2


def _cp_miss(target, gain, kind, allocation):
    """How far a split's noise falls below |1 - tau| at its worse stage; a
    split is CP where this is at most 0."""
    tau1, y1, tau2, y2 = _split(target, gain, kind, allocation)
    return max(abs(1.0 - tau1) - y1, abs(1.0 - tau2) - y2)


def _pair(target, gain, kind, allocation):
    if kind == "amplifier_first":
        return _stage_pair(target, gain, allocation)
    stages = _split(target, gain, kind, allocation)
    return None if _cp_miss(target, gain, kind, allocation) > 0.0 else stages


def _assert_gain_interval(target, kind, limit):
    """The scan's gains for `kind` are [max(1, tau), G_max], with G_max the
    closed-form CP limit `limit` unless DECOMPOSITION_GAIN_MAX x the start cuts
    it short; `_stage_pair` agrees in both allocations: an exact CP pair at
    the start, at 398 log-spaced gains inside and just below G_max, so the
    golden searches inside the interval never leave it; at G_max an exact
    pair, or a split whose noise misses |1 - tau| by rounding (CP_SLACK) at
    most; none just above an uncapped G_max."""
    lo, hi = _interval(target, kind)
    assert lo == max(1.0, target.tau)
    cap = DECOMPOSITION_GAIN_MAX * lo
    assert hi == pytest.approx(min(limit, cap), rel=1e-12)
    for allocation in _ALLOCATIONS:
        for gain in np.geomspace(lo, hi, 400).tolist()[:-1] + [lo, hi * (1.0 - 1e-9)]:
            assert _pair(target, gain, kind, allocation) is not None, (gain, allocation)
        if _pair(target, hi, kind, allocation) is None:
            assert 0.0 < _cp_miss(target, hi, kind, allocation) <= CP_SLACK, allocation
        above = _pair(target, hi * (1.0 + 1e-9), kind, allocation)
        assert (above is not None) == (limit > cap * (1.0 + 1e-9)), allocation


@pytest.mark.parametrize("target", _random_targets(7, 20))
def test_gain_limits_match_the_cp_test(target):
    # The closed-form ends of the scan's gains, amplifier_first
    # G <= 2 tau / (1 + tau - y) and amplifier_last G <= (1 + tau + y) / 2,
    # match the CP test of `_stage_pair` for both noise allocations.
    tau, y = target.tau, target.y
    excess = 1.0 + tau - y
    _assert_gain_interval(target, "amplifier_first", 2.0 * tau / excess if excess > 0.0 else math.inf)
    _assert_gain_interval(target, "amplifier_last", (1.0 + tau + y) / 2.0)


def test_gain_limits_of_an_attenuator():
    # For an attenuator (eta, N) the limits are eta / t, with rosati's
    # transmissivity t = eta - N(1 - eta), and 1 + N(1 - eta); with t < 0
    # every gain of amplifier_first is feasible, so the cap ends its gains.
    eta, N = 0.7, 0.3
    t = eta - N * (1.0 - eta)
    target = _attenuator_target(eta, N)
    _assert_gain_interval(target, "amplifier_first", eta / t)
    _assert_gain_interval(target, "amplifier_last", 1.0 + N * (1.0 - eta))
    hot = _attenuator_target(0.3, 1.0)  # t < 0
    _assert_gain_interval(hot, "amplifier_first", math.inf)
    assert _gain_interval(hot) == (1.0, DECOMPOSITION_GAIN_MAX)


@given(
    tau=st.floats(0.05, 20.0),
    sign=st.sampled_from([1.0, -1.0]),
    exponent=st.floats(-15.0, -1.0),
    near=st.sampled_from([1.0, -1.0]),
    offset=st.floats(-15.0, -1.0),
)
def test_stage_pairs_follow_the_one_cp_rule(tau, sign, exponent, near, offset):
    # 1 + tau - y = +-10^exponent. The gains are the ends of the scan's
    # closed-form gain intervals and the CP limits of both stage orders moved
    # by a relative +-10^offset, where the noise sits within rounding of the
    # limit and a little beyond. Each returned pair constructs as
    # PhaseInsensitiveParams and keeps every noise at or above its
    # |1 - tau|; each rejected one has a noise below it, with no slack. The
    # interval's start always has a pair, its end one or a split that misses
    # by rounding (CP_SLACK) at most.
    target = PhaseInsensitiveParams(tau, 1.0 + tau - sign * 10.0**exponent)
    limits = [(1.0 + tau + target.y) / 2.0]
    excess = 1.0 + tau - target.y
    if excess > 0.0:
        limits.append(2.0 * tau / excess)
    nearby = [limit * (1.0 + near * 10.0**offset) for limit in limits]
    ends = [gain for kind in _KINDS for gain in _interval(target, kind)]
    for gain in ends + nearby:
        for kind in _KINDS:
            lo, hi = _interval(target, kind)
            for allocation in _ALLOCATIONS:
                stages = _pair(target, gain, kind, allocation)
                miss = _cp_miss(target, gain, kind, allocation)
                if stages is not None:
                    assert miss <= 0.0, (gain, kind, allocation)
                    PhaseInsensitiveParams(*stages[:2])
                    PhaseInsensitiveParams(*stages[2:])
                else:
                    assert miss > 0.0, (gain, kind, allocation)
                if gain == lo:
                    assert stages is not None, (gain, kind, allocation)
                elif gain == hi:
                    assert stages is not None or miss <= CP_SLACK, (gain, kind, allocation)


def _dense_decomposition(target, points=2000):
    """Best candidate of a dense scan: `points` log-spaced gains per stage
    order, the scan's and the reference's, over its closed-form gains, both
    ends included, both allocations, and the direct bounds."""
    best = _direct_upper_bound(target.tau, target.y)
    for kind in _KINDS:
        for gain in np.geomspace(*_interval(target, kind), points).tolist():
            for allocation in _ALLOCATIONS:
                stages = _pair(target, gain, kind, allocation)
                if stages is not None:
                    best = min(best, _stages_bound(*stages))
    return best


# The fig3-inset defaults, the point (0.95, 5) where the grid scan gave 0.73320
# but the first gain, G = 1, gives 0.73291, and seeded attenuators and amplifiers.
_SCAN_TARGETS = (
    [_attenuator_target(0.60 + 0.0025 * i, 0.05) for i in range(81)]
    + [_attenuator_target(0.95, 5.0)]
    + _random_targets(11, 8)
)


@pytest.mark.parametrize("target", _SCAN_TARGETS)
def test_decomposition_scan_is_exact(target):
    result = combined_decomposition_bound(target)
    assert result.value <= _dense_decomposition(target) + 1e-9
    family, args = phase_insensitive_family(target)
    assert result.value <= bounds_report(family, **dict(zip(FAMILIES[family].params, args))).combined
    _assert_composes(result.witness, target)


def _assert_composes(witness, target):
    if witness.kind != "direct":
        composed = witness.stage1.then(witness.stage2)
        assert composed.tau == pytest.approx(target.tau, rel=1e-12)
        assert composed.y == pytest.approx(target.y, rel=1e-12)


def _scan_target(point):
    """The target at `point` and its report's combined, or None where the
    point is the identity or outside its family's domain."""
    family, args = _family_of(*point)
    if family == "identity":
        return None
    try:
        report = bounds_report(family, **dict(zip(FAMILIES[family].params, args)))
    except ParamDomainError:
        return None
    return PhaseInsensitiveParams(*point), report.combined


@given(_POINTS)
@example((1e-10, (1.0 - 1e-10) * (2e298 + 1.0)))  # y1 overflows at G = 1
@example((2.44e-83, (1.0 - 2.44e-83) * (2.0 * 4.82e222 + 1.0)))  # a stage's N overflows
@example((5e-324, 3.0))  # tau / G underflows to 0
def test_decomposition_scan_computes_wherever_the_report_does(point):
    # A candidate with a stage outside its family's domain reads inf, as a
    # split that is not CP does; it never makes the scan raise, near tau = 1
    # too, where the target and its stages read their family by exact tau.
    checked = _scan_target(point)
    if checked is None:
        return
    target, combined = checked
    result = combined_decomposition_bound(target)
    assert 0.0 <= result.value <= combined < math.inf
    _assert_composes(result.witness, target)


@settings(deadline=None)
@given(_POINTS)
@example((0.696, 0.304 * 1.4))
@example((1.0 - 1e-15, 1e-15 * 3.0))
def test_decomposition_scan_not_above_the_two_order_reference(point):
    # The scan's one stage order is never beaten by a dense scan of both,
    # wherever its G = 1 split, additive noise (y - 1 + tau) / tau then pure
    # loss tau, has a finite noise. Where that noise overflows, the same
    # channel split the other way, pure loss then additive noise y - 1 + tau,
    # still exists, and the reference can read less than the scan.
    checked = _scan_target(point)
    if checked is not None and (point[1] - 1.0 + point[0]) / point[0] < math.inf:
        value = combined_decomposition_bound(checked[0]).value
        assert value <= _dense_decomposition(checked[0], points=50) + 1e-9


_ADDITIVE = st.floats(-300.0, 300.0).map(lambda e: (1.0, 2.0 / 10.0**e))  # y = 2/beta


@given(st.one_of(st.builds(_amplifier_point, st.floats(-16.0, 6.0), _PHOTONS), _ADDITIVE))
@example((1.0 + 1e-12, 1e-12 * 2.0))  # rounding tau to 1 read the identity here
@example((1.0 + 1e-11, 1e-11 * 201.0))  # and additive noise 6e-6 bits below the report
@example((1.0 + 1e6, 1e6 * (2.0 * 1e300 + 1.0)))  # 2N + 1 is finite, y / (tau - 1) overflows
def test_decomposition_scan_at_tau_one_and_above_is_the_own_report(point):
    # At tau >= 1 the scan returns the report's combined of the target's own
    # family, tau classified exactly, bit for bit, or raises its domain error.
    tau, y = point
    if not math.isfinite(y):
        return  # no such target
    target = PhaseInsensitiveParams(tau, y)
    family, args = _family_of(tau, y)
    try:
        expected = bounds_report(family, **dict(zip(FAMILIES[family].params, args))).combined
    except ParamDomainError as exc:
        with pytest.raises(ParamDomainError, match=re.escape(str(exc))):
            combined_decomposition_bound(target)
        return
    result = combined_decomposition_bound(target)
    assert (result.value, result.witness) == (expected, DecompositionWitness("direct"))


@given(st.floats(-16.0, 6.0))
@example(math.log10(1.24e-10))  # rounding tau to 1 read 2.6e-6 bits below the capacity
@example(-12.0)  # and the identity here
def test_decomposition_scan_not_below_the_quantum_limited_amplifier_capacity(log_excess):
    # The quantum-limited amplifier's capacity is its lower bound
    # log2(g / (g - 1)) (Wolf, Perez-Garcia & Giedke, PRL 98, 130501 (2007)):
    # no upper bound may read below it.
    g = 1.0 + 10.0**log_excess
    if g == 1.0:
        return  # the identity
    lower = bounds_amplifier(g, 0.0).lower.raw
    value = combined_decomposition_bound(PhaseInsensitiveParams(g, g - 1.0)).value
    assert value >= lower - 1e-12 * max(1.0, lower)


@given(st.floats(-16.0, math.log10(0.5)).map(lambda e: 10.0**e))
@example(1.0598666990070718e-10)  # rounding clamped splits read 9.1e-8 relative below it
@example(1e-11)  # and rounding tau to 1 raised here
def test_decomposition_scan_not_below_the_pure_loss_capacity(loss):
    # Pure loss with eta >= 1/2 has capacity log2(eta / (1 - eta)) (Wolf,
    # Perez-Garcia & Giedke, PRL 98, 130501 (2007)): the scan computes at
    # every such eta below 1, and never reads below that capacity.
    eta = 1.0 - loss
    if eta == 1.0:
        return  # the identity
    capacity = math.log2(eta / (1.0 - eta))
    value = combined_decomposition_bound(PhaseInsensitiveParams(eta, 1.0 - eta)).value
    assert value >= capacity - 1e-12 * max(1.0, capacity)


@settings(deadline=None)
@given(st.one_of(
    st.builds(_amplifier_point, st.floats(-16.0, 6.0), st.floats(-3.0, 300.0).map(lambda e: 10.0**e)),
    _ADDITIVE,
))
def test_two_stage_splits_gain_nothing_at_tau_one_and_above(point):
    # The census behind reading tau >= 1 from the own rows: no candidate of
    # the dense two-order scan beats the target's direct bound by more than
    # rounding, down to g - 1 = 1e-16.
    checked = _scan_target(point)
    if checked is not None:
        value = combined_decomposition_bound(checked[0]).value
        assert _dense_decomposition(checked[0], points=400) >= value - 1e-12 * max(1.0, value)


def test_decomposition_scan_reaches_the_first_gain():
    # At (0.95, 5) the minimum sits at G = 1: additive noise, then pure loss.
    result = combined_decomposition_bound(_attenuator_target(0.95, 5.0))
    assert result.value == pytest.approx(0.7329077148643792, abs=1e-12)
    assert (result.witness.stage1.tau, result.witness.stage2.y) == (1.0, pytest.approx(0.05))


def test_closed_form_domain_errors():
    with pytest.raises(ParamDomainError):
        additive_plob(-1.0)
    with pytest.raises(ParamDomainError):
        amplifier_plob(1.0, 0.0)
    with pytest.raises(ParamDomainError):
        attenuator_plob(1.0, 0.0)
    with pytest.raises(ParamDomainError):
        beta_tilde(2.0, 0.0)
