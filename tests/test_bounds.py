import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from gausscap.bounds import (
    FAMILIES,
    MAX_GRID_POINTS,
    InfeasibleDecompositionError,
    OracleDivergedError,
    additive_flagged_extension,
    additive_lower,
    additive_naj,
    additive_plob,
    amplifier_flagged_extension,
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
from gausscap.bounds import _direct_upper_bound
from gausscap.channels import (
    ParamDomainError,
    PhaseInsensitiveParams,
    complementary,
    extended_attenuator,
    flagged_additive_noise,
    from_phase_insensitive,
    identity_channel,
    phase_insensitive_family,
)
from gausscap.symplectic import bosonic_entropy


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


@pytest.mark.parametrize(
    "tau, y, family",
    [
        (0.7, 0.3 * 1.1, "attenuator"),
        (1.5, 0.5 * 2.0, "amplifier"),
        (1.0, 0.5, "additive"),
        (1.0 - 5e-11, 0.5, "additive"),
        (1.0 + 5e-11, 0.5, "additive"),
    ],
)
def test_decomposition_and_channels_agree_on_family(tau, y, family):
    target = PhaseInsensitiveParams(tau, y)
    name, args = phase_insensitive_family(target)
    assert name == family
    assert from_phase_insensitive(target).family == family
    params = dict(zip(FAMILIES[family].params, args))
    assert _direct_upper_bound(target) == bounds_report(family, **params).combined


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
        bounds_amplifier(1e200, 1e200)  # (g - 1) N overflows
    with pytest.raises(ParamDomainError, match=r"g=1\.0000001, N=1e-310"):
        amplifier_plob(1.0000001, 1e-310)  # beta_tilde overflows


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


@pytest.mark.parametrize("M", [math.nan, math.inf])
def test_oracle_rejects_non_finite_probe_energy(M):
    with pytest.raises(ParamDomainError, match="M must be finite"):
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


def test_closed_form_domain_errors():
    with pytest.raises(ParamDomainError):
        additive_plob(-1.0)
    with pytest.raises(ParamDomainError):
        amplifier_plob(1.0, 0.0)
    with pytest.raises(ParamDomainError):
        attenuator_plob(1.0, 0.0)
    with pytest.raises(ParamDomainError):
        beta_tilde(2.0, 0.0)
