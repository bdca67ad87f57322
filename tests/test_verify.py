import cmath
import math

import numpy as np
import pytest

from gausscap import channels, verify
from gausscap.channels import GaussianChannel
from gausscap.symplectic import CHECK_GAUGE_TOL
from gausscap.verify import (
    _FLAG_SAMPLES,
    _GAUGE_SAMPLES,
    DEFAULT_SEED,
    check_classical_mixing_representation,
    check_extended_attenuator_degradability,
    check_flag_condition,
    check_gauge_covariance,
    check_spectrum_asymptotics,
    reference_flagged_thermal_cov,
    run_all_checks,
    suite_entries,
)

from reference_covs import reference_flagged_joint_cov


# Each outcome of the suite as frozen before the flag-condition and
# gauge-covariance sample counts became constants: (name, passed, applicable,
# tolerance, samples). Residuals are left out, since they depend on the BLAS
# build.
@pytest.mark.parametrize("gamma, flag_passes", [(1.0, True), (2.0, False)])
def test_suite_outcomes_frozen(gamma, flag_passes):
    expected = [
        ("classical_mixing_representation(beta=1, M=2)", True, True, 1e-12, 1),
        ("classical_mixing_representation(beta=2, M=1)", True, True, 1e-12, 1),
        # 1e-12 x the largest compared entry, (1 - 0.51)(2N + 1) + ... = 2.55
        ("extended_attenuator_degradability(eta=0.51, N=2)", True, True,
         pytest.approx(2.55e-12, rel=1e-12), 1),
        ("extended_attenuator_degradability(eta=0.8, N=0.05)", True, True, 1e-12, 1),
        (f"flag_condition(gamma={gamma:g}, beta~U[0.25,4])", flag_passes, True, 1e-12, 1000),
        ("gauge_covariance(extended_attenuator)", True, True, 1e-10, 20),
        ("gauge_covariance(flagged_additive)", True, True, 1e-10, 20),
        ("spectrum_asymptotics(attenuator, eta=0.8, N=0.05)", True, True, 1e-05, 4),
        ("spectrum_asymptotics(flagged, beta=1)", True, True, 1e-05, 4),
    ]
    outcomes = run_all_checks(DEFAULT_SEED, gamma)
    assert [(o.name, o.passed, o.applicable, o.tolerance, o.samples) for o in outcomes] == expected


def test_full_suite_passes_with_default_seed():
    outcomes = run_all_checks()
    assert all(o.passed for o in outcomes if o.applicable)
    assert len(outcomes) == 9


def test_suite_is_deterministic_and_name_ordered():
    a = run_all_checks(seed=123)
    b = run_all_checks(seed=123)
    assert [o.name for o in a] == [o.name for o in b]
    assert [o.max_residual for o in a] == [o.max_residual for o in b]
    assert [o.name for o in a] == sorted(o.name for o in a)


def test_suite_entries_names_match_outcomes():
    names = [name for name, _ in suite_entries()]
    assert names == [o.name for o in run_all_checks()]


def test_degradability_check():
    assert check_extended_attenuator_degradability(0.8, 0.05).passed
    assert check_extended_attenuator_degradability(0.51, 2.0).passed
    low = check_extended_attenuator_degradability(0.4, 0.1)
    assert not low.applicable


def test_degradability_random_parameters():
    rng = np.random.default_rng(2)
    for _ in range(20):
        eta = rng.uniform(0.5001, 0.999)
        N = rng.uniform(0.0, 3.0)
        outcome = check_extended_attenuator_degradability(eta, N)
        assert outcome.passed, outcome.details


# Residuals of a correct structure that pass 1e-12 absolute; the tolerance
# scales with the largest compared entry, which grows like N.
_LARGE_N_POINTS = [(0.6, 1e4), (0.99, 1e4), (0.99, 1e6), (0.6, 1e10), (0.6, 1e8)]


@pytest.mark.parametrize("eta, N", _LARGE_N_POINTS)
def test_degradability_check_is_scale_aware(eta, N):
    outcome = check_extended_attenuator_degradability(eta, N)
    assert outcome.passed, outcome.details
    assert outcome.tolerance > 1e-12


@pytest.mark.parametrize("eta, N", _LARGE_N_POINTS + [(0.8, 0.05), (0.51, 2.0)])
def test_degradability_check_fails_a_broken_structure(monkeypatch, eta, N):
    pair = verify.extended_attenuator_pair

    def scaled_degrading(e, n):  # the (1 - eta)/eta stage, scaled by 1 + 1e-6
        return pair(e * (1.0 + 1e-6) if e == (1.0 - eta) / eta else e, n)

    monkeypatch.setattr(verify, "extended_attenuator_pair", scaled_degrading)
    outcome = check_extended_attenuator_degradability(eta, N)
    assert not outcome.passed, outcome.details
    assert outcome.max_residual > 1e3 * outcome.tolerance


def test_flag_condition_gamma_one_passes():
    outcome = check_flag_condition()
    assert outcome.passed
    assert outcome.max_residual <= 1e-12


def test_flag_condition_symmetric_labels_any_gamma():
    # with r = r' both sides coincide regardless of the rescaling factor
    import math

    from gausscap.verify import _flag_overlap

    rng = np.random.default_rng(8)
    for gamma in (0.5, 1.0, 2.0):
        r = rng.normal(size=2)
        beta = 1.7
        lhs = _flag_overlap(gamma, r, r, beta) * math.exp(-beta * float(r @ r) / 4)
        rhs = _flag_overlap(gamma, r, r, beta) * math.exp(-beta * float(r @ r) / 4)
        assert abs(lhs - rhs) == 0.0


@pytest.mark.parametrize("gamma", [0.5, 2.0])
def test_flag_condition_fails_away_from_unit_gamma(gamma):
    outcome = check_flag_condition(gamma=gamma)
    assert not outcome.passed
    assert outcome.max_residual > 0.1


def reference_flag_residual(gamma: float, seed: int) -> float:
    """The flag condition sample by sample on Python complex numbers, on the
    batch draws of check_flag_condition: the largest |lhs - rhs|."""
    rng = np.random.default_rng(seed)
    betas = rng.uniform(0.25, 4.0, _FLAG_SAMPLES).tolist()
    labels = rng.normal(size=(_FLAG_SAMPLES, 2)).tolist()
    primed = rng.normal(size=(_FLAG_SAMPLES, 2)).tolist()

    def overlap(bra, flag, beta):
        (a, b), (x, p) = bra, flag
        return math.sqrt(beta / (2 * math.pi)) * cmath.exp(
            -beta * gamma**2 * (a * a + b * b) / 4 - gamma * (1j * b * x - 1j * a * p) / 2
        )

    worst = 0.0
    for beta, r, rp in zip(betas, labels, primed):
        weyl = cmath.exp(-1j * (rp[0] * r[1] - rp[1] * r[0]))
        lhs = overlap(rp, r, beta) * math.exp(-beta * (r[0] ** 2 + r[1] ** 2) / 4) * weyl
        rhs = overlap(r, rp, beta) * math.exp(-beta * (rp[0] ** 2 + rp[1] ** 2) / 4)
        worst = max(worst, abs(lhs - rhs))
    return worst


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 7])
@pytest.mark.parametrize("gamma", [1.0, 0.5, 2.0])
def test_flag_condition_matches_the_per_sample_reference(gamma, seed):
    stacked = check_flag_condition(gamma=gamma, seed=seed).max_residual
    reference = reference_flag_residual(gamma, seed)
    if gamma == 1.0:
        assert abs(stacked - reference) <= 1e-15
    else:
        assert stacked == pytest.approx(reference, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("family", ["flagged_additive", "extended_attenuator"])
def test_gauge_covariance_fails_without_the_output_rotation(monkeypatch, family):
    rotation = verify.gauge_rotation

    def input_only(theta, pattern="single"):
        R = rotation(theta, pattern)
        return R if pattern == "single" else np.eye(len(R))

    monkeypatch.setattr(verify, "gauge_rotation", input_only)
    outcome = check_gauge_covariance(family)
    assert not outcome.passed
    assert outcome.max_residual > CHECK_GAUGE_TOL


@pytest.mark.parametrize(
    "family, constructor",
    [("flagged_additive", "flagged_additive_noise"), ("extended_attenuator", "extended_attenuator")],
)
def test_gauge_covariance_builds_each_channel_publicly(monkeypatch, family, constructor):
    public, built = getattr(verify, constructor), []

    def counted(*params):
        built.append(public(*params))
        return built[-1]

    monkeypatch.setattr(verify, constructor, counted)
    assert check_gauge_covariance(family).passed
    assert len(built) == _GAUGE_SAMPLES
    assert {channel.family for channel in built} == {family}


@pytest.mark.parametrize("slot", [0, _GAUGE_SAMPLES - 1])
@pytest.mark.parametrize(
    "family, constructor",
    [("flagged_additive", "flagged_additive_noise"), ("extended_attenuator", "extended_attenuator")],
)
def test_gauge_covariance_sees_each_sampled_channel(monkeypatch, family, constructor, slot):
    # A squeezer ahead of one sampled channel keeps it CP but breaks phase covariance.
    public, built = getattr(verify, constructor), []

    def one_squeezed(*params):
        channel = public(*params)
        if len(built) == slot:
            channel = GaussianChannel(channel.X @ np.diag([2.0, 0.5]), channel.Y)
        built.append(channel)
        return channel

    monkeypatch.setattr(verify, constructor, one_squeezed)
    assert not check_gauge_covariance(family).passed


@pytest.mark.parametrize("family", ["flagged_additive", "extended_attenuator"])
def test_gauge_covariance_checks_every_covariance_as_a_state(monkeypatch, family):
    # Input and rotated input in verify, both output stacks in channels._outputs.
    checked = []
    for module in (verify, channels):
        def counted(V, physical=module._physical):
            checked.append(len(V))
            return physical(V)

        monkeypatch.setattr(module, "_physical", counted)
    assert check_gauge_covariance(family).passed
    assert checked == [_GAUGE_SAMPLES] * 4


def test_gauge_covariance_checks():
    assert check_gauge_covariance("flagged_additive").passed
    assert check_gauge_covariance("extended_attenuator").passed
    with pytest.raises(ValueError):
        check_gauge_covariance("additive")


def test_classical_mixing_representation():
    for beta, M in [(1.0, 2.0), (2.0, 1.0), (0.7, 0.0)]:
        outcome = check_classical_mixing_representation(beta, M=M)
        assert outcome.passed, outcome.details


def test_spectrum_asymptotics_flagged():
    outcome = check_spectrum_asymptotics(beta=1.0)
    assert outcome.passed, outcome.details
    assert "unit-eigenvalue" in outcome.details


def test_spectrum_asymptotics_attenuator():
    outcome = check_spectrum_asymptotics(eta=0.8, N=0.05)
    assert outcome.passed, outcome.details


def test_spectrum_asymptotics_argument_validation():
    with pytest.raises(ValueError):
        check_spectrum_asymptotics()
    with pytest.raises(ValueError):
        check_spectrum_asymptotics(beta=1.0, eta=0.5)


def test_reference_matrices_consistent():
    ref6 = reference_flagged_thermal_cov(2.0, 3.0)
    ref8 = reference_flagged_joint_cov(2.0, 3.0)
    assert np.allclose(ref8[:6, :6], ref6)
    assert np.allclose(ref6, ref6.T)
    assert ref8[0, 6] == 2.0 * np.sqrt(3.0 * 4.0)


def test_outcome_summary_line_format():
    outcome = check_flag_condition()
    line = outcome.summary_line()
    assert "PASS" in line and "flag_condition" in line
    assert "(tol 1e-12, 1000 samples)" in line
    na = check_extended_attenuator_degradability(0.3, 0.1)
    assert na.summary_line().startswith("N/A")
    # a tolerance scaled to the channel prints its three digits, not one
    scaled = check_extended_attenuator_degradability(0.51, 2.0)
    assert scaled.tolerance == pytest.approx(2.55e-12, rel=1e-12)
    assert "(tol 2.55e-12, 1 samples)" in scaled.summary_line()


def test_seed_changes_samples_not_verdict():
    a = check_flag_condition(seed=DEFAULT_SEED)
    b = check_flag_condition(seed=DEFAULT_SEED + 1)
    assert a.passed and b.passed
