import math
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from gausscap.bounds import coherent_info_thermal
from gausscap.channels import (
    CPViolationError,
    DimensionMismatchError,
    GaussianChannel,
    NoKnownComplementError,
    NotPhaseInsensitiveError,
    ParamDomainError,
    PhaseInsensitiveParams,
    additive_noise,
    amplifier,
    apply,
    attenuator,
    classical_mixing,
    complementary,
    compose,
    extended_attenuator,
    extended_attenuator_pair,
    flagged_additive_noise,
    flagged_mixing_matrix,
    from_phase_insensitive,
    identity_channel,
    tensor_with_identity,
    to_phase_insensitive,
)
from gausscap.symplectic import (
    GaussianState,
    gauge_rotation,
    thermal_state,
    two_mode_squeezed_state,
    vacuum_state,
)
from gausscap.verify import reference_flagged_thermal_cov

from reference_covs import (
    reference_extended_attenuator_thermal_cov,
    reference_flagged_joint_cov,
)


def test_attenuator_at_unit_transmissivity_is_identity():
    ch = attenuator(1.0, 5.0)
    assert np.allclose(ch.X, np.eye(2))
    assert np.allclose(ch.Y, np.zeros((2, 2)))


@pytest.mark.parametrize(
    "ch",
    [
        attenuator(0.3, 0.7),
        amplifier(2.5, 1.2),
        additive_noise(0.8),
        extended_attenuator(0.7, 0.4),
        extended_attenuator_pair(0.6, 1.0),
        flagged_additive_noise(2.0),
        classical_mixing(np.diag([0.5, 0.5])),
        identity_channel(2),
    ],
)
def test_all_constructors_pass_cp_certificate(ch):
    assert ch.cp_defect() >= -1e-10


def test_cp_violation_raises():
    with pytest.raises(CPViolationError):
        GaussianChannel(np.sqrt(0.5) * np.eye(2), np.zeros((2, 2)))
    with pytest.raises(ParamDomainError):
        classical_mixing(-0.1 * np.eye(2))


@pytest.mark.parametrize("beta", [1e-9, 1e-10, 1e-12])
def test_cp_certificate_slack_grows_with_the_noise_matrix(beta):
    # |Y|max ~ 2/beta, and the eigensolver's rounding grows with it: at
    # beta = 1e-9 the min eigenvalue is about -3e-7, far below -CP_TOL.
    assert flagged_additive_noise(beta).n_out == 3


def test_cp_certificate_still_rejects_real_deficits_at_large_scale():
    g = 2e9
    with pytest.raises(CPViolationError):  # 1e-3 less noise than the amplifier needs
        GaussianChannel(np.sqrt(g) * np.eye(2), (g - 1.0 - 1e-3) * np.eye(2))
    assert amplifier(g).cp_defect() > -1e-3  # the exact map at that scale is accepted


def test_param_domain_errors():
    with pytest.raises(ParamDomainError):
        attenuator(1.2, 0.0)
    with pytest.raises(ParamDomainError):
        amplifier(0.9, 0.0)
    with pytest.raises(ParamDomainError):
        additive_noise(0.0)
    with pytest.raises(ParamDomainError):
        extended_attenuator(0.5, -1.0)
    with pytest.raises(ParamDomainError, match=re.escape("need tau > 0, got 0.0")):
        PhaseInsensitiveParams(0.0, 1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "make, name",
    [
        (lambda v: attenuator(v, 0.1), "eta"),
        (lambda v: attenuator(0.5, v), "N"),
        (lambda v: amplifier(v, 0.1), "g"),
        (lambda v: amplifier(2.0, v), "N"),
        (additive_noise, "beta"),
        (lambda v: extended_attenuator_pair(v, 0.1), "eta"),
        (lambda v: extended_attenuator_pair(0.7, v), "N"),
        (lambda v: extended_attenuator(v, 0.1), "eta"),
        (lambda v: extended_attenuator(0.7, v), "N"),
        (flagged_mixing_matrix, "beta"),
        (flagged_additive_noise, "beta"),
    ],
)
def test_constructors_reject_non_finite_parameters(make, name, value):
    with pytest.raises(ParamDomainError, match=f"{name} must be finite"):
        make(value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_moment_maps_reject_non_finite_matrices(value):
    # Rejected before the CP eigensolve: a NaN defect never compares below
    # -CP_TOL, so the certificate alone would accept the map.
    bad = np.eye(2)
    bad[0, 0] = value
    with pytest.raises(ValueError, match="added-noise matrix Y must be finite"):
        GaussianChannel(np.eye(2), bad)
    with pytest.raises(ValueError, match="moment-map matrix X must be finite"):
        GaussianChannel(bad, np.eye(2))
    with pytest.raises(ValueError, match="mixing covariance Y must be finite"):
        classical_mixing(bad)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_phase_insensitive_params_reject_non_finite(value):
    with pytest.raises(ParamDomainError, match="tau must be finite"):
        PhaseInsensitiveParams(value, 0.5)
    with pytest.raises(ParamDomainError, match="y must be finite"):
        PhaseInsensitiveParams(0.8, value)


@pytest.mark.parametrize(
    "X, Y, match",
    [
        (np.eye(3), np.eye(3), re.escape("bad moment-map shapes X(3, 3), Y(3, 3)")),
        (np.eye(2), np.eye(4), "Y dimension must match the output side of X"),
    ],
)
def test_moment_maps_reject_bad_shapes(X, Y, match):
    with pytest.raises(ValueError, match=match):
        GaussianChannel(X, Y)


def test_asymmetric_noise_matrix_rejected():
    with pytest.raises(ValueError, match="added-noise matrix Y: asymmetry"):
        GaussianChannel(np.eye(2), np.array([[1.0, 0.1], [0.0, 1.0]]))


@pytest.mark.parametrize(
    "make, args, named",
    [
        (amplifier, (1e200, 1e200), r"g=1e\+200, N=1e\+200"),  # (g - 1)(2N + 1)
        (attenuator, (0.5, 1e308), r"eta=0\.5, N=1e\+308"),  # (1 - eta)(2N + 1)
        (additive_noise, (1e-310,), "beta=1e-310"),  # 2/beta
        (flagged_additive_noise, (1e-309,), "beta=1e-309"),  # 2/beta
        (flagged_mixing_matrix, (1e-309,), "beta=1e-309"),
        (extended_attenuator, (0.8, 1e308), r"eta=0\.8, N=1e\+308"),  # N(N + 1)
        (extended_attenuator_pair, (0.8, 1e200), r"eta=0\.8, N=1e\+200"),
    ],
)
def test_constructors_reject_overflowing_terms(make, args, named):
    # Finite parameters whose noise or mixing term overflows are named before
    # any matrix holds inf or NaN (RuntimeWarnings are errors under pytest).
    with pytest.raises(ParamDomainError, match=f"finite, got {named}$"):
        make(*args)


@pytest.mark.parametrize("beta,M", [(1.0, 1.0), (2.0, 3.0)])
def test_flagged_channel_reproduces_reference_thermal_output(beta, M):
    out = apply(flagged_additive_noise(beta), thermal_state(M))
    assert np.abs(out.cov - reference_flagged_thermal_cov(beta, M)).max() <= 1e-12
    assert np.allclose(out.mean, 0.0)


def test_flagged_thermal_output_frozen_matrix():
    # One instance written out in full, independent of the reference helper.
    out = apply(flagged_additive_noise(2.0), thermal_state(1.0))
    expected = np.array(
        [
            [4.0, 0.0, 0.0, 0.0, 0.0, -0.5],
            [0.0, 4.0, 0.0, 0.5, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.0, 1.25, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
            [-0.5, 0.0, 0.0, 0.0, 0.0, 1.25],
        ]
    )
    assert np.abs(out.cov - expected).max() <= 1e-12


def test_extended_attenuator_reproduces_reference_thermal_output():
    out = apply(extended_attenuator(0.7, 0.05), thermal_state(3.0))
    ref = reference_extended_attenuator_thermal_cov(0.7, 0.05, 3.0)
    assert np.abs(out.cov - ref).max() <= 1e-12


def test_extended_attenuator_equals_pair_with_vacuum_ancilla():
    eta, N = 0.7, 0.4
    one = extended_attenuator(eta, N)
    pair = extended_attenuator_pair(eta, N)
    embed = GaussianChannel(
        np.vstack([np.eye(2), np.zeros((2, 2))]),
        np.diag([0.0, 0.0, 1.0, 1.0]),
    )
    rebuilt = compose(pair, embed)
    assert np.abs(rebuilt.X - one.X).max() <= 1e-12
    assert np.abs(rebuilt.Y - one.Y).max() <= 1e-12


def test_apply_identity_and_additive():
    state = thermal_state(0.7)
    out = apply(identity_channel(1), state)
    assert np.allclose(out.cov, state.cov)
    out = apply(additive_noise(4.0), vacuum_state(1))
    assert np.allclose(out.cov, 1.5 * np.eye(2))
    out = apply(attenuator(0.5, 0.0), thermal_state(1.0))
    assert np.allclose(out.cov, 2.0 * np.eye(2))


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        apply(identity_channel(2), thermal_state(1.0))
    with pytest.raises(DimensionMismatchError):
        compose(extended_attenuator(0.6, 0.0), flagged_additive_noise(1.0))


def test_compose_attenuators_multiply_transmissivities():
    N = 0.3
    chained = compose(attenuator(0.8, N), attenuator(0.5, N))
    direct = attenuator(0.4, N)
    assert np.abs(chained.X - direct.X).max() <= 1e-12
    assert np.abs(chained.Y - direct.Y).max() <= 1e-12


def test_amplifier_factors_through_additive_noise():
    g, N = 2.0, 3.0
    beta = 1.0 / ((g - 1.0) * N)
    chained = compose(additive_noise(beta), amplifier(g, 0.0))
    direct = amplifier(g, N)
    assert np.abs(chained.X - direct.X).max() <= 1e-12
    assert np.abs(chained.Y - direct.Y).max() <= 1e-12


def test_extension_degrading_composition():
    eta, N = 0.8, 0.05
    chained = compose(
        extended_attenuator_pair((1 - eta) / eta, N), extended_attenuator_pair(eta, N)
    )
    direct = extended_attenuator_pair(1 - eta, N)
    assert np.abs(chained.X - direct.X).max() <= 1e-12
    assert np.abs(chained.Y - direct.Y).max() <= 1e-12


def test_compose_associative_on_random_triples():
    rng = np.random.default_rng(5)
    for _ in range(10):
        chans = []
        for _ in range(3):
            tau = rng.uniform(0.3, 2.0)
            y = abs(1 - tau) + rng.uniform(0.0, 1.0)
            chans.append(from_phase_insensitive(PhaseInsensitiveParams(tau, y)))
        a, b, c = chans
        left = compose(compose(c, b), a)
        right = compose(c, compose(b, a))
        assert np.abs(left.X - right.X).max() <= 1e-12
        assert np.abs(left.Y - right.Y).max() <= 1e-12


def test_tensor_with_identity():
    ch = tensor_with_identity(identity_channel(1))
    assert np.allclose(ch.X, np.eye(4)) and np.allclose(ch.Y, 0.0)
    assert tensor_with_identity(flagged_additive_noise(1.0)).n_out == 4
    right = tensor_with_identity(additive_noise(2.0))
    assert np.allclose(right.Y, np.diag([1.0, 1.0, 0.0, 0.0]))


@pytest.mark.parametrize("n_modes", [0, -1])
def test_identity_channel_needs_a_mode(n_modes):
    with pytest.raises(ValueError, match=f"need n_modes >= 1, got n_modes={n_modes}"):
        identity_channel(n_modes)


@pytest.mark.parametrize("n_modes", [1.5, 2.0, True, "2", None])
def test_mode_counts_must_be_integers(n_modes):
    with pytest.raises(ValueError, match=r"n_modes must be an integer, got n_modes="):
        identity_channel(n_modes)


def test_numpy_integer_mode_counts_accepted():
    assert identity_channel(np.int64(2)).n_in == 2


def test_additive_tensor_identity_matches_joint_reference_blocks():
    # Additive noise on half of a two-mode squeezed state reproduces the
    # signal/reference blocks of the flagged channel's joint output.
    beta, M = 1.0, 2.0
    ch = tensor_with_identity(additive_noise(beta))
    out = apply(ch, two_mode_squeezed_state(M))
    ref = reference_flagged_joint_cov(beta, M)
    idx = np.ix_([0, 1, 6, 7], [0, 1, 6, 7])
    assert np.abs(out.cov - ref[idx]).max() <= 1e-12


def test_phase_insensitive_round_trip():
    p = to_phase_insensitive(attenuator(0.7, 0.05))
    assert p.tau == pytest.approx(0.7, abs=1e-12)
    assert p.y == pytest.approx(0.33, abs=1e-12)
    ch = from_phase_insensitive(PhaseInsensitiveParams(1.0, 0.5))
    assert ch.family == "additive"
    assert ch.params[0] == pytest.approx(4.0)
    with pytest.raises(CPViolationError):
        PhaseInsensitiveParams(2.0, 0.5)
    back = from_phase_insensitive(to_phase_insensitive(amplifier(1.7, 0.3)))
    assert np.abs(back.X - amplifier(1.7, 0.3).X).max() <= 1e-12
    assert np.abs(back.Y - amplifier(1.7, 0.3).Y).max() <= 1e-12


def test_phase_insensitive_rejects_non_isotropic():
    squeeze = GaussianChannel(np.diag([2.0, 0.5]), np.zeros((2, 2)))
    with pytest.raises(NotPhaseInsensitiveError):
        to_phase_insensitive(squeeze)
    with pytest.raises(NotPhaseInsensitiveError):
        to_phase_insensitive(extended_attenuator(0.7, 0.0))


@given(
    st.floats(min_value=0.3, max_value=2.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.3, max_value=2.0),
    st.floats(min_value=0.0, max_value=1.0),
)
@example(1.0, 0.0, 1.0, 1e-10)  # the identity, then additive noise with beta = 2e10
@example(1.0 + 5e-11, 0.0, 1.0 - 5e-11, 0.0)  # tau read exactly: an amplifier, then an attenuator
@example(1.0, 0.0, 1.0, 1.1125369292536007e-308)  # additive noise whose beta = 2 / y overflows
def test_phase_insensitive_composition_algebra(tau_a, extra_a, tau_b, extra_b):
    a = PhaseInsensitiveParams(tau_a, abs(1 - tau_a) + extra_a)
    b = PhaseInsensitiveParams(tau_b, abs(1 - tau_b) + extra_b)
    chained = to_phase_insensitive(
        compose(from_phase_insensitive(b), from_phase_insensitive(a))
    )
    assert chained.tau == pytest.approx(a.tau * b.tau, abs=1e-12)
    assert chained.y == pytest.approx(b.tau * a.y + b.y, abs=1e-12)
    assert a.then(b).tau == pytest.approx(chained.tau, abs=1e-12)
    assert a.then(b).y == pytest.approx(chained.y, abs=1e-12)


def test_complementary_family_rules():
    comp = complementary(extended_attenuator_pair(0.8, 0.3))
    assert comp.params == (pytest.approx(0.2), 0.3)
    half = extended_attenuator_pair(0.5, 0.3)
    again = complementary(half)
    assert np.abs(again.X - half.X).max() <= 1e-12
    assert np.abs(again.Y - half.Y).max() <= 1e-12
    double = complementary(complementary(extended_attenuator(0.7, 0.1)))
    assert np.abs(double.X - extended_attenuator(0.7, 0.1).X).max() <= 1e-12
    assert complementary(attenuator(0.9, 0.0)).params[0] == pytest.approx(0.1)
    with pytest.raises(NoKnownComplementError):
        complementary(additive_noise(1.0))
    with pytest.raises(NoKnownComplementError, match="weak complement"):
        complementary(attenuator(0.9, 0.2))


def test_pure_loss_complement_matches_the_purified_oracle():
    channel = attenuator(0.9, 0.0)
    purified = coherent_info_thermal(channel)
    complemented = coherent_info_thermal(channel, complement=complementary(channel))
    assert complemented.value == pytest.approx(purified.value, abs=1e-6)


@pytest.mark.parametrize(
    "channel,pattern",
    [
        (flagged_additive_noise(1.0), "flagged"),
        (extended_attenuator(0.7, 0.2), "extended"),
    ],
)
def test_gauge_covariance_of_extensions(channel, pattern):
    rng = np.random.default_rng(13)
    for _ in range(20):
        theta = rng.uniform(0, 2 * np.pi)
        A = rng.normal(size=(2, 2))
        state = GaussianState(rng.normal(size=2), A @ A.T + np.eye(2))
        R = gauge_rotation(theta, "single")
        Rout = gauge_rotation(theta, pattern)
        rotated_first = apply(
            channel, GaussianState(R @ state.mean, R @ state.cov @ R.T)
        )
        out = apply(channel, state)
        assert np.abs(rotated_first.cov - Rout @ out.cov @ Rout.T).max() <= 1e-10
        assert np.abs(rotated_first.mean - Rout @ out.mean).max() <= 1e-10


def test_flagged_mixing_matrix_properties():
    Y = flagged_mixing_matrix(2.0)
    assert np.allclose(Y, Y.T)
    assert np.linalg.eigvalsh(Y).min() >= -1e-12
