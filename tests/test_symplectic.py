import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gausscap.symplectic import (
    EntropyDomainError,
    GaussianState,
    NonFiniteError,
    NonSymmetricError,
    SpectrumPairingError,
    bosonic_entropy,
    direct_sum,
    entropy_from_cov,
    gauge_rotation,
    is_physical_cov,
    squeezed_vacuum_cov,
    symplectic_eigenvalues,
    symplectic_form,
    thermal_cov,
    thermal_state,
    two_mode_squeezed_cov,
    two_mode_squeezed_state,
    vacuum_state,
)
from gausscap.symplectic import _physical
from gausscap.verify import reference_flagged_thermal_cov


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symplectic_form_identities(n):
    omega = symplectic_form(n)
    assert np.allclose(omega @ omega, -np.eye(2 * n))
    assert np.allclose(omega.T, -omega)


def test_spectrum_vacuum_and_thermal():
    assert np.allclose(symplectic_eigenvalues(np.eye(2)), [1.0])
    assert np.allclose(symplectic_eigenvalues(3.0 * np.eye(2)), [3.0])


def test_spectrum_two_mode_squeezed_is_pure():
    d = symplectic_eigenvalues(two_mode_squeezed_cov(1.0))
    assert np.allclose(d, [1.0, 1.0], atol=1e-10)


def test_spectrum_large_flagged_output():
    # Top eigenvalue of the flagged thermal output grows as 2M + O(1).
    V = reference_flagged_thermal_cov(1.0, 1e6)
    top = symplectic_eigenvalues(V)[0]
    assert abs(top - 2e6) < 10.0


def test_spectrum_rejects_asymmetric():
    V = np.array([[1.0, 0.1], [0.0, 1.0]])
    with pytest.raises(NonSymmetricError):
        symplectic_eigenvalues(V)


def test_spectrum_rejects_unpairable():
    # diag(1, -1) sends Omega*V to a matrix with purely real spectrum.
    with pytest.raises(SpectrumPairingError):
        symplectic_eigenvalues(np.diag([1.0, -1.0]))


def test_spectrum_descending_and_deterministic():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(4, 4))
    V = A @ A.T + np.eye(4)
    d1 = symplectic_eigenvalues(V)
    d2 = symplectic_eigenvalues(V)
    assert np.all(np.diff(d1) <= 0)
    assert np.array_equal(d1, d2)


def test_random_physical_spectra_pair_up():
    # For physical V the spectrum of Omega*V is +/- i d_k; the pairing check
    # inside symplectic_eigenvalues would raise if that failed.
    rng = np.random.default_rng(11)
    for _ in range(25):
        A = rng.normal(size=(4, 4))
        V = A @ A.T + np.eye(4)
        d = symplectic_eigenvalues(V)
        assert d.min() >= 1.0 - 1e-9
        eigs = np.linalg.eigvals(symplectic_form(2) @ V)
        assert np.abs(eigs.real).max() <= 1e-9
        paired = np.sort(np.concatenate([d, -d]))
        assert np.allclose(np.sort(eigs.imag), paired, atol=1e-9)


def _physical_stack(n_modes: int, k: int = 6) -> np.ndarray:
    """k seeded physical covariances A A^T + I on n_modes modes, with
    entries from ~1 to ~1e6, so each matrix has its own scale."""
    rng = np.random.default_rng(n_modes)
    A = rng.normal(size=(k, 2 * n_modes, 2 * n_modes)) * np.logspace(0, 3, k)[:, None, None]
    return A @ A.swapaxes(-1, -2) + np.eye(2 * n_modes)


@pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 6])
def test_stacked_spectra_are_the_single_spectra_bit_for_bit(n_modes):
    V = _physical_stack(n_modes)
    d = symplectic_eigenvalues(V)
    assert d.shape == (len(V), n_modes)
    for k, single in enumerate(V):
        assert symplectic_eigenvalues(single).shape == (n_modes,)
        assert d[k].tobytes() == symplectic_eigenvalues(single).tobytes()
    grid = symplectic_eigenvalues(V.reshape(2, 3, 2 * n_modes, 2 * n_modes))
    assert grid.tobytes() == d.tobytes() and grid.shape == (2, 3, n_modes)


def _raised(f, V):
    try:
        f(V)
    except ValueError as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("n_modes", [1, 3])
@pytest.mark.parametrize("defect", ["nan", "asymmetric", "unphysical", "unpaired"])
def test_one_bad_matrix_fails_its_stack_as_it_fails_alone(n_modes, defect):
    dim = 2 * n_modes
    bad = np.eye(dim)
    if defect == "nan":
        bad[0, 0] = np.nan
    elif defect == "asymmetric":
        bad[0, 1] = 0.1
    elif defect == "unphysical":
        bad *= 0.5
    else:  # Omega diag(1, -1) has the real spectrum +/- 1
        bad[1, 1] = -1.0
    V = _physical_stack(n_modes)
    V[2] = bad
    as_state = _raised(lambda M: GaussianState(np.zeros(dim), M), bad)
    assert as_state is not None
    assert _raised(_physical, V) is as_state
    assert _raised(symplectic_eigenvalues, V) is _raised(symplectic_eigenvalues, bad)


def test_bosonic_entropy_reference_points():
    assert bosonic_entropy(1.0) == 0.0
    assert bosonic_entropy(1.0 + 5e-13) == pytest.approx(
        1.0827388457776718182010542519145407980084212799738e-11, rel=1e-15, abs=0.0
    )
    assert bosonic_entropy(3.0) == pytest.approx(2.0, abs=1e-14)
    assert bosonic_entropy(math.inf) == math.inf


# h(x) in bits at the double nearest each argument, from mpmath at 60 digits
# (50 kept), through the cancellation-free form of the docstring.
_FROZEN_ENTROPY = [
    (1.0 + 2.0**-40, 1.9300703134326473190519170784159183968890203123646e-11),
    (1.0 + 1e-6, 1.1187131984582433886027905903519302130255917612007e-5),
    (3.0, 2.0),
    (21.0, 4.8344668561366463394897992190898207870872328522536),
    (1e6, 20.374263610212897045408359691902254494019613747022),
    (1e9, 30.340047894875224537952350372924909818911339625829),
    (1e12, 40.305832179537311581803757594425400766310721443794),
    (1e15, 50.27161646419939862541471612334250432622563535562),
    (1e300, 997.02112350709766784420411077106630476626536870987),
]


@pytest.mark.parametrize("x, expected", _FROZEN_ENTROPY)
def test_bosonic_entropy_frozen_mpmath_values(x, expected):
    assert abs(bosonic_entropy(x) - expected) <= 1e-15 * expected


def test_bosonic_entropy_matches_photon_number_distribution():
    # Thermal state with N=10: entropy from the geometric photon-number
    # distribution p_n = N^n / (N+1)^(n+1) must equal h(2N+1).
    N = 10.0
    n = np.arange(0, 4000)
    p = np.exp(n * np.log(N) - (n + 1) * np.log(N + 1))
    oracle = float(-(p * np.log2(p)).sum())
    assert bosonic_entropy(21.0) == pytest.approx(oracle, abs=1e-12)
    assert bosonic_entropy(21.0) == pytest.approx(4.834466856136643, abs=1e-12)


def test_bosonic_entropy_domain():
    with pytest.raises(EntropyDomainError):
        bosonic_entropy(0.999)
    with pytest.raises(EntropyDomainError):
        bosonic_entropy(math.nan)
    assert bosonic_entropy(1.0 - 1e-10) == 0.0
    with pytest.raises(EntropyDomainError):
        bosonic_entropy(1.0 - 2e-10)


@given(
    st.floats(min_value=1.0, max_value=1e6),
    st.floats(min_value=0.0, max_value=1e6),
)
def test_bosonic_entropy_monotone(x, dx):
    assert bosonic_entropy(x + dx) >= bosonic_entropy(x) * (1.0 - 1e-15)


def test_bosonic_entropy_asymptotics():
    x = 1e6
    assert abs(bosonic_entropy(x) - np.log2(x * np.e / 2)) < 1e-6


def test_entropy_from_cov():
    assert entropy_from_cov(np.eye(2)) == 0.0
    assert entropy_from_cov(thermal_cov(1.0)) == pytest.approx(2.0)
    for N in [0.0, 0.5, 3.0]:
        assert entropy_from_cov(two_mode_squeezed_cov(N)) == pytest.approx(
            0.0, abs=1e-9
        )


def test_two_mode_squeezed_structure():
    assert np.allclose(two_mode_squeezed_cov(0.0), np.eye(4))
    V = two_mode_squeezed_cov(1.0)
    assert np.allclose(V[:2, :2], 3.0 * np.eye(2))
    assert np.allclose(V[:2, 2:], 2.0 * np.sqrt(2.0) * np.diag([1.0, -1.0]))
    # reduced state of either half is the thermal state it purifies
    assert np.allclose(V[2:, 2:], thermal_cov(1.0))


@pytest.mark.parametrize("pattern,dim", [("single", 2), ("flagged", 6), ("extended", 4)])
def test_gauge_rotation_symplectic_orthogonal(pattern, dim):
    R0 = gauge_rotation(0.0, pattern)
    assert np.allclose(R0, np.eye(dim))
    R = gauge_rotation(0.37, pattern)
    omega = symplectic_form(dim // 2)
    assert np.abs(R.T @ omega @ R - omega).max() <= 1e-12
    assert np.abs(R.T @ R - np.eye(dim)).max() <= 1e-12


def test_gauge_rotation_quarter_turn():
    assert np.allclose(gauge_rotation(np.pi / 2, "single"), [[0, 1], [-1, 0]])


def test_gauge_rotation_unknown_pattern():
    with pytest.raises(ValueError):
        gauge_rotation(0.1, "bogus")


def test_entropy_invariant_under_gauge_rotations():
    rng = np.random.default_rng(7)
    for pattern in ("single", "flagged", "extended"):
        dim = gauge_rotation(0.0, pattern).shape[0]
        A = rng.normal(size=(dim, dim))
        V = A @ A.T + np.eye(dim)
        S = gauge_rotation(rng.uniform(0, 2 * np.pi), pattern)
        assert entropy_from_cov(S @ V @ S.T) == pytest.approx(
            entropy_from_cov(V), abs=1e-10
        )


def test_direct_sum():
    assert np.allclose(direct_sum(np.eye(2), np.eye(2)), np.eye(4))
    V = thermal_cov(0.3)
    assert np.allclose(direct_sum(V), V)
    d = symplectic_eigenvalues(direct_sum(3.0 * np.eye(2), two_mode_squeezed_cov(1.0)))
    assert np.allclose(d, [3.0, 1.0, 1.0], atol=1e-10)
    rect = direct_sum(np.ones((4, 2)), 2.0 * np.eye(2))
    assert rect.shape == (6, 4)
    assert np.allclose(rect[:4, :2], 1.0) and np.allclose(rect[4:, 2:], 2.0 * np.eye(2))
    assert np.allclose(rect[:4, 2:], 0.0) and np.allclose(rect[4:, :2], 0.0)


def test_gaussian_state_validation():
    state = thermal_state(1.0)
    assert state.n_modes == 1
    assert state.entropy() == pytest.approx(2.0)
    assert vacuum_state(2).is_pure()
    assert two_mode_squeezed_state(1.0).is_pure()
    with pytest.raises(ValueError):
        GaussianState(np.zeros(2), 0.5 * np.eye(2))  # below vacuum noise
    with pytest.raises(ValueError):
        GaussianState(np.zeros(4), np.eye(2))  # shape mismatch
    with pytest.raises(ValueError):
        GaussianState(np.array([np.inf, 0.0]), np.eye(2))


@pytest.mark.parametrize(
    "make, arg, match",
    [
        (thermal_cov, -1.0, "photon number must be nonnegative"),
        (two_mode_squeezed_cov, -1.0, "photon number must be nonnegative"),
        (squeezed_vacuum_cov, 0.0, "variance must be positive"),
    ],
)
def test_cov_constructors_reject_out_of_domain(make, arg, match):
    with pytest.raises(ValueError, match=match):
        make(arg)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "make, N, match",
    [
        (thermal_cov, math.nan, r"nonnegative, got N=nan"),
        (thermal_cov, 1e308, r"2N \+ 1 finite, got N=1e\+308"),
        (thermal_cov, math.inf, r"2N \+ 1 finite, got N=inf"),
        (thermal_state, 1e308, r"2N \+ 1 finite, got N=1e\+308"),
        (two_mode_squeezed_cov, math.nan, r"nonnegative, got N=nan"),
        (two_mode_squeezed_cov, 1e200, r"N\(N \+ 1\) finite, got N=1e\+200"),
        (two_mode_squeezed_state, 1e200, r"N\(N \+ 1\) finite, got N=1e\+200"),
        (thermal_cov, np.float64(1e308), r"2N \+ 1 finite, got N=1e\+308"),
    ],
    ids=["thermal-nan", "thermal-1e308", "thermal-inf", "thermal_state-1e308", "tms-nan",
         "tms-1e200", "tms_state-1e200", "thermal-numpy-1e308"],
)
def test_photon_number_without_a_finite_covariance_is_named(make, N, match):
    # Rejected before any array is built, so no overflow warning and no
    # inf or NaN entry reaches the state's own finiteness check.
    with pytest.raises(ValueError, match=match):
        make(N)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_photon_number_near_the_overflow_stays_finite():
    assert np.isfinite(thermal_cov(1e300)).all()
    assert np.isfinite(two_mode_squeezed_cov(1e150)).all()


@pytest.mark.parametrize(
    "mean, cov, error, match",
    [
        (np.zeros(2), np.array([[1.0, 0.1], [0.0, 1.0]]), NonSymmetricError, "asymmetry"),
        (np.zeros(3), np.eye(3), ValueError, "2n x 2n"),
        (np.zeros(2), np.diag([np.nan, 1.0]), NonFiniteError, "covariance matrix must be finite"),
        (np.zeros(2), np.diag([np.inf, 1.0]), NonFiniteError, "covariance matrix must be finite"),
        (np.array([np.nan, 0.0]), np.eye(2), NonFiniteError, "mean vector must be finite"),
        (np.zeros(0), np.zeros((0, 0)), ValueError, r"with n >= 1, got shape \(0, 0\)"),
        (np.zeros(2), np.stack([np.eye(2)] * 2), ValueError, r"got shape \(2, 2, 2\)"),
    ],
)
def test_gaussian_state_rejections(mean, cov, error, match):
    with pytest.raises(error, match=match):
        GaussianState(mean, cov)


def test_zero_mode_objects_rejected():
    for n_modes in (0, -1):
        with pytest.raises(ValueError, match=f"need n_modes >= 1, got n_modes={n_modes}"):
            vacuum_state(n_modes)
    for n_modes in (1.5, 2.0, True):
        with pytest.raises(ValueError, match="n_modes must be an integer"):
            vacuum_state(n_modes)
    assert vacuum_state(np.int64(2)).n_modes == 2
    for spectral in (symplectic_eigenvalues, is_physical_cov):
        with pytest.raises(ValueError, match="2n x 2n matrix with n >= 1"):
            spectral(np.zeros((0, 0)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_covariances_rejected_before_the_eigensolve(value):
    # RuntimeWarnings are errors under pytest, so a NaN reaching the solver
    # would fail here as well as the missing NonFiniteError.
    V = two_mode_squeezed_cov(1.0)
    V[1, 1] = value
    with pytest.raises(NonFiniteError, match="must be finite"):
        symplectic_eigenvalues(V)
    with pytest.raises(NonFiniteError, match="must be finite"):
        entropy_from_cov(V)
    assert is_physical_cov(V) is False


def test_symplectic_form_is_a_fresh_writable_array():
    V = two_mode_squeezed_cov(2.0) + 0.5 * np.eye(4)
    spectrum = symplectic_eigenvalues(V)
    omega = symplectic_form(2)
    assert omega.flags.writeable
    assert symplectic_form(2) is not omega
    omega[:] = 7.0
    assert np.array_equal(symplectic_form(2)[:2, :2], [[0.0, 1.0], [-1.0, 0.0]])
    assert np.array_equal(symplectic_eigenvalues(V), spectrum)
    assert is_physical_cov(V) and not is_physical_cov(0.9 * np.eye(4))


def test_is_physical_cov():
    assert is_physical_cov(np.eye(2))
    assert is_physical_cov(two_mode_squeezed_cov(1e6))  # strongly squeezed, pure
    assert not is_physical_cov(0.9 * np.eye(2))
