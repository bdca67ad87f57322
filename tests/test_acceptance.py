"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line. Tolerances are fixed here and nowhere else."""

import math
import time

import numpy as np
import pytest

from gausscap.bounds import (
    additive_flagged_extension,
    amplifier_flagged_extension,
    amplifier_lower,
    amplifier_naj,
    amplifier_plob,
    attenuator_extension,
    attenuator_lower,
    attenuator_plob,
    attenuator_rosati,
    bounds_attenuator,
    coherent_info_thermal,
    combined_decomposition_bound,
)
from gausscap.channels import (
    PhaseInsensitiveParams,
    apply,
    complementary,
    compose,
    extended_attenuator,
    extended_attenuator_pair,
    flagged_additive_noise,
    tensor_with_identity,
)
from gausscap.figures import fig1_series, fig2_series, fig3_inset_series, fig3_series
from gausscap.symplectic import (
    GaussianState,
    symplectic_eigenvalues,
    thermal_state,
    two_mode_squeezed_cov,
)
from gausscap.verify import check_flag_condition, reference_flagged_thermal_cov

from reference_covs import reference_flagged_joint_cov


def _report(criterion: str, passed: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def test_criterion_01_flagged_closed_form_vs_oracle():
    start = time.perf_counter()
    worst = 0.0
    for beta in (0.5, 1.0, 2.0, 5.0, 10.0):
        estimate = coherent_info_thermal(flagged_additive_noise(beta), M=1e6)
        worst = max(worst, abs(estimate.value - additive_flagged_extension(beta)))
    elapsed = time.perf_counter() - start
    _report(
        "1 flagged closed form vs oracle",
        worst <= 1e-4 and elapsed < 1.0,
        f"max |closed - oracle| = {worst:.3e}, runtime {elapsed:.3f}s",
    )


def test_criterion_02_attenuator_closed_form_vs_oracle():
    worst = 0.0
    for eta in (0.6, 0.8, 0.95):
        for N in (0.05, 1.0):
            channel = extended_attenuator(eta, N)
            estimate = coherent_info_thermal(
                channel, M=1e6, complement=complementary(channel)
            )
            worst = max(worst, abs(estimate.value - attenuator_extension(eta, N)))
    _report(
        "2 extended-attenuator closed form vs oracle",
        worst <= 1e-4,
        f"max |closed - oracle| = {worst:.3e}",
    )


def test_criterion_03_degradability_identity():
    rng = np.random.default_rng(20250808)
    worst = 0.0
    for _ in range(50):
        eta = rng.uniform(0.5 + 1e-6, 1.0 - 1e-6)
        N = rng.uniform(0.0, 3.0)
        chained = compose(
            extended_attenuator_pair((1 - eta) / eta, N),
            extended_attenuator_pair(eta, N),
        )
        direct = extended_attenuator_pair(1 - eta, N)
        worst = max(
            worst,
            np.abs(chained.X - direct.X).max(),
            np.abs(chained.Y - direct.Y).max(),
        )
    _report(
        "3 degradability identity",
        worst <= 1e-12,
        f"max (X, Y) residual over 50 samples = {worst:.3e}",
    )


def test_criterion_04_flag_condition():
    good = check_flag_condition(gamma=1.0)
    bad_half = check_flag_condition(gamma=0.5)
    bad_double = check_flag_condition(gamma=2.0)
    passed = (
        good.max_residual <= 1e-12
        and bad_half.max_residual > 0.1
        and bad_double.max_residual > 0.1
    )
    _report(
        "4 flag condition",
        passed,
        f"gamma=1 residual {good.max_residual:.3e}; "
        f"gamma=0.5/2 residuals {bad_half.max_residual:.2f}/"
        f"{bad_double.max_residual:.2f}",
    )


def test_criterion_05_reference_matrix_reproduction():
    worst = 0.0
    for beta, M in ((1.0, 1.0), (2.0, 3.0)):
        channel = flagged_additive_noise(beta)
        out = apply(channel, thermal_state(M))
        worst = max(
            worst, np.abs(out.cov - reference_flagged_thermal_cov(beta, M)).max()
        )
        joint = tensor_with_identity(channel)
        probe = GaussianState(np.zeros(4), two_mode_squeezed_cov(M))
        out_joint = apply(joint, probe)
        worst = max(
            worst, np.abs(out_joint.cov - reference_flagged_joint_cov(beta, M)).max()
        )
    _report(
        "5 reference matrix reproduction",
        worst <= 1e-12,
        f"max entry residual = {worst:.3e}",
    )


def test_criterion_06_spectrum_asymptotics():
    M = 1e6
    channel = flagged_additive_noise(1.0)
    top = symplectic_eigenvalues(apply(channel, thermal_state(M)).cov)[0]
    ratio = top / (2 * M)
    joint = tensor_with_identity(channel)
    probe = GaussianState(np.zeros(4), two_mode_squeezed_cov(M))
    d = symplectic_eigenvalues(apply(joint, probe).cov)
    unit_dev = float(np.abs(d[2:] - 1.0).max())
    _report(
        "6 spectrum asymptotics",
        0.99 <= ratio <= 1.01 and unit_dev <= 1e-8,
        f"top/(2M) = {ratio:.6f}, unit-eigenvalue deviation = {unit_dev:.3e}",
    )


def test_criterion_07_figure_orderings():
    fig1 = fig1_series()
    v1 = all(
        ext <= plob + 1e-12
        for x, ext, plob in zip(
            fig1.x_values, fig1.column("extension"), fig1.column("plob")
        )
        if x <= 0.5
    )

    N = 0.05
    etas = np.arange(0.55, 0.9951, 0.0025)
    v2 = all(
        attenuator_extension(e, N) <= attenuator_plob(e, N) + 1e-12
        for e in etas
        if e >= 0.9
    )
    diff = np.array(
        [attenuator_extension(e, N) - attenuator_rosati(e, N) for e in etas]
    )
    crossings = int(np.sum(np.diff(np.sign(diff)) != 0))

    gains = 1.0 + np.geomspace(1e-3, 0.2, 200)
    wins = [
        g
        for g in gains
        if amplifier_flagged_extension(g, 10.0)
        < min(amplifier_plob(g, 10.0), amplifier_naj(g, 10.0))
    ]
    _report(
        "7 figure orderings",
        v1 and v2 and crossings == 1 and len(wins) >= 2,
        f"fig1 ordering {v1}; fig3 ordering {v2}, crossings {crossings}; "
        f"fig2 winning points {len(wins)}",
    )


def test_criterion_08_known_capacity_collapse():
    worst = 0.0
    for eta in np.linspace(0.55, 0.95, 9):
        exact = math.log2(eta / (1 - eta))
        worst = max(
            worst,
            abs(attenuator_extension(eta, 0.0) - exact),
            abs(attenuator_rosati(eta, 0.0) - exact),
            abs(attenuator_lower(eta, 0.0) - exact),
        )
    for g in np.linspace(1.1, 3.0, 9):
        exact = math.log2(g / (g - 1))
        worst = max(
            worst,
            abs(amplifier_plob(g, 0.0) - exact),
            abs(amplifier_lower(g, 0.0) - exact),
        )
    _report(
        "8 known-capacity collapse at N=0",
        worst <= 1e-12,
        f"max deviation = {worst:.3e}",
    )


def test_criterion_09_combined_bound_dominance():
    worst_gap = -math.inf
    best_improvement = 0.0
    for eta in np.linspace(0.55, 0.99, 20):
        for N in (0.01, 0.05, 0.1, 0.5, 1.0):
            target = PhaseInsensitiveParams(eta, (1 - eta) * (2 * N + 1))
            combined = combined_decomposition_bound(target).value
            report = bounds_attenuator(eta, N)
            for entry in report.upper_entries().values():
                if entry.applicable:
                    worst_gap = max(worst_gap, combined - entry.clamped)
            if N == 0.05 and 0.65 <= eta <= 0.73:
                best_improvement = max(
                    best_improvement, report.combined - combined
                )
    _report(
        "9 combined-bound dominance",
        worst_gap <= 1e-12 and best_improvement > 1e-4,
        f"max (combined - direct upper) = {worst_gap:.3e}; best improvement "
        f"near the crossing = {best_improvement:.3e} bits",
    )


@pytest.fixture(scope="module")
def figure_series():
    return {
        "fig1": fig1_series(),
        "fig2": fig2_series(),
        "fig3": fig3_series(),
        "fig3-inset": fig3_inset_series(),
    }


def test_criterion_10_sandwich_everywhere(figure_series):
    violations = 0
    points = 0
    for fid in ("fig1", "fig2"):
        series = figure_series[fid]
        for low, combined in zip(
            series.column("lower"), series.column("combined")
        ):
            points += 1
            if low is not None and combined is not None and low > combined + 1e-9:
                violations += 1
    for fid in ("fig3", "fig3-inset"):
        series = figure_series[fid]
        for i, low in enumerate(series.column("lower")):
            points += 1
            uppers = [
                series.column(name)[i] * low
                for name in series.columns
                if name != "lower" and series.column(name)[i] is not None
            ]
            if uppers and low > min(uppers) + 1e-9:
                violations += 1
    _report(
        "10 sandwich property",
        violations == 0,
        f"{violations} violations over {points} grid points",
    )
