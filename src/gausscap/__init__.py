"""Capacity bounds for single-mode phase-insensitive bosonic Gaussian channels.

Covariance-matrix algebra (`symplectic`), Gaussian channels as moment maps
(`channels`), closed-form quantum/private-capacity bounds with a numerical
coherent-information estimator (`bounds`), structural certification checks
(`verify`) and figure-series generation (`figures`). Everything is pure and
deterministic; entropies are in bits and the vacuum covariance is the
identity.
"""

__version__ = "0.1.0"

from .symplectic import (  # noqa: E402
    GaussianState,
    bosonic_entropy,
    direct_sum,
    entropy_from_cov,
    gauge_rotation,
    is_physical_cov,
    symplectic_eigenvalues,
    symplectic_form,
    thermal_cov,
    thermal_state,
    two_mode_squeezed_cov,
    two_mode_squeezed_state,
    vacuum_state,
)
from .channels import (  # noqa: E402
    GaussianChannel,
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
    phase_insensitive_family,
    identity_channel,
    tensor_with_identity,
    to_phase_insensitive,
)
from .bounds import (  # noqa: E402
    FAMILIES,
    BoundEntry,
    BoundReport,
    CoherentInfoEstimate,
    DecompositionBound,
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
)
from .verify import CheckOutcome, run_all_checks, suite_entries  # noqa: E402
from .figures import FigureSeries, build_figure, write_csv  # noqa: E402
