#!/usr/bin/env python3
"""Run the structural certification suite and poke at its moving parts.

Everything the capacity bounds rely on is certified numerically: the
degradability composition identity, the scalar flag condition (including
that it fails for any rescaling other than 1), gauge covariance, the
classical-mixing realization of the flagged channel, and the growth of the
symplectic spectra with probe energy.
"""

from gausscap import run_all_checks
from gausscap.verify import check_flag_condition

print("=" * 72)
print("Certification suite (fixed default seed)")
print("=" * 72)
outcomes = run_all_checks()
for outcome in outcomes:
    print(outcome.summary_line())
failed = [o for o in outcomes if o.applicable and not o.passed]
print(f"-> {len(outcomes) - len(failed)}/{len(outcomes)} passed")

print()
print("=" * 72)
print("The flag condition pins the rescaling factor to exactly 1")
print("=" * 72)
for gamma in (0.5, 1.0, 2.0):
    outcome = check_flag_condition(gamma=gamma)
    verdict = "holds" if outcome.passed else "breaks"
    print(
        f"gamma={gamma:3.1f}: identity {verdict} "
        f"(max residual {outcome.max_residual:.3e})"
    )
