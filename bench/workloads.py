"""Seeded operation pools for each benchmark workload.

A pool is a list of JSON-able operation specs; the worker cycles through it
in order for the measured interval. Each pool is a pure function of the
workload name and the seed, and none of it imports gausscap: the program
sees only the generated inputs. Where operations differ in cost, the mix is
stratified (fixed shares per kind, fixed size strata with seeded jitter) so
that a pool's average cost barely depends on the seed.
"""

import math

import numpy as np

from reference import attenuator_np

WORKLOADS = ("scalar-reports", "figure-sweeps", "decompose", "oracle-certify")

FAMILIES = ("additive", "amplifier", "attenuator")


def _rng(workload: str, seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), stream])


def _logu(rng, lo_exp: float, hi_exp: float) -> float:
    return float(10.0 ** rng.uniform(lo_exp, hi_exp))


def _report_op(family: str, params: dict) -> dict:
    return {"kind": "report", "family": family, "params": params}


def _figure_range_point(rng, family: str, k: int) -> dict:
    """A point inside the parameter ranges the figures plot; every 25th
    amplifier/attenuator point sits at N = 0."""
    if family == "additive":
        return _report_op(family, {"beta": 1.0 / float(rng.uniform(0.02, 0.7))})
    N = 0.0 if k % 25 == 0 else None
    if family == "amplifier":
        g = 1.0 + _logu(rng, -3, math.log10(0.2))
        return _report_op(family, {"g": g, "N": _logu(rng, -3, math.log10(20)) if N is None else N})
    # Mostly the fig3 window; one in five below it, where the extension
    # bound does not apply.
    eta = float(rng.uniform(0.55, 0.995) if rng.uniform() < 0.8 else rng.uniform(0.05, 0.55))
    return _report_op(family, {"eta": eta, "N": _logu(rng, -3, 0) if N is None else N})


def _lattice(rng, k: int, lo: float, hi: float) -> list:
    """k points evenly spaced on [lo, hi], each jittered by up to a quarter
    spacing and clipped, so the end points are always (nearly) present."""
    pts = np.linspace(lo, hi, k) + rng.uniform(-0.25, 0.25, k) * (hi - lo) / (k - 1)
    return [float(p) for p in np.clip(pts, lo, hi)]


def edge_slice(seed: int, limit: float, k: int = 5, stream: int = 1) -> list:
    """Reports on a log-spaced lattice out to 10^±limit: k^2 inverse
    temperatures, and k x k grids of (gain - 1, N) and (transmissivity, N),
    with gains within 10^-min(limit, 15) of 1 and transmissivities within
    half that of 0 and 1. The corners, where the entropy kernel is worst,
    are in every seed's slice."""
    rng = _rng("scalar-reports", seed, stream)
    tail = min(limit, 15)
    ops = [_report_op("additive", {"beta": 10.0**e}) for e in _lattice(rng, k * k, -limit, limit)]
    for a in _lattice(rng, k, -tail, limit):
        for e in _lattice(rng, k, -limit, limit):
            ops.append(_report_op("amplifier", {"g": 1.0 + 10.0**a, "N": 10.0**e}))
    for s in _lattice(rng, k, -1, 1):
        d = 0.5 * 10.0 ** (-tail * abs(s))
        eta = d if s < 0 else 1.0 - d
        for e in _lattice(rng, k, -limit, limit):
            ops.append(_report_op("attenuator", {"eta": eta, "N": 10.0**e}))
    return [ops[i] for i in rng.permutation(len(ops))]


# Edge range of the timed pool: the widest at which the current entropy
# kernel keeps every clamped bound to 6 digits (8.4 at the amplifier corner,
# where the additive factor has beta = 10^-9). The defect ledger goes out to
# 10^±300.
TIMED_EDGE_LIMIT = 4.5
LEDGER_EDGE_LIMIT = 300


def scalar_reports(seed: int, size: int = 2400) -> list:
    """Single-point bound reports, a third per family, with one op in eight
    taken from a 10 x 10 edge slice out to 10^±TIMED_EDGE_LIMIT."""
    rng = _rng("scalar-reports", seed)
    edge = iter(edge_slice(seed, TIMED_EDGE_LIMIT, k=10, stream=2))
    ops = []
    for k in range(size):
        ops.append(next(edge) if k % 8 == 7 else _figure_range_point(rng, FAMILIES[k % 3], k // 3))
    return ops


def _stratified_counts(rng, n: int, lo: float = 200, hi: float = 2000) -> list:
    counts = np.geomspace(lo, hi, n) * rng.uniform(0.95, 1.05, n)
    rng.shuffle(counts)
    return [int(round(c)) for c in counts]


def figure_sweeps(seed: int, per_figure: int = 8) -> list:
    """build_figure plus write_csv for fig1, fig2 and fig3 in turn, each
    with seeded grid overrides of 200 to 2000 points."""
    rng = _rng("figure-sweeps", seed)
    per_id = {}
    for fid in ("fig1", "fig2", "fig3"):
        specs = []
        for n in _stratified_counts(rng, per_figure):
            if fid == "fig1":
                lo, hi = float(rng.uniform(0.01, 0.05)), float(rng.uniform(0.5, 1.0))
                ov = {"x_min": lo, "x_max": hi, "step": (hi - lo) / n}
            elif fid == "fig2":
                ov = {
                    "N": _logu(rng, -1, math.log10(20)),
                    "g_offset_min": _logu(rng, -4, -2),
                    "g_max": float(rng.uniform(1.1, 2.0)),
                    "points": n,
                }
            else:
                lo, hi = float(rng.uniform(0.5, 0.6)), float(rng.uniform(0.95, 0.995))
                ov = {"N": _logu(rng, -2, math.log10(0.3)), "eta_min": lo, "eta_max": hi,
                      "step": (hi - lo) / n}
            specs.append({"kind": "figure", "id": fid, "overrides": ov})
        per_id[fid] = specs
    return [op for trio in zip(*per_id.values()) for op in trio]


def _crossing(N: float) -> float:
    """Transmissivity where the extension and weak-degradability bounds on
    the attenuator cross, by bisection on their difference."""
    lo = max(0.5, N / (N + 1.0)) + 1e-9
    hi = 1.0 - 1e-9

    def diff(eta):
        e = attenuator_np(eta, N)
        return float(e["extension"] - e["rosati"])

    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if diff(mid) > 0 else (lo, mid)
    return 0.5 * (lo + hi)


def decompose(seed: int) -> list:
    """Decomposition targets on jittered lattices, so every seed's pool has
    the same mix of costs: 64 attenuators (16 photon numbers from 0.01 to 1,
    each at 4 offsets within 0.05 of the extension/weak-degradability
    crossing) and 32 amplifiers (8 gains from 1.05 to 3 by 4 photon numbers),
    interleaved two to one."""
    rng = _rng("decompose", seed)
    attenuators = []
    for e in _lattice(rng, 16, -2, 0):
        N = 10.0**e
        for d in _lattice(rng, 4, -0.05, 0.05):
            eta = min(0.99, max(0.52, _crossing(N) + d))
            attenuators.append({"kind": "decompose", "tau": eta, "y": (1.0 - eta) * (2.0 * N + 1.0)})
    amplifiers = []
    for a in _lattice(rng, 8, math.log10(1.05), math.log10(3.0)):
        g = 10.0**a
        for e in _lattice(rng, 4, -2, 0):
            amplifiers.append({"kind": "decompose", "tau": g, "y": (g - 1.0) * (2.0 * 10.0**e + 1.0)})
    attenuators = [attenuators[i] for i in rng.permutation(len(attenuators))]
    amplifiers = [amplifiers[i] for i in rng.permutation(len(amplifiers))]
    return [op for k in range(len(amplifiers))
            for op in (attenuators[2 * k], attenuators[2 * k + 1], amplifiers[k])]


def oracle_certify(seed: int) -> list:
    """Thermal-probe coherent information, with the verification suite's
    checks interleaved one in eight. Of the 126 estimates, 42 are extended
    attenuators on the complement path, 42 on the purified path, 28 flagged
    additive channels and 14 identity channels. Probe energies are
    log-spaced from 1e2 to 1e6, the default; identity probes at
    1e5 <= M <= 1e7 must raise OracleDivergedError (above ~10^7.5 the
    library raises SpectrumPairingError instead, which the ledger's oracle
    edge shows)."""
    rng = _rng("oracle-certify", seed)
    estimates = []

    def add(family, params, strategy, M, expect_error=None):
        estimates.append({"kind": "oracle", "family": family, "params": params,
                          "strategy": strategy, "M": M, "expect_error": expect_error})

    for strategy in ("complement", "purified"):
        for e in _lattice(rng, 42, 2, 6):
            params = {"eta": float(rng.uniform(0.55, 0.95)), "N": _logu(rng, -2, math.log10(2))}
            add("extended_attenuator", params, strategy, 10.0**e)
    for e in _lattice(rng, 28, 2, 6):
        add("flagged", {"beta": _logu(rng, math.log10(0.25), math.log10(4))}, "purified", 10.0**e)
    for e in _lattice(rng, 8, 1, 4):
        add("identity", {}, "purified", 10.0**e)
    for e in _lattice(rng, 6, 5, 7):
        add("identity", {}, "purified", 10.0**e, "OracleDivergedError")
    ops = []
    for k, i in enumerate(rng.permutation(len(estimates))):
        ops.append(estimates[i])
        if k % 7 == 6:
            ops.append({"kind": "check", "slot": k // 7, "seed": seed})
    return ops


def oracle_edge(seed: int) -> list:
    """Thermal-probe estimates at M from 1e7 to 1e10, beyond the timed
    pool: identity probes that must raise OracleDivergedError, and extended
    attenuators and flagged channels that must keep 6 digits."""
    rng = _rng("oracle-certify", seed, stream=1)
    ops = []
    for e in _lattice(rng, 4, 7, 10):
        M = 10.0**e
        params = {"eta": float(rng.uniform(0.55, 0.95)), "N": _logu(rng, -2, math.log10(2))}
        for strategy in ("complement", "purified"):
            ops.append({"kind": "oracle", "family": "extended_attenuator", "params": params,
                        "strategy": strategy, "M": M, "expect_error": None})
        ops.append({"kind": "oracle", "family": "flagged", "strategy": "purified", "M": M,
                    "params": {"beta": _logu(rng, math.log10(0.25), math.log10(4))},
                    "expect_error": None})
        ops.append({"kind": "oracle", "family": "identity", "params": {}, "strategy": "purified",
                    "M": M, "expect_error": "OracleDivergedError"})
    return ops


def generate(workload: str, seed: int) -> list:
    """The operation pool of a workload for a seed."""
    builders = {
        "scalar-reports": scalar_reports,
        "figure-sweeps": figure_sweeps,
        "decompose": decompose,
        "oracle-certify": oracle_certify,
    }
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return builders[workload](seed)
