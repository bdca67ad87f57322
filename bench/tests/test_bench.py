"""Tests of the benchmark itself: generators, checker, tracer, compare.

    python3 -m pytest bench/tests -q
"""

import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import compare  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pools_are_deterministic_per_seed(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


def test_ledger_probes_are_deterministic_per_seed():
    for make in (lambda s: workloads.edge_slice(s, workloads.LEDGER_EDGE_LIMIT),
                 workloads.oracle_edge):
        assert make(3) == make(3)
        assert make(3) != make(4)


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        workloads.generate("nope", 1)


def correct_report(family: str, params: dict) -> dict:
    """A report output built from the reference, as the program should give it."""
    out = {}
    for name, v in reference.report_entries(family, params).items():
        raw = math.nan if v is None else float(v)
        out[name] = [raw, math.nan if v is None else max(raw, 0.0), v is not None]
    return out


OP = {"kind": "report", "family": "attenuator", "params": {"eta": 0.8, "N": 0.05}}


def planted(kind: str) -> dict:
    out = correct_report(OP["family"], OP["params"])
    if kind == "sandwich":
        combined = out["combined"][1]
        out["lower"] = [combined + 1.0, combined + 1.0, True]
    elif kind == "nan":
        out["combined"] = [math.nan, math.nan, True]
    elif kind == "digits":
        out["plob"] = [v * (1 + 1e-5) if isinstance(v, float) else v for v in out["plob"]]
    elif kind == "malformed":
        del out["rosati"]
    return out


def test_correct_output_passes_with_full_digits():
    v = check.check(OP, planted("none"))
    assert not v.failed
    assert v.digits == reference.DIGITS_CAP


@pytest.mark.parametrize("kind, reason", [
    ("sandwich", "sandwich"),
    ("nan", "clamped value nan"),
    ("digits", "correct digits"),
    ("malformed", "missing entry"),
])
def test_planted_defects_are_flagged(kind, reason):
    v = check.check(OP, planted(kind))
    assert v.failed
    assert reason in v.reason


def test_failures_are_counted_without_aborting():
    kinds = ["none", "sandwich", "nan", "digits", "malformed"]
    ops = [OP] * len(kinds) + [{"kind": "figure", "id": "fig1", "overrides": {}}]
    outputs = [planted(k) for k in kinds] + [{"csv": "garbage"}]
    counts = [3, 2, 5, 7, 1, 4]
    mismatched = [1, 0, 0, 0, 0, 0]
    tally = check.evaluate(ops, outputs, counts, mismatched)
    assert tally.attempted == sum(counts)
    assert tally.failed == 1 + 2 + 5 + 7 + 1 + 4
    assert [k for k, _ in tally.failures] == [0, 1, 2, 3, 4, 5]
    assert tally.digits == reference.DIGITS_CAP


def test_error_output_fails_unless_expected():
    err = {"error": "OracleDivergedError", "message": "gap"}
    op = {"kind": "oracle", "family": "identity", "params": {}, "strategy": "purified",
          "M": 1e6, "expect_error": "OracleDivergedError"}
    assert not check.check(op, err).failed
    assert check.check(dict(op, expect_error=None), err).failed
    assert check.check(OP, {"error": "ZeroDivisionError", "message": ""}).failed


def test_checker_accepts_real_program_outputs():
    import ops as opmod

    api = opmod.load()
    runner = opmod.Runner(api, str(BENCH))
    for op in workloads.generate("scalar-reports", 1)[:60]:
        out = runner.summarize(op, runner.prepare(op, 0)())
        assert not check.check(op, out).failed, op


def test_tracer_wraps_every_lookup_site():
    import ops as opmod
    from tracer import Tracer

    api = opmod.load()
    original = api.symplectic.bosonic_entropy
    tracer = Tracer()
    tracer.install()
    try:
        assert api.bounds.bosonic_entropy is not original
        api.bounds.bounds_attenuator(0.8, 0.05)
    finally:
        tracer.uninstall()
    assert api.bounds.bosonic_entropy is original
    snap = tracer.snapshot()
    assert snap["missing"] == []
    assert snap["layers"]["symplectic.bosonic_entropy"]["calls"] == 4
    assert snap["nested"]["bounds.reports>symplectic.bosonic_entropy"] == 4
    layer = snap["layers"]["bounds.reports"]
    assert 0 < layer["self_ns"] < layer["total_ns"]


@pytest.mark.parametrize("a, b, better, expected", [
    ([10.0] * 10, [12.0] * 10, "higher", "improved"),
    ([10.0] * 10, [8.0] * 10, "higher", "worse"),
    ([10.0] * 10, [9.95] * 10, "higher", "unchanged"),
    ([10, 10, 10, 10, 10, 13, 13, 13, 13, 13], [11.3] * 10, "higher", "unresolved"),
])
def test_compare_verdicts(a, b, better, expected):
    assert compare.verdict(a, b, better, 0.1)[1] == expected
