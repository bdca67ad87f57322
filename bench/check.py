"""Correctness checks of operation outputs against the independent references.

An operation fails when it raises anything other than the error its input
calls for, returns a non-finite value, breaks the sandwich (clamped lower
bound above the combined upper bound), or agrees with the reference to fewer
than MIN_DIGITS significant digits. A check never raises: a malformed output
is a failed operation, so one bad output cannot abort a run.
"""

import math
from dataclasses import dataclass

import numpy as np

import reference as R

MIN_DIGITS = 6.0
# Slack on the sandwich and on monotone comparisons, in bits relative to
# max(|value|, 1): far below any real violation, above float rounding.
SLACK = 1e-9
FIGURE_COLUMNS = {
    "fig1": ("inverse_beta", ("lower", "naj", "plob", "extension", "combined")),
    "fig2": ("gain", ("lower", "naj", "plob", "extension", "combined")),
    "fig3": ("transmissivity", ("lower", "plob", "rosati", "extension")),
}


@dataclass(frozen=True)
class Verdict:
    failed: bool
    digits: float | None = None  # None where the output has no reference value
    reason: str = ""


def _fail(reason: str) -> Verdict:
    return Verdict(True, None, reason)


def _ok(d: float | None) -> Verdict:
    if d is not None and d < MIN_DIGITS:
        return Verdict(True, d, f"only {d:.2f} correct digits")
    return Verdict(False, d)


def _slack(v) -> float:
    return SLACK * max(1.0, abs(float(v)))


def check_report(op: dict, out: dict) -> Verdict:
    """Digits are judged on clamped values, the numbers that bound the
    capacity; a raw value can be ill-conditioned in its inputs (log2(beta-1)
    near beta = 1) where its clamped value is not."""
    ref = R.report_entries(op["family"], op["params"])
    found = []
    for name, rv in ref.items():
        if name not in out:
            return _fail(f"missing entry {name!r}")
        raw, clamped, applicable = out[name]
        if name != "combined" and applicable != (rv is not None):
            return _fail(f"{name}: applicable={applicable}, expected {rv is not None}")
        if rv is None:
            continue
        if not math.isfinite(clamped) or clamped != max(raw, 0.0):
            return _fail(f"{name}: clamped value {clamped!r} for raw {raw!r}")
        found.append(R.digits(clamped, max(rv, R.mp.zero)))
    lower, combined = out["lower"][1], out["combined"][1]
    if lower > combined + _slack(combined):
        return _fail(f"sandwich: clamped lower {lower!r} > combined {combined!r}")
    return _ok(min(found))


def _cells(rows: list, j: int) -> np.ndarray:
    return np.array([float(r[j]) if r[j] != "" else np.nan for r in rows])


def _digits_np(v: np.ndarray, ref: np.ndarray) -> float:
    err = np.abs(v.astype(R.LD) - ref) / np.maximum(np.abs(ref), 1)
    worst = float(err.max()) if err.size else 0.0
    return R.DIGITS_CAP if worst == 0 else min(R.DIGITS_CAP, max(0.0, -math.log10(worst)))


def check_figure(op: dict, out: dict) -> Verdict:
    fid = op["id"]
    data = [line for line in out["csv"].splitlines() if not line.startswith("#")]
    header, rows = data[0].split(","), [line.split(",") for line in data[1:]]
    x_name, names = FIGURE_COLUMNS[fid]
    if header[0] != x_name or any(n not in header for n in names):
        return _fail(f"unexpected header {header}")
    xs_ref, cols_ref = R.figure_reference(fid, op["overrides"])
    if len(rows) != len(xs_ref) or any(len(r) != len(header) for r in rows):
        return _fail(f"{len(rows)} rows, expected {len(xs_ref)}")
    found = [_digits_np(_cells(rows, 0), xs_ref.astype(R.LD))]
    cols = {}
    for name in names:
        v = _cells(rows, header.index(name))
        ref = cols_ref[name]
        if not np.array_equal(np.isnan(v), np.isnan(ref)):
            return _fail(f"{name}: empty cells differ from the reference")
        if np.isinf(v).any():
            return _fail(f"{name}: non-finite cell")
        ok = ~np.isnan(v)
        found.append(_digits_np(v[ok], ref[ok]))
        cols[name] = v
    if fid == "fig3":
        ratios = np.concatenate([cols[k] for k in ("plob", "rosati", "extension")])
        if (ratios[~np.isnan(ratios)] < 1 - SLACK).any():
            return _fail("sandwich: an upper bound below the lower bound")
    else:
        if (cols["lower"] > cols["combined"] + SLACK * np.maximum(1, cols["combined"])).any():
            return _fail("sandwich: lower above combined")
    return _ok(min(found))


def check_decompose(op: dict, out: dict) -> Verdict:
    tau, y, value = op["tau"], op["y"], out["value"]
    if not math.isfinite(value) or value < 0:
        return _fail(f"bound value {value!r}")
    direct = R.min_upper(tau, y)
    if out["kind"] == "direct":
        ref = direct
    else:
        (t1, y1), (t2, y2) = out["stages"]
        for t, yy in ((t1, y1), (t2, y2)):
            if yy < abs(1 - t) - 1e-12:
                return _fail(f"stage ({t}, {yy}) is not completely positive")
        if abs(t1 * t2 - tau) > 1e-12 * tau or abs(t2 * y1 + y2 - y) > 1e-9 * max(1.0, y):
            return _fail("stages do not compose to the target")
        ref = min(R.mp.inf if u is None else u for u in (R.min_upper(t1, y1), R.min_upper(t2, y2)))
    if value > direct + _slack(direct):
        return _fail(f"bound {value!r} looser than the direct bounds {float(direct)!r}")
    lower = R.lower_bound(tau, y)
    if lower > value + _slack(value):
        return _fail(f"sandwich: lower {float(lower)!r} > bound {value!r}")
    return _ok(R.digits(value, ref))


def check_oracle(op: dict, out: dict) -> Verdict:
    expected = op["expect_error"]
    if expected or "error" in out:
        if out.get("error") == expected:
            return _ok(None)
        return _fail(f"expected {expected or 'a value'}, got {out}")
    value, gap = out["value"], out["gap"]
    if not (math.isfinite(value) and math.isfinite(gap) and gap >= 0):
        return _fail(f"non-finite estimate {out}")
    if out["m_used"] != op["M"]:
        return _fail(f"probe energy {out['m_used']} instead of {op['M']}")
    ref = R.oracle_value(op["family"], op["params"], op["strategy"], op["M"])
    return _ok(R.digits(value, ref))


def check_check(op: dict, out: dict) -> Verdict:
    residual, tol = out["residual"], out["tolerance"]
    if out["passed"] and out["applicable"] and math.isfinite(residual) and residual <= tol:
        return _ok(None)
    return _fail(f"{out['name']}: passed={out['passed']} residual {residual!r} (tol {tol!r})")


CHECKS = {
    "report": check_report,
    "figure": check_figure,
    "decompose": check_decompose,
    "oracle": check_oracle,
    "check": check_check,
}


def check(op: dict, out: dict) -> Verdict:
    """Verdict on one operation's output; never raises."""
    if "error" in out and op["kind"] != "oracle":
        return _fail(f"raised {out['error']}: {out.get('message', '')}")
    try:
        return CHECKS[op["kind"]](op, out)
    except Exception as exc:  # a malformed output fails its operation
        return _fail(f"unreadable output ({type(exc).__name__}: {exc})")


@dataclass
class Tally:
    attempted: int
    failed: int
    digits: float | None  # minimum over the operations that did not fail
    failures: list  # (pool index, reason)


def evaluate(ops: list, outputs: list, counts: list, mismatched: list) -> Tally:
    """Count failed operations over a run. Entry k of the pool ran counts[k]
    times; outputs[k] is its warm-up output, and mismatched[k] counts timed
    runs whose output differed from it."""
    failed, digits, failures = 0, [], []
    for k, (op, out) in enumerate(zip(ops, outputs)):
        v = check(op, out)
        if v.failed:
            failed += counts[k]
            failures.append((k, v.reason))
            continue
        failed += mismatched[k]
        if mismatched[k]:
            failures.append((k, f"{mismatched[k]} outputs differ from the first"))
        if v.digits is not None:
            digits.append(v.digits)
    return Tally(sum(counts), failed, min(digits) if digits else None, failures)
