"""Independent references for checking gausscap outputs.

Nothing here imports gausscap. The mpmath functions evaluate each closed form
at 50 digits with the entropy written as

    h(x) = log2((x+1)/2) + ((x-1)/2) * log1p(2/(x-1)) / ln 2,

which does not cancel for large x, so they stay exact over the whole domain
the API accepts. The numpy functions use the same formula in extended
precision (`np.longdouble`) for figure sweeps too long to check in mpmath.
Inputs are the floats the program received, converted exactly.
"""

import math

import mpmath
import numpy as np

mp = mpmath.MPContext()
mp.dps = 50

DIGITS_CAP = 12.0


def digits(value: float, ref) -> float:
    """Correct significant digits of `value` against `ref`, capped at 12.

    The error is relative to max(|ref|, 1 bit), so values that pass through
    zero (a lower bound at its threshold) are judged by absolute error.
    Infinite references must be matched exactly.
    """
    if ref is None:
        raise ValueError("no reference value")
    if mp.isinf(ref):
        return DIGITS_CAP if value == float(ref) else 0.0
    if not math.isfinite(value):
        return 0.0
    err = abs(mp.mpf(value) - ref) / max(abs(ref), mp.one)
    if err == 0:
        return DIGITS_CAP
    return float(min(DIGITS_CAP, max(0.0, -mp.log10(err))))


# ---------------------------------------------------------------------------
# Closed forms at 50 digits
# ---------------------------------------------------------------------------


def h(x):
    """Bosonic entropy in bits of a mode with symplectic eigenvalue x >= 1."""
    x = mp.mpf(x)
    if x <= 1:
        return mp.zero
    return mp.log((x + 1) / 2, 2) + (x - 1) / 2 * mp.log1p(2 / (x - 1)) / mp.ln2


def _log2(x):
    return mp.log(mp.mpf(x), 2)


def additive_entries(beta) -> dict:
    b = mp.mpf(beta)
    lower = _log2(b) - 1 / mp.ln2
    return {
        "lower": lower,
        "naj": _log2(b - 1) if b > 1 else mp.ninf,
        "plob": lower + 1 / (b * mp.ln2),
        "extension": lower + 2 * h(mp.sqrt(1 + 1 / b**2)),
    }


def amplifier_entries(g, N) -> dict:
    """Bounds on the amplifier; None marks an entry that does not apply."""
    g, N = mp.mpf(g), mp.mpf(N)
    hn = h(2 * N + 1)
    out = {
        "lower": _log2(g / (g - 1)) - hn,
        "plob": (N + 1) * _log2(g) - _log2(g - 1) - hn,
        "naj": None,
        "extension": None,
    }
    if N > 0:
        add = additive_entries(1 / ((g - 1) * N))
        out["naj"], out["extension"] = add["naj"], add["extension"]
    return out


def attenuator_entries(eta, N) -> dict:
    """Bounds on the attenuator; None marks an entry that does not apply."""
    eta, N = mp.mpf(eta), mp.mpf(N)
    hn = h(2 * N + 1)
    t = eta - N * (1 - eta)
    return {
        "lower": _log2(eta / (1 - eta)) - hn,
        "plob": -_log2(1 - eta) - N * _log2(eta) - hn,
        "rosati": _log2(t / ((N + 1) * (1 - eta))) if t > 0 else None,
        "extension": (
            _log2(eta / (1 - eta))
            + h((1 - eta) * (2 * N + 1) + eta)
            - h(eta * (2 * N + 1) + 1 - eta)
        )
        if eta > mp.mpf(0.5)
        else None,
    }


def report_entries(family: str, params: dict) -> dict:
    """Reference raw value of every entry of a bound report, with "combined"
    the minimum of the applicable upper bounds clamped at zero."""
    if family == "additive":
        entries = additive_entries(params["beta"])
    elif family == "amplifier":
        entries = amplifier_entries(params["g"], params["N"])
    else:
        entries = attenuator_entries(params["eta"], params["N"])
    uppers = [max(v, mp.zero) for k, v in entries.items() if k != "lower" and v is not None]
    entries["combined"] = min(uppers)
    return entries


def min_upper(tau: float, y: float):
    """Best clamped direct upper bound on the phase-insensitive channel
    (tau, y), using each family's applicability rules; None for identity."""
    tau, y = mp.mpf(tau), mp.mpf(y)
    if abs(tau - 1) <= mp.mpf(1e-12):
        if y <= mp.mpf(1e-12):
            return None
        entries = additive_entries(2 / y)
    elif tau < 1:
        entries = attenuator_entries(tau, max(mp.zero, (y / (1 - tau) - 1) / 2))
    else:
        entries = amplifier_entries(tau, max(mp.zero, (y / (tau - 1) - 1) / 2))
    entries.pop("lower")
    return min(max(v, mp.zero) for v in entries.values() if v is not None)


def lower_bound(tau: float, y: float):
    """Clamped one-shot coherent-information lower bound on (tau, y)."""
    tau, y = mp.mpf(tau), mp.mpf(y)
    if tau < 1:
        raw = attenuator_entries(tau, max(mp.zero, (y / (1 - tau) - 1) / 2))["lower"]
    else:
        raw = amplifier_entries(tau, max(mp.zero, (y / (tau - 1) - 1) / 2))["lower"]
    return max(raw, mp.zero)


# ---------------------------------------------------------------------------
# Gaussian entropies at 50 digits, for the thermal-probe oracle
# ---------------------------------------------------------------------------


def _omega(n: int):
    om = mp.zeros(2 * n, 2 * n)
    for k in range(n):
        om[2 * k, 2 * k + 1] = 1
        om[2 * k + 1, 2 * k] = -1
    return om


def entropy_from_cov(V) -> object:
    """Entropy in bits of the Gaussian state with covariance V (mp.matrix).

    The symplectic spectrum is read from the Hermitian matrix L^T (i Omega) L
    with V = L L^T, whose eigenvalues are +/- the symplectic eigenvalues; this
    avoids the non-normal eigenproblem the library solves.
    """
    n = V.rows // 2
    L = mp.cholesky(V)
    H = L.T * (mp.mpc(0, 1) * _omega(n)) * L
    ev = sorted(mp.eigh(H, eigvals_only=True), reverse=True)[:n]
    return mp.fsum(h(d) for d in ev)


def _thermal(M):
    return (2 * mp.mpf(M) + 1) * mp.eye(2)


def _tmsv(N):
    N = mp.mpf(N)
    d, c = 2 * N + 1, 2 * mp.sqrt(N * (N + 1))
    return mp.matrix([[d, 0, c, 0], [0, d, 0, -c], [c, 0, d, 0], [0, -c, 0, d]])


def _direct_sum(*blocks):
    n = sum(b.rows for b in blocks)
    out = mp.zeros(n, n)
    k = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                out[k + i, k + j] = b[i, j]
        k += b.rows
    return out


def extended_attenuator_xy(eta, N):
    """Moment map of the one-to-two-mode attenuator extension: the signal
    meets one half of a two-mode squeezed environment on a beam splitter of
    transmissivity eta, the flag mode starts in vacuum."""
    eta = mp.mpf(eta)
    X = mp.zeros(4, 2)
    X[0, 0] = X[1, 1] = mp.sqrt(eta)
    Y = (1 - eta) * _tmsv(N) + eta * _direct_sum(mp.zeros(2, 2), mp.eye(2))
    return X, Y


def flagged_additive_xy(beta):
    """Moment map of the flagged additive-noise channel: correlated
    displacements on the signal and on the momenta of two squeezed flags."""
    b = mp.mpf(beta)
    X = mp.zeros(6, 2)
    X[0, 0] = X[1, 1] = 1
    Y = mp.zeros(6, 6)
    Y[0, 0] = Y[1, 1] = 2 / b
    Y[2, 2] = Y[4, 4] = 2 / b
    Y[3, 3] = Y[5, 5] = b / 2 + 1 / (2 * b)
    Y[1, 3] = Y[3, 1] = 1 / b
    Y[0, 5] = Y[5, 0] = -1 / b
    return X, Y


def _apply(X, Y, V):
    out = X * V * X.T + Y
    return (out + out.T) / 2


def _with_identity(X, Y):
    """Extend a moment map by one identity wire on the right."""
    Xj = mp.zeros(X.rows + 2, X.cols + 2)
    for i in range(X.rows):
        for j in range(X.cols):
            Xj[i, j] = X[i, j]
    Xj[X.rows, X.cols] = Xj[X.rows + 1, X.cols + 1] = 1
    return Xj, _direct_sum(Y, mp.zeros(2, 2))


def oracle_value(family: str, params: dict, strategy: str, M: float):
    """Exact coherent information at probe energy M, computed the way the
    chosen strategy defines it: S(output) - S(complement output), or
    S(output) - S(joint output on the purified probe)."""
    if family == "identity":
        X, Y = mp.eye(2), mp.zeros(2, 2)
    elif family == "extended_attenuator":
        X, Y = extended_attenuator_xy(params["eta"], params["N"])
    else:
        X, Y = flagged_additive_xy(params["beta"])
    direct = entropy_from_cov(_apply(X, Y, _thermal(M)))
    if strategy == "complement":
        Xc, Yc = extended_attenuator_xy(1 - mp.mpf(params["eta"]), params["N"])
        return direct - entropy_from_cov(_apply(Xc, Yc, _thermal(M)))
    if family == "identity":
        return direct  # the joint output is the pure two-mode squeezed probe
    Xj, Yj = _with_identity(X, Y)
    return direct - entropy_from_cov(_apply(Xj, Yj, _tmsv(M)))


# ---------------------------------------------------------------------------
# Vectorized references in extended precision, for sweeps
# ---------------------------------------------------------------------------

LD = np.longdouble
_LN2 = np.log(LD(2))


def h_np(x) -> np.ndarray:
    x = np.asarray(x, dtype=LD)
    out = np.zeros_like(x)
    g = x > 1
    xg = x[g]
    out[g] = np.log2((xg + 1) / 2) + (xg - 1) / 2 * np.log1p(2 / (xg - 1)) / _LN2
    return out


def additive_np(beta) -> dict:
    b = np.asarray(beta, dtype=LD)
    lower = np.log2(b) - 1 / _LN2
    with np.errstate(divide="ignore", invalid="ignore"):
        naj = np.where(b > 1, np.log2(np.maximum(b - 1, LD(0))), -np.inf)
    return {
        "lower": lower,
        "naj": naj,
        "plob": lower + 1 / (b * _LN2),
        "extension": lower + 2 * h_np(np.sqrt(1 + 1 / b**2)),
    }


def amplifier_np(g, N: float) -> dict:
    """Bounds on amplifiers with gains g at one photon number N; for N = 0
    the additive-factor entries are None (inapplicable)."""
    g = np.asarray(g, dtype=LD)
    N = LD(N)
    hn = h_np(2 * N + 1)
    out = {
        "lower": np.log2(g / (g - 1)) - hn,
        "plob": (N + 1) * np.log2(g) - np.log2(g - 1) - hn,
        "naj": None,
        "extension": None,
    }
    if N > 0:
        add = additive_np(1 / ((g - 1) * N))
        out["naj"], out["extension"] = add["naj"], add["extension"]
    return out


def attenuator_np(eta, N) -> dict:
    """Bounds on attenuators; inapplicable cells are NaN."""
    eta = np.asarray(eta, dtype=LD)
    N = np.asarray(N, dtype=LD)
    hn = h_np(2 * N + 1)
    t = eta - N * (1 - eta)
    with np.errstate(divide="ignore", invalid="ignore"):
        rosati = np.where(t > 0, np.log2(t / ((N + 1) * (1 - eta))), np.nan)
    ext = (
        np.log2(eta / (1 - eta))
        + h_np((1 - eta) * (2 * N + 1) + eta)
        - h_np(eta * (2 * N + 1) + 1 - eta)
    )
    return {
        "lower": np.log2(eta / (1 - eta)) - hn,
        "plob": -np.log2(1 - eta) - N * np.log2(eta) - hn,
        "rosati": rosati,
        "extension": np.where(eta > 0.5, ext, np.nan),
    }


def _min_upper_np(tau, y) -> np.ndarray:
    """Vectorized min_upper for stages that are attenuators or amplifiers
    (never tau = 1 in a decomposition scan); NaN where infeasible."""
    out = np.full(tau.shape, np.inf, dtype=LD)
    att = tau < 1
    if att.any():
        t, yy = tau[att], y[att]
        e = attenuator_np(t, np.maximum((yy / (1 - t) - 1) / 2, 0))
        vals = [np.maximum(e[k], 0) for k in ("plob", "rosati", "extension")]
        vals = [np.where(np.isnan(v), np.inf, v) for v in vals]
        out[att] = np.minimum.reduce(vals)
    amp = ~att
    if amp.any():
        t, yy = tau[amp], y[amp]
        N = np.maximum((yy / (t - 1) - 1) / 2, 0)
        hn = h_np(2 * N + 1)
        plob = np.maximum((N + 1) * np.log2(t) - np.log2(t - 1) - hn, 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            add = additive_np(1 / ((t - 1) * N))
        route = np.minimum(np.maximum(add["naj"], 0), np.maximum(add["extension"], 0))
        out[amp] = np.where(N > 0, np.minimum(plob, route), plob)
    return out


def dense_decomposition(tau: float, y: float, points: int = 4000, gain_max: float = 1e3):
    """Best two-stage decomposition bound on (tau, y) by a dense scan over
    the amplifier gain, for both stage orders and both noise allocations,
    together with the direct bounds. Used to measure how loose the
    library's grid-plus-refinement search is."""
    best = min_upper(tau, y)
    base = max(1.0, tau)
    gains = np.geomspace(base * (1 + 1e-4), base * gain_max, points).astype(LD)
    T, Yt = LD(tau), LD(y)
    for first_is_amp in (True, False):
        tau1, tau2 = (gains, T / gains) if first_is_amp else (T / gains, gains)
        for min_noise_first in (True, False):
            if min_noise_first:
                y1 = np.abs(1 - tau1)
                y2 = Yt - tau2 * y1
                ok = y2 >= np.abs(1 - tau2) - 1e-12
                y2 = np.maximum(y2, np.abs(1 - tau2))
            else:
                y2 = np.abs(1 - tau2)
                y1 = (Yt - y2) / tau2
                ok = y1 >= np.abs(1 - tau1) - 1e-12
                y1 = np.maximum(y1, np.abs(1 - tau1))
            if not ok.any():
                continue
            vals = np.minimum(
                _min_upper_np(tau1[ok], y1[ok]), _min_upper_np(tau2[ok], y2[ok])
            )
            best = min(best, mp.mpf(float(vals.min())))
    return best


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    return lo + step * np.arange(int(round((hi - lo) / step)) + 1)


def _clamp(v):
    return np.maximum(v, 0)


def figure_reference(fid: str, ov: dict):
    """(x values, {column: values}) for a figure sweep with the given grid
    overrides; NaN marks a cell the figure leaves empty."""
    if fid == "fig1":
        xs = _grid(ov["x_min"], ov["x_max"], ov["step"])
        e = additive_np(1.0 / xs)
        cols = {k: _clamp(v) for k, v in e.items()}
        cols["combined"] = np.minimum.reduce([cols["naj"], cols["plob"], cols["extension"]])
        return xs, cols
    if fid == "fig2":
        xs = 1.0 + np.geomspace(ov["g_offset_min"], ov["g_max"] - 1.0, ov["points"])
        e = amplifier_np(xs, ov["N"])
        nan = np.full(xs.shape, np.nan, dtype=LD)
        cols = {k: nan if v is None else _clamp(v) for k, v in e.items()}
        cols["combined"] = np.fmin.reduce([cols["naj"], cols["plob"], cols["extension"]])
        return xs, cols
    xs = _grid(ov["eta_min"], ov["eta_max"], ov["step"])
    e = attenuator_np(xs, ov["N"])
    low = _clamp(e["lower"])
    cols = {"lower": low}
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in ("plob", "rosati", "extension"):
            cols[k] = np.where(low > 0, _clamp(e[k]) / low, np.nan)
    return xs, cols
