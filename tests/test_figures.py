import hashlib
import math
import re
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gausscap
from gausscap import figures
from gausscap.bounds import bounds_report, combined_decomposition_bound
from gausscap.channels import ParamDomainError, PhaseInsensitiveParams
from gausscap.cli import main
from gausscap.figures import (
    FigureSeries,
    _grid,
    build_figure,
    fig1_series,
    fig2_series,
    fig3_inset_series,
    fig3_series,
    write_csv,
)

_PHOTONS = st.one_of(st.just(0.0), st.floats(1e-6, 50.0))


def _report_cells(series, family, params_at):
    """Each column of `series` as `bounds_report` gives it: the entry's
    clamped value, None where the entry does not apply."""
    reports = [bounds_report(family, **params_at(x)) for x in series.x_values]
    return {
        name: [r[name].clamped if r[name].applicable else None for r in reports]
        for name in series.columns
    }


@settings(max_examples=40, deadline=None)
@given(st.floats(1e-3, 5.0), st.integers(0, 12), st.floats(1e-3, 0.5))
@example(2.0, 4, 0.5)  # beta < 1, where naj is -inf
@example(1e-300, 3, 1e-300)  # beta near 1e300
def test_fig1_sweep_equals_report(x_min, steps, step):
    series = fig1_series(x_min=x_min, x_max=x_min + steps * step, step=step)
    assert series.columns == _report_cells(series, "additive", lambda x: {"beta": 1.0 / x})


@settings(max_examples=40, deadline=None)
@given(_PHOTONS, st.floats(-6.0, 0.0), st.floats(1.5, 1e3), st.integers(2, 12))
@example(0.0, -3.0, 200.0, 5)
@example(1e300, -3.0, 1e13, 5)  # g_max = 1e10: (g - 1) N overflows, naj applies, extension not
@example(1e-300, -15.0, 200.0, 5)  # 1/((g - 1) N) overflows: neither applies
def test_fig2_sweep_equals_report(N, log_offset, spread, points):
    offset = 10.0**log_offset
    series = fig2_series(N=N, g_offset_min=offset, g_max=1.0 + offset * spread, points=points)
    assert series.columns == _report_cells(series, "amplifier", lambda g: {"g": g, "N": N})


@settings(max_examples=40, deadline=None)
@given(_PHOTONS, st.floats(0.01, 0.98), st.integers(0, 12), st.floats(1e-3, 0.1))
@example(0.0, 0.3, 6, 0.05)
@example(5.0, 0.7, 6, 0.05)
@example(0.0, 0.5, 4, 0.05)  # eta = 0.5 exactly, where the extension stops applying
@example(1e300, 0.5, 4, 0.05)
def test_fig3_sweep_equals_report_ratios(N, eta_min, steps, step):
    # eta <= 1/2 (extension inapplicable) and t = eta - N(1 - eta) <= 0
    # (rosati inapplicable) are both inside these ranges
    steps = min(steps, int((0.999 - eta_min) / step))  # the grid stays below 1
    eta_max = eta_min + steps * step
    series = fig3_series(N=N, eta_min=eta_min, eta_max=eta_max, step=step)
    reports = [bounds_report("attenuator", eta=eta, N=N) for eta in series.x_values]
    lows = [r.lower.clamped for r in reports]
    assert series.column("lower") == lows
    for name in ("plob", "rosati", "extension"):
        expected = [
            r[name].clamped / low if r[name].applicable and low > 0.0 else None
            for r, low in zip(reports, lows)
        ]
        assert series.column(name) == expected, name


@pytest.mark.parametrize("N", [-1.0, math.nan, math.inf, 1e306, 9e307])
@pytest.mark.parametrize(
    "family, param, build", [("amplifier", "g", fig2_series), ("attenuator", "eta", fig3_series)]
)
def test_sweep_domain_is_the_report_domain(family, param, build, N):
    # A sweep skips the scalar check only inside its fast path (N below
    # ~1.6e305); elsewhere it raises as the report at the first bad point
    # does, or its columns agree with the reports.
    xs = build(N=0.0).x_values
    try:
        reports = [bounds_report(family, **{param: x, "N": N}) for x in xs]
    except ParamDomainError as exc:
        with pytest.raises(ParamDomainError, match=re.escape(str(exc))):
            build(N=N)
    else:
        assert build(N=N).column("lower") == [r.lower.clamped for r in reports]


@pytest.mark.parametrize("N", [0.0, 0.05, 5.0])
def test_fig3_inset_combined_is_the_decomposition_ratio(N):
    series = fig3_inset_series(N=N, eta_min=0.45, eta_max=0.75, step=0.05)
    fig3 = fig3_series(N=N, eta_min=0.45, eta_max=0.75, step=0.05)
    assert {k: v for k, v in series.columns.items() if k != "combined"} == fig3.columns
    for eta, low, cell in zip(series.x_values, series.column("lower"), series.column("combined")):
        if low > 0.0:
            target = PhaseInsensitiveParams(eta, (1.0 - eta) * (2.0 * N + 1.0))
            assert cell == combined_decomposition_bound(target).value / low
        else:
            assert cell is None


@pytest.mark.parametrize(
    "lo, hi, step, count",
    [
        (0.02, 0.7, 0.4, 2),  # round() would add 0.82
        (0.55, 0.995, 0.05, 9),  # round() would reach 1.0
        (0.02, 0.7, 0.005, 137),
        (0.55, 0.995, 0.0025, 179),
        (0.6, 0.8, 0.0025, 81),
        (0.3, 0.3, 0.1, 1),
    ],
)
def test_grid_stops_at_its_upper_end(lo, hi, step, count):
    xs = _grid(lo, hi, step)
    assert len(xs) == count
    assert xs[-1] <= hi + 1e-9 * step < xs[-1] + step


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(1e-3, 1.0), st.integers(1, 10**5))
@example(1.0, 0.0025, 46803)  # the rounding of hi = 1.0025 alone is 4e-9 of this step
def test_grid_keeps_every_step_of_an_exact_division(lo, span, n):
    # the figure sweeps step by (hi - lo) / n and expect n + 1 points
    assert len(_grid(lo, lo + span, span / n)) == n + 1


def test_build_figure_rejects_an_unknown_id():
    expected = "unknown figure 'fig9'; choose from ('fig1', 'fig2', 'fig3', 'fig3-inset')"
    with pytest.raises(ParamDomainError, match=re.escape(expected)):
        build_figure("fig9")


def test_write_csv_cells_are_12_significant_digits(tmp_path):
    values = [None, math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 123456789012.5]
    xs = [0.5 * i for i in range(len(values))]
    series = FigureSeries("t", "x", xs, {"v": values, "w": values[::-1]}, {"k": "v"})
    path = tmp_path / "t.csv"
    write_csv(series, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[:4] == ["# figure: t", f"# generator: gausscap {gausscap.__version__}",
                         "# k: v", "x,v,w"]

    def cell(v):
        return "" if v is None or v != v else format(v, ".12g")

    assert lines[4:] == [",".join(map(cell, row)) for row in zip(xs, values, values[::-1])]


_FLOAT_CELLS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2e-308, -1e-300, 1e300]),
    st.floats(),
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 13), st.integers(1, 3), st.data())
def test_write_csv_blocks_match_the_per_cell_reference(rows, width, data):
    # blocks of 4 rows, so 0 to 13 rows end inside, on and past block edges
    xs = data.draw(st.lists(_FLOAT_CELLS, min_size=rows, max_size=rows))
    cols = [data.draw(st.lists(st.none() | _FLOAT_CELLS, min_size=rows, max_size=rows))
            for _ in range(width)]
    series = FigureSeries("t", "x", xs, {f"c{i}": col for i, col in enumerate(cols)})
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(figures, "_CSV_BLOCK_ROWS", 4)
        write_csv(series, f"{tmp}/t.csv")
        with open(f"{tmp}/t.csv", encoding="utf-8") as fh:
            lines = fh.read().splitlines()

    def cell(v):
        return "" if v is None or v != v else format(v, ".12g")

    assert lines[2:] == [",".join(["x", *series.table])] + [
        ",".join(map(cell, row)) for row in zip(xs, *cols)
    ]


def test_write_csv_memory_does_not_grow_with_the_table(tmp_path, monkeypatch):
    monkeypatch.setattr(figures, "_CSV_BLOCK_ROWS", 2048)

    def peak(rows):
        xs = np.linspace(0.1, 1.0, rows)
        series = FigureSeries("t", "x", xs, {c: (xs > 0.5, xs * k) for k, c in enumerate("abcd")})
        tracemalloc.start()
        try:
            write_csv(series, tmp_path / "t.csv")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4 * 2048) <= 1.5 * peak(2048)


# SHA-256 of `gausscap figure <id>` at default arguments, generator line
# included; a change to any cell, to the header or to the version moves it.
_FIGURE_SHA256 = {
    "fig1": "22fc0277c0ef2d407058e33f2daedc489b71c77440e56a8054686b794e809281",
    "fig2": "515a23a0421a4c8b940f003503d0b23c4f41135de58ddec269eef27b021f8242",
    "fig3": "eb39b2378fc0e85fed1609fca8a5091d362a458e9c01c19d1da8786fa90bec59",
    "fig3-inset": "f975e275e9c8000c7a1b847da1648af9680bff4e78ef41e3ea20e567d531671e",
}


@pytest.mark.parametrize("figure_id", sorted(_FIGURE_SHA256))
def test_default_figure_csv_bytes_are_frozen(figure_id, tmp_path, capsys):
    path = tmp_path / f"{figure_id}.csv"
    assert main(["figure", figure_id, "--out", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _FIGURE_SHA256[figure_id]
