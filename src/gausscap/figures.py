"""Deterministic data series behind the comparison figures.

Each builder sweeps one channel family over a parameter grid and tabulates
the bound values, one column per row of the family's bound table; the
attenuator figures report upper bounds as ratios to the lower bound, which is
the shape the comparisons are usually plotted in.

The rows run on whole float64 columns (`bounds._bound_columns`), and every
cell is bit-identical to the report at that point: numpy does only the
+ - * /, which round as on floats, and each log2, log1p and hypot is the
scalar row's `math` call mapped over the column (numpy's own differ from
`math` in the last bit at some points). A series keeps each column as float64
values plus an applicability mask; only its list accessors (`x_values`,
`columns`, `column`) build Python floats and None. `write_csv` writes
diff-friendly CSV ('#' metadata lines, a header row, 12 significant digits)
in fixed blocks of `_CSV_BLOCK_ROWS` rows, so beyond the series itself its
memory is one block's floats and text, whatever the number of rows.
"""

from __future__ import annotations

import math

from ._np import np

from . import __version__
from .bounds import MAX_GRID_POINTS, _bound_columns, combined_decomposition_bound
from .channels import ParamDomainError, PhaseInsensitiveParams, _domain_error
from .symplectic import GRID_END_TOL

__all__ = [
    "FigureSeries",
    "FIGURE_IDS",
    "fig1_series",
    "fig2_series",
    "fig3_series",
    "fig3_inset_series",
    "build_figure",
    "write_csv",
]

_CSV_BLOCK_ROWS = 65536  # rows per formatted block: write_csv's text never holds more


class FigureSeries:
    """One figure's worth of columns on a common grid.

    `x` is the grid as a float64 array, and `table` maps each column name to
    `(keep, values)`: a boolean applicability mask and float64 values, NaN
    wherever `keep` is False. The constructor takes a column as such a pair,
    as the builders make it, or as a list of floats and None (None: the cell
    does not apply). `x_values`, `columns` and `column(name)` build lists on
    each access: floats, and None where a cell does not apply.
    """

    def __init__(self, figure_id: str, x_name: str, x_values, columns: dict, metadata=None):
        self.figure_id, self.x_name, self.metadata = figure_id, x_name, metadata or {}
        self.x, self.table = np.asarray(x_values, dtype=float), {}
        for name, col in columns.items():
            keep, values = col if isinstance(col, tuple) else (
                np.array([v is not None for v in col], dtype=bool), np.array(col, dtype=float))
            if len(values) != len(self.x):
                raise ValueError(f"column {name!r} has {len(values)} cells for "
                                 f"{len(self.x)} grid points")
            self.table[name] = keep, np.where(keep, values, math.nan)

    @property
    def x_values(self) -> list:
        return self.x.tolist()

    @property
    def columns(self) -> dict:
        return {name: self.column(name) for name in self.table}

    def column(self, name: str) -> list:
        keep, values = self.table[name]
        return np.where(keep, values, None).tolist()


def write_csv(series: FigureSeries, path) -> None:
    """Write the series as UTF-8 CSV with leading '#' metadata lines; each
    cell has 12 significant digits (`format(v, ".12g")`), and inapplicable
    and NaN cells are empty. Rows are formatted and written `_CSV_BLOCK_ROWS`
    at a time, so the memory the text takes does not grow with the table."""
    lines = [f"# figure: {series.figure_id}", f"# generator: gausscap {__version__}"]
    for key, value in series.metadata.items():
        lines.append(f"# {key}: {value}")
    lines.append(",".join([series.x_name, *series.table]))
    columns = [series.x, *(values for _, values in series.table.values())]
    row = ",".join(["%.12g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
        for start in range(0, len(series.x), _CSV_BLOCK_ROWS):
            block = np.column_stack([c[start:start + _CSV_BLOCK_ROWS] for c in columns])
            text = row * len(block) % tuple(block.ravel().tolist())
            fh.write(text.replace("nan", ""))  # "%.12g" % NaN is "nan"


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    """lo, lo + step, ... up to hi: the last point is at most hi, to within GRID_END_TOL of a
    step plus an ulp of |lo| + |hi|, so a span that is a multiple of the step keeps its end."""
    steps = ((hi - lo) / step + GRID_END_TOL + min(0.5, math.ulp(abs(lo) + abs(hi)) / step)
             if 0.0 < step < math.inf else math.nan)  # the ulp: lo and hi are rounded too
    if not 0.0 <= steps < MAX_GRID_POINTS:  # NaN and inf fail the comparison too
        raise ParamDomainError(f"need 1 to {MAX_GRID_POINTS} grid points, got [{lo}, {hi}] step {step}")
    return lo + step * np.arange(math.floor(steps) + 1)


def fig1_series(x_min: float = 0.02, x_max: float = 0.7, step: float = 0.005):
    """Additive Gaussian noise bounds against inverse beta (noise variance)."""
    if not (x_min > 0.0 and 1.0 / x_min < math.inf):  # beta = 1 / x_min
        raise _domain_error("x_min > 0 with a finite 1/x_min", x_min=x_min)
    xs = _grid(x_min, x_max, step)
    meta = {
        "x": "inverse beta (added noise variance / 2)",
        "grid": f"[{x_min:g}, {x_max:g}] step {step:g}",
        "values": "clamped bound values in bits",
        "seed": "not used (deterministic sweep)",
    }
    return FigureSeries("fig1", "inverse_beta", xs, _bound_columns("additive", 1.0 / xs), meta)


def fig2_series(N: float = 10.0, g_offset_min: float = 1e-3, g_max: float = 1.2,
                points: int = 200):
    """Thermal amplifier bounds against the gain, log-spaced in gain - 1."""
    if not 1.0 < 1.0 + g_offset_min < math.inf:  # the first gain, 1 + g_offset_min
        raise _domain_error("1 + g_offset_min > 1", g_offset_min=g_offset_min)
    if not math.isfinite(g_max):  # before geomspace, which would warn on it
        raise _domain_error("finite g_max", g_max=g_max)
    if not 2 <= points <= MAX_GRID_POINTS or g_max <= 1.0 + g_offset_min:
        raise ParamDomainError(f"need 2 <= points <= {MAX_GRID_POINTS}, g_max > 1 + g_offset_min")
    gains = 1.0 + np.geomspace(g_offset_min, g_max - 1.0, points)
    meta = {
        "x": "amplifier gain",
        "N": f"{N:g}",
        "grid": f"gain - 1 log-spaced in [{g_offset_min:g}, {g_max - 1:g}], {points} points",
        "values": "clamped bound values in bits",
        "seed": "not used (deterministic sweep)",
    }
    return FigureSeries("fig2", "gain", gains, _bound_columns("amplifier", gains, N), meta)


def _attenuator_series(figure_id, N, eta_min, eta_max, step, decomposed=False):
    """Attenuator lower bound, then each upper row as a ratio to it; when
    `decomposed`, "combined" is the decomposition-combined bound."""
    etas = _grid(eta_min, eta_max, step)
    columns = _bound_columns("attenuator", etas, N)
    del columns["combined"]
    low = columns["lower"][1]
    positive = low > 0.0
    if decomposed:
        columns["combined"] = positive, np.array([
            combined_decomposition_bound(
                PhaseInsensitiveParams(eta, (1.0 - eta) * (2.0 * N + 1.0))
            ).value if ok else math.nan
            for eta, ok in zip(etas.tolist(), positive.tolist())
        ])
    for name, (applies, values) in list(columns.items())[1:]:  # each upper row, as a ratio
        keep = applies & positive
        columns[name] = keep, np.divide(values, low, out=np.full_like(low, math.nan), where=keep)
    meta = {
        "x": "attenuator transmissivity",
        "N": f"{N:g}",
        "grid": f"[{eta_min:g}, {eta_max:g}] step {step:g}",
        **({"decomposition": "exact minimum over each branch's CP gains"} if decomposed else {}),
        "values": "lower bound in bits; upper bounds as ratios to the lower "
        "bound, empty where the lower bound vanishes",
        "seed": "not used (deterministic sweep)",
    }
    return FigureSeries(figure_id, "transmissivity", etas, columns, meta)


def fig3_series(N: float = 0.05, eta_min: float = 0.55, eta_max: float = 0.995,
                step: float = 0.0025):
    """Thermal attenuator upper bounds as ratios to the lower bound."""
    return _attenuator_series("fig3", N, eta_min, eta_max, step)


def fig3_inset_series(N: float = 0.05, eta_min: float = 0.60, eta_max: float = 0.80,
                      step: float = 0.0025):
    """Close-up of the attenuator figure around the bound crossing, with the
    decomposition-combined bound (`combined_decomposition_bound`) added."""
    return _attenuator_series("fig3-inset", N, eta_min, eta_max, step, decomposed=True)


_BUILDERS = {"fig1": fig1_series, "fig2": fig2_series, "fig3": fig3_series,
             "fig3-inset": fig3_inset_series}
FIGURE_IDS = tuple(_BUILDERS)


def build_figure(figure_id: str, **overrides) -> FigureSeries:
    """Build a figure series by id, passing through any grid overrides."""
    if figure_id not in _BUILDERS:
        raise ParamDomainError(f"unknown figure {figure_id!r}; choose from {FIGURE_IDS}")
    return _BUILDERS[figure_id](**overrides)
