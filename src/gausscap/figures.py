"""Deterministic data series behind the comparison figures.

Each builder sweeps one channel family over a parameter grid and tabulates
the bound values, one column per row of the family's bound table; the
attenuator figures report upper bounds as ratios to the lower bound, which is
the shape the comparisons are usually plotted in.
Series serialize to diff-friendly CSV: '#' metadata lines, a header row and
12 significant digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._np import np

from . import __version__
from .bounds import FAMILIES, MAX_GRID_POINTS, _row_values
from .bounds import combined_decomposition_bound
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

@dataclass(frozen=True)
class FigureSeries:
    """One figure's worth of columns on a common grid.

    Column cells are floats or None; None marks an inapplicable entry and
    serializes to an empty CSV cell.
    """

    figure_id: str
    x_name: str
    x_values: list
    columns: dict
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, col in self.columns.items():
            if len(col) != len(self.x_values):
                raise ValueError(
                    f"column {name!r} has {len(col)} cells for "
                    f"{len(self.x_values)} grid points"
                )

    def column(self, name: str) -> list:
        return self.columns[name]


def _cells(values) -> list:
    """CSV cells of one column: 12 significant digits, empty for None/NaN."""
    return ["" if v is None or v != v else format(v, ".12g") for v in values]


def write_csv(series: FigureSeries, path) -> None:
    """Write the series as UTF-8 CSV with leading '#' metadata lines."""
    lines = [f"# figure: {series.figure_id}", f"# generator: gausscap {__version__}"]
    for key, value in series.metadata.items():
        lines.append(f"# {key}: {value}")
    lines.append(",".join([series.x_name] + list(series.columns)))
    columns = [_cells(series.x_values)] + [_cells(col) for col in series.columns.values()]
    lines.extend(map(",".join, zip(*columns)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    """lo, lo + step, ... up to hi: the last point is at most hi, to within
    GRID_END_TOL of a step, so a span that is a multiple of the step keeps its end."""
    steps = (hi - lo) / step + GRID_END_TOL if 0.0 < step < math.inf else math.nan
    if not 0.0 <= steps < MAX_GRID_POINTS:  # NaN and inf fail the comparison too
        raise ParamDomainError(f"need 1 to {MAX_GRID_POINTS} grid points, got [{lo}, {hi}] step {step}")
    return lo + step * np.arange(math.floor(steps) + 1)


def _bound_columns(family: str, points) -> dict:
    """Clamped value of every bound row, then "combined", at each parameter
    tuple: the cells of `bounds_report`'s entries, None where a row does not
    apply."""
    fam = FAMILIES[family]
    cells = []
    for args in points:
        values, best = _row_values(fam, args)
        clamped = [max(raw, 0.0) if applies else None for applies, raw in values]
        cells.append(clamped + [max(best, 0.0)])
    names = [row.name for row in fam.rows] + ["combined"]
    return dict(zip(names, map(list, zip(*cells))))


def fig1_series(x_min: float = 0.02, x_max: float = 0.7, step: float = 0.005):
    """Additive Gaussian noise bounds against inverse beta (noise variance)."""
    if not (x_min > 0.0 and 1.0 / x_min < math.inf):  # beta = 1 / x_min
        raise _domain_error("x_min > 0 with a finite 1/x_min", x_min=x_min)
    xs = _grid(x_min, x_max, step).tolist()
    columns = _bound_columns("additive", [(1.0 / x,) for x in xs])
    meta = {
        "x": "inverse beta (added noise variance / 2)",
        "grid": f"[{x_min:g}, {x_max:g}] step {step:g}",
        "values": "clamped bound values in bits",
        "seed": "not used (deterministic sweep)",
    }
    return FigureSeries("fig1", "inverse_beta", xs, columns, meta)


def fig2_series(
    N: float = 10.0,
    g_offset_min: float = 1e-3,
    g_max: float = 1.2,
    points: int = 200,
):
    """Thermal amplifier bounds against the gain, log-spaced in gain - 1."""
    if not 1.0 < 1.0 + g_offset_min < math.inf:  # the first gain, 1 + g_offset_min
        raise _domain_error("1 + g_offset_min > 1", g_offset_min=g_offset_min)
    if not math.isfinite(g_max):  # before geomspace, which would warn on it
        raise _domain_error("finite g_max", g_max=g_max)
    if not 2 <= points <= MAX_GRID_POINTS or g_max <= 1.0 + g_offset_min:
        raise ParamDomainError(f"need 2 <= points <= {MAX_GRID_POINTS}, g_max > 1 + g_offset_min")
    gains = (1.0 + np.geomspace(g_offset_min, g_max - 1.0, points)).tolist()
    columns = _bound_columns("amplifier", [(g, N) for g in gains])
    meta = {
        "x": "amplifier gain",
        "N": f"{N:g}",
        "grid": f"gain - 1 log-spaced in [{g_offset_min:g}, {g_max - 1:g}], "
        f"{points} points",
        "values": "clamped bound values in bits",
        "seed": "not used (deterministic sweep)",
    }
    return FigureSeries("fig2", "gain", gains, columns, meta)


def _attenuator_series(figure_id, N, eta_min, eta_max, step, decomposed=False):
    """Attenuator lower bound, then each upper row as a ratio to it; when
    `decomposed`, "combined" is the decomposition-combined bound."""
    etas = _grid(eta_min, eta_max, step).tolist()
    columns = _bound_columns("attenuator", [(eta, N) for eta in etas])
    lower = columns["lower"]
    del columns["combined"]
    if decomposed:
        columns["combined"] = [
            combined_decomposition_bound(
                PhaseInsensitiveParams(eta, (1.0 - eta) * (2.0 * N + 1.0))
            ).value if low > 0.0 else None
            for eta, low in zip(etas, lower)
        ]
    for name in list(columns)[1:]:  # every column but "lower", as a ratio to it
        columns[name] = [
            None if v is None or low <= 0.0 else v / low for v, low in zip(columns[name], lower)
        ]
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


def fig3_series(
    N: float = 0.05,
    eta_min: float = 0.55,
    eta_max: float = 0.995,
    step: float = 0.0025,
):
    """Thermal attenuator upper bounds as ratios to the lower bound."""
    return _attenuator_series("fig3", N, eta_min, eta_max, step)


def fig3_inset_series(
    N: float = 0.05,
    eta_min: float = 0.60,
    eta_max: float = 0.80,
    step: float = 0.0025,
):
    """Close-up of the attenuator figure around the bound crossing, with the
    decomposition-combined bound (`combined_decomposition_bound`) added."""
    return _attenuator_series("fig3-inset", N, eta_min, eta_max, step, decomposed=True)


_BUILDERS = {
    "fig1": fig1_series,
    "fig2": fig2_series,
    "fig3": fig3_series,
    "fig3-inset": fig3_inset_series,
}
FIGURE_IDS = tuple(_BUILDERS)


def build_figure(figure_id: str, **overrides) -> FigureSeries:
    """Build a figure series by id, passing through any grid overrides."""
    if figure_id not in _BUILDERS:
        raise ParamDomainError(
            f"unknown figure {figure_id!r}; choose from {FIGURE_IDS}"
        )
    return _BUILDERS[figure_id](**overrides)
