"""Deterministic data series behind the comparison figures.

Each builder sweeps one channel family over a parameter grid and tabulates
the bound values, one column per row of the family's bound table; the
attenuator figures report upper bounds as ratios to the lower bound, which is
the shape the comparisons are usually plotted in.
Series serialize to diff-friendly CSV: '#' metadata lines, a header row and
12 significant digits.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .bounds import MAX_GRID_POINTS, bounds_report, combined_decomposition_bound
from .channels import ParamDomainError, PhaseInsensitiveParams

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

FIGURE_IDS = ("fig1", "fig2", "fig3", "fig3-inset")


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

    def rows(self):
        for i, x in enumerate(self.x_values):
            yield [x] + [col[i] for col in self.columns.values()]

    def column(self, name: str) -> list:
        return self.columns[name]


def _cell(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return f"{value:.12g}"


def write_csv(series: FigureSeries, path) -> None:
    """Write the series as UTF-8 CSV with leading '#' metadata lines."""
    lines = [f"# figure: {series.figure_id}", f"# generator: gausscap {__version__}"]
    for key, value in series.metadata.items():
        lines.append(f"# {key}: {value}")
    lines.append(",".join([series.x_name] + list(series.columns)))
    for row in series.rows():
        lines.append(",".join(_cell(v) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    steps = (hi - lo) / step if step > 0 else math.nan
    # round(steps) + 1 points; NaN and inf fail the comparison too
    if not 0.0 <= steps < MAX_GRID_POINTS - 0.5:
        raise ParamDomainError(f"need 1 to {MAX_GRID_POINTS} grid points, got [{lo}, {hi}] step {step}")
    return lo + step * np.arange(round(steps) + 1)


def _bound_columns(family: str, points) -> dict:
    """Clamped value of every report entry at each parameter point, None where
    the entry does not apply."""
    columns = {}
    for params in points:
        for name, entry in bounds_report(family, **params).entries.items():
            columns.setdefault(name, []).append(
                entry.clamped if entry.applicable else None
            )
    return columns


def fig1_series(x_min: float = 0.02, x_max: float = 0.7, step: float = 0.005):
    """Additive Gaussian noise bounds against inverse beta (noise variance)."""
    xs = _grid(x_min, x_max, step)
    columns = _bound_columns("additive", [{"beta": 1.0 / x} for x in xs])
    meta = {
        "x": "inverse beta (added noise variance / 2)",
        "grid": f"[{x_min:g}, {x_max:g}] step {step:g}",
        "values": "clamped bound values in bits",
        "seed": "not used (deterministic sweep)",
    }
    return FigureSeries("fig1", "inverse_beta", [float(x) for x in xs], columns, meta)


def fig2_series(
    N: float = 10.0,
    g_offset_min: float = 1e-3,
    g_max: float = 1.2,
    points: int = 200,
):
    """Thermal amplifier bounds against the gain, log-spaced in gain - 1."""
    if not 2 <= points <= MAX_GRID_POINTS or g_max <= 1.0 + g_offset_min:
        raise ParamDomainError(f"need 2 <= points <= {MAX_GRID_POINTS}, g_max > 1 + g_offset_min")
    gains = 1.0 + np.geomspace(g_offset_min, g_max - 1.0, points)
    columns = _bound_columns("amplifier", [{"g": float(g), "N": N} for g in gains])
    meta = {
        "x": "amplifier gain",
        "N": f"{N:g}",
        "grid": f"gain - 1 log-spaced in [{g_offset_min:g}, {g_max - 1:g}], "
        f"{points} points",
        "values": "clamped bound values in bits",
        "seed": "not used (deterministic sweep)",
    }
    return FigureSeries("fig2", "gain", [float(g) for g in gains], columns, meta)


def _attenuator_ratio_columns(etas, N, grid: int | None = None) -> dict:
    """Lower bound, then each attenuator upper row as a ratio to it; with a
    decomposition grid, the decomposition-combined bound as one more ratio."""
    columns = {}
    for eta in etas:
        eta = float(eta)
        report = bounds_report("attenuator", eta=eta, N=N)
        low = report.lower.clamped
        uppers = {
            name: entry.clamped if entry.applicable else None
            for name, entry in report.upper_entries().items()
        }
        if grid is not None:
            target = PhaseInsensitiveParams(eta, (1.0 - eta) * (2.0 * N + 1.0))
            uppers["combined"] = (
                combined_decomposition_bound(target, grid=grid).value
                if low > 0.0
                else None
            )
        columns.setdefault("lower", []).append(low)
        for name, value in uppers.items():
            columns.setdefault(name, []).append(
                None if value is None or low <= 0.0 else value / low
            )
    return columns


def fig3_series(
    N: float = 0.05,
    eta_min: float = 0.55,
    eta_max: float = 0.995,
    step: float = 0.0025,
):
    """Thermal attenuator upper bounds as ratios to the lower bound."""
    etas = _grid(eta_min, eta_max, step)
    columns = _attenuator_ratio_columns(etas, N)
    meta = {
        "x": "attenuator transmissivity",
        "N": f"{N:g}",
        "grid": f"[{eta_min:g}, {eta_max:g}] step {step:g}",
        "values": "lower bound in bits; upper bounds as ratios to the lower "
        "bound, empty where the lower bound vanishes",
        "seed": "not used (deterministic sweep)",
    }
    return FigureSeries(
        "fig3", "transmissivity", [float(e) for e in etas], columns, meta
    )


def fig3_inset_series(
    N: float = 0.05,
    eta_min: float = 0.60,
    eta_max: float = 0.80,
    step: float = 0.0025,
    grid: int = 200,
):
    """Close-up of the attenuator figure around the bound crossing, with the
    decomposition-combined bound added."""
    etas = _grid(eta_min, eta_max, step)
    columns = _attenuator_ratio_columns(etas, N, grid)
    meta = {
        "x": "attenuator transmissivity",
        "N": f"{N:g}",
        "grid": f"[{eta_min:g}, {eta_max:g}] step {step:g}",
        "decomposition_grid": f"{grid}",
        "values": "lower bound in bits; upper bounds as ratios to the lower "
        "bound, empty where the lower bound vanishes",
        "seed": "not used (deterministic sweep)",
    }
    return FigureSeries(
        "fig3-inset", "transmissivity", [float(e) for e in etas], columns, meta
    )


def build_figure(figure_id: str, **overrides) -> FigureSeries:
    """Build a figure series by id, passing through any grid overrides."""
    builders = {
        "fig1": fig1_series,
        "fig2": fig2_series,
        "fig3": fig3_series,
        "fig3-inset": fig3_inset_series,
    }
    if figure_id not in builders:
        raise ParamDomainError(
            f"unknown figure {figure_id!r}; choose from {FIGURE_IDS}"
        )
    kwargs = {k: v for k, v in overrides.items() if v is not None}
    return builders[figure_id](**kwargs)
