import argparse
import inspect
import json
import math
import warnings

import pytest

from gausscap.bounds import MAX_GRID_POINTS
from gausscap.channels import ParamDomainError
from gausscap.cli import _build_parser, main
from gausscap.figures import (
    _BUILDERS,
    FIGURE_IDS,
    FigureSeries,
    _grid,
    build_figure,
    fig1_series,
    fig2_series,
    fig3_series,
    write_csv,
)
from gausscap.symplectic import bosonic_entropy


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_additive_json(capsys):
    code, out, _ = run_cli(capsys, "bound", "--additive", "--beta", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "additive"
    assert payload["params"]["beta"] == 4.0
    assert payload["entries"]["extension"]["clamped"] == pytest.approx(
        0.7874, abs=1e-4
    )


def test_bound_attenuator_extension_zero_at_half(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--attenuator", "--eta", "0.5", "--n", "0.1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"]["extension"]["raw"] == 0.0
    assert payload["entries"]["extension"]["applicable"] is False


def test_bound_amplifier_known_capacity(capsys):
    code, out, _ = run_cli(capsys, "bound", "--amplifier", "--g", "2", "--n", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"]["plob"]["raw"] == pytest.approx(1.0, abs=1e-12)
    assert payload["entries"]["lower"]["raw"] == pytest.approx(1.0, abs=1e-12)


def test_bound_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--additive", "--beta", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# beta: 2")
    assert lines[1] == "bound,raw,clamped,applicable,note"
    naj_row = next(line for line in lines if line.startswith("naj,"))
    assert naj_row.split(",")[2] == "0"


# `gausscap bound` output frozen before reports stored their row values, one
# point per family. JSON rows: (name, raw, clamped, applicable, note), None
# where the value is not finite.
_LOWER_NOTE = "one-shot coherent information, infinite-temperature input"
_COMBINED_NOTE = "minimum over the applicable upper bounds"
_NO_FACTOR_NOTE = "additive-factor route undefined: 1/((g - 1) N) is not a positive finite float"
_FROZEN_BOUND_CLI = [
    (
        ["--additive", "--beta", "4"],
        {"beta": 4.0},
        [
            ("lower", 0.5573049591110366, 0.5573049591110366, True, _LOWER_NOTE),
            ("naj", 1.584962500721156, 1.584962500721156, True,
             "data processing, additive-noise route"),
            ("plob", 0.9179787193332775, 0.9179787193332775, True,
             "two-way assisted capacity bound"),
            ("extension", 0.7873823004681357, 0.7873823004681357, True,
             "degradable flagged-extension capacity"),
            ("combined", 0.7873823004681357, 0.7873823004681357, True, _COMBINED_NOTE),
        ],
        """\
# beta: 4
bound,raw,clamped,applicable,note
lower,0.557304959111,0.557304959111,1,"one-shot coherent information, infinite-temperature input"
naj,1.58496250072,1.58496250072,1,"data processing, additive-noise route"
plob,0.917978719333,0.917978719333,1,"two-way assisted capacity bound"
extension,0.787382300468,0.787382300468,1,"degradable flagged-extension capacity"
combined,0.787382300468,0.787382300468,1,"minimum over the applicable upper bounds"
""",
    ),
    (
        ["--amplifier", "--g", "1e200", "--n", "1e200"],
        {"g": 1e200, "N": 1e200},
        [
            ("lower", -665.8283140183615, 0.0, True, _LOWER_NOTE),
            ("naj", None, 0.0, True,
             "data processing through the additive factor (beta < 1: (g - 1) N overflows)"),
            ("plob", 6.643856189774725e202, 6.643856189774725e202, True,
             "two-way assisted capacity bound"),
            ("extension", None, None, False, _NO_FACTOR_NOTE),
            ("combined", 0.0, 0.0, True, _COMBINED_NOTE),
        ],
        """\
# g: 1e+200
# N: 1e+200
bound,raw,clamped,applicable,note
lower,-665.828314018,0,1,"one-shot coherent information, infinite-temperature input"
naj,-inf,0,1,"data processing through the additive factor (beta < 1: (g - 1) N overflows)"
plob,6.64385618977e+202,6.64385618977e+202,1,"two-way assisted capacity bound"
extension,nan,nan,0,"additive-factor route undefined: 1/((g - 1) N) is not a positive finite float"
combined,0,0,1,"minimum over the applicable upper bounds"
""",
    ),
    (
        ["--attenuator", "--eta", "0.3", "--n", "1"],
        {"eta": 0.3, "N": 1.0},
        [
            ("lower", -3.2223924213364477, 0.0, True, _LOWER_NOTE),
            ("plob", 0.25153876699596456, 0.25153876699596456, True,
             "two-way assisted capacity bound"),
            ("rosati", None, None, False,
             "weak-degradability data processing to a pure-loss channel"),
            ("extension", -0.5739369200182669, 0.0, False,
             "degradable two-mode extension capacity (valid for eta > 1/2)"),
            ("combined", 0.25153876699596456, 0.25153876699596456, True, _COMBINED_NOTE),
        ],
        """\
# eta: 0.3
# N: 1
bound,raw,clamped,applicable,note
lower,-3.22239242134,0,1,"one-shot coherent information, infinite-temperature input"
plob,0.251538766996,0.251538766996,1,"two-way assisted capacity bound"
rosati,nan,nan,0,"weak-degradability data processing to a pure-loss channel"
extension,-0.573936920018,0,0,"degradable two-mode extension capacity (valid for eta > 1/2)"
combined,0.251538766996,0.251538766996,1,"minimum over the applicable upper bounds"
""",
    ),
]


@pytest.mark.parametrize("argv, params, rows, csv", _FROZEN_BOUND_CLI)
def test_bound_frozen_outputs(capsys, argv, params, rows, csv):
    payload = {
        "family": argv[0][2:],
        "params": params,
        "entries": {
            name: {"raw": raw, "clamped": clamped, "applicable": applicable, "note": note}
            for name, raw, clamped, applicable, note in rows
        },
    }
    code, out, _ = run_cli(capsys, "bound", *argv)
    assert code == 0
    assert out == json.dumps(payload, indent=2) + "\n"
    code, out, _ = run_cli(capsys, "bound", *argv, "--format", "csv")
    assert code == 0
    assert out == csv


def test_bound_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "bound", "--additive", "--beta", "-1")
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli(capsys, "bound", "--amplifier", "--g", "2")
    assert code == 2


@pytest.mark.parametrize(
    "argv, name",
    [
        (["--attenuator", "--eta", "0.8", "--n", "nan"], "N"),
        (["--additive", "--beta", "inf"], "beta"),
        (["--amplifier", "--g", "inf", "--n", "1"], "g"),
    ],
)
def test_bound_non_finite_parameter_exit_code(capsys, argv, name):
    code, out, err = run_cli(capsys, "bound", *argv)
    assert code == 2
    assert out == ""
    assert f"error: {name} must be finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--amplifier", "--g", "2", "--n", "0"],
        ["--attenuator", "--eta", "0.3", "--n", "1"],
        ["--additive", "--beta", "0.5"],
        ["--amplifier", "--g", "1e200", "--n", "1e200"],
    ],
)
def test_bound_json_is_strict(capsys, argv):
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    code, out, _ = run_cli(capsys, "bound", *argv)
    assert code == 0
    payload = json.loads(out, parse_constant=reject)
    nulls = [
        (name, key)
        for name, entry in payload["entries"].items()
        for key in ("raw", "clamped")
        if entry[key] is None
    ]
    assert nulls


def test_bound_amplifier_naj_without_beta_tilde(capsys):
    code, out, _ = run_cli(capsys, "bound", "--amplifier", "--g", "1e200", "--n", "1e200")
    assert code == 0
    entries = json.loads(out)["entries"]
    assert entries["naj"] == {
        "raw": None,  # -inf
        "clamped": 0.0,
        "applicable": True,
        "note": "data processing through the additive factor (beta < 1: (g - 1) N overflows)",
    }
    assert entries["combined"]["clamped"] == 0.0


@pytest.mark.parametrize(
    "argv",
    [
        ["--attenuator", "--eta", "0.5", "--n", "1e308"],
        ["--attenuator", "--eta", "1e-300", "--n", "1e306"],
    ],
)
def test_bound_overflowing_parameter_exit_code(capsys, argv):
    code, out, err = run_cli(capsys, "bound", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: need 2N + 1 and N log2(eta) finite, got eta=")


def test_figure_fig1_contents_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["figure", "fig1", "--x-min", "0.4", "--x-max", "0.6", "--x-step", "0.05"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    lines = [l for l in out1.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    assert header == ["inverse_beta", "lower", "naj", "plob", "extension", "combined"]
    row_half = next(l for l in lines[1:] if l.startswith("0.5,"))
    assert float(row_half.split(",")[header.index("naj")]) == 0.0


def test_figure_output_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GAUSSCAP_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run_cli(
        capsys,
        "figure", "fig2", "--points", "5", "--g-max", "1.1",
    )
    assert code == 0
    assert (tmp_path / "fig2.csv").exists()
    assert out.strip().endswith("fig2.csv")


def test_figure_bad_grid_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "figure", "fig1", "--x-min", "0.5", "--x-max", "0.4", "--x-step", "0.01"
    )
    assert code == 2
    assert "error:" in err
    # 10**6 steps of 4e-7 make one point more than the cap
    code, _, err = run_cli(
        capsys, "figure", "fig3", "--eta-min", "0.5", "--eta-max", "0.9", "--eta-step", "4e-7"
    )
    assert code == 2
    assert f"need 1 to {MAX_GRID_POINTS} grid points" in err


@pytest.mark.parametrize(
    "argv, name",
    [
        (["fig1", "--x-min", "0"], "x_min"),
        (["fig1", "--x-min", "-0.1"], "x_min"),
        (["fig2", "--g-offset-min", "0"], "g_offset_min"),
        (["fig2", "--g-offset-min", "nan"], "g_offset_min"),
        (["fig1", "--x-min", "1e-320"], "x_min"),  # 1/x_min, the derived beta, overflows
        (["fig2", "--g-offset-min", "1e-320"], "g_offset_min"),  # the first gain rounds to 1
    ],
)
def test_figure_bad_inputs_are_named(capsys, tmp_path, argv, name):
    code, out, err = run_cli(capsys, "figure", *argv, "--out", str(tmp_path / "f.csv"))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and name in err
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fig2", "--g-max=inf"], "error: g_max must be finite, got inf"),
        (["fig2", "--g-max=-inf"], "error: g_max must be finite, got -inf"),
        (["fig2", "--g-max=nan"], "error: g_max must be finite, got nan"),
        (["fig1", "--x-step=inf"], "error: need 1 to 1000000 grid points, got [0.02, 0.7] step inf"),
        (["fig3", "--eta-step=inf"], "error: need 1 to 1000000 grid points, got [0.55, 0.995] step inf"),
        (["fig2", "--n", "1e308"], "error: need (N + 1) log2(g) + 2N finite, got g=1.001, N=1e+308"),
    ],
    ids=["g_max=inf", "g_max=-inf", "g_max=nan", "fig1-step=inf", "fig3-step=inf", "fig2-n=1e308"],
)
def test_non_finite_grid_inputs_are_named_without_a_warning(capsys, tmp_path, argv, message):
    # numpy would warn on the inf before any check named the input
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "figure", *argv, "--out", str(tmp_path / "f.csv"))
    assert (code, out, err) == (2, "", message + "\n")


@pytest.mark.parametrize(
    "argv",
    [
        # no figure takes --grid: fig3-inset's scan minimizes over each branch's gains exactly
        ["fig3", "--grid", "5"],
        ["fig3-inset", "--grid", "5"],
        # each figure's subcommand has only its own grid flags
        ["fig1", "--points", "7"],
        ["fig2", "--eta-step", "0.1"],
        ["fig3-inset", "--x-max", "0.5"],
    ],
    ids=["fig3", "fig3-inset", "fig1-points", "fig2-eta-step", "fig3-inset-x-max"],
)
def test_removed_grid_flag_is_a_usage_error(capsys, tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main(["figure", *argv, "--out", str(tmp_path / "f.csv")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()


def _figure_subcommands() -> dict:
    """{figure id: its argparse subparser} under `gausscap figure`, each built
    with its arguments from an argv that names it."""
    def commands(parser):
        return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))

    def figure_ids(argv):
        return commands(commands(_build_parser(argv)).choices["figure"]).choices

    return {figure_id: figure_ids(["figure", figure_id])[figure_id]
            for figure_id in figure_ids(["figure"])}


def test_parser_has_arguments_only_under_the_named_command():
    def dests(parser):
        return {a.dest for a in parser._actions} - {"help"}

    for command in ("bound", "figure", "verify", "oracle"):
        top = _build_parser(["--version", command, "--help"])
        commands = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
        assert set(commands.choices) == {"bound", "figure", "verify", "oracle"}
        for name, parser in commands.choices.items():
            assert bool(dests(parser)) == (name == command), (command, name)


def test_figure_subcommands_match_their_builders():
    subcommands = _figure_subcommands()
    assert set(subcommands) == set(FIGURE_IDS)
    for figure_id, parser in subcommands.items():
        flags = {a.dest: a.type for a in parser._actions if a.dest not in ("help", "out")}
        params = inspect.signature(_BUILDERS[figure_id]).parameters
        assert set(flags) == set(params), figure_id
        for name, kind in flags.items():
            assert kind is type(params[name].default), (figure_id, name)


@pytest.mark.parametrize(
    "figure_id, listed, absent",
    [("fig1", "--x-step", "--points"), ("fig2", "--points", "--x-step"),
     ("fig3", "--eta-step", "--g-max"), ("fig3-inset", "--eta-step", "--points")],
)
def test_figure_help_lists_only_its_own_flags(capsys, figure_id, listed, absent):
    with pytest.raises(SystemExit) as exc:
        main(["figure", figure_id, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert listed in out and absent not in out


@pytest.mark.parametrize(
    "argv, last",
    [
        (["fig1", "--x-min", "0.02", "--x-max", "0.7", "--x-step", "0.4"], "0.42"),
        (["fig3", "--eta-step", "0.05"], "0.95"),
    ],
)
def test_figure_grid_stays_below_its_upper_end(capsys, tmp_path, argv, last):
    path = tmp_path / "f.csv"
    code, _, _ = run_cli(capsys, "figure", *argv, "--out", str(path))
    assert code == 0
    assert path.read_text().splitlines()[-1].split(",")[0] == last


def test_figure_grids_capped_before_allocating():
    span = 0.7 - 0.02
    assert len(_grid(0.02, 0.7, span / (MAX_GRID_POINTS - 1))) == MAX_GRID_POINTS
    with pytest.raises(ParamDomainError):
        fig1_series(x_min=0.02, x_max=0.7, step=span / MAX_GRID_POINTS)
    with pytest.raises(ParamDomainError):
        fig2_series(points=MAX_GRID_POINTS + 1)


def test_fig3_ratios_at_least_one(tmp_path):
    series = fig3_series(N=0.05, eta_min=0.7, eta_max=0.9, step=0.05)
    for name in ("plob", "rosati", "extension"):
        for low, ratio in zip(series.column("lower"), series.column(name)):
            if ratio is not None:
                assert low > 0.0
                assert ratio >= 1.0 - 1e-12
    path = tmp_path / "fig3.csv"
    write_csv(series, path)
    text = path.read_text()
    assert text.startswith("# figure: fig3")


def test_fig3_inset_combined_not_above_other_uppers():
    series = build_figure("fig3-inset", eta_min=0.68, eta_max=0.70, step=0.01)
    for name in ("plob", "rosati", "extension"):
        for combined, other in zip(series.column("combined"), series.column(name)):
            if combined is not None and other is not None:
                assert combined <= other + 1e-12


def test_fig1_empty_cells_never_appear():
    series = fig1_series(x_min=0.1, x_max=0.2, step=0.05)
    for name, col in series.columns.items():
        assert all(v is not None for v in col), name


def test_figure_series_length_validation():
    with pytest.raises(ValueError):
        FigureSeries("fig1", "x", [1.0, 2.0], {"c": [1.0]})


def test_unknown_figure_id_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["figure", "fig9"])
    capsys.readouterr()


def test_verify_cli_pass_and_fail(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "9/9 checks passed" in out
    code, out, _ = run_cli(capsys, "verify", "--gamma", "2")
    assert code == 1
    assert "FAIL" in out


def test_verify_list(capsys):
    code, out, _ = run_cli(capsys, "verify", "--list")
    assert code == 0
    names = out.strip().splitlines()
    assert len(names) == 9
    assert names == sorted(names)
    assert any("flag_condition" in n for n in names)


def test_verify_json_output(capsys):
    code, out, _ = run_cli(capsys, "verify", "--json")
    assert code == 0
    payload = json.loads(out[out.index("\n[") :])
    assert len(payload) == 9
    assert all(entry["passed"] for entry in payload if entry["applicable"])


def test_oracle_identity(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--identity", "--m", "100")
    assert code == 0
    value = float(next(l for l in out.splitlines() if "value_bits" in l).split(":")[1])
    assert value == pytest.approx(bosonic_entropy(201.0), abs=1e-9)


def test_oracle_flagged_matches_closed_form(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--flagged", "--beta", "1", "--m", "1e6")
    assert code == 0
    value = float(next(l for l in out.splitlines() if "value_bits" in l).split(":")[1])
    from gausscap.bounds import additive_flagged_extension

    assert abs(value - additive_flagged_extension(1.0)) < 1e-4
    assert "strategy: purified" in out


def test_oracle_extended_attenuator_default_complement(capsys):
    code, out, _ = run_cli(
        capsys,
        "oracle", "--extended-attenuator", "--eta", "0.8", "--n", "0.05", "--m", "1e6",
    )
    assert code == 0
    assert "strategy: complement" in out
    value = float(next(l for l in out.splitlines() if "value_bits" in l).split(":")[1])
    from gausscap.bounds import attenuator_extension

    assert abs(value - attenuator_extension(0.8, 0.05)) < 1e-4


@pytest.mark.parametrize(
    "argv, name",
    [
        (["--extended-attenuator", "--eta", "0.8", "--n", "nan"], "N"),
        (["--flagged", "--beta", "inf"], "beta"),
        (["--identity", "--m", "nan"], "M"),
    ],
)
def test_oracle_non_finite_parameter_exit_code(capsys, argv, name):
    code, out, err = run_cli(capsys, "oracle", *argv)
    assert code == 2
    assert out == ""
    assert f"error: {name} must be finite" in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--flagged", "--beta", "1e-309"], "beta=1e-309"),
        (["--extended-attenuator", "--eta", "0.8", "--n", "1e308"], "eta=0.8, N=1e+308"),
    ],
)
def test_oracle_overflowing_parameter_exit_code(capsys, argv, named):
    code, out, err = run_cli(capsys, "oracle", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: need ") and f"finite, got {named}" in err


@pytest.mark.parametrize(
    "argv, term",
    [
        (["--extended-attenuator", "--eta", "0.8", "--n", "0.05", "--m", "1.7e308"], "2M + 1"),
        (["--flagged", "--beta", "2", "--m", "1e200"], "M(M + 1)"),
    ],
)
def test_oracle_overflowing_probe_energy_names_m(capsys, argv, term):
    # Rejected before any probe matrix is built: no numpy warning on the way.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "oracle", *argv)
    assert code == 2
    assert out == "" and caught == []
    assert err == f"error: need {term} finite, got M={float(argv[-1])}\n"


def test_oracle_complement_path_takes_a_huge_probe_energy(capsys):
    # 2M + 1 is finite at M = 1e200; only the purified probe needs M(M + 1).
    code, out, _ = run_cli(
        capsys, "oracle", "--extended-attenuator", "--eta", "0.8", "--n", "0.05", "--m", "1e200"
    )
    assert code == 0
    assert "value_bits: 1.83633629071\n" in out


def test_oracle_divergence_is_a_domain_error(capsys):
    code, _, err = run_cli(capsys, "oracle", "--identity", "--m", "1e6")
    assert code == 2
    assert "error:" in err


def test_csv_cells_use_12_significant_digits(tmp_path):
    series = fig1_series(x_min=0.3, x_max=0.3, step=0.1)
    path = tmp_path / "one.csv"
    write_csv(series, path)
    data_row = [
        l for l in path.read_text().splitlines() if not l.startswith("#")
    ][1]
    lower = data_row.split(",")[1]
    expected = max(0.0, math.log2(1 / 0.3) - 1 / math.log(2))
    assert lower == f"{expected:.12g}"
