import json
import math

import pytest

from gausscap.bounds import MAX_GRID_POINTS
from gausscap.channels import ParamDomainError
from gausscap.cli import main
from gausscap.figures import (
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
    series = build_figure(
        "fig3-inset", eta_min=0.68, eta_max=0.70, step=0.01, grid=120
    )
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
