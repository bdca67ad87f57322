"""Command-line front end: bound reports, figure data, certification, oracle.

Exit codes: 0 on success, 1 when a verification check fails, 2 on usage or
parameter-domain errors.
"""

import argparse
import json
import math
import os
import sys

from . import __version__
from .bounds import (
    FAMILIES,
    ORACLE_DEFAULT_M,
    OracleDivergedError,
    bounds_report,
    coherent_info_thermal,
)
from .channels import (
    CPViolationError,
    ParamDomainError,
    complementary,
    extended_attenuator,
    flagged_additive_noise,
    identity_channel,
)
from .figures import build_figure, write_csv
from .verify import DEFAULT_SEED, run_all_checks, suite_entries

# Each figure's grid flags: flag -> (builder argument, type, help). A flag
# left out is not passed on, so the builder's default applies.
_FIG3_FLAGS = {
    "--n": ("N", float, "environment photon number"),
    "--eta-min": ("eta_min", float, "transmissivity minimum"),
    "--eta-max": ("eta_max", float, "transmissivity maximum"),
    "--eta-step": ("step", float, "transmissivity step"),
}
_FIGURE_FLAGS = {
    "fig1": {
        "--x-min": ("x_min", float, "inverse-beta minimum"),
        "--x-max": ("x_max", float, "inverse-beta maximum"),
        "--x-step": ("step", float, "inverse-beta step"),
    },
    "fig2": {
        "--n": ("N", float, "environment photon number"),
        "--g-offset-min": ("g_offset_min", float, "minimum gain - 1"),
        "--g-max": ("g_max", float, "maximum gain"),
        "--points": ("points", int, "number of grid points"),
    },
    "fig3": _FIG3_FLAGS,
    "fig3-inset": _FIG3_FLAGS,
}


def _build_parser(argv: list) -> argparse.ArgumentParser:
    """The parser for `argv`: every command and figure id, so each help and
    usage text stays the same, but arguments only under those `argv` names,
    since argparse builds a help formatter per `add_argument`."""
    # argparse dispatches on the first token that is not an option, since no
    # option before it takes a value; under `figure`, on the second.
    command, chosen_figure, *_ = [arg for arg in argv if not arg.startswith("-")] + [None, None]
    parser = argparse.ArgumentParser(
        prog="gausscap",
        description="Capacity bounds for phase-insensitive bosonic Gaussian channels",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    bound = sub.add_parser("bound", help="bound report for one channel")
    if command == "bound":
        fam = bound.add_mutually_exclusive_group(required=True)
        for family in FAMILIES:
            fam.add_argument(f"--{family}", dest="family", action="store_const", const=family)
        bound.add_argument("--beta", type=float, help="additive inverse temperature")
        bound.add_argument("--eta", type=float, help="attenuator transmissivity")
        bound.add_argument("--g", type=float, help="amplifier gain")
        bound.add_argument("--n", type=float, help="environment photon number")
        bound.add_argument("--format", choices=("json", "csv"), default="json")

    figure = sub.add_parser(
        "figure", help="write one figure's data series as CSV",
        description="Each figure takes its own grid flags: see figure <id> --help.",
    )
    if command == "figure":
        ids = figure.add_subparsers(dest="id", required=True)
        for figure_id, flags in _FIGURE_FLAGS.items():
            fig = ids.add_parser(figure_id)
            if figure_id != chosen_figure:
                continue
            fig.add_argument("--out", help="output path (default <id>.csv in the output dir)")
            for flag, (name, kind, text) in flags.items():
                fig.add_argument(flag, dest=name, type=kind, default=argparse.SUPPRESS, help=text)

    verify = sub.add_parser("verify", help="run the structural certification suite")
    if command == "verify":
        verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
        verify.add_argument("--gamma", type=float, default=1.0,
                            help="rescaling factor for the flag condition (1 passes)")
        verify.add_argument("--json", action="store_true", help="emit JSON after the table")
        verify.add_argument("--list", action="store_true", help="list checks and exit")

    oracle = sub.add_parser(
        "oracle", help="numerical coherent information on a thermal probe"
    )
    if command == "oracle":
        ofam = oracle.add_mutually_exclusive_group(required=True)
        ofam.add_argument("--flagged", action="store_true")
        ofam.add_argument("--extended-attenuator", action="store_true")
        ofam.add_argument("--identity", action="store_true")
        oracle.add_argument("--beta", type=float, help="flagged inverse temperature")
        oracle.add_argument("--eta", type=float, help="extended-attenuator transmissivity")
        oracle.add_argument("--n", type=float, help="environment photon number")
        oracle.add_argument("--m", type=float, default=ORACLE_DEFAULT_M, help="probe photon number")
        oracle.add_argument("--strategy", choices=("purified", "complement"),
                            help="default: complement where available, else purified")
    return parser


def _require(args, names):
    for name in names:
        if getattr(args, name) is None:
            raise ParamDomainError(f"missing --{name} for this channel family")


def _cmd_bound(args) -> int:
    flags = {name: name.lower() for name in FAMILIES[args.family].params}
    _require(args, flags.values())
    report = bounds_report(
        args.family, **{name: getattr(args, flag) for name, flag in flags.items()}
    )
    if args.format == "json":
        payload = report.to_dict()
        for entry in payload["entries"].values():
            for key in ("raw", "clamped"):
                if not math.isfinite(entry[key]):
                    entry[key] = None  # NaN and infinities are not JSON
        print(json.dumps(payload, indent=2, allow_nan=False))
    else:
        for key, value in report.params.items():
            print(f"# {key}: {value:.12g}")
        print("bound,raw,clamped,applicable,note")
        for name, raw, applicable, note in report.rows:
            print(f'{name},{raw:.12g},{max(raw, 0.0):.12g},{int(applicable)},"{note}"')
    return 0


def _cmd_figure(args) -> int:
    given = vars(args)
    overrides = {name: given[name] for name, _, _ in _FIGURE_FLAGS[args.id].values()
                 if name in given}
    series = build_figure(args.id, **overrides)
    out_dir = os.environ.get("GAUSSCAP_OUTPUT_DIR", ".")
    path = args.out or os.path.join(out_dir, f"{args.id}.csv")
    write_csv(series, path)
    print(path)
    return 0


def _cmd_verify(args) -> int:
    if args.list:
        for name, _ in suite_entries(args.seed, args.gamma):
            print(name)
        return 0
    outcomes = run_all_checks(args.seed, args.gamma)
    print(f"# seed: {args.seed}")
    for outcome in outcomes:
        print(outcome.summary_line())
    failed = [o for o in outcomes if o.applicable and not o.passed]
    print(f"# {len(outcomes) - len(failed)}/{len(outcomes)} checks passed")
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "name": o.name,
                        "passed": o.passed,
                        "applicable": o.applicable,
                        "max_residual": o.max_residual,
                        "tolerance": o.tolerance,
                        "samples": o.samples,
                        "details": o.details,
                    }
                    for o in outcomes
                ],
                indent=2,
            )
        )
    return 1 if failed else 0


def _cmd_oracle(args) -> int:
    if args.flagged:
        _require(args, ["beta"])
        channel = flagged_additive_noise(args.beta)
        label = f"flagged additive noise (beta={args.beta:g})"
    elif args.extended_attenuator:
        _require(args, ["eta", "n"])
        channel = extended_attenuator(args.eta, args.n)
        label = f"extended attenuator (eta={args.eta:g}, N={args.n:g})"
    else:
        channel = identity_channel(1)
        label = "identity"
    strategy = args.strategy
    if strategy is None:
        strategy = "complement" if channel.family == "extended_attenuator" else "purified"
    comp = complementary(channel) if strategy == "complement" else None
    estimate = coherent_info_thermal(channel, M=args.m, complement=comp)
    print(f"channel: {label}")
    print(f"strategy: {strategy}")
    print(f"value_bits: {estimate.value:.12g}")
    print(f"probe_photons: {estimate.m_used:.12g}")
    print(f"convergence_gap: {estimate.convergence_gap:.3e}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
    handlers = {
        "bound": _cmd_bound,
        "figure": _cmd_figure,
        "verify": _cmd_verify,
        "oracle": _cmd_oracle,
    }
    try:
        return handlers[args.command](args)
    except (ParamDomainError, CPViolationError, OracleDivergedError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
