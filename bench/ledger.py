"""Fixed accuracy ledger and known-defect probes, reported by traced runs.

The ledger compares program outputs at fixed points with references that do
not depend on the seed: the entropy kernel against 50-digit mpmath values
frozen below, the thermal-probe oracle against the closed-form extension
capacity, and the decomposition bound against a dense reference scan.

The defect probes keep the program's known failures visible without letting
them into the timed pools, which must not fail: a seeded edge slice of bound
reports out to the limits of the accepted domain, thermal-probe estimates at
probe energies up to 1e10, and CLI invocations with non-finite parameters,
which should exit with code 2.
"""

import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import check
import ops as opmod
import reference as R

# h(x) = ((x+1)/2) log2((x+1)/2) - ((x-1)/2) log2((x-1)/2), 50 digits (mpmath).
ENTROPY_REF = {
    "x1e6": "20.374263610212897045408359691902254494019613747022",
    "x1e9": "30.340047894875224537952350372924909818911339625829",
    "x1e12": "40.305832179537311581803757594425400766310721443794",
    "x1e15": "50.27161646419939862541471612334250432622563535562",
}


def ledger_metrics(ledger: dict, edge_ops: list) -> dict:
    values = {}
    for key, v in ledger["entropy"].items():
        err = abs(R.mp.mpf(v) - R.mp.mpf(ENTROPY_REF[key]))
        values[f"symplectic.entropy_err_bits.{key}"] = float(err)
    o = opmod.LEDGER_ORACLE
    closed = R.attenuator_entries(o["eta"], o["N"])["extension"]
    for strategy, v in ledger["oracle"].items():
        values[f"bounds.oracle.err_bits.{strategy}"] = float(abs(R.mp.mpf(v) - closed))
    d = opmod.LEDGER_DECOMPOSITION
    eta = d["eta"]
    dense = R.dense_decomposition(eta, (1.0 - eta) * (2.0 * d["N"] + 1.0))
    values["bounds.decomposition.excess_bits"] = float(ledger["decomposition"] - dense)
    for kind, name in (("report", "scalar_edge"), ("oracle", "oracle_edge")):
        verdicts = [check.check(op, out).failed
                    for op, out in zip(edge_ops, ledger["edge"]) if op["kind"] == kind]
        values[f"defects.{name}.failed_ratio"] = sum(verdicts) / len(verdicts)
    values["cli.main_inprocess_ms"] = ledger["cli_main_ms"]
    return values


def _cli_commands(tmpdir: str):
    """(argv, expected exit code) pairs: one command per subcommand and
    family, then invalid invocations that must be rejected."""
    valid = [
        ["bound", "--additive", "--beta", "2"],
        ["bound", "--amplifier", "--g", "1.5", "--n", "0.3", "--format", "csv"],
        ["bound", "--attenuator", "--eta", "0.8", "--n", "0.05"],
        ["figure", "fig1", "--out", os.path.join(tmpdir, "cli-fig1.csv")],
        ["verify", "--json"],
        ["oracle", "--extended-attenuator", "--eta", "0.8", "--n", "0.05"],
    ]
    invalid = [
        ["bound", "--attenuator", "--eta", "0.8", "--n", "nan"],
        ["bound", "--additive", "--beta", "inf"],
        ["bound", "--amplifier", "--g", "inf", "--n", "1"],
    ]
    return [(a, 0) for a in valid], [(a, 2) for a in invalid]


# Runs one CLI command as `python -m gausscap.cli` would, timing the import
# and main() from inside the process; the timings go to stderr last.
_CLI_CHILD = """\
import json, sys, time
t0 = time.perf_counter()
import gausscap.cli as cli
t1 = time.perf_counter()
code = cli.main(sys.argv[1:])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "command_s": t2 - t1}), file=sys.stderr)
sys.exit(code)
"""


def _run(argv: list, env: dict, cwd: str):
    return subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True, timeout=60)


def _cli_ok(proc, expected: int) -> bool:
    """Right exit code, no non-finite JSON tokens, and JSON that parses."""
    out = proc.stdout
    if proc.returncode != expected or "NaN" in out or "Infinity" in out:
        return False
    if expected == 0 and out.startswith("{"):
        try:
            json.loads(out)
        except ValueError:
            return False
    return True


def cli_probes(env: dict, cwd: str, tmpdir: str, reps: int = 5):
    """CLI process costs and the share of invalid invocations not rejected,
    plus (attempted, failed) over the valid commands.

    interpreter_s is the wall time of a bare `python -c pass`; import_s and
    command_s are the import of gausscap.cli and its main() as timed inside
    each command's process, medians over the commands."""
    py = sys.executable
    bare = []
    for _ in range(reps):
        t0 = perf_counter()
        _run([py, "-c", "pass"], env, cwd)
        bare.append(perf_counter() - t0)
    valid, invalid = _cli_commands(tmpdir)
    imports, commands, bad_valid, bad_invalid = [], [], 0, 0
    for argv, code in valid + invalid:
        proc = _run([py, "-c", _CLI_CHILD, *argv], env, cwd)
        ok = _cli_ok(proc, code)
        if code == 0:
            bad_valid += not ok
        else:
            bad_invalid += not ok
        try:
            timing = json.loads(proc.stderr.strip().splitlines()[-1])
        except (IndexError, ValueError):
            continue  # the process died before reporting; counted above
        imports.append(timing["import_s"])
        if code == 0:
            commands.append(timing["command_s"])
    metrics = {
        "cli.interpreter_s": statistics.median(bare),
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "cli.command_s": statistics.median(commands) if commands else 0.0,
        "defects.cli_invalid.failed_ratio": bad_invalid / len(invalid),
    }
    return metrics, (len(valid), bad_valid)
