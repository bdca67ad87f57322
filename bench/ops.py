"""Operations: turn an operation spec into a call on gausscap's public API.

`prepare` does the untimed part (building a decomposition target, looking up
a check thunk) and returns a thunk; calling the thunk is the timed
operation. `summarize` turns its result into plain data for the checker.
Importing this module does not import gausscap, so a set-up measurement can
time the import itself.
"""

import inspect
import os
import types


def load() -> types.SimpleNamespace:
    """Import the program's modules."""
    import gausscap
    from gausscap import bounds, channels, cli, figures, symplectic, verify

    return types.SimpleNamespace(
        gausscap=gausscap, bounds=bounds, channels=channels, cli=cli,
        figures=figures, symplectic=symplectic, verify=verify,
    )


class Runner:
    """Prepares and summarizes operations against one loaded program."""

    def __init__(self, api: types.SimpleNamespace, tmpdir: str):
        self.api = api
        self.tmpdir = tmpdir
        self._suites = {}

    def _suite(self, seed: int) -> list:
        if seed not in self._suites:
            self._suites[seed] = self.api.verify.suite_entries(seed)
        return self._suites[seed]

    def prepare(self, op: dict, index: int):
        api, kind = self.api, op["kind"]
        if kind == "report":
            family, params = op["family"], op["params"]
            return lambda: api.bounds.bounds_report(family, **params).to_dict()
        if kind == "figure":
            fid, overrides = op["id"], op["overrides"]
            path = os.path.join(self.tmpdir, f"op{index}-{fid}.csv")

            def figure():
                api.figures.write_csv(api.figures.build_figure(fid, **overrides), path)
                return path

            return figure
        if kind == "decompose":
            target = api.channels.PhaseInsensitiveParams(op["tau"], op["y"])
            return lambda: api.bounds.combined_decomposition_bound(target)
        if kind == "oracle":
            return self._prepare_oracle(op)
        if kind == "check":
            entries = self._suite(op["seed"])
            return entries[op["slot"] % len(entries)][1]
        raise ValueError(f"unknown operation kind {kind!r}")

    def _prepare_oracle(self, op: dict):
        ch, bounds = self.api.channels, self.api.bounds
        family, params, M = op["family"], op["params"], op["M"]
        complement = op["strategy"] == "complement"

        def oracle():
            if family == "extended_attenuator":
                channel = ch.extended_attenuator(params["eta"], params["N"])
            elif family == "flagged":
                channel = ch.flagged_additive_noise(params["beta"])
            else:
                channel = ch.identity_channel(1)
            comp = ch.complementary(channel) if complement else None
            return bounds.coherent_info_thermal(channel, M=M, complement=comp)

        return oracle

    def summarize(self, op: dict, result):
        kind = op["kind"]
        if kind == "report":
            return {
                name: [e["raw"], e["clamped"], e["applicable"]]
                for name, e in result["entries"].items()
            }
        if kind == "figure":
            with open(result, encoding="utf-8") as fh:
                return {"csv": fh.read()}
        if kind == "decompose":
            w = result.witness
            return {
                "value": result.value,
                "kind": w.kind,
                "stages": [[s.tau, s.y] for s in (w.stage1, w.stage2) if s is not None],
            }
        if kind == "oracle":
            return {"value": result.value, "m_used": result.m_used,
                    "gap": result.convergence_gap}
        return {"name": result.name, "passed": result.passed,
                "applicable": result.applicable, "residual": result.max_residual,
                "tolerance": result.tolerance}


def error_output(exc: BaseException) -> dict:
    return {"error": type(exc).__name__, "message": str(exc)[:200]}


# Fixed points of the accuracy ledger, evaluated in every traced run.
LEDGER_ENTROPY_X = {"x1e6": 1e6, "x1e9": 1e9, "x1e12": 1e12, "x1e15": 1e15}
LEDGER_ORACLE = {"eta": 0.8, "N": 0.05, "M": 1e6}
LEDGER_DECOMPOSITION = {"eta": 0.696, "N": 0.2}
CLI_MAIN_ARGV = ["bound", "--attenuator", "--eta", "0.8", "--n", "0.05"]


def ledger_values(api) -> dict:
    """Program outputs at the ledger's fixed points."""
    b, ch = api.bounds, api.channels
    channel = ch.extended_attenuator(LEDGER_ORACLE["eta"], LEDGER_ORACLE["N"])
    oracle = {
        strategy: b.coherent_info_thermal(
            channel, M=LEDGER_ORACLE["M"],
            complement=ch.complementary(channel) if strategy == "complement" else None,
        ).value
        for strategy in ("complement", "purified")
    }
    eta, N = LEDGER_DECOMPOSITION["eta"], LEDGER_DECOMPOSITION["N"]
    target = ch.PhaseInsensitiveParams(eta, (1.0 - eta) * (2.0 * N + 1.0))
    return {
        "entropy": {k: api.symplectic.bosonic_entropy(x) for k, x in LEDGER_ENTROPY_X.items()},
        "oracle": oracle,
        "decomposition": b.combined_decomposition_bound(target).value,
        "decomposition_grid": inspect.signature(b.combined_decomposition_bound)
        .parameters["grid"].default,
    }
