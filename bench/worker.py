"""The benchmark's worker process: the only process that calls gausscap.

run.py starts it with the BLAS thread caps in its environment and `src` on
its path; it is not meant to be run by hand.

    worker.py setup SPEC      time `import gausscap` to the end of the first
                              operation and print the seconds
    worker.py run SPEC OUT    warm up, run the closed loop, write OUT (JSON)

One caller, closed loop: the next operation starts when the previous one has
returned and its output has been compared with the warm-up output of the
same pool entry. Only the call itself is timed.
"""

import contextlib
import io
from array import array
import json
import os
import resource
import statistics
import sys
from time import perf_counter, perf_counter_ns

import ops as opmod


def _outcome(runner, op, thunk):
    """Run one operation; return (nanoseconds, summarized output)."""
    t0 = perf_counter_ns()
    try:
        result = thunk()
    except Exception as exc:  # the error is the operation's output
        return perf_counter_ns() - t0, opmod.error_output(exc)
    dt = perf_counter_ns() - t0
    try:
        return dt, runner.summarize(op, result)
    except Exception as exc:
        return dt, {"error": "unreadable output", "message": repr(exc)[:200]}


class Loop:
    def __init__(self, runner, ops):
        self.runner, self.ops = runner, ops
        self.thunks = [runner.prepare(op, k) for k, op in enumerate(ops)]
        self.outputs, self.firsts = [], []
        self.counts = [0] * len(ops)
        self.mismatched = [0] * len(ops)

    def warm_up(self):
        """One untimed pass; its outputs are the ones checked against the
        references, and every timed output must repeat them exactly."""
        for op, thunk in zip(self.ops, self.thunks):
            out = _outcome(self.runner, op, thunk)[1]
            self.outputs.append(out)
            self.firsts.append(repr(out))

    def run(self, seconds: float, min_ops: int) -> array:
        """Latencies in ns of a phase; the phase starts at pool entry 0, so
        latency i belongs to entry i % len(pool)."""
        n, lat = len(self.ops), array("q")  # 8 bytes a sample keeps peak RSS flat
        start = perf_counter()
        while len(lat) < min_ops or perf_counter() - start < seconds:
            k = len(lat) % n
            dt, out = _outcome(self.runner, self.ops[k], self.thunks[k])
            lat.append(dt)
            self.counts[k] += 1
            if repr(out) != self.firsts[k]:
                self.mismatched[k] += 1
        return lat


def cli_main_ms(api, reps: int = 20) -> float:
    """Median in-process `gausscap.cli.main` call, stdout discarded."""
    times = []
    for _ in range(reps):
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter_ns()
            api.cli.main(list(opmod.CLI_MAIN_ARGV))
            times.append(perf_counter_ns() - t0)
    return statistics.median(times) / 1e6


def _load(spec: dict):
    api = opmod.load()
    where = os.path.realpath(api.gausscap.__file__)
    if not where.startswith(os.path.realpath(spec["src"]) + os.sep):
        sys.exit(f"error: gausscap imported from {where}, not from {spec['src']}")
    return api


def setup(spec: dict):
    t0 = perf_counter()
    api = _load(spec)
    runner = opmod.Runner(api, spec["tmpdir"])
    _outcome(runner, spec["ops"][0], runner.prepare(spec["ops"][0], 0))
    print(repr(perf_counter() - t0))


def run(spec: dict, out_path: str):
    import numpy

    api = _load(spec)
    runner = opmod.Runner(api, spec["tmpdir"])
    loop = Loop(runner, spec["ops"])
    loop.warm_up()
    result = {"versions": {"python": sys.version.split()[0], "numpy": numpy.__version__}}
    seconds, min_ops = spec["seconds"], spec["min_ops"]
    if not spec["trace"]:
        lat = loop.run(seconds, min_ops)
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["latencies_ns"] = lat.tolist()
    else:
        from tracer import Tracer

        untraced = loop.run(seconds / 2, min_ops)
        before = list(loop.counts)
        tracer = Tracer()
        tracer.install()
        try:
            traced = loop.run(seconds / 2, min_ops)
        finally:
            tracer.uninstall()
        result["phases"] = {"untraced_ns": untraced.tolist(), "traced_ns": traced.tolist()}
        result["traced_counts"] = [c - b for c, b in zip(loop.counts, before)]
        result["trace"] = tracer.snapshot()
        ledger = opmod.ledger_values(api)
        ledger["edge"] = [
            _outcome(runner, op, runner.prepare(op, k))[1] for k, op in enumerate(spec["edge"])
        ]
        ledger["cli_main_ms"] = cli_main_ms(api)
        result["ledger"] = ledger
    result.update(
        outputs=loop.outputs,
        counts=loop.counts,
        mismatched=loop.mismatched,
    )
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv):
    mode, spec_path = argv[0], argv[1]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if mode == "setup":
        setup(spec)
    else:
        run(spec, argv[2])


if __name__ == "__main__":
    main(sys.argv[1:])
