"""Layered benchmark for gausscap.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's `src`. One run:

1. builds the workload's operation pool from the seed (workloads.py);
2. in untraced runs, times set-up in fresh processes: `import gausscap` to
   the end of the first operation, SETUP_REPS times after one untimed
   process that fills the bytecode cache, and keeps the median;
3. starts one worker process (worker.py) that warms up with one pass over
   the pool and then runs the closed loop for S seconds with one caller,
   cycling through the pool in order;
4. checks every output against the independent references (check.py),
   outside the timed region, and counts failed operations;
5. prints a `# env` line and, last, one JSON object with `correct`,
   `attempted`, `failed` and `metrics`.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json:
throughput is operations per second of time spent inside API calls;
latency_p50_ms and latency_p90_ms are percentiles over pool entries of each
entry's mean latency; setup_s is described above; peak_rss_mb is the
worker's peak resident memory; accuracy_digits is the minimum number of
correct significant digits (capped at 12) over operations that did not fail.
The `failed` count covers every failure check.py defines. With
--trace 1 the worker measures S/2 seconds untraced and S/2 traced (tracer.py)
and the metrics are the per-layer ones, including the fixed accuracy ledger,
the CLI process probes and the known-defect probes (ledger.py).

Per-layer definitions: `<layer>.self_s` is the layer's self time per
operation in seconds; `.calls_per_op` counts calls per operation;
`bounds.decomposition.feasible_ratio` is stage pairs built (two
PhaseInsensitiveParams each) over candidates tried (4 branches x grid per
call, plus golden-section objective evaluations); `figures.points_per_s` is
grid points over inclusive build_figure time; `verify.checks_passed` is the
share of check operations that passed (0 where none ran);
`trace.overhead_ratio` is 1 - traced throughput / untraced throughput.

BLAS threads in every process the benchmark starts are capped at the number
of CPUs available to it. Every file the program writes goes to a temporary
directory under `.bench_tmp/` in the checkout, removed at the end.
"""

import os

NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    _cur = os.environ.get(_var, "")
    if not (_cur.isdigit() and 0 < int(_cur) <= NPROC):
        os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPS = 7
MIN_OPS = 100  # p90 needs ten samples above it
WORKER_TIMEOUT_S = 150


def fail(message: str, code: int = 2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def commit() -> str:
    """HEAD of the checkout if it is a git repository, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(ref[5:]):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_child(args: list, env: dict) -> str:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        fail(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr.strip()}", 1)
    return proc.stdout


def throughput(lat: list) -> float:
    """Operations per second of busy time (time inside API calls)."""
    return len(lat) / (sum(lat) / 1e9)


def end_to_end(lat: list, n: int, setups: list, result: dict, digits) -> dict:
    """Latency percentiles are taken over pool entries, of each entry's mean
    latency over its repeats. Op costs are multimodal (families, grid
    sizes), so a raw percentile can fall between two modes and jump with
    small changes in machine speed; and a per-entry median snaps to whichever
    speed the machine had for most of the run, where the mean, like the
    throughput, averages over it."""
    per_entry = [statistics.fmean(lat[k::n]) for k in range(min(n, len(lat)))]
    p50, p90 = (statistics.quantiles(per_entry, n=10, method="inclusive")[i] / 1e6 for i in (4, 8))
    return {
        "throughput_ops_s": throughput(lat),
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["maxrss_kb"] / 1024,
        "accuracy_digits": 0.0 if digits is None else digits,
    }


def per_layer(result: dict, ops: list) -> dict:
    tr, phases = result["trace"], result["phases"]
    L, nested, traced = tr["layers"], tr["nested"], result["traced_counts"]
    n = len(phases["traced_ns"])
    m = {}
    for layer in ("symplectic.bosonic_entropy", "bounds.closed_forms", "bounds.reports",
                  "bounds.decomposition", "figures.build", "figures.write_csv",
                  "symplectic.GaussianState", "symplectic.symplectic_eigenvalues",
                  "channels.GaussianChannel", "channels.apply", "bounds.oracle",
                  "verify.checks"):
        m[f"{layer}.self_s"] = L[layer]["self_ns"] / 1e9 / n
    for layer in ("symplectic.bosonic_entropy", "bounds.closed_forms",
                  "symplectic.is_physical_cov"):
        m[f"{layer}.calls_per_op"] = L[layer]["calls"] / n
    decomp = "bounds.decomposition"
    golden = tr["golden_evals"]
    m[f"{decomp}.golden_evals_per_op"] = golden / n
    m[f"{decomp}.closed_form_calls_per_op"] = nested.get(f"{decomp}>bounds.closed_forms", 0) / n
    calls = tr["calls"].get("gausscap.bounds.combined_decomposition_bound", 0)
    tried = 4 * result["ledger"]["decomposition_grid"] * calls + golden
    built = nested.get(f"{decomp}>channels.PhaseInsensitiveParams", 0) / 2
    m[f"{decomp}.feasible_ratio"] = built / tried if tried else 0.0
    points = sum(
        c * (len([x for x in out["csv"].splitlines() if not x.startswith("#")]) - 1)
        for op, out, c in zip(ops, result["outputs"], traced)
        if op["kind"] == "figure" and "csv" in out
    )
    build_s = L["figures.build"]["total_ns"] / 1e9
    m["figures.points_per_s"] = points / build_s if build_s else 0.0
    checks = [(c, out.get("passed") is True) for op, out, c in
              zip(ops, result["outputs"], traced) if op["kind"] == "check" and c]
    ran = sum(c for c, _ in checks)
    m["verify.checks_passed"] = sum(c for c, ok in checks if ok) / ran if ran else 0.0
    m["trace.overhead_ratio"] = 1.0 - throughput(phases["traced_ns"]) / throughput(
        phases["untraced_ns"])
    return m


def main(argv=None) -> int:
    import check
    import ledger
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "gausscap" / "__init__.py").is_file():
        fail(f"no gausscap sources under {SRC}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    ops = workloads.generate(args.workload, args.seed)
    edge = []
    if args.trace:
        edge = workloads.edge_slice(args.seed, workloads.LEDGER_EDGE_LIMIT)
        edge += workloads.oracle_edge(args.seed)
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_tmp")
    try:
        spec = {"ops": ops, "edge": edge, "seconds": args.seconds, "trace": args.trace,
                "min_ops": MIN_OPS, "tmpdir": tmp, "src": str(SRC)}
        spec_path = os.path.join(tmp, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        env = child_env()
        setups = [] if args.trace else [
            float(run_child(["setup", spec_path], env)) for _ in range(SETUP_REPS + 1)][1:]
        out_path = os.path.join(tmp, "result.json")
        run_child(["run", spec_path, out_path], env)
        with open(out_path, encoding="utf-8") as fh:
            result = json.load(fh)

        tally = check.evaluate(ops, result["outputs"], result["counts"], result["mismatched"])
        attempted, failed = tally.attempted, tally.failed
        if args.trace:
            metrics = per_layer(result, ops)
            metrics.update(ledger.ledger_metrics(result["ledger"], edge))
            cli, (cli_attempted, cli_failed) = ledger.cli_probes(env, str(ROOT), tmp)
            metrics.update(cli)
            attempted += cli_attempted
            failed += cli_failed
        else:
            metrics = end_to_end(result["latencies_ns"], len(ops), setups, result, tally.digits)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (ROOT / ".bench_tmp").rmdir()
        except OSError:
            pass

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail(f"metrics not measured: {missing}", 1)
    for k, reason in tally.failures[:10]:
        print(f"failed op {k} ({ops[k]['kind']}): {reason}", file=sys.stderr)
    env_info = {
        "commit": commit(), "python": result["versions"]["python"],
        "numpy": result["versions"]["numpy"], "nproc": NPROC,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "pool": len(ops), "setup_reps": SETUP_REPS,
    }
    print("# env " + json.dumps(env_info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
