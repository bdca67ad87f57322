"""Collect sets of benchmark runs into JSON-lines files for compare.py.

    python3 bench/collect.py --out runs.jsonl --seeds 1-10
    python3 bench/collect.py --checkout ../parent --checkout . \\
        --out parent.jsonl --out change.jsonl --seeds 1-10 --workloads decompose

Each checkout runs its own bench/run.py (copy this directory into the other
checkout first, so both sides run identical benchmark code). With two
checkouts the runs alternate per seed, and which side goes first alternates
too. One line per run: workload, seed, trace and run.py's result object.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--checkout", action="append", type=Path,
                   help="checkout to run (repeat for two; default: this one)")
    p.add_argument("--out", action="append", required=True, help="one file per checkout")
    p.add_argument("--workloads", default=",".join(w["name"] for w in declared["workloads"]))
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,11-12")
    p.add_argument("--seconds", type=int, default=declared["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    checkouts = args.checkout or [ROOT]
    if len(checkouts) != len(args.out) or len(checkouts) > 2:
        p.error("give one --out per checkout, at most two checkouts")
    for i, seed in enumerate(seed_list(args.seeds)):
        for workload in args.workloads.split(","):
            order = list(range(len(checkouts)))
            if i % 2:
                order.reverse()
            for side in order:
                result = run_once(checkouts[side], workload, seed, args.seconds, args.trace)
                line = {"workload": workload, "seed": seed, "trace": args.trace, "result": result}
                with open(args.out[side], "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(line) + "\n")
                print(f"{checkouts[side]} {workload} seed {seed}: failed "
                      f"{result['failed']}/{result['attempted']}", flush=True)


if __name__ == "__main__":
    main()
