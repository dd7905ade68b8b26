"""Run the benchmark over several seeds and check its spread against its bounds.

Run from the repository root:

    python3 perfbench/seeds.py --seeds 1-10
    python3 perfbench/seeds.py --workloads stream --seeds 1-5
    python3 perfbench/seeds.py --seeds 1-10 --held-out 1009

For every workload it prints each end-to-end metric by name and unit with
the median, quartiles and quartile spread (q3 - q1) / median of its values
over the seeds, as ``statistics.quantiles(values, n=4)`` gives them. The
spread should stay under a third of the metric's bound (``steady``); setup_s
is exempt. ``--held-out`` runs one more seed per workload and reports how far
each metric lands from the median, as a share of it, against the bound.
Raw results go to ``.perfbench-out/seeds.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return result


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--held-out", type=int)
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    record = {"seeds": seeds, "held_out": args.held_out, "runs": {}}
    worst_ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run_once(bench, workload, seed, 0))
            print(f"  {workload} seed {seed}: ok", file=sys.stderr, flush=True)
        record["runs"][workload] = runs
        held = run_once(bench, workload, args.held_out, 0) if args.held_out is not None else None
        if held is not None:
            record["runs"][f"{workload}@held_out"] = [held]

        print(f"\n{workload}: {len(seeds)} seeds x {bench['run_seconds']} s")
        header = f"  {'metric':<26}{'unit':>6}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>8}{'bound':>7}  verdict"
        if held is not None:
            header += f"   held-out {args.held_out}"
        print(header)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            if name == "setup_s":
                verdict = "exempt"
            elif spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
                worst_ok = False
            else:
                verdict = "TOO WIDE"
                worst_ok = False
            line = (
                f"  {name:<26}{runs[0]['metrics'][name]['unit']:>6}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                f"{spread:>8.3f}{bound:>7.2f}  {verdict}"
            )
            if held is not None:
                off = held["metrics"][name]["value"] / med - 1.0
                line += f"   {off:+.3f} {'ok' if abs(off) <= bound else 'OUTSIDE BOUND'}"
            print(line)

    out = ROOT / ".perfbench-out" / "seeds.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"\n{'all spreads under a third of their bound' if worst_ok else 'some spreads are not steady'}; raw runs in {out}")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
