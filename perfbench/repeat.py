#!/usr/bin/env python3
"""Repeated benchmark runs: seed spread, baseline and the exact-count check.

    python3 perfbench/repeat.py spread cli-pipeline --seeds 1-10 [--write-baseline]
    python3 perfbench/repeat.py selfcheck fit-code --seed 1 --other-seed 99

`spread` runs one untraced run per seed, each in a fresh process, and prints
every metric's median and quartiles over the seeds, with the spread (third
minus first quartile, over the median) next to the end-to-end bound.
--write-baseline stores those figures under the workload in
perfbench/BASELINE.json. `selfcheck` makes two traced runs with one seed and
requires every count metric (units count, bytes and ratio) to repeat
exactly, then requires a run with a second seed to pass its checks.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_UNITS = ("count", "bytes", "ratio")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int, seconds) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"repeat: {' '.join(cmd)} exited with {proc.returncode}")
    last = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    path = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    result = json.loads(path.read_text())
    result["correct"] = last["correct"]
    return result


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(args) -> int:
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    results = {seed: run(args.workload, seed, 0, args.seconds) for seed in seed_list(args.seeds)}
    names = list(next(iter(results.values()))["metrics"])
    table = {}
    ok = all(r["correct"] for r in results.values())
    print(f"{args.workload}: {len(results)} seeds, all checks passed: {ok}")
    print(f"  {'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}")
    for name in names:
        values = [r["metrics"][name] for r in results.values()]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        rel = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or name == "setup_s" or rel < bound / 3 else "  > bound/3"
        print(f"  {name:34s} {med:14.6g} {q1:14.6g} {q3:14.6g} {rel:8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
        table[name] = {"median": med, "q1": q1, "q3": q3, "spread": rel,
                       "values": dict(zip(map(str, results), values))}
    if args.write_baseline:
        path = HERE / "BASELINE.json"
        baseline = json.loads(path.read_text()) if path.exists() else {}
        host = dict(next(iter(results.values()))["provenance"])
        for key in ("workload", "seed", "trace"):
            host.pop(key)
        baseline[args.workload] = {"seeds": list(results), "host": host, "metrics": table}
        path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0 if ok else 1


def selfcheck(args) -> int:
    units = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    first, second = (run(args.workload, args.seed, 1, args.seconds) for _ in range(2))
    mismatched = [
        (name, first["metrics"][name], second["metrics"][name])
        for name, unit in units.items()
        if unit in COUNT_UNITS and first["metrics"][name] != second["metrics"][name]
    ]
    counted = sum(unit in COUNT_UNITS for unit in units.values())
    for name, a, b in mismatched:
        print(f"  {name}: {a!r} != {b!r}")
    print(f"{args.workload}: {counted - len(mismatched)}/{counted} count metrics repeat "
          f"exactly over two traced runs with seed {args.seed}")
    other = run(args.workload, args.other_seed, 0, args.seconds)
    print(f"{args.workload}: seed {args.other_seed} checks passed: {other['correct']}")
    return 0 if not mismatched and other["correct"] and first["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("spread")
    p.add_argument("workload")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--write-baseline", action="store_true")
    p.set_defaults(func=spread)
    p = sub.add_parser("selfcheck")
    p.add_argument("workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--other-seed", type=int, default=9001)
    p.set_defaults(func=selfcheck)
    for p in sub.choices.values():
        p.add_argument("--seconds", type=int)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
