#!/usr/bin/env python3
"""visitrep benchmark: one workload per process, one caller in a closed loop.

    python3 perfbench/run.py --workload fit-code --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run imports visitrep from the checkout's src/, sets the workload up five
times (setup_s is import time plus the median set-up), then runs whole
iterations, each after the previous one returns, until the next one would
end past --seconds (always at least one), checking each iteration's outputs.
The last stdout line is the JSON result. With --trace 0 its metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 they are the per-layer
metrics, taken from spans around the package's public functions. Each run
also writes .bench_out/<workload>-seed<seed>-trace<0|1>.json with the host
block, every metric measured, the failures and, when traced, the spans.
``--workload all`` runs every workload untraced and then traced, each in a
fresh process, and reports the tracing overhead and the top self times.
"""

import os

# One BLAS thread: the matrices here are tiny, and a probe of fit-code was no
# faster with the default thread count on two CPUs. Set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import uuid  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("fit-code", "cli-pipeline")
SETUP_REPS = 5
# Units of the figures printed beside the metrics BENCHMARK.json lists.
# Quality figures (pair_auc, auroc_*, dx_recall10_gap) are ratios.
EXTRA_UNITS = {
    "train_code_visits_per_s": "visits/s",
    "train_text_visits_per_s": "visits/s",
    "represent_visits_per_s": "visits/s",
    "train_head_rows_per_s": "rows/s",
    "next_code_prefixes_per_s": "prefixes/s",
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_visitrep() -> float:
    """Import the package from this checkout only; returns the seconds taken."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import visitrep.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import visitrep from {SRC}: {exc}")
    seconds = time.perf_counter() - start
    import visitrep

    if not Path(visitrep.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: imported visitrep from {visitrep.__file__}, not {SRC}")
    sys.path.insert(0, str(ROOT))
    return seconds


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


def median(values):
    return statistics.median(values) if values else None


def run_one(args) -> int:
    spec = load_spec()
    import_s = import_visitrep()
    from perfbench import layers, workloads
    from perfbench.tracing import StageTimer, Tracer

    OUT.mkdir(exist_ok=True)
    run_id = uuid.uuid4().hex
    tracer = None
    if args.trace:
        tracer = Tracer(run_id)
        layers.install(tracer)
    timer = StageTimer(workloads.throughput_stages())
    workload = workloads.WORKLOADS[args.workload](args.seed, str(OUT), tracer)

    attempted = failed = 0
    failures: list = []
    quality: dict = {}
    iteration_s: list = []
    throughput: dict = {}
    try:
        setup_s = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - start)
        timer.take()
        if tracer:
            tracer.begin("run")

        loop_start = time.perf_counter()
        while True:
            attempted += 1
            if tracer:
                tracer.phase = "run"
            start = time.perf_counter()
            try:
                workload.run()
                seconds = time.perf_counter() - start
                if tracer:
                    tracer.phase = "check"
                problems, quality = workload.check()
            except Exception:
                seconds = time.perf_counter() - start
                problems = [traceback.format_exc()]
            stages = timer.take()
            if problems:
                failed += 1
                failures.extend(problems)
                print(f"perfbench: iteration {attempted} failed:", *problems, sep="\n", file=sys.stderr)
            else:
                iteration_s.append(seconds)
                for name, (s, n) in stages.items():
                    throughput.setdefault(name, []).append(n / s)
            if time.perf_counter() - loop_start + seconds > args.seconds:
                break
    finally:
        workload.close()

    metrics = {
        "setup_s": import_s + median(setup_s),
        "wall_s": median(iteration_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": failed / attempted,
    }
    metrics.update({name: median(v) for name, v in throughput.items()})
    metrics.update(quality)
    for stage, (wall, cpu) in workload.stage_times.items():
        reps = SETUP_REPS if stage == "generate" else attempted
        metrics[f"cli.{stage}.wall_s"] = wall / reps
        metrics[f"cli.{stage}.cpu_s"] = cpu / reps
    result = {
        "provenance": provenance(args),
        "run_id": run_id,
        "iterations": attempted,
        "iteration_s": iteration_s,
        "failures": failures,
    }
    if tracer:
        metrics = layers.per_layer_metrics(tracer, attempted, SETUP_REPS, workload.stage_times)
        metrics["trace.wall_s"] = median(iteration_s)
        result["top_self_time"] = layers.top_self_time(tracer)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl.gz"
        tracer.write(str(spans_path))
        result["spans"] = str(spans_path.relative_to(ROOT))
    result["metrics"] = metrics

    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing and iteration_s:
        sys.exit(f"perfbench: metrics listed in BENCHMARK.json were not measured: {missing}")
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1) + "\n")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(EXTRA_UNITS)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={failed} result={out_path.relative_to(ROOT)}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    for name, value in metrics.items():
        unit = units.get(name) or ("s" if name.endswith("_s") else "ratio")
        print(f"  {name:44s} {value!r:>24} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]} for m in listed},
    }))
    return 0


def run_all(args) -> int:
    """Each workload untraced, then traced, each in a fresh process."""
    spec = load_spec()
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        results = []
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]))
            if proc.returncode != 0:
                sys.exit(f"perfbench: {name} trace={trace} exited with {proc.returncode}")
            last = json.loads(lines[-1])
            summary["correct"] &= last["correct"]
            summary["attempted"] += last["attempted"]
            summary["failed"] += last["failed"]
            results.append(json.loads((OUT / f"{name}-seed{args.seed}-trace{trace}.json").read_text()))
        plain, traced = results
        for m in spec["end_to_end"]:
            summary["metrics"][f"{name}.{m['name']}"] = {
                "value": plain["metrics"][m["name"]], "unit": m["unit"]
            }
        overhead = traced["metrics"]["trace.wall_s"] - plain["metrics"]["wall_s"]
        print(f"{name}: tracing overhead {overhead:.3f} s per iteration "
              f"({100 * overhead / plain['metrics']['wall_s']:.1f}% of untraced wall_s)")
        print(f"{name}: top self time (s per {traced['iterations']} traced iterations):")
        for span, seconds in traced["top_self_time"]:
            print(f"  {span:44s} {seconds:10.3f}")
    print(json.dumps(summary))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
