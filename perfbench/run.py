"""mclab benchmark: end-to-end metrics, or per-layer metrics from a traced pass.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 3 --seconds 20 --trace 0

The benchmark imports mclab from ``src/`` and calls only its public
functions. It sets up the workload several times, each time in a fresh
interpreter (the median is ``setup_s``), then runs closed-loop passes (one caller, each pass waits for the last) until
``--seconds`` have passed, checks the outputs of the passes outside the timed
section, and prints one JSON object as the last line of its output. With
``--trace 1`` it then runs one more pass in-process with spans around the
calls into each mclab layer, and the JSON carries the per-layer metrics
instead. Details (host fingerprint, digests, sample counts, quality numbers)
go to ``.bench_work/<workload>-seed<n>-trace<t>.json``, spans to
``.bench_work/<workload>-seed<n>-spans.json``.

    python3 perfbench/run.py --all --seed 0 --seconds 20

runs every workload, untraced and traced, each in its own process, prints one
table and rewrites BENCHMARK.json from the definitions below.

BLAS runs single-threaded in the benchmark's processes; the sweep uses one
worker process per CPU the benchmark may run on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

RUN_SECONDS = 25
# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("throughput", "items/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)
# name, unit, better; every workload reports all of them, 0 where it skips the layer
PER_LAYER = (
    *(
        (f"stages.{s}.{k}", unit, "lower")
        for s in ("conv", "lstm", "attn", "head")
        for k, unit in (("fwd_s", "s"), ("bwd_s", "s"), ("fwd_calls", "count"), ("bwd_calls", "count"))
    ),
    ("stages.conv.fwd_gflop", "GFLOP", "lower"),
    ("stages.conv.bwd_gflop", "GFLOP", "lower"),
    ("stages.conv.fwd_mb", "MB", "lower"),
    ("stages.conv.bwd_mb", "MB", "lower"),
    ("stages.conv.gflop_per_s", "GFLOP/s", "higher"),
    ("basemodel.steps", "count", "lower"),
    ("basemodel.step_s.p50", "s", "lower"),
    ("basemodel.step_s.p99", "s", "lower"),
    ("basemodel.epoch_s", "s", "lower"),
    ("basemodel.epochs", "count", "lower"),
    ("basemodel.train_s", "s", "lower"),
    ("basemodel.val_s", "s", "lower"),
    ("basemodel.latent_records", "count", "lower"),
    ("corrector.fit_s", "s", "lower"),
    ("corrector.fit_us_per_search", "us", "lower"),
    ("corrector.split_searches", "count", "lower"),
    ("corrector.splits", "count", "higher"),
    ("corrector.split_yield", "ratio", "higher"),
    ("corrector.trees", "count", "lower"),
    ("corrector.nodes", "count", "lower"),
    ("corrector.single_leaf_trees", "count", "lower"),
    ("corrector.predict_proba_s", "s", "lower"),
    ("corrector.predict_rows_per_s", "rows/s", "higher"),
    ("corrector.save_s", "s", "lower"),
    ("corrector.save_bytes", "B", "lower"),
    ("composer.compose_batch_s", "s", "lower"),
    ("composer.self_s", "s", "lower"),
    ("composer.forward_passes", "count", "lower"),
    ("composer.override_rate", "ratio", "higher"),
    ("composer.write_log_s", "s", "lower"),
    ("composer.log_bytes", "B", "lower"),
    ("metrics.evaluate_s", "s", "lower"),
    ("harness.runs", "count", "lower"),
    ("harness.run_s.max", "s", "lower"),
    ("harness.run_s.sum", "s", "lower"),
    ("harness.pool_efficiency", "ratio", "higher"),
    ("harness.persist_s", "s", "lower"),
    ("harness.render_report_s", "s", "lower"),
    ("datagen.build_s", "s", "lower"),
    ("core.split_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_fingerprint() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {})
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="ascii", errors="replace").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("blas"),
        "lapack": blas.get("lapack"),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "cpu": cpu or platform.processor(),
        "nproc": cpu_count(),
        "git_commit": git_commit(),
    }


def peak_rss_mb() -> tuple[float, float]:
    """ru_maxrss of this process and of its largest finished child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return own, kids


def spec() -> dict:
    from workloads import WORKLOADS

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[name](ROOT, seed)
    jobs = cpu_count() if workload.uses_pool else 1

    # set-up time runs from starting a fresh interpreter to a workload ready to run
    setup_cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--setup-only"]
    setup_times = []
    for _ in range(workload.setup_repeats):
        t0 = time.perf_counter()
        subprocess.run(setup_cmd, cwd=ROOT, check=True)
        setup_times.append(time.perf_counter() - t0)
    workload.setup()  # again in this process, for the passes

    walls, rates, problems = [], [], []
    digest = last = None
    attempted = failed = 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        attempted += 1
        last = None  # drop the previous pass's outputs, so peak RSS holds one pass
        t0 = time.perf_counter()
        try:
            last = workload.run_pass(jobs)
        except Exception:
            failed += 1
            problems.append(traceback.format_exc(limit=3))
            if attempted >= 3 and not walls:
                break
            continue
        wall = time.perf_counter() - t0
        walls.append(wall)
        rates.append(last.items / wall)
        if digest is None:
            digest = last.digest
        elif last.digest != digest:
            failed += 1
            problems.append(f"pass {attempted}: digest {last.digest} != {digest}")
    rss_own, rss_kids = peak_rss_mb()

    quality = {}
    if last is not None:  # every pass gave the same digest, so checking one covers all
        found = workload.check(last)
        if found:
            failed += 1
            problems.extend(found)
        quality = workload.quality(last)

    result = {
        "workload": name,
        "seed": seed,
        "jobs": jobs,
        "host": host_fingerprint(),
        "digest": digest,
        "passes": len(walls),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": f"{failed}/{attempted}",
        "problems": problems,
        "quality": quality,
        "config": workload.config.to_dict(),
        "throughput": f"{workload.throughput_name}, {workload.item}/s",
        "samples": {"setup_s": setup_times, "wall_s": walls, "throughput": rates},
        "end_to_end": {},
    }
    if walls:
        result["end_to_end"] = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "throughput": statistics.median(rates),
            "peak_rss_mb": max(rss_own, rss_kids),
        }
    result["peak_rss_parts_mb"] = {"self": rss_own, "largest_child": rss_kids}

    if trace and walls:
        # traced in-process, so no span is lost in a worker; the overhead ratio
        # compares it with an untraced pass at the same job count
        untraced = statistics.median(walls)
        if jobs != 1:
            t0 = time.perf_counter()
            out = workload.run_pass(1)
            untraced = time.perf_counter() - t0
            if out.digest != digest:
                failed += 1
                problems.append("jobs=1 pass: digest differs")
        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.run_id = f"{name}-seed{seed}-traced"
        try:
            t0 = time.perf_counter()
            out = workload.run_pass(1)
            traced_wall = time.perf_counter() - t0
        finally:
            tracer.close()
        if out.digest != digest:
            failed += 1
            problems.append("traced pass: digest differs from the untraced passes")
        layer, bases = spans.per_layer(tracer)
        layer["trace.overhead_ratio"] = traced_wall / untraced
        bases["trace.overhead_ratio"] = f"{traced_wall:.4f}s/{untraced:.4f}s"
        pool = jobs * statistics.median(walls)
        layer["harness.pool_efficiency"] = layer["harness.run_s.sum"] / pool
        bases["harness.pool_efficiency"] = f"{layer['harness.run_s.sum']:.4f}s/({jobs}x{statistics.median(walls):.4f}s)"
        result.update(failed=failed, fail_ratio=f"{failed}/{attempted}", per_layer=layer,
                      per_layer_bases=bases, traced_wall_s=traced_wall)
        spans_path = ROOT / ".bench_work" / f"{name}-seed{seed}-spans.json"
        spans_path.write_text(json.dumps(tracer.to_records()), encoding="ascii")
    return result


def print_result(result: dict, trace: bool) -> None:
    name, n = result["workload"], result["passes"]
    units = {m[0]: m[1] for m in END_TO_END}
    for metric, value in result["end_to_end"].items():
        if metric in result["samples"]:
            how = f"median of n={len(result['samples'][metric])}"
        else:
            how = "ru_maxrss, largest of the benchmark's processes"
        print(f"{name:14} {metric:28} {value:14.6g} {units[metric]:10} {how}")
    if result["end_to_end"]:
        alias, unit = result["throughput"].split(", ")
        print(f"{name:14} {alias:28} {result['end_to_end']['throughput']:14.6g} "
              f"{unit:10} median of n={n}")
    print(f"{name:14} {'fail_ratio':28} {result['failed'] / result['attempted']:14.6g} "
          f"{'ratio':10} {result['fail_ratio']} passes failed")
    print(f"{name:14} {'digest':28} {result['digest']}")
    host = result["host"]
    print(f"{name:14} {'host':28} python {host['python']}, numpy {host['numpy']}, "
          f"{(host['blas'] or {}).get('name')} {(host['blas'] or {}).get('version')}, "
          f"BLAS threads {host['blas_threads']['OPENBLAS_NUM_THREADS']}, {host['cpu']}, "
          f"nproc {host['nproc']}, commit {host['git_commit']}")
    for problem in result["problems"]:
        print(f"{name:14} problem: {problem.strip()}")
    if trace and "per_layer" in result:
        units = {m[0]: m[1] for m in PER_LAYER}
        for metric, _, _ in PER_LAYER:
            base = result["per_layer_bases"].get(metric, "")
            print(f"{name:14} {metric:28} {result['per_layer'][metric]:14.6g} "
                  f"{units[metric]:10} {base}")


def final_line(result: dict, trace: bool) -> dict:
    if trace:
        metrics = {n: {"value": result["per_layer"][n], "unit": u} for n, u, _ in PER_LAYER}
    else:
        metrics = {n: {"value": result["end_to_end"][n], "unit": u} for n, u, _, _ in END_TO_END}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                status = 1
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n", encoding="ascii")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not (ROOT / "src" / "mclab").is_dir():
        print(f"no mclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for key in BLAS_ENV:  # before numpy loads; inherited by the sweep's workers
        os.environ[key] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)

    from workloads import WORKLOADS

    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {list(WORKLOADS)}")

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    if args.setup_only:
        WORKLOADS[args.workload](ROOT, args.seed).setup()
        return 0
    trace = bool(args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, trace)
    if not result["end_to_end"]:
        print("\n".join(result["problems"]), file=sys.stderr)
        return 1
    out = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=2, default=str) + "\n", encoding="ascii")
    print_result(result, trace)
    print(json.dumps(final_line(result, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
