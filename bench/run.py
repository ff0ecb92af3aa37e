"""Benchmark for the eqcover package: end-to-end metrics per workload,
per-layer metrics from a separate traced run.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload in turn

Run from a checkout: the package is imported from ./src and the
brute-force oracles from ./tests/oracles.py.  Each workload builds a
seeded job list, then one client runs it in a closed loop, pass after
pass, for --seconds.  Outputs are checked after each job's clock stops.
Timings are scaled by calibration chunks run in the same pass (see
calibrate.py) and read in reference seconds.

--trace 0 prints pass_s, job_p50_ms, job_p90_ms, setup_s and
peak_rss_mb (plus failed_frac, human-readable only).  --trace 1 spends
half the time untraced and half traced, and prints the per-layer busy
time, self time, calls and counts of the traced passes together with
the tracing overhead.  The last line of stdout is one JSON object.
Spans go to .bench_run/trace-<workload>-seed<seed>.jsonl.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")
WORKLOADS = ("certify", "solve", "report")
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
HARD_CAP_S = 150.0  # a whole run, set-up included
SETUP_REPEATS = 5
SETUP_CHUNKS = 16  # calibration chunks before and after each set-up

sys.path.insert(0, HERE)
import calibrate  # noqa: E402
from harness import (  # noqa: E402
    HardCap,
    Tracer,
    PassAborted,
    layer_metrics,
    job_times,
    layer_units,
    median,
    percentile,
    perf,
    run_pass,
)

END_TO_END = {
    "pass_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _pin_environment() -> None:
    """Re-execute under PYTHONHASHSEED=0 and single-threaded BLAS."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    env = dict(os.environ, **PINNED_ENV)
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)


def _load_program():
    """Import eqcover from ./src and the oracles from ./tests; None if
    this directory is not a checkout of the package."""
    init = os.path.join(SRC, "eqcover", "__init__.py")
    oracle_path = os.path.join(ROOT, "tests", "oracles.py")
    if not (os.path.isfile(init) and os.path.isfile(oracle_path)):
        return None
    sys.path.insert(0, SRC)
    import eqcover

    if os.path.dirname(os.path.abspath(eqcover.__file__)) != os.path.dirname(init):
        return None
    spec = importlib.util.spec_from_file_location("oracles", oracle_path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles


def _source_hash() -> str:
    """Hash of the package and benchmark sources the node counts depend on."""
    digest = hashlib.sha256()
    for folder in (os.path.join(SRC, "eqcover"), HERE):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                digest.update(name.encode())
                with open(os.path.join(folder, name), "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def _forget_package(workload):
    """Drop eqcover and the workload module from the module cache, so
    that the next set-up imports them again."""
    for name in list(sys.modules):
        if name == workload or name == "eqcover" or name.startswith("eqcover."):
            del sys.modules[name]


def _alarm(signum, frame):
    raise HardCap()


def _measure(jobs, seconds, traced, state):
    """Passes until the next one would overrun ``seconds`` (at least one)."""
    results = []
    start = perf()
    while not state["aborted"]:
        try:
            result = run_pass(jobs, Tracer(traced), state["full"], state["nodes"], state["errors"])
        except PassAborted as exc:
            result = exc.result
            state["aborted"] = True
        state["full"] = False
        results.append(result)
        if perf() - start + median([r.wall for r in results]) > seconds:
            break
    return results


def _check_fingerprint(workload, seed, nodes, errors):
    """Node counts must repeat exactly across runs of the same sources."""
    if not nodes:
        return "no search queries"
    path = os.path.join(RUN_DIR, f"nodes-{workload}-seed{seed}-{_source_hash()}.json")
    total = sum(nodes.values())
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            before = json.load(fh)
        differ = sorted(k for k in nodes if k in before and before[k] != nodes[k])
        for k in differ:
            errors.append(f"{k}: {nodes[k]} nodes, an earlier run of this source had {before[k]}")
        return None if differ else f"{len(nodes)} queries, {total} nodes, same as the earlier run"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(nodes, fh, sort_keys=True)
    return f"{len(nodes)} queries, {total} nodes, first run of this source"


def _write_trace(workload, seed, traced):
    path = os.path.join(RUN_DIR, f"trace-{workload}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for i, result in enumerate(traced):
            for sid, name, start, end, parent, job, counts in result.spans:
                fh.write(json.dumps({
                    "pass": i, "id": sid, "name": name, "start": start - T0,
                    "end": end - T0, "parent": parent, "job": job, "counts": counts,
                }) + "\n")
    return path


def run_workload(args) -> int:
    oracles = _load_program()
    if oracles is None:
        print(f"error: {ROOT} holds no eqcover checkout (src/eqcover, tests/oracles.py)", file=sys.stderr)
        return 2
    os.makedirs(RUN_DIR, exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, max(1.0, HARD_CAP_S - (perf() - T0)))
    workdir = os.path.join(RUN_DIR, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    state = {"full": True, "nodes": {}, "errors": [], "aborted": False}
    try:
        set_ups, scales = [], []
        for rep in range(SETUP_REPEATS):
            repdir = os.path.join(workdir, f"setup{rep}")
            os.makedirs(repdir)
            _forget_package(args.workload)
            before = calibrate.chunks(SETUP_CHUNKS)
            t = perf()
            workload = importlib.import_module(args.workload).setup(args.seed, repdir, oracles)
            for job in workload.warmup:
                job.run(Tracer(False))
            set_ups.append(perf() - t)
            scales.append(calibrate.scale(before + calibrate.chunks(SETUP_CHUNKS)))
            if rep:
                shutil.rmtree(os.path.join(workdir, f"setup{rep - 1}"))
        setup_s = median([t * k for t, k in zip(set_ups, scales)])
        half = args.seconds / 2 if args.trace else args.seconds
        untraced = _measure(workload.jobs, half, False, state)
        traced = _measure(workload.jobs, half, True, state) if args.trace else []
    except HardCap:
        print(f"error: hard cap of {HARD_CAP_S:g} s reached during set-up", file=sys.stderr)
        return 3
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(workdir, ignore_errors=True)

    errors = state["errors"]
    fingerprint = _check_fingerprint(args.workload, args.seed, state["nodes"], errors)
    passes = untraced + traced
    attempted = sum(len(r.times) for r in passes)
    failed = sum(r.failed for r in passes)
    times = job_times(untraced)
    pass_s = sum(times)

    print(f"workload {args.workload}, seed {args.seed}: {json.dumps(workload.summary)}")
    if args.trace:
        per_pass = [layer_metrics(r.spans) for r in traced] or [layer_metrics([])]
        values = {key: median([p[key] for p in per_pass]) for key in per_pass[0]}
        traced_pass_s = sum(job_times(traced))
        values.update({
            "trace.untraced_pass_s": pass_s,
            "trace.traced_pass_s": traced_pass_s,
            "trace.overhead_s": traced_pass_s - pass_s,
        })
        units = layer_units()
        path = _write_trace(args.workload, args.seed, traced)
        print(f"  traced passes: {len(traced)}, untraced passes: {len(untraced)}; spans in {os.path.relpath(path, ROOT)}")
        for key in units:
            print(f"  {key:48s} {values[key]:.6g} {units[key]}")
    else:
        values = {
            "pass_s": pass_s,
            "job_p50_ms": percentile(times, 0.5) * 1e3,
            "job_p90_ms": percentile(times, 0.9) * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        samples = f"{len(times)} jobs, each the median of {len(untraced)} passes"
        scale = median([r.scale for r in untraced])
        print(f"  timings in reference seconds: wall seconds x {scale:.3f}, the median scale of the passes (calibrate.py)")
        print(f"  pass_s       {values['pass_s']:.4f} s   (sum over {samples}; median wall pass {median([sum(r.times) for r in untraced]):.4f} s)")
        print(f"  job_p50_ms   {values['job_p50_ms']:.4f} ms  ({samples})")
        print(f"  job_p90_ms   {values['job_p90_ms']:.4f} ms  ({samples}; {sum(t > values['job_p90_ms'] / 1e3 for t in times)} above)")
        print(f"  failed_frac  {failed / attempted:.4f}     ({failed} of {attempted} jobs)")
        print(f"  setup_s      {values['setup_s']:.4f} s   (median of {SETUP_REPEATS} set-ups; wall: {[round(s, 3) for s in set_ups]})")
        print(f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MB")
    print(f"  node counts: {fingerprint or 'MISMATCH with an earlier run of this source'}")
    for line in errors[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    correct = not errors and not state["aborted"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    worst = 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(argv, check=False).returncode)
    return worst


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    _pin_environment()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
