"""One workload in one fresh process: set up, run the closed loop, check.

Started by ``run.py``; prints a single JSON object on stdout.  With
``--setup-only`` it imports geomoment, makes the workload's warm-up call and
exits, so the parent can time set-up from a fresh interpreter.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import geomoment  # noqa: E402
from geomoment import GeoMomentError, _kernel, lp  # noqa: E402

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import round_size  # noqa: E402

if not os.path.abspath(geomoment.__file__).startswith(SRC + os.sep):
    sys.exit(f"geomoment imported from {geomoment.__file__}, not from {SRC}")


def run_instance(inst):
    """Time one call; return (seconds, output or None, error message or None).

    A GeoMomentError on valid input, or a bare AssertionError, is a failure
    of the instance, never skipped.
    """
    t0 = time.perf_counter()
    try:
        out = inst.call()
    except (GeoMomentError, AssertionError) as exc:
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, None


def closed_loop(workload, seed, seconds, max_rounds):
    """Make and check calls in whole rounds (so every run has the same mix)
    until the next round would overrun ``seconds`` of wall time, calls and
    checks together, or ``max_rounds`` rounds are made.  Every call is a
    fresh instance: the spread of call costs between seeds shrinks with the
    number of distinct calls.  Latencies are scaled to the reference host
    speed (``hostspeed.Probes``)."""
    rng = np.random.default_rng(seed)
    make_round = workloads.ROUNDS[workload]
    instances, latencies, failures, reports = [], [], [], []
    hits = tries = rounds = 0
    probes = hostspeed.Probes()
    start = time.perf_counter()
    # the next round is assumed to take as long as the mean round so far
    while rounds < max_rounds and (rounds == 0 or (time.perf_counter() - start)
                                   * (rounds + 1) / rounds <= seconds):
        for inst in make_round(rng):
            dt, out, err = run_instance(inst)
            probes.after_call()
            if err is None:
                reports.append(out[1])
                try:
                    err = inst.check(out)
                except (GeoMomentError, AssertionError) as exc:
                    err = f"check raised {type(exc).__name__}: {exc}"
            else:
                reports.append(err)
            h, t = inst.hit_count(err is not None)
            hits += h
            tries += t
            if err is not None:
                failures.append((len(instances), f"{type(inst).__name__}: {err}"))
            instances.append(inst)
            latencies.append(dt)
        rounds += 1
    return {
        "instances": instances,
        "raw_latencies": np.array(latencies),
        "latencies": probes.scale(latencies),
        "probes": np.array(probes.seconds),
        "failures": failures,
        "hits": hits,
        "tries": tries,
        "reports": reports,
        "rounds": rounds,
    }


def digest(reports):
    """sha256 of the serialised reports of the first round: the same for
    the same seed whatever the run length, so changed answers show at once."""
    return hashlib.sha256("\n".join(reports).encode()).hexdigest()


def replay(instances):
    """Call the same instances again without checks (the traced run);
    their latencies as measured and at the reference host speed, and their
    reports."""
    latencies, reports = [], []
    probes = hostspeed.Probes()
    for inst in instances:
        dt, out, err = run_instance(inst)
        probes.after_call()
        reports.append(out[1] if err is None else err)
        latencies.append(dt)
    return np.array(latencies), probes.scale(latencies), reports


def kernel_agreement(instances):
    """Solve every LP the instances make under each available kernel and
    compare status, pivot count, value and solution bit for bit."""
    kernels = _kernel.available_kernels()
    if len(kernels) < 2:
        return {"kernels": kernels, "checked": False,
                "note": "cython unavailable: only the python kernel is importable"}
    problems = []
    original = lp.solve_lp

    def capture(problem, *args, **kwargs):
        problems.append((problem, args, kwargs))
        return original(problem, *args, **kwargs)

    patched = spans.patch("geomoment.lp", "solve_lp", capture)
    try:
        for inst in instances:
            run_instance(inst)
    finally:
        spans.restore(patched)
    active = _kernel.kernel_name()
    results = {}
    try:
        for name in kernels:
            _kernel.set_kernel(name)
            results[name] = [original(p, *a, **k) for p, a, k in problems]
    finally:
        _kernel.set_kernel(active)
    ref = results[kernels[0]]
    disagree = 0
    for other in kernels[1:]:
        for a, b in zip(ref, results[other]):
            same = (a.status is b.status and a.iterations == b.iterations
                    and a.value == b.value and np.array_equal(a.solution, b.solution))
            disagree += not same
    return {"kernels": kernels, "checked": True, "lps": len(problems),
            "disagreeing_lps": disagree}


def environment():
    env = {
        "kernel": geomoment.kernel_name(),
        "kernels_available": _kernel.available_kernels(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": platform.machine(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            path = os.path.join(base, entry)
            with open(os.path.join(path, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(path, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(path, "size")) as fh:
                caches[f"L{level}-{kind}"] = fh.read().strip()
    except OSError:
        pass
    env["caches"] = caches
    return env


def latency_summary(latencies, tail_pct):
    ms = np.asarray(latencies) * 1e3
    beyond = int(np.sum(ms > np.percentile(ms, tail_pct)))
    return {
        "lat_p50_ms": float(np.median(ms)),
        "lat_tail_ms": float(np.percentile(ms, tail_pct)),
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "samples": int(ms.size),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, default=None,
                    help="run exactly this many rounds (self-test sizes)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workloads.warm_up(args.workload)
    if args.setup_only:
        return

    seconds, max_rounds = args.seconds, 10**9
    if args.rounds is not None:
        seconds, max_rounds = float("inf"), args.rounds
    elif args.trace:
        # a fixed number of rounds, so the traced counts repeat exactly; the
        # untraced pass and the traced replay together take about --seconds
        rounds = args.seconds / 2 / workloads.ROUND_SECONDS[args.workload]
        seconds, max_rounds = float("inf"), max(1, round(rounds))
    loop = closed_loop(args.workload, args.seed, seconds, max_rounds)
    n = len(loop["instances"])
    first_round = min(n, round_size(args.workload))
    lat = loop["latencies"]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": n,
        "rounds": loop["rounds"],
        "failed": len({i for i, _ in loop["failures"]}),
        "failures": [f"#{i} {msg}" for i, msg in loop["failures"][:10]],
        "hit_ratio": loop["hits"] / loop["tries"],
        "hits": loop["hits"],
        "tries": loop["tries"],
        "digest": digest(loop["reports"][:first_round]),
        "digest_reports": first_round,
        "call_seconds": float(lat.sum()),
        "raw_call_seconds": float(loop["raw_latencies"].sum()),
        "probe_ms": [float(np.min(loop["probes"]) * 1e3),
                     float(np.median(loop["probes"]) * 1e3),
                     float(np.max(loop["probes"]) * 1e3)],
        "probes": len(loop["probes"]),
        "throughput_per_s": n / float(lat.sum()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **latency_summary(lat, workloads.TAIL_PERCENTILE[args.workload]),
    }
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced, traced_scaled, traced_reports = replay(loop["instances"])
        finally:
            tracer.uninstall()
        traced_s = float(traced.sum())
        result["per_layer"] = tracer.summary()
        # both passes at the reference speed, so a change of host speed
        # between them does not count as overhead
        overhead = float(traced_scaled.sum()) / float(lat.sum()) - 1.0
        result["per_layer"]["trace_overhead"] = overhead
        result["traced_call_seconds"] = traced_s
        # tracing must not change a single answer
        result["traced_reports_identical"] = traced_reports == loop["reports"]
    result["kernel_agreement"] = kernel_agreement(loop["instances"][:first_round])
    result["environment"] = environment()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
