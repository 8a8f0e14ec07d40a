"""geomoment benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0

Each run times set-up in several fresh interpreters, then runs the workload
in one more fresh single-threaded process as a closed loop with one client
(the next call is made only after the previous one returns), checks every
answer, and prints human-readable lines followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` its per-layer ones.
End-to-end times are scaled to the reference host speed with the probe of
``hostspeed.py``; the times as measured are printed beside them.  See
perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_RUNS = 7
DEADLINE_S = 170.0
# numpy's BLAS must not start threads: one client, one core
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def worker(args, timeout):
    """Run the worker in a fresh interpreter; return (wall s, stdout)."""
    env = {**os.environ, **SINGLE_THREAD}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, timeout=timeout, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return wall, proc.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.perf_counter()

    def remaining():
        return max(1.0, DEADLINE_S - (time.perf_counter() - start))

    base = ["--workload", args.workload]
    raw_setups, setups = [], []
    for _ in range(SETUP_RUNS):
        before = hostspeed.probe()
        wall = worker(base + ["--seed", str(args.seed), "--setup-only"], remaining())[0]
        after = hostspeed.probe()
        raw_setups.append(wall)
        setups.append(wall * hostspeed.REFERENCE_S / (0.5 * (before + after)))
    _, out = worker(base + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], remaining())
    res = json.loads(out.strip().splitlines()[-1])

    agreement = res["kernel_agreement"]
    correct = res["failed"] == 0 and agreement.get("disagreeing_lps", 0) == 0
    if args.trace:
        correct = correct and res["traced_reports_identical"]
        values = res["per_layer"]
        names = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "throughput_per_s": res["throughput_per_s"],
            "lat_p50_ms": res["lat_p50_ms"],
            "lat_tail_ms": res["lat_tail_ms"],
            "peak_rss_mb": res["peak_rss_mb"],
            "hit_ratio": res["hit_ratio"],
        }
        names = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"kernel {res['environment']['kernel']}")
    print("environment " + json.dumps(res["environment"], sort_keys=True))
    print("kernel agreement " + json.dumps(agreement, sort_keys=True))
    print(f"setup runs (s) as measured {' '.join(f'{s:.4f}' for s in raw_setups)}; "
          f"at the reference host speed {' '.join(f'{s:.4f}' for s in setups)}")
    print(f"calls {res['attempted']} in {res['rounds']} rounds, "
          f"{res['raw_call_seconds']:.3f} s of call time as measured, "
          f"{res['call_seconds']:.3f} s at the reference host speed")
    print(f"host speed probes {res['probes']}, ms min/median/max "
          + " ".join(f"{v:.4f}" for v in res["probe_ms"])
          + f", reference {hostspeed.REFERENCE_S * 1e3:.4f}")
    print(f"tail = p{res['tail_percentile']:g} with {res['tail_samples_beyond']} "
          f"of {res['samples']} samples beyond")
    print(f"fail_ratio {res['failed']}/{res['attempted']} = "
          f"{res['failed'] / res['attempted']:.6g} ratio")
    print(f"hit_ratio {res['hits']}/{res['tries']}")
    for failure in res["failures"]:
        print(f"FAILED {failure}")
    print(f"digest sha256 {res['digest']} (first {res['digest_reports']} reports)")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
