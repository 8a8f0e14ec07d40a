"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For each workload, on one round of instances: every answer check passes;
the deterministic counts repeat exactly across two traced runs and, where
the untraced run reports them too, between a traced and an untraced run;
the traced split puts MEB time in search and LP time in minimax; and every
metric run.py prints is named in BENCHMARK.json.  Exits 1 on any failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from run import SINGLE_THREAD, WORKER  # noqa: E402
from workloads import round_size  # noqa: E402

SEED = 7
DETERMINISTIC = ["meb.calls", "lp.calls", "kernel.calls", "genvar.calls",
                 "bounds.calls", "search.calls", "kernel.pivots",
                 "kernel.cell_updates", "meb.support_solves",
                 "genvar.lp_solves_per_call", "search.converged_ratio"]
SAME_UNTRACED = ["attempted", "failed", "hit_ratio", "digest"]

problems = []


def expect(ok, message):
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        problems.append(message)


def run(cmd):
    env = {**os.environ, **SINGLE_THREAD}
    proc = subprocess.run([sys.executable, *cmd], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return proc.stdout.strip().splitlines()


def worker(workload, trace):
    lines = run([WORKER, "--workload", workload, "--seed", str(SEED),
                 "--rounds", "1", "--trace", str(trace)])
    return json.loads(lines[-1])


def check_workload(workload):
    t1, t2, plain = worker(workload, 1), worker(workload, 1), worker(workload, 0)
    for r in (t1, t2, plain):
        expect(r["failed"] == 0 and r["attempted"] == round_size(workload),
               f"{workload}: {r['attempted']} calls, all checks pass {r['failures']}")
    expect(t1["traced_reports_identical"], f"{workload}: tracing leaves every report unchanged")
    for name in DETERMINISTIC:
        a, b = t1["per_layer"][name], t2["per_layer"][name]
        expect(a == b, f"{workload}: {name} repeats ({a} vs {b})")
    for key in SAME_UNTRACED:
        expect(t1[key] == t2[key] == plain[key],
               f"{workload}: {key} same traced and untraced ({t1[key]} vs {plain[key]})")
    layer = t1["per_layer"]
    total = t1["traced_call_seconds"]
    meb = (layer["meb.self_s"] + layer["meb.support_s"]) / total
    lp = (layer["kernel.self_s"] + layer["lp.self_s"]) / total
    print(f"     {workload}: MEB {meb:.1%} and kernel+lp {lp:.1%} of traced call time")
    if workload == "search":
        expect(meb > 0.5 and lp < 0.05, "search: MEB time is most of it, LP under 5%")
    if workload == "minimax":
        expect(layer["meb.calls"] == 0 and lp > 0.5, "minimax: no MEB, LP time is most of it")


def check_names(workload, spec):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        lines = run([os.path.join(HERE, "run.py"), "--workload", workload,
                     "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)])
        printed = {line.split()[1] for line in lines if line.startswith("metric ")}
        final = json.loads(lines[-1])
        named = {m["name"] for m in spec[key]}
        expect(printed == named == set(final["metrics"]),
               f"{workload} --trace {trace}: printed metrics are BENCHMARK.json's {key}")
        expect(set(final) == {"correct", "attempted", "failed", "metrics"}
               and final["correct"], f"{workload} --trace {trace}: result line is correct")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in [w["name"] for w in spec["workloads"]]:
        check_workload(workload)
        check_names(workload, spec)
    print(f"{len(problems)} problem(s)")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
