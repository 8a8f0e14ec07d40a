"""The answers corpus: every number that the first round of each benchmark
workload returns at seed 1, held in ``tests/answers.json``, and a check
that the code still returns them.

The rounds are those of ``perfbench/workloads.py``, imported as they are;
each record is the report that the call prints, without the inputs it
echoes (a search's config, a cloud's support atoms, a maximizer's atoms).
Floats agree within 1e-12 relative: a scalar relative to itself, an entry
of a list or array relative to the largest entry of its field, and a gap
or residual relative to the value it is a gap of.  Ints, bools, strings
and nulls agree exactly.  The corpus was written on one numpy/BLAS build
(OpenBLAS): BLAS dot products need not add left to right, and the search
takes a step or not on comparisons of such sums, so its entries may not
reproduce on another build.  A change that moves answers on purpose writes
the file again and says by how much they moved:

    python tests/test_answers.py                  # print the largest differences
    python tests/test_answers.py --write          # write the corpus again
    python tests/test_answers.py --write search   # write only these record kinds

Writing only the kinds a change moves keeps the other records as they were
written, so a build that rounds them differently does not rewrite them.
"""

import importlib.util
import json
import math
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "tests", "answers.json")
if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
# the benchmark's module, loaded from its file: perfbench/ is not a package
_spec = importlib.util.spec_from_file_location(
    "workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

SEED = 1
REL = 1e-12
# echoed inputs, by record kind: the fields that start with these names
INPUTS = {"search": ("config.",), "meb": ("support_atoms",), "maxvar": ("maximizer.atoms",)}
# the integer fields; every other number is a float, which the report
# prints without a point when it is integral (0.0 as 0)
INTS = ("support_indices", "converged_restarts")


def _kind(inst):
    if isinstance(inst, workloads.CloudInstance):
        return inst.command
    if isinstance(inst, workloads.MeshInstance):
        return f"mesh-{inst.kind}"
    return {"SearchInstance": "search", "ChebyshevInstance": "chebyshev",
            "GenvarInstance": "genvar"}[type(inst).__name__]


def _flatten(record, prefix=""):
    """(dotted field name, value) for every leaf of a record; a list of
    numbers is one leaf."""
    for key, value in record.items():
        name = prefix + key
        if isinstance(value, dict):
            yield from _flatten(value, name + ".")
        else:
            yield name, value


def answers():
    """{workload: [record, ...]} for the first round of each workload."""
    out = {}
    for workload, make_round in workloads.ROUNDS.items():
        records = []
        for inst in make_round(np.random.default_rng(SEED)):
            kind = _kind(inst)
            _, printed = inst.call()
            echoed = INPUTS.get(kind, ())
            fields = {name: value if name in INTS else _floats(value)
                      for name, value in _flatten(json.loads(printed))
                      if not name.startswith(echoed)}
            records.append({"kind": kind, "fields": fields})
        out[workload] = records
    return out


def _floats(value):
    """Numbers as floats, through nested lists; bools, strings and nulls
    as they are."""
    if isinstance(value, list):
        return [_floats(v) for v in value]
    if isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    return value


def _gap_reference(name, fields):
    """The value a gap or residual field is a gap of, or None."""
    if name == "gap":  # maxvar's primal-dual gap, or duality's against R^2
        return fields["dual_value"] if "dual_value" in fields else fields["radius"] ** 2
    if name == "inner_gap":
        return fields["value"]
    if name == "diameter_residual":  # max(0, diameter of the atoms - d)
        P = np.asarray(fields["best_measure.atoms"], dtype=float)
        return float(np.linalg.norm(P[:, None] - P[None], axis=2).max())
    return None


def _field_difference(name, want, got, fields):
    """Relative difference of one field (0 when equal, inf when its type,
    shape or an exact entry differs)."""
    if isinstance(want, float) and isinstance(got, float):
        ref = _gap_reference(name, fields)
        return _relative(want, got, abs(want if ref is None else ref))
    if isinstance(want, list) and name not in INTS and want:
        a, b = np.asarray(want), np.asarray(got)
        if a.dtype != float or b.dtype != float or a.shape != b.shape:
            return math.inf
        return _relative(a, b, float(np.abs(a).max()))
    return 0.0 if type(want) is type(got) and want == got else math.inf


def _relative(a, b, scale):
    err = float(np.abs(np.subtract(a, b)).max())
    if err == 0.0:
        return 0.0
    return err / scale if scale > 0 else math.inf


def compare(expected, actual):
    """{(workload, kind.field): largest relative difference}."""
    worst = {}
    for workload, records in expected.items():
        got = actual.get(workload, [])
        if len(got) != len(records):
            worst[(workload, "<record count>")] = math.inf
            continue
        for want, have in zip(records, got):
            if want["kind"] != have["kind"] or want["fields"].keys() != have["fields"].keys():
                worst[(workload, f"{want['kind']}.<fields>")] = math.inf
                continue
            for name, value in want["fields"].items():
                key = (workload, f"{want['kind']}.{name}")
                diff = _field_difference(name, value, have["fields"][name], want["fields"])
                worst[key] = max(worst.get(key, 0.0), diff)
    return worst


def _table(worst):
    lines = [f"{'workload':<9} {'field':<32} largest relative difference"]
    for (workload, field), diff in sorted(worst.items()):
        flag = "  > 1e-12" if diff > REL else ""
        lines.append(f"{workload:<9} {field:<32} {diff:.3g}{flag}")
    return "\n".join(lines)


def test_answers_match_corpus():
    with open(CORPUS) as fh:
        expected = json.load(fh)
    worst = compare(expected, answers())
    bad = {k: v for k, v in worst.items() if v > REL}
    if bad:
        print(_table(worst))
    assert not bad, f"{len(bad)} fields differ from tests/answers.json by more than {REL}"


def _merge(old, new, kinds):
    """The corpus ``old`` with its records of the given kinds taken from
    ``new``; both must hold the same records in the same order."""
    known = {record["kind"] for records in old.values() for record in records}
    if not kinds <= known:
        sys.exit(f"unknown record kinds: {' '.join(sorted(kinds - known))}")
    merged = {}
    for workload, records in old.items():
        fresh = new.get(workload, [])
        if [r["kind"] for r in records] != [r["kind"] for r in fresh]:
            sys.exit(f"{workload}: the records no longer match the corpus; write them all")
        merged[workload] = [b if a["kind"] in kinds else a for a, b in zip(records, fresh)]
    return merged


def _main(argv):
    if argv[:1] == ["--write"]:
        corpus = answers()
        if argv[1:]:
            with open(CORPUS) as fh:
                corpus = _merge(json.load(fh), corpus, set(argv[1:]))
        with open(CORPUS, "w") as fh:
            json.dump(corpus, fh, indent=1)
            fh.write("\n")
        print(f"wrote {CORPUS}")
        return 0
    if argv:
        sys.exit("usage: test_answers.py [--write [KIND ...]]")
    with open(CORPUS) as fh:
        worst = compare(json.load(fh), answers())
    print(_table(worst))
    return 1 if any(v > REL for v in worst.values()) else 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
