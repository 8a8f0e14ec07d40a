"""Span tracing by wrapping geomoment's public functions at their import sites.

Nothing under ``src/`` is instrumented.  Each traced function is replaced,
in every geomoment module that bound it (``from .lp import solve_lp`` makes
a second binding in ``bounds``, for example), by a wrapper that records a
span: layer code, start, end and the index of the enclosing span.  Spans
stay in memory until :meth:`Tracer.summary` turns them into the per-layer
metrics; a layer's self time is its spans' durations minus the durations of
their direct child spans (calls are strictly nested in one thread, so the
children never overlap).
"""

import sys
import time
from array import array

import numpy as np

from geomoment.lp import LpSolution, LpStatus

# (layer, module that defines the function, function name).  The layer
# names are the metric prefixes of BENCHMARK.json.
TRACED = [
    ("search", "geomoment.isodiametric", "search_max"),
    ("isodiametric", "geomoment.isodiametric", "jung_verify"),
    ("genvar", "geomoment.genvar", "chebyshev_level"),
    ("genvar", "geomoment.genvar", "generalized_variance"),
    ("bounds", "geomoment.bounds", "max_variance"),
    ("bounds", "geomoment.bounds", "duality_gap"),
    ("bounds", "geomoment.bounds", "primal_lp_value"),
    ("bounds", "geomoment.bounds", "bhatia_davis_bound"),
    ("bounds", "geomoment.bounds", "zero_mean_dual_center"),
    ("meb", "geomoment.geometry", "min_enclosing_ball"),
    ("support", "geomoment.geometry", "circumball"),
    ("diameter", "geomoment.geometry", "diameter"),
    ("mesh", "geomoment.geometry", "shape_sample"),
    ("lp", "geomoment.lp", "solve_lp"),
    ("lp", "geomoment.lp", "hull_membership"),
    ("kernel", "geomoment._kernel", "simplex_iterate"),
    ("report", "geomoment.report", "dumps"),
]

LAYERS = ["search", "isodiametric", "genvar", "bounds", "meb",
          "support", "diameter", "mesh", "lp", "kernel", "report"]
CODE = {name: i for i, name in enumerate(LAYERS)}
NO_PARENT = -1


def patch(home, name, replacement):
    """Rebind ``home.name`` to ``replacement`` in every geomoment module that
    holds the original; returns what :func:`restore` needs to undo it."""
    original = getattr(sys.modules[home], name)
    patched = []
    for modname, mod in sorted(sys.modules.items()):
        if modname == "geomoment" or modname.startswith("geomoment."):
            if getattr(mod, name, None) is original:
                patched.append((mod, name, original))
                setattr(mod, name, replacement)
    return patched


def restore(patched):
    for mod, name, original in reversed(patched):
        setattr(mod, name, original)


class Tracer:
    """Span recorder; :meth:`install` wraps, :meth:`uninstall` restores."""

    def __init__(self):
        self.codes = array("b")
        self.parents = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack = [NO_PARENT]
        self.meb_points = 0
        self.pivots = 0
        self.cell_updates = 0
        self.lp_infeasible = 0
        self.restarts = 0
        self.converged_restarts = 0
        self._patched = []

    # -- recording -------------------------------------------------------

    def _open(self, code):
        idx = len(self.codes)
        self.codes.append(code)
        self.parents.append(self.stack[-1])
        self.t0.append(0.0)
        self.t1.append(0.0)
        self.stack.append(idx)
        self.t0[idx] = time.perf_counter()
        return idx

    def _close(self, idx):
        self.t1[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, layer, fn):
        code = CODE[layer]
        note = getattr(self, f"_note_{layer}", None)

        def traced(*args, **kwargs):
            idx = self._open(code)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(idx)
                if note is not None:
                    note(args, None)
                raise
            self._close(idx)
            if note is not None:
                note(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # per-layer counts read from arguments and results

    def _note_meb(self, args, out):
        self.meb_points += len(args[0])

    def _note_kernel(self, args, out):
        if out is not None:
            rows, cols = args[0].shape
            self.pivots += out[1]
            self.cell_updates += out[1] * rows * cols

    def _note_lp(self, args, out):
        if isinstance(out, LpSolution) and out.status is LpStatus.INFEASIBLE:
            self.lp_infeasible += 1

    def _note_search(self, args, out):
        self.restarts += args[0].restarts
        if out is not None:
            self.converged_restarts += out.converged_restarts

    # -- patching --------------------------------------------------------

    def install(self):
        for layer, home, name in TRACED:
            original = getattr(sys.modules[home], name)
            self._patched += patch(home, name, self._wrap(layer, original))

    def uninstall(self):
        restore(self._patched)
        self._patched.clear()

    # -- summary ---------------------------------------------------------

    def summary(self):
        """Per-layer metrics named as in BENCHMARK.json's ``per_layer``."""
        codes = np.frombuffer(self.codes, dtype=np.int8).astype(np.int64)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        dur = np.frombuffer(self.t1, dtype=float) - np.frombuffer(self.t0, dtype=float)
        has_parent = parents != NO_PARENT
        child_time = np.bincount(parents[has_parent], weights=dur[has_parent],
                                 minlength=codes.size)
        self_time = dur - child_time
        parent_code = np.full(codes.size, -1)
        parent_code[has_parent] = codes[parents[has_parent]]

        def calls(layer):
            return int((codes == CODE[layer]).sum())

        def self_s(layer):
            return float(self_time[codes == CODE[layer]].sum())

        def total_s(layer):
            return float(dur[codes == CODE[layer]].sum())

        def children(layer, of):
            return int(((codes == CODE[layer]) & (parent_code == CODE[of])).sum())

        meb_calls = calls("meb")
        support = calls("support")
        lp_calls = calls("lp")
        kernel_calls = calls("kernel")
        # hull_membership is an lp span around its own solve_lp, so count
        # solve_lp calls as the lp spans that call the kernel.  Each runs
        # phase 1 and, unless infeasible, phase 2; a kernel call beyond one
        # per phase is a rerun after objective drift
        kernel_parents = parents[codes == CODE["kernel"]]
        solve_calls = np.unique(kernel_parents).size
        phases = 2 * solve_calls - self.lp_infeasible
        genvar_calls = calls("genvar")
        meb_in_search = self._descendants_of(codes, parents, "meb", "search")
        out = {
            "meb.calls": meb_calls,
            "meb.points": self.meb_points,
            "meb.self_s": self_s("meb"),
            "meb.support_solves": support,
            "meb.support_solves_per_call": support / meb_calls if meb_calls else 0.0,
            "meb.support_s": total_s("support"),
            "kernel.calls": kernel_calls,
            "kernel.self_s": self_s("kernel"),
            "kernel.pivots": self.pivots,
            "kernel.cell_updates": self.cell_updates,
            "kernel.ns_per_cell_update": (1e9 * self_s("kernel") / self.cell_updates
                                          if self.cell_updates else 0.0),
            "lp.calls": lp_calls,
            "lp.self_s": self_s("lp"),
            "lp.pivots_per_call": self.pivots / solve_calls if solve_calls else 0.0,
            "lp.drift_reruns": kernel_calls - phases,
            "lp.infeasible": self.lp_infeasible,
            "genvar.calls": genvar_calls,
            "genvar.self_s": self_s("genvar"),
            "genvar.lp_solves_per_call": (children("lp", "genvar") / genvar_calls
                                          if genvar_calls else 0.0),
            "bounds.calls": calls("bounds"),
            "bounds.self_s": self_s("bounds"),
            "search.calls": calls("search"),
            "search.restarts": self.restarts,
            "search.self_s": self_s("search"),
            "search.meb_calls_per_restart": (meb_in_search / self.restarts
                                             if self.restarts else 0.0),
            "search.converged_ratio": (self.converged_restarts / self.restarts
                                       if self.restarts else 0.0),
            "geometry.diameter_s": total_s("diameter"),
            "geometry.mesh_s": total_s("mesh"),
            "report.self_s": self_s("report"),
        }
        return out

    @staticmethod
    def _descendants_of(codes, parents, layer, ancestor):
        """Spans of ``layer`` with a span of ``ancestor`` above them."""
        target = CODE[ancestor]
        count = 0
        for idx in np.nonzero(codes == CODE[layer])[0]:
            p = parents[idx]
            while p != NO_PARENT:
                if codes[p] == target:
                    count += 1
                    break
                p = parents[p]
        return count
