"""Span tracing of the e510 layers from outside the library.

`Tracer.install` replaces module-level functions and methods of `sl5`,
`uminus`, `linalg`, `fmodules` and `verma` with wrappers that record one span
(name, start, end, parent) per call.  Each name is patched in the namespace
where callers look it up: `verma` imports `glact_vector` and `RowReducer` by
name, so `verma.glact_vector` (the z-terms of the search) and
`fmodules.glact_vector` (the module build) are patched separately, and the
`RowReducer` method is patched on the class both modules share.  The
`lru_cache` objects `verma._l0_mono` and `verma._odd_action` are not wrapped;
their hit ratios come from `cache_info()` of the original objects.

Spans are kept in flat arrays in memory and written out when the process
ends; self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import gzip
import time
from array import array


# Probes run before (pre) or after (post) a call; true results count as hits.
def _stack_cached(args):
    mod, nu = args
    return tuple(nu) in getattr(mod, "_stack_cache", {})


def _act_cached(args):
    mod, r, s, nu = args
    return (r, s, tuple(nu)) in mod._act_cache


def _nonempty(out):
    return bool(out)


def patch_table(sl5, uminus, linalg, fmodules, verma):
    """(owner, attribute, span name, pre-call probe, post-call probe)."""
    return [
        (sl5, "dominated_depth", "sl5.dominated_depth", None, None),
        (sl5, "root_coefficients", "sl5.root_coefficients", None, None),
        (uminus, "pbw_monomials", "uminus.pbw_monomials", None, None),
        (uminus, "omega_basis", "uminus.omega_basis", None, None),
        (uminus, "normal_form", "uminus.normal_form", None, None),
        (linalg.RowReducer, "insert", "linalg.RowReducer.insert", None, _nonempty),
        (linalg, "null_space", "linalg.null_space", None, None),
        (fmodules.TensorModule, "ensure_weight",
         "fmodules.TensorModule.ensure_weight", None, None),
        (fmodules, "glact_vector", "fmodules.glact_vector.build", None, None),
        (verma, "glact_vector", "fmodules.glact_vector.zterms", None, None),
        (fmodules.TensorModule, "act_entries", "fmodules.act_entries", _act_cached, None),
        (fmodules.DualModule, "act_entries", "fmodules.act_entries", _act_cached, None),
        (fmodules, "build_irreducible", "fmodules.build_irreducible", None, None),
        (verma, "singular_vectors", "verma.singular_vectors", None, None),
        (verma, "_lift_singular", "verma._lift_singular", None, _nonempty),
        (verma, "_stacked_solver", "verma._stacked_solver",
         _stack_cached, None),
        (verma, "is_singular", "verma.is_singular", None, None),
        (verma, "label_family", "verma.label_family", None, None),
        (verma, "family_instance", "verma.family_instance", None, None),
        (verma, "morphism_from_singular", "verma.morphism_from_singular", None, None),
        (verma, "compose", "verma.compose", None, None),
        (verma, "theta_decomposition", "verma.theta_decomposition", None, None),
        (verma, "dual_morphism", "verma.dual_morphism", None, None),
        (verma, "_gen_on_theta", "verma._gen_on_theta", None, None),
        (verma, "check_morphism", "verma.check_morphism", None, None),
        (verma, "verify_degree_equations", "verma.verify_degree_equations", None, None),
    ]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.hits: dict[str, int] = {}
        self._stack = [-1]

    def install(self, sl5, uminus, linalg, fmodules, verma):
        for owner, attr, name, pre, post in patch_table(sl5, uminus, linalg, fmodules, verma):
            setattr(owner, attr, self._wrap(owner.__dict__[attr], name, pre, post))

    def span(self, name: str, fn, *args):
        """Run fn(*args) inside a span of the benchmark's own."""
        return self._wrap(fn, name, None, None)(*args)

    def _wrap(self, fn, name, pre, post):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.hits[name] = 0
        clock = time.perf_counter
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        hits = self.hits

        def wrapper(*args, **kwargs):
            if pre is not None and pre(args):
                hits[name] += 1
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if post is not None and post(out):
                hits[name] += 1
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self) -> dict:
        """name -> {"calls", "self_s", "hits"} over every recorded span."""
        n = len(self.span_name)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {name: {"calls": 0, "self_s": 0.0, "hits": self.hits[name]}
               for name in self.names}
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            row["calls"] += 1
            row["self_s"] += ends[i] - starts[i] - child[i]
        return out

    def write(self, path) -> None:
        """One tab-separated line per span: id, parent, name, start, end (s)."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.span_parent[i]}\t{names[self.span_name[i]]}\t"
                         f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n")
