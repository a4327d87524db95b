"""Outside-in tracing: wrappers around the public functions of each layer.

Nothing in ``splitfields`` knows about this module.  ``Tracer.install``
replaces each traced function in every ``splitfields.*`` namespace that holds
that same object (``structure`` and ``modules`` import ``spin`` and
``in_row_space`` by name), and the traced methods on their classes;
``Tracer.restore`` puts every original back.  A wrapped call is a span: its
self time is its duration minus the time covered by wrapped calls made inside
it.  Field operations are only counted, to keep the cost of tracing down.
Spans are aggregated in memory per job and (parent, child) pair and can be
written out once the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter


# (module, attribute, metric name, extra counters).  Extra counters:
#   "cells"    - rows * cols of the matrix passed to rref
#   "hits"     - calls that returned True
#   "unknowns" - dim M * dim N of a hom-space system
#   "rounds"   - iterations of a splitting-field search
#   "proper"   - spins made by the MeatAxe split search (inside
#                composition_factors) that return a proper nonzero submodule
FUNCTIONS = (
    ("fields", "adjoin_root", "fields.adjoin_root", ()),
    ("fields", "embed_find", "fields.embed_find", ()),
    ("fields", "subfield_generated", "fields.subfield_generated", ()),
    ("fields", "embedding_preimage", "fields.embedding_preimage", ()),
    ("linalg", "in_row_space", "linalg.in_row_space", ("hits",)),
    ("linalg", "row_space_basis", "linalg.row_space_basis", ()),
    ("polys", "factor", None, ()),
    ("polys", "eval_matrix", "polys.eval_matrix", ()),
    ("algebras", "algebra_validate", "algebras.algebra_validate", ()),
    ("algebras", "quotient_algebra", "algebras.quotient_algebra", ()),
    ("modules", "spin", "modules.spin", ("proper",)),
    ("modules", "hom_space", "modules.hom_space", ("unknowns",)),
    ("modules", "sub_quotient", "modules.sub_quotient", ()),
    ("modules", "is_isomorphic", "modules.is_isomorphic", ()),
    ("structure", "composition_factors", "structure.composition_factors", ()),
    ("structure", "radical", "structure.radical", ()),
    ("structure", "simple_modules", "structure.simple_modules", ()),
    ("structure", "oracle_submodules", "structure.oracle", ()),
    ("structure", "oracle_is_simple", "structure.oracle", ()),
    ("structure", "oracle_composition_series_dims", "structure.oracle", ()),
    ("basechange", "extend_algebra", "basechange.extend_algebra", ()),
    ("basechange", "extend_module", "basechange.extend_module", ()),
    ("basechange", "theta_dim_check", "basechange.theta_dim_check", ()),
    ("basechange", "end_algebra_extension_check",
     "basechange.end_algebra_extension_check", ()),
    ("basechange", "descend_module", "basechange.descend_module", ()),
    ("splitting", "is_split", "splitting.is_split", ()),
    ("splitting", "is_absolutely_simple", "splitting.is_absolutely_simple", ()),
    ("splitting", "find_splitting_field", "splitting.find_splitting_field",
     ("rounds",)),
    ("splitting", "verify_chain_theorem", "splitting.verify_chain_theorem", ()),
    ("documents", "parse_any", "documents.parse_any", ()),
    ("documents", "dumps", "documents.dumps", ()),
    ("cli", "main", "cli.main", ()),
)

# (class, method, metric name, extra counters)
METHODS = (
    ("linalg", "Matrix", "rref", "linalg.rref", ("cells",)),
    ("linalg", "Matrix", "__matmul__", "linalg.matmul", ()),
    ("linalg", "Matrix", "min_poly", "linalg.min_poly", ()),
)

# field operations: counted, not timed
COUNTED = (
    ("__mul__", "fields.mul"),
    ("__add__", "fields.addsub"),
    ("__sub__", "fields.addsub"),
    ("inverse", "fields.inverse"),
)

_SPLIT_SEARCH = "structure.composition_factors"


class _Stat:
    __slots__ = ("calls", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.extra = {}

    def bump(self, key, n=1):
        self.extra[key] = self.extra.get(key, 0) + n


class Tracer:
    """Installs the wrappers, records spans and counts, restores the originals."""

    def __init__(self):
        self.stats = {}
        self.counts = {}
        self.edges = {}          # (job, parent, name) -> [calls, total_s, self_s]
        self._names = ["job"]    # open span names, innermost last
        self._child = [0.0]      # time covered by child spans of each open span
        self._job = None
        self._saved = []         # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def _stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat()
        return st

    def _span(self, fn, name, extras, namespace):
        """A wrapper recording one span per call of ``fn``."""
        names, child, edges = self._names, self._child, self.edges
        tracer = self

        def wrapper(*args, **kwargs):
            metric = name
            if metric is None:  # polys.factor, split by field kind
                metric = ("polys.factor.finite" if args[1].characteristic
                          else "polys.factor.char0")
            parent = names[-1]
            names.append(metric)
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                names.pop()
                inner = child.pop()
                child[-1] += dt
                st = tracer._stat(metric)
                st.calls += 1
                st.self_s += dt - inner
                edge = edges.get((tracer._job, parent, metric))
                if edge is None:
                    edge = edges[(tracer._job, parent, metric)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += dt
                edge[2] += dt - inner
            if extras:
                tracer._extras(metric, extras, args, result, parent, namespace)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _extras(self, metric, extras, args, result, parent, namespace):
        st = self.stats[metric]
        for key in extras:
            if key == "cells":
                st.bump("cells", args[0].rows * args[0].cols)
            elif key == "hits":
                st.bump("hits", int(result is True))
            elif key == "unknowns":
                st.bump("unknowns", args[0].dim * args[1].dim)
            elif key == "rounds":
                st.bump("rounds", result.iterations)
            elif key == "proper" and namespace == "splitfields.structure" \
                    and parent == _SPLIT_SEARCH:
                st.bump("search")
                st.bump("proper", int(0 < len(result) < args[0].dim))

    def _counter(self, fn, name):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install and restore ------------------------------------------------

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for modname in {entry[0] for entry in FUNCTIONS + METHODS}:
            importlib.import_module(f"splitfields.{modname}")
        pkg = {name: mod for name, mod in sys.modules.items()
               if name == "splitfields" or name.startswith("splitfields.")}
        for modname, attr, metric, extras in FUNCTIONS:
            original = getattr(pkg[f"splitfields.{modname}"], attr)
            for nsname, ns in sorted(pkg.items()):
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, self._span(original, metric, extras, nsname))
        for modname, cls, attr, metric, extras in METHODS:
            owner = getattr(pkg[f"splitfields.{modname}"], cls)
            self._patch(owner, attr, self._span(vars(owner)[attr], metric, extras, None))
        element = pkg["splitfields.fields"].FieldElement
        for attr, metric in COUNTED:
            self._patch(element, attr, self._counter(vars(element)[attr], metric))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def start_job(self, job_id):
        self._job = job_id

    # -- results -------------------------------------------------------------

    def values(self, overhead):
        """Every metric the tracer can report, by name, zero where nothing ran.

        Counts are ints, times and ratios floats.  Which of them a run
        prints is decided by the ``per_layer`` list of BENCHMARK.json."""
        values = {"trace_overhead_frac": float(overhead)}
        for _m, _a, name, extras in FUNCTIONS + tuple(e[1:] for e in METHODS):
            for metric in [name] if name else ["polys.factor.char0", "polys.factor.finite"]:
                st = self.stats.get(metric, _Stat())
                values[f"{metric}.calls"] = st.calls
                values[f"{metric}.self_s"] = float(st.self_s)
                for key in extras:
                    values[f"{metric}.{key}"] = st.extra.get(key, 0)
        for _attr, name in COUNTED:
            values[f"{name}.calls"] = self.counts.get(name, 0)
        irs = self.stats.get("linalg.in_row_space")
        values["linalg.in_row_space.hit_ratio"] = (
            irs.extra.get("hits", 0) / irs.calls if irs else 0.0)
        spin = self.stats.get("modules.spin")
        values["modules.spin.proper_ratio"] = (
            spin.extra.get("proper", 0) / spin.extra["search"]
            if spin and spin.extra.get("search") else 0.0)
        return values

    def write_spans(self, path):
        """The aggregated span tree: one row per job and (parent, child) pair."""
        rows = [{"job": job, "parent": parent, "name": name, "calls": e[0],
                 "total_s": e[1], "self_s": e[2]}
                for (job, parent, name), e in self.edges.items()]
        path.write_text(json.dumps({"spans": rows, "counts": self.counts}, indent=1),
                        encoding="utf-8")
