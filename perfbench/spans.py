"""Traced runs: spans around the program's public functions, recorded from
the benchmark's own code.

`Tracer.install()` wraps each public function listed in LAYERS at every
module attribute of the `tensorgeo` package that binds it (so
`tensorgeo.verify.tcm` as well as `tensorgeo.measures.tcm`), and methods
on their class.  A span records its layer, start, end, parent and the
operation it belongs to; spans stay in memory and are written out when the
run ends.  A layer's self time is the duration of its spans minus the time
their child spans cover.  Counts come from return values.
"""

import functools
import importlib
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# layer -> (module, public functions); "Class.attr" names a method.  The one
# private function, _vertices_brute_force, is the vertex enumeration that
# intersect_flat, window clipping and the generic kinematic path share;
# verify imports it directly, so unwrapped its work would count as verify's.
LAYERS = {
    "polytope.build": ("polytope", ["Polytope.from_vertices", "Polytope.from_halfspaces"]),
    "polytope.section": ("polytope", ["intersect_flat", "_vertices_brute_force"]),
    "polytope.faces": ("polytope", ["Polytope.faces", "Polytope.normal_cone"]),
    "polytope.moment": ("polytope", ["polytope_moment", "triangulate", "simplex_moment"]),
    "conemoment": ("conemoment", ["cone_sphere_moment"]),
    "symtensor.mul": ("symtensor", ["SymTensor.__mul__", "SymTensor.__rmul__", "SymTensor.power"]),
    "symtensor.vector_power": ("symtensor", ["vector_power"]),
    "measures.tcm": ("measures", ["tcm"]),
    "flats.sample": ("flats", ["sample_flats_hitting", "sample_motions_coupling",
                               "random_rotation"]),
    "verify.lhs": ("verify", ["crofton_lhs", "kinematic_lhs"]),
    "verify.rhs": ("verify", ["crofton_rhs", "kinematic_rhs"]),
    "verify.steiner": ("verify", ["steiner_check"]),
    "verify.independence": ("verify", ["independence_rank"]),
    "coeffs": ("coeffs", ["d_coeff", "thm31_coeff", "c_norm"]),
    "cli.main": ("cli", ["main"]),
}
COUNTED = {"rng.streams": ("rng", "stream")}     # calls counted, no span
CONE_METHODS = ("full-sphere", "point", "product", "arc", "monte-carlo")
OP, HITS = "op", "bench.hits"    # an operation's root span; hit-fraction bookkeeping

# per-layer metrics: name -> (unit, better)
METRICS = {}
for _layer in LAYERS:
    METRICS[f"{_layer}.calls"] = ("count", "lower")
    METRICS[f"{_layer}.s"] = ("s", "lower")
METRICS.update({
    "polytope.section.empty": ("count", "lower"),
    "polytope.section.grazing": ("count", "lower"),
    **{f"conemoment.method.{m}": ("count", "higher") for m in CONE_METHODS[:-1]},
    "conemoment.method.monte-carlo": ("count", "lower"),
    "conemoment.mc_samples": ("count", "lower"),
    "flats.proposals": ("count", "lower"),
    "flats.hit_fraction": ("ratio", "higher"),
    "verify.samples": ("count", "lower"),
    "verify.rejections": ("count", "lower"),
    "rng.streams": ("count", "lower"),
})


class Tracer:
    def __init__(self):
        self.layers = [OP, HITS, *LAYERS]
        self.start, self.end = array("d"), array("d")
        self.parent, self.layer, self.op = array("q"), array("q"), array("q")
        self.op_names = []
        self.counts = Counter()
        self._stack = [-1]
        self._paused = 0
        self._patches = []

    # -- spans ------------------------------------------------------------------

    def _open(self, layer):
        idx = len(self.start)
        self.parent.append(self._stack[-1])
        self.layer.append(layer)
        self.op.append(len(self.op_names) - 1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def _span(self, layer):
        idx = self._open(self.layers.index(layer))
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def operation(self, name):
        """Root span of one attempt of a benchmark operation."""
        self.op_names.append(name)
        with self._span(OP):
            yield

    @contextmanager
    def paused(self):
        """Calls made here (checks, hit bookkeeping) record nothing."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def observe(self, result):
        """Counts taken from a benchmark operation's result."""
        for rep in _reports(result):
            self.counts["verify.samples"] += rep.samples
            self.counts["verify.rejections"] += rep.rejections

    # -- wrapping ---------------------------------------------------------------

    def install(self):
        for layer, (mod, names) in LAYERS.items():
            module = importlib.import_module(f"tensorgeo.{mod}")
            for name in names:
                self._wrap(module, name, self.layers.index(layer), _OBSERVERS.get(name))
        for key, (mod, name) in COUNTED.items():
            module = importlib.import_module(f"tensorgeo.{mod}")
            self._wrap(module, name, None, None, count=key)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, module, name, layer, observer, count=None):
        tracer = self
        if "." in name:
            cls_name, attr = name.split(".")
            owner = getattr(module, cls_name)
            raw = owner.__dict__[attr]
            func = raw.__func__ if isinstance(raw, staticmethod) else raw
        else:
            func = getattr(module, name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return func(*args, **kwargs)
            if count is not None:
                tracer.counts[count] += 1
                return func(*args, **kwargs)
            idx = tracer._open(layer)
            try:
                out = func(*args, **kwargs)
            except Exception as exc:
                tracer._close(idx)
                if observer:
                    observer(tracer, args, None, exc)
                raise
            tracer._close(idx)
            if observer:
                observer(tracer, args, out, None)
            return out

        if "." in name:
            new = staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, new)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "tensorgeo" or mod_name.startswith("tensorgeo."):
                for attr, value in list(vars(mod).items()):
                    if value is func:
                        self._patches.append((mod, attr, func))
                        setattr(mod, attr, wrapper)

    # -- results ----------------------------------------------------------------

    def layer_totals(self):
        """{layer: (calls, self seconds)} over the whole traced run."""
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        layer = np.frombuffer(self.layer, dtype=np.int64)
        nested = parent >= 0
        self_s = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        calls = np.bincount(layer, minlength=len(self.layers))
        secs = np.bincount(layer, weights=self_s, minlength=len(self.layers))
        return {name: (int(calls[i]), float(secs[i])) for i, name in enumerate(self.layers)}

    def layer_metrics(self, rounds):
        """Every per-layer metric, per pass over the workload."""
        totals = self.layer_totals()
        values = {}
        for layer in LAYERS:
            values[f"{layer}.calls"] = totals[layer][0] / rounds
            values[f"{layer}.s"] = totals[layer][1] / rounds
        for key in METRICS:
            if key not in values and key != "flats.hit_fraction":
                values[key] = self.counts[key] / rounds
        tried = self.counts["flats.hit_tested"]
        values["flats.hit_fraction"] = self.counts["flats.hits"] / tried if tried else 0.0
        return {k: {"value": values[k], "unit": METRICS[k][0]} for k in METRICS}

    def summary(self, rounds):
        """Self time per layer and its share of the traced operations."""
        totals = self.layer_totals()
        total = sum(s for name, (_, s) in totals.items() if name != HITS)
        lines = [f"traced passes: {rounds}; self time per pass {total / rounds:.4f} s "
                 f"(bookkeeping {totals[HITS][1] / rounds:.4f} s)"]
        for name, (calls, secs) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
            if name != HITS:
                lines.append(f"  {name:24s} {calls / rounds:10.1f} calls "
                             f"{secs / rounds:9.4f} s {100 * secs / total:6.1f} %")
        return "\n".join(lines)

    def write(self, path):
        """All spans, as arrays: layer, op, parent, start, end (seconds)."""
        np.savez_compressed(
            path, layers=np.array(self.layers), op_names=np.array(self.op_names),
            layer=np.frombuffer(self.layer, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))


def _reports(result):
    if hasattr(result, "samples") and hasattr(result, "rejections"):
        yield result
    elif isinstance(result, (list, tuple)):
        for item in result:
            yield from _reports(item)


# -- observers: counts from return values ---------------------------------------

def _section(tracer, args, out, exc):
    from tensorgeo.polytope import GrazingIntersectionError
    if isinstance(exc, GrazingIntersectionError):
        tracer.counts["polytope.section.grazing"] += 1
    elif exc is None and out is None:
        tracer.counts["polytope.section.empty"] += 1


def _cone(tracer, args, out, exc):
    result = out if exc is None else getattr(exc, "partial", None)
    if result is not None:
        tracer.counts[f"conemoment.method.{result.method}"] += 1
        tracer.counts["conemoment.mc_samples"] += result.samples


def _flats(tracer, args, out, exc):
    if exc is None:
        with tracer._span(HITS), tracer.paused():
            tracer.counts["flats.proposals"] += len(out)
            hits = _flat_hits(args[0], args[1], out)
            if hits is not None:
                tracer.counts["flats.hit_tested"] += len(out)
                tracer.counts["flats.hits"] += int(hits.sum())


def _motions(tracer, args, out, exc):
    if exc is None:
        with tracer._span(HITS), tracer.paused():
            tracer.counts["flats.proposals"] += len(out)
            tracer.counts["flats.hit_tested"] += len(out)
            tracer.counts["flats.hits"] += int(_motion_hits(args[0], args[1], out).sum())


_OBSERVERS = {"intersect_flat": _section, "cone_sphere_moment": _cone,
              "sample_flats_hitting": _flats, "sample_motions_coupling": _motions}


def _flat_hits(P, k, batch):
    """Which sampled k-flats meet P: lines by clipping against the facets,
    hyperplanes by the spread of the vertices along the normal; None for
    other k."""
    n = P.dim
    if k == 1:
        A, b = P.ambient_halfspaces()
        d = batch.frames[:, :, 0]
        den = d @ A.T
        num = b - batch.points @ A.T
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = num / den
        hi = np.min(np.where(den > 1e-12, ratio, np.inf), axis=1)
        lo = np.max(np.where(den < -1e-12, ratio, -np.inf), axis=1)
        blocked = np.any((np.abs(den) <= 1e-12) & (num < 0), axis=1)
        return ~blocked & (lo < hi)
    if k == n - 1:
        normal = np.linalg.svd(batch.frames, full_matrices=True)[0][:, :, -1]
        proj = normal @ P.vertices.T
        at = np.einsum("ni,ni->n", normal, batch.points)
        return (proj.min(axis=1) <= at) & (at <= proj.max(axis=1))
    return None


def _motion_hits(P, Q, batch):
    """Which sampled motions g make P and gQ meet, by separating axes:
    facet normals of both bodies and, in 3-d, cross products of edges."""
    A1, _ = P.ambient_halfspaces()
    A2, _ = Q.ambient_halfspaces()
    rot, shift = batch.rotations, batch.translations
    V1 = P.vertices
    V2 = np.einsum("nij,mj->nmi", rot, Q.vertices) + shift[:, None, :]
    axes = [np.broadcast_to(A1, (len(rot),) + A1.shape), np.einsum("nij,fj->nfi", rot, A2)]
    if P.dim == 3:
        e1 = _edge_directions(P)
        e2 = np.einsum("nij,ej->nei", rot, _edge_directions(Q))
        axes.append(np.cross(e1[None, :, None, :], e2[:, None, :, :]).reshape(len(rot), -1, 3))
    axes = np.concatenate(axes, axis=1)
    p1 = np.einsum("nki,mi->nkm", axes, V1)
    p2 = np.einsum("nki,nmi->nkm", axes, V2)
    gap = np.maximum(p2.min(axis=2) - p1.max(axis=2), p1.min(axis=2) - p2.max(axis=2))
    scale = np.linalg.norm(axes, axis=2)
    return ~np.any(gap > 1e-12 * np.maximum(scale, 1.0), axis=1)


def _edge_directions(P):
    edges = [face.vertices[1] - face.vertices[0] for face in P.faces(1)]
    return np.array(edges)
