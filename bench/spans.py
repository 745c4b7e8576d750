"""Span tracing of meshfit from outside the package.

``Tracer.install`` wraps the public callables of each layer in place: module
functions are rebound in every module that imported them by name, methods are
wrapped on their class, and ``scipy.sparse.linalg.spsolve`` is rebound on the
scipy module.  The level-set field handed to meshfit is wrapped by
``Tracer.wrap_field``.  Nothing under ``src/`` is modified.

Each call records one span (name, start, end, parent) in memory; spans are
written out by ``Tracer.dump``.  Counters are derived only from the arguments
and return values of the wrapped calls, so they do not depend on timing.
A span's self time is its duration minus the time covered by its traced
children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import time
from collections import defaultdict

LAYERS = ("basis", "mesh", "tmop", "linalg", "levelset", "adapt", "mesh_io")


class Tracer:
    """In-memory span recorder plus the counters of the benchmark's layers."""

    def __init__(self):
        self.enabled = True
        self.spans: list[tuple[int, float, float, int]] = []
        self._stack: list[list] = []  # [name id, start, child time, index]
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._seen_orders: set[tuple[int, ...]] = set()

    # -- span recording ---------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def call(self, name: str, fn, args, kwargs):
        """Run ``fn`` inside a span called ``name``; returns its result."""
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1][3] if self._stack else -1
        self.spans.append(None)  # filled on exit; children name it as parent
        entry = [self._name_id(name), time.perf_counter(), 0.0, index]
        self._stack.append(entry)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            name_id, start, child, _ = entry
            duration = end - start
            self.spans[index] = (name_id, start, end, parent)
            self.self_s[name] += duration - child
            self.inclusive_s[name] += duration
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][2] += duration

    def dump(self, path: str):
        """Write the spans as gzipped JSON lines: [name, start, end, parent]."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self._names}) + "\n")
            for name_id, start, end, parent in self.spans:
                fh.write(f"[{name_id},{start!r},{end!r},{parent}]\n")

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name, fn, after=None, before=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            out = tracer.call(name, fn, args, kwargs)
            if after is not None and tracer.enabled:
                after(args, kwargs, out)
            return out
        return wrapper

    def _rebind(self, modules, attr, name, after=None, before=None):
        wrapper = self._wrap(name, getattr(modules[0], attr), after, before)
        for mod in modules:
            setattr(mod, attr, wrapper)

    def _wrap_method(self, cls, attr, name, after=None):
        setattr(cls, attr, self._wrap(name, getattr(cls, attr), after))

    def install(self):
        """Wrap the public callables of every layer of an imported meshfit."""
        import meshfit
        import scipy.sparse.linalg as spla
        from meshfit import adapt, basis, cli, levelset, mesh, mesh_io, \
            study, tmop

        c = self.counts

        def on_spsolve(args, kwargs, out):
            A = args[0]
            c["spsolve.n"] += A.shape[0]
            c["spsolve.nnz"] += A.nnz

        def on_solve(args, kwargs, out):
            problem = args[0]
            report = out[1]
            cap = problem.controls.weight_cap
            c["tmop.iterations"] += report.num_iterations
            for rec in report.iterations:
                c["tmop.backtracks"] += rec.backtracks
                c["tmop.steepest_steps"] += rec.direction == "steepest"
                c["tmop.cap_iterations"] += rec.fit_weight >= cap
            orders = tuple(el.order for el in problem.mesh.elements)
            c["adapt.repeated_states"] += orders in self._seen_orders
            self._seen_orders.add(orders)

        def on_adapt(args, kwargs, out):
            c["adapt.outer_iterations"] += out.outer_iterations
            c["adapt.solves"] += sum(r.phase == "fit" for r in out.records)

        def on_derefine(args, kwargs, out):
            c["adapt.derefine.accepted"] += len(out)

        def on_write(args, kwargs, out):
            c["mesh_io.write.bytes"] += os.path.getsize(args[1])

        def on_read(args, kwargs, out):
            c["mesh_io.read.bytes"] += os.path.getsize(args[0])

        def on_locate(args, kwargs, out):
            c["levelset.locate.newton_iters"] += out.iterations

        def on_candidates(args, kwargs, out):
            c["levelset.candidates"] += len(out)

        self._rebind([spla], "spsolve", "linalg.spsolve", on_spsolve)
        self._rebind([tmop, adapt, study, cli, meshfit], "solve_r_adaptivity",
                     "tmop.solve", on_solve)

        def new_adaptive_run():
            # repeated states are counted within one adaptive run
            self._seen_orders = set()

        self._rebind([adapt, study, cli, meshfit], "run_rp_adaptivity",
                     "adapt.run", on_adapt, before=new_adaptive_run)
        self._rebind([adapt, study, cli, meshfit], "compute_face_errors",
                     "adapt.face_errors")
        self._rebind([adapt], "derefinement_pass", "adapt.derefine",
                     on_derefine)
        self._rebind([mesh, tmop, adapt, mesh_io, meshfit],
                     "apply_edge_constraints", "mesh.edge_constraints")
        self._rebind([basis, mesh, tmop], "basis_tables", "basis.tables")
        for attr in ("write_mesh", "export_vtk", "export_svg"):
            self._rebind([mesh_io, cli, meshfit], attr, "mesh_io.write",
                         on_write)
        self._rebind([mesh_io, study, cli, meshfit], "read_mesh",
                     "mesh_io.read", on_read)
        self._wrap_method(basis.ReferenceElement, "eval_basis", "basis.eval")
        self._wrap_method(basis.ReferenceElement, "eval_basis_grad",
                          "basis.eval")
        self._wrap_method(mesh.DofMap, "__init__", "mesh.dofmap")
        self._wrap_method(mesh.MixedOrderMesh, "min_det", "mesh.min_det")
        self._wrap_method(mesh.MixedOrderMesh, "set_order", "mesh.set_order")
        self._wrap_method(levelset.Locator, "__init__",
                          "levelset.locator_build")
        self._wrap_method(levelset.Locator, "locate", "levelset.locate",
                          on_locate)
        self._wrap_method(levelset.Locator, "candidates",
                          "levelset.candidates", on_candidates)

    def wrap_field(self, field):
        """A stand-in for ``field`` whose queries are traced."""
        return TracedField(self, field)

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of the run, by benchmark metric name."""
        calls, s, c = self.calls, self.self_s, self.counts
        iters = c["tmop.iterations"]
        located = calls["levelset.locate"]
        out = {
            "linalg.spsolve.calls": calls["linalg.spsolve"],
            "linalg.spsolve.s": s["linalg.spsolve"],
            "linalg.spsolve.n_mean": _ratio(c["spsolve.n"],
                                            calls["linalg.spsolve"]),
            "linalg.spsolve.nnz_mean": _ratio(c["spsolve.nnz"],
                                              calls["linalg.spsolve"]),
            "linalg.factorizations_per_iteration":
                _ratio(calls["linalg.spsolve"], iters),
            "tmop.solve.calls": calls["tmop.solve"],
            "tmop.solve.self_s": s["tmop.solve"],
            "tmop.iterations": iters,
            "tmop.backtracks": c["tmop.backtracks"],
            "tmop.steepest_steps": c["tmop.steepest_steps"],
            "tmop.cap_iterations": c["tmop.cap_iterations"],
            "levelset.values.calls": calls["levelset.values"],
            "levelset.values.points": c["levelset.values.points"],
            "levelset.values.s": s["levelset.values"],
            "levelset.gradients.calls": calls["levelset.gradients"],
            "levelset.gradients.points": c["levelset.gradients.points"],
            "levelset.gradients.s": s["levelset.gradients"],
            "levelset.locate.points": located,
            "levelset.locate.s": s["levelset.locate"]
                                 + s["levelset.candidates"],
            "levelset.locate.candidates_per_point":
                _ratio(c["levelset.candidates"], located),
            "levelset.locate.newton_iters": c["levelset.locate.newton_iters"],
            "levelset.locator_build.s": s["levelset.locator_build"],
            "basis.eval.calls": calls["basis.eval"],
            "basis.eval.s": s["basis.eval"],
            "basis.tables.calls": calls["basis.tables"],
            "mesh.dofmap.builds": calls["mesh.dofmap"],
            "mesh.dofmap.s": s["mesh.dofmap"],
            "mesh.edge_constraints.calls": calls["mesh.edge_constraints"],
            "mesh.edge_constraints.s": s["mesh.edge_constraints"],
            "mesh.min_det.calls": calls["mesh.min_det"],
            "mesh.min_det.s": s["mesh.min_det"],
            "mesh.set_order.calls": calls["mesh.set_order"],
            "adapt.face_errors.calls": calls["adapt.face_errors"],
            "adapt.face_errors.s": s["adapt.face_errors"],
            "adapt.derefine.s": s["adapt.derefine"],
            "adapt.derefine.accepted": c["adapt.derefine.accepted"],
            "adapt.outer_iterations": c["adapt.outer_iterations"],
            "adapt.solves": c["adapt.solves"],
            "adapt.repeated_states": c["adapt.repeated_states"],
            "mesh_io.write.s": s["mesh_io.write"],
            "mesh_io.write.bytes": c["mesh_io.write.bytes"],
            "mesh_io.read.s": s["mesh_io.read"],
            "mesh_io.read.bytes": c["mesh_io.read.bytes"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for k, v in s.items() if k.split(".")[0] == layer)
        return out


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith((".s", "self_s", "overhead_s")):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("_per_point", "_per_iteration")):
        return "ratio"
    return "count"


def is_count(name: str) -> bool:
    """Whether a per-layer metric is a count, which must repeat exactly."""
    return layer_unit(name) != "s"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class TracedField:
    """Level-set field proxy that records a span per values/gradients query."""

    def __init__(self, tracer: Tracer, field):
        self._tracer = tracer
        self.field = field

    def __getattr__(self, attr):
        return getattr(self.field, attr)

    def _query(self, kind, points, *args, **kwargs):
        tracer = self._tracer
        if tracer.enabled:
            tracer.counts[f"levelset.{kind}.points"] += len(points)
        return tracer.call(f"levelset.{kind}", getattr(self.field, kind),
                           (points,) + args, kwargs)

    def values(self, points, *args, **kwargs):
        return self._query("values", points, *args, **kwargs)

    def gradients(self, points, *args, **kwargs):
        return self._query("gradients", points, *args, **kwargs)
