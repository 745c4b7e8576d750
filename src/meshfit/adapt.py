"""Order adaptation driven by integrated face fitting error.

The driver alternates three moves until the marked faces stop changing:
measure how far each marked face sits from the target isocontour (an
arc-length weighted integral of sigma^2), raise the order of elements next to
badly fitted faces, and re-run the node-movement solver.  Optionally, after
each solve, faces that can be represented at lower order without losing
geometry are projected down again.  The result is a mixed-order mesh whose
high-order elements cluster along the interface.

The loop exits for one of four reasons: ``"no faces refined"``,
``"interface at p_max"``, ``"fixpoint"`` (a refinement reproduces the
element orders of a state already solved; it is not applied, so the mesh is
the one before it, and that state is not solved again) and
``"outer iteration cap"``.  Each outer iteration decides the next order
field (refinement, optional vertex-touch elevation, propagation) on order
arrays, and only then resamples the elements whose order changes, by one
``set_order`` call.

Derefinement decides each candidate lowering on the node blocks it would
touch (``mesh.lowering_min_det``); only an accepted lowering changes the
mesh, by one ``set_order`` call.  Face traces are read from the mesh's
nodes and evaluated per edge order: one product per trace table, one
field query in sorted-face order, and row-wise sums.

Each re-solve after a refinement starts its fit weight where the last
solve's equilibrium puts the residual the refinement left.  At a converged
penalty equilibrium sigma_max is about c / w, with c = w_end sigma_end (that
solve's final weight and residual).  So with sigma0 the worst marked-node
residual after the refinement, the re-solve starts at w_end sigma_end /
sigma0, clamped between the caller's weight and w_end.  After a solve that
did not converge, without a measured residual, or when sigma0 <= 0, it
starts at the caller's weight.  Inside a solve the weight schedule is
unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield, replace
from functools import lru_cache

import numpy as np

from .basis import (_gauss_legendre_01, _gauss_lobatto_cached, is_count,
                    is_real, lagrange_1d, lagrange_1d_deriv)
from .mesh import MixedOrderMesh, interpolation_matrix, lowering_min_det
from .tmop import FitConfig, mark_interface_faces, solve_r_adaptivity

REFINE_KINDS = ("absolute", "relative")
DEREF_KINDS = ("ref", "change", "size")


@dataclass
class AdaptivityPlan:
    """Knobs of the order-adaptation loop.

    ``refine_kind`` selects the marking rule: ``"absolute"`` marks faces with
    error above ``refine_threshold``; ``"relative"`` marks faces with a
    positive error of at least ``refine_threshold`` times the current worst
    face error.  Under either rule a face with zero error is never marked.

    ``deref_kind`` (active only when ``refine_step > 1``) selects the test a
    lower-order candidate must pass: ``"ref"`` keeps the projected error
    under ``deref_threshold * refine_threshold``; ``"change"`` allows the
    error to grow by at most a factor ``1 + deref_threshold``; ``"size"``
    requires the projected face to keep at least ``1 - deref_threshold`` of
    its arc length.  ``None`` disables derefinement.
    """
    p_init: int = 1
    p_max: int = 3
    refine_step: int = 1
    max_neighbor_diff: int | None = None   # None: only bounded by p_max
    refine_kind: str = "absolute"
    refine_threshold: float = 0.0
    deref_kind: str | None = None
    deref_threshold: float = 0.0
    fit_tol: float = 1e-8
    edge_touch_elevate: bool = False

    def __post_init__(self):
        for name in ("p_init", "p_max", "refine_step", "max_neighbor_diff"):
            value = getattr(self, name)
            if not (is_count(value)
                    or name == "max_neighbor_diff" and value is None):
                raise ValueError(f"{name} must be an integer >= 1, got "
                                 f"{value!r}")
        for name in ("refine_threshold", "deref_threshold", "fit_tol"):
            if not is_real(getattr(self, name)):
                raise ValueError(f"{name} must be a real number, got "
                                 f"{getattr(self, name)!r}")
        if not self.p_init <= self.p_max:
            raise ValueError(f"need p_init <= p_max, got "
                             f"{self.p_init}..{self.p_max}")
        if self.refine_kind not in REFINE_KINDS:
            raise ValueError(f"unknown refine criterion {self.refine_kind!r}")
        if self.deref_kind is not None and self.deref_kind not in DEREF_KINDS:
            raise ValueError(f"unknown deref criterion {self.deref_kind!r}")
        if not (self.refine_threshold >= 0 and self.deref_threshold >= 0):
            raise ValueError("thresholds must be >= 0")
        if not self.fit_tol > 0:
            raise ValueError("fit_tol must be positive")

    @property
    def neighbor_limit(self) -> int:
        return self.p_max if self.max_neighbor_diff is None \
            else self.max_neighbor_diff

    @property
    def outer_cap(self) -> int:
        return math.ceil((self.p_max - self.p_init) / self.refine_step) + 1


# ---------------------------------------------------------------------------
# Face traces and errors

@lru_cache(maxsize=None)
def _trace_tables(trace_order: int, face_order: int):
    """Values and derivatives of the order ``trace_order`` Lagrange basis at
    the 2 face_order + 3 Gauss points of a face of order ``face_order``, and
    the weights of that rule; read-only."""
    tq, wq = _gauss_legendre_01(2 * face_order + 3)
    nodes = _gauss_lobatto_cached(trace_order)
    values, derivs = lagrange_1d(nodes, tq), lagrange_1d_deriv(nodes, tq)
    values.flags.writeable = False
    derivs.flags.writeable = False
    return values, derivs, wq


def _face_traces(coords: np.ndarray, order: int):
    """Physical quadrature points (F, nq, 2) of a stack of F traces of one
    order (F, trace order + 1, 2), the weights of the 2 order + 3 point
    Gauss rule of a face of the given order, and the speeds (F, nq) of the
    traces there; one product with each trace table for the whole stack."""
    n_faces, n, _ = coords.shape
    values, derivs, wq = _trace_tables(n - 1, order)
    C = coords.transpose(1, 0, 2).reshape(n, 2 * n_faces)
    x = (values @ C).reshape(-1, n_faces, 2).transpose(1, 0, 2)
    dx = (derivs @ C).reshape(-1, n_faces, 2)
    # row-contiguous, so that each row sums as a face's own array would
    speed = np.ascontiguousarray(np.hypot(dx[..., 0], dx[..., 1]).T)
    return x, wq, speed


def _errors_and_lengths(sigma, wq, speed):
    """Row-wise arc-length weighted sigma^2 integrals and lengths of traces
    with values ``sigma`` and ``speed`` (F, nq) at Gauss weights ``wq``."""
    return (wq * sigma * sigma * speed).sum(axis=1), (wq * speed).sum(axis=1)


@dataclass
class FaceErrorReport:
    faces: list[int]
    errors: np.ndarray
    lengths: np.ndarray
    total_error: float
    max_error: float
    node_sigma_max: float


def compute_face_errors(mesh: MixedOrderMesh, field) -> FaceErrorReport:
    """Fresh per-face error integrals over the marked face set;
    ``node_sigma_max`` is the worst level-set value at its independent
    nodes."""
    faces = sorted(mesh.marked_faces)
    # the nodes first: right after a solve they are the points of its last
    # field query, so a discrete field reuses that location
    dm = mesh.dof_map()
    t = mesh.nodes
    face_nodes = dm.marked_node_ids(mesh)
    if face_nodes.size:
        node_sigma = float(np.abs(field.values(t[face_nodes])).max())
    else:
        node_sigma = 0.0
    errors = np.zeros(len(faces))
    lengths = np.zeros(len(faces))
    # the traces of each edge order as one stack, their points laid out in
    # sorted-face order for one field query over every face
    k = np.array(faces, dtype=int)
    p_face = dm.edge_orders[k]
    counts = 2 * p_face + 3
    starts = np.cumsum(counts) - counts
    points = np.empty((int(counts.sum()), 2))
    stacks = []
    for p in np.unique(p_face).tolist():
        at = np.flatnonzero(p_face == p)
        x, wq, speed = _face_traces(t[dm.edge_nodes[k[at], :p + 1]], p)
        rows = starts[at, None] + np.arange(2 * p + 3)
        points[rows] = x
        stacks.append((at, rows, wq, speed))
    if faces:
        sigma = field.values(points)
        for at, rows, wq, speed in stacks:
            errors[at], lengths[at] = _errors_and_lengths(sigma[rows], wq,
                                                          speed)
    return FaceErrorReport(faces=faces, errors=errors, lengths=lengths,
                           total_error=float(errors.sum()),
                           max_error=float(errors.max()) if len(faces) else 0.0,
                           node_sigma_max=node_sigma)


# ---------------------------------------------------------------------------
# Marking, refinement, propagation

def mark_for_refinement(report: FaceErrorReport,
                        plan: AdaptivityPlan) -> list[int]:
    """Faces whose error violates the plan's refine criterion."""
    if plan.refine_kind == "absolute":
        keep = report.errors > plan.refine_threshold
    else:
        keep = (report.errors >= plan.refine_threshold * report.max_error) \
            & (report.errors > 0.0)
    return [f for f, k in zip(report.faces, keep) if k]


def apply_refinement(mesh: MixedOrderMesh, faces, plan: AdaptivityPlan,
                     orders: np.ndarray) -> np.ndarray:
    """``orders`` with both neighbors of each face raised by refine_step,
    capped at p_max; no order is lowered."""
    sides = mesh.edge_element_ids[np.asarray(faces, dtype=int)]
    e = sides[sides >= 0]
    out = orders.copy()
    out[e] = np.maximum(orders[e],
                        np.minimum(orders[e] + plan.refine_step, plan.p_max))
    return out


def edge_touching_elevation(mesh: MixedOrderMesh,
                            orders: np.ndarray) -> np.ndarray:
    """``orders`` with the elements that meet the interface only at a
    vertex raised.

    An element touching two or more marked faces through a single shared
    vertex (none of its own edges marked; the first such vertex in local
    order) is raised to the highest order among the elements adjacent to
    those faces, so the locally curved geometry does not wrap around an
    unrefined corner.
    """
    out = orders.copy()
    faces = np.array(sorted(mesh.marked_faces), dtype=int)
    if not faces.size:
        return out
    ends = mesh.edge_vertex_ids[faces]
    sides = mesh.edge_element_ids[faces]
    # per vertex: the number of marked faces at it, and the highest order
    # of their sides (the missing side -1 of a boundary face counts 0)
    count = np.bincount(ends.ravel(), minlength=len(mesh.vertices))
    top = np.zeros(len(mesh.vertices), dtype=int)
    np.maximum.at(top, ends, np.where(sides >= 0, orders[sides], 0)
                  .max(axis=1)[:, None])
    V = mesh.element_vertex_ids
    hub = (V >= 0) & (count[V] >= 2)
    free = ~np.isin(mesh.element_edge_ids, faces).any(axis=1)
    e = np.flatnonzero(hub.any(axis=1) & free)
    q = top[V[e, hub[e].argmax(axis=1)]]
    out[e] = np.maximum(out[e], q)
    return out


def propagate_orders(mesh: MixedOrderMesh, orders: np.ndarray,
                     max_diff: int) -> np.ndarray:
    """``orders`` raised until no edge-neighbor exceeds an element by more
    than max_diff.

    Orders only rise, so the result is the least fixpoint above ``orders``,
    which is unique.
    """
    inner = mesh.edge_element_ids[mesh.edge_element_ids[:, 1] >= 0]
    a, b = inner.T
    out = orders.copy()
    while True:
        before = out.copy()
        np.maximum.at(out, a, out[b] - max_diff)
        np.maximum.at(out, b, out[a] - max_diff)
        if np.array_equal(out, before):
            return out


# ---------------------------------------------------------------------------
# Derefinement

def _projected_trace(coords: np.ndarray, p_low: int) -> np.ndarray:
    return interpolation_matrix(len(coords) - 1, p_low) @ coords


def _deref_criterion_ok(plan: AdaptivityPlan, err_hat: float, len_hat: float,
                        err_now: float, len_now: float) -> bool:
    """The plan's derefinement test on a projected trace's error and length
    against the current trace's."""
    if plan.deref_kind == "ref":
        return err_hat < plan.deref_threshold * plan.refine_threshold
    if plan.deref_kind == "change":
        return err_hat < (1.0 + plan.deref_threshold) * err_now
    return len_hat > (1.0 - plan.deref_threshold) * len_now


def _orders_within(mesh: MixedOrderMesh, elems, orders: np.ndarray,
                   max_diff: int) -> bool:
    """Whether every edge of ``elems`` joins elements whose ``orders``
    differ by at most max_diff."""
    k = mesh.element_edge_ids[list(elems)]
    sides = mesh.edge_element_ids[k[k >= 0]]
    a, b = sides[sides[:, 1] >= 0].T
    return bool((np.abs(orders[a] - orders[b]) <= max_diff).all())


def try_derefine(mesh: MixedOrderMesh, field, plan: AdaptivityPlan,
                 face: int):
    """Lower the order of a face's neighbors if geometry survives it.

    Candidate orders run from p_init upward; the first one whose projected
    trace passes the plan's derefinement test, whose lowered order field
    keeps all neighbor order differences within bounds, and whose
    application leaves every touched element and edge-neighbor with a
    positive Jacobian, is applied.  Application prefers lowering both
    neighbors, falling back to one side at a time.  Every test runs before
    the mesh changes: the Jacobian test on the node blocks the lowering
    would touch (``mesh.lowering_min_det``).  An accepted lowering is one
    ``set_order`` call.  Returns the accepted order, or None if the face
    keeps its order.
    """
    dm = mesh.dof_map()
    p_face = int(dm.edge_orders[face])
    if p_face <= plan.p_init:
        return None
    coords = mesh.nodes[dm.edge_nodes[face, :p_face + 1]]
    candidates = range(plan.p_init, p_face)
    # one field query for the current trace and every projected candidate,
    # all at the quadrature points of the face's order
    x, wq, speed = zip(*(
        _face_traces(c[None], p_face) for c in
        [coords] + [_projected_trace(coords, p) for p in candidates]))
    sigma = field.values(np.concatenate(x).reshape(-1, 2))
    errors, lengths = _errors_and_lengths(sigma.reshape(len(x), -1), wq[0],
                                          np.concatenate(speed))
    err_now, len_now = errors[0], lengths[0]
    elems = [int(e) for e in mesh.edge_element_ids[face] if e >= 0]
    variants = [list(elems)]
    if len(elems) == 2:
        variants += [[elems[0]], [elems[1]]]
    orders = mesh.orders()
    for p_hat, err_hat, len_hat in zip(candidates, errors[1:], lengths[1:]):
        if not _deref_criterion_ok(plan, err_hat, len_hat, err_now, len_now):
            continue
        for variant in variants:
            lowered = [e for e in variant if orders[e] > p_hat]
            planned = orders.copy()
            planned[lowered] = p_hat
            if not lowered or not _orders_within(mesh, lowered, planned,
                                                 plan.neighbor_limit):
                continue
            if lowering_min_det(mesh, lowered, p_hat) > 0.0:
                mesh.set_order(lowered, p_hat)
                return p_hat
    return None


def derefinement_pass(mesh: MixedOrderMesh, field, plan: AdaptivityPlan):
    """Attempt derefinement on every marked face, ascending by face id.

    Returns {face: accepted_order} for the faces that changed.
    """
    accepted = {}
    for face in sorted(mesh.marked_faces):
        p_hat = try_derefine(mesh, field, plan, face)
        if p_hat is not None:
            accepted[face] = p_hat
    return accepted


# ---------------------------------------------------------------------------
# Driver

def _restart_weight(report, sigma0: float, weight: float) -> float:
    """Start weight of the re-solve after the solve of ``report``, at worst
    marked-node residual ``sigma0``; ``weight`` is the caller's.  The rule
    and its fallback are in the module docstring."""
    w_end, sigma_end = report.final_fit_weight, report.final_sigma_max
    if report.status != "converged" or sigma_end is None or sigma0 <= 0.0:
        return weight
    return min(max(w_end * sigma_end / sigma0, weight), w_end)


@dataclass
class AdaptRecord:
    outer: int
    phase: str                 # initial | fit | refine | derefine | final
    dofs: int
    total_error: float
    max_error: float
    node_sigma_max: float
    histogram: dict[int, int]
    solver_status: str | None = None
    solver_iterations: int | None = None


@dataclass
class AdaptResult:
    mesh: MixedOrderMesh
    records: list[AdaptRecord] = dfield(default_factory=list)
    outer_iterations: int = 0
    exit_reason: str = ""


def run_rp_adaptivity(mesh: MixedOrderMesh, field, fit: FitConfig,
                      plan: AdaptivityPlan,
                      boundary_fit: bool = False) -> AdaptResult:
    """Fit the mesh to the field and adapt element orders along the interface.

    The mesh must be at uniform order ``plan.p_init``.  One initial node
    movement solve aligns the marked faces; then each outer iteration
    measures face errors, refines the neighbors of badly fitted faces,
    re-solves, and (when ``refine_step > 1`` and a derefinement criterion is
    set) projects over-resolved faces back down.

    ``exit_reason`` is ``"no faces refined"`` when no face needs
    refinement, ``"interface at p_max"`` when every neighbor of a marked
    face is at ``p_max``, ``"fixpoint"`` when a refinement (after
    propagation) yields the element orders of a state already solved, and
    ``"outer iteration cap"`` after ``plan.outer_cap`` iterations.  On
    ``"fixpoint"`` the refinement is not applied: the mesh is exactly the
    one the iteration began with (after derefinement, if any), and no
    record is added for it.  On every exit the mesh is the one of the last
    record, so the ``"final"`` record repeats its face errors.

    The initial solve starts at ``fit.fit_weight``.  A re-solve after a
    solve that ended ``converged`` with a measured residual starts at
    ``w_end * sigma_end / sigma0`` (that solve's final fit weight and
    residual, over the worst marked-node residual of the ``"refine"``
    record), clamped to ``[fit.fit_weight, w_end]``; otherwise, and when
    ``sigma0 <= 0``, at ``fit.fit_weight``.  ``fit`` is never mutated.
    """
    for e, p in enumerate(mesh.orders().tolist()):
        if p != plan.p_init:
            raise ValueError(f"element {e} at order {p}, expected "
                             f"uniform p_init={plan.p_init}")
    controls = replace(fit.controls, fit_tol=plan.fit_tol)
    fit = replace(fit, controls=controls)
    mark_interface_faces(mesh, field, boundary_mode=boundary_fit)
    result = AdaptResult(mesh)

    def record(outer, phase, status=None, iters=None):
        report = compute_face_errors(mesh, field)
        result.records.append(AdaptRecord(
            outer=outer, phase=phase, dofs=mesh.num_position_dofs,
            total_error=report.total_error, max_error=report.max_error,
            node_sigma_max=report.node_sigma_max,
            histogram=mesh.order_histogram(),
            solver_status=status, solver_iterations=iters))
        return report

    record(0, "initial")
    solved = {tuple(mesh.orders())}    # order vectors of the states solved
    _, solve_rep = solve_r_adaptivity(fit.problem(mesh, field))
    report = record(0, "fit", solve_rep.status, solve_rep.num_iterations)

    derefine = plan.refine_step > 1 and plan.deref_kind is not None
    for outer in range(1, plan.outer_cap + 1):
        result.outer_iterations = outer
        # the next order field is decided before the mesh changes
        current = mesh.orders()
        orders = apply_refinement(mesh, mark_for_refinement(report, plan),
                                  plan, current)
        if plan.edge_touch_elevate:
            orders = edge_touching_elevation(mesh, orders)
        if np.array_equal(orders, current):
            result.exit_reason = "no faces refined"
            break
        orders = propagate_orders(mesh, orders, plan.neighbor_limit)
        state = tuple(orders)
        if state in solved:
            # solving a state again would only retrace the same cycle
            result.exit_reason = "fixpoint"
            break
        solved.add(state)
        changed = np.flatnonzero(orders != current)
        mesh.set_order(changed, orders[changed])
        refined = record(outer, "refine")
        problem = fit.problem(mesh, field)
        problem.fit_weight = _restart_weight(
            solve_rep, refined.node_sigma_max, fit.fit_weight)
        _, solve_rep = solve_r_adaptivity(problem)
        report = record(outer, "fit", solve_rep.status,
                        solve_rep.num_iterations)
        if derefine:
            # try_derefine accepts a lowering only with the neighbor limit
            # held: nothing is left to propagate
            derefinement_pass(mesh, field, plan)
            report = record(outer, "derefine")
        sides = mesh.edge_element_ids[sorted(mesh.marked_faces)]
        if (mesh.orders()[sides[sides >= 0]] >= plan.p_max).all():
            result.exit_reason = "interface at p_max"
            break
    else:
        result.exit_reason = "outer iteration cap"
    # on every exit the mesh is the one of the last record: nothing was
    # refined, the repeated refinement was not applied (fixpoint), or the
    # loop broke or ended right after recording, so its face errors still
    # hold
    last = result.records[-1]
    result.records.append(replace(
        last, outer=result.outer_iterations, phase="final",
        histogram=dict(last.histogram), solver_status=None,
        solver_iterations=None))
    return result
