"""Target-matrix mesh quality optimization with level-set surface fitting.

The objective combines an element quality term and a penalty pulling marked
nodes onto the zero isocontour of a scalar field:

    F(x) = sum_elements integral mu(T) over the target element
         + fit_weight * sum_{marked nodes s} sigma(x_s)^2

where T = A W^{-1} couples the map Jacobian A to a per-element target matrix
W.  Minimization moves only the independent position nodes; dependent
mixed-order edge nodes follow through the trace-interpolation constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from typing import ClassVar

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .basis import TRI, basis_tables, reference_element
from .errors import MeshInvalidError
from .mesh import (MixedOrderMesh, apply_edge_constraints, det2,
                   map_jacobians, min_det_of, require_valid)

IDEAL_TRIANGLE_TARGET = np.array([[1.0, 0.5], [0.0, np.sqrt(3.0) / 2.0]])
IDEAL_TRIANGLE_TARGET.flags.writeable = False

METRIC_IDS = ("mu2", "mu77", "mu80")


@dataclass(frozen=True)
class QualityMetric:
    """Pointwise mesh quality measure of the relative Jacobian T = A W^{-1}.

    - ``mu2``: shape metric |T|^2 / (2 det T) - 1, zero for any rotation and
      isotropic scaling of the target.
    - ``mu77``: size metric (det T - 1/det T)^2 / 2, zero at unit volume ratio.
    - ``mu80``: convex combination gamma * mu2 + (1 - gamma) * mu77.

    All three blow up to +inf as det T -> 0+ and are +inf for det T <= 0,
    which acts as the mesh-validity barrier during optimization.
    """
    metric_id: str
    gamma: float = 0.5

    def __post_init__(self):
        if self.metric_id not in METRIC_IDS:
            raise ValueError(f"unknown metric {self.metric_id!r}, "
                             f"expected one of {METRIC_IDS}")
        if self.metric_id == "mu80" and not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")

    def _partials(self, frob2: np.ndarray, tau: np.ndarray):
        """mu and its partials (mu_f, mu_tau, mu_ftau, mu_tautau) in the
        invariants f = |T|^2 and tau = det T > 0; mu_ff is zero here."""
        tau2 = tau * tau
        mu2 = (frob2 / (2.0 * tau) - 1.0, 0.5 / tau, -frob2 / (2.0 * tau2),
               -0.5 / tau2, frob2 / tau ** 3)
        if self.metric_id == "mu2":
            return mu2
        d = tau - 1.0 / tau
        dd = 1.0 + 1.0 / tau2
        zero = np.zeros_like(tau)
        mu77 = (0.5 * d * d, zero, d * dd, zero, dd ** 2 - 2.0 * d / tau ** 3)
        if self.metric_id == "mu77":
            return mu77
        g1, g2 = self.gamma, 1.0 - self.gamma
        return tuple(g1 * a + g2 * b for a, b in zip(mu2, mu77))

    def _eval(self, T: np.ndarray):
        """(tau > 0 mask, partials) for a (..., 2, 2) stack."""
        tau = det2(T)
        good = tau > 0.0
        frob2 = np.sum(T * T, axis=(-2, -1))
        return good, self._partials(frob2, np.where(good, tau, 1.0))

    def values(self, T: np.ndarray) -> np.ndarray:
        """Metric values for a (..., 2, 2) stack; +inf where det T <= 0."""
        good, (mu, *_) = self._eval(np.asarray(T, dtype=float))
        return np.where(good, mu, np.inf)

    def values_and_derivs(self, T: np.ndarray):
        """Metric values and d(mu)/dT = 2 mu_f T + mu_tau adj2(T) for a
        (..., 2, 2) stack.

        Entries with det T <= 0 get value +inf and derivative 0; callers must
        treat the whole configuration as invalid.
        """
        T = np.asarray(T, dtype=float)
        good, (mu, mu_f, mu_tau, _, _) = self._eval(T)
        der = (2.0 * mu_f)[..., None, None] * T \
            + mu_tau[..., None, None] * adj2(T)
        return (np.where(good, mu, np.inf),
                np.where(good[..., None, None], der, 0.0))

    def second_deriv_coeffs(self, T: np.ndarray):
        """Coefficients of the four structural terms of d2(mu)/dT2.

        In 2D the Hessian of each metric in T decomposes as

            c_id * (delta_ab delta_cd) + c_sym * sym(T (x) adj)
            + c_dd * (adj (x) adj) + c_eps * (eps_ab eps_cd)

        with adj = adj2(T) = d(tau)/dT and eps the alternating symbol, and
        (c_id, c_sym, c_dd, c_eps) = (2 mu_f, 2 mu_ftau, mu_tautau, mu_tau).
        Only the scalar coefficients depend on the metric; callers assemble
        the terms.  They are zero where det T <= 0.
        """
        good, (_, mu_f, mu_tau, mu_ftau, mu_tautau) = self._eval(T)
        return tuple(np.where(good, c, 0.0) for c in
                     (2.0 * mu_f, 2.0 * mu_ftau, mu_tautau, mu_tau))


def adj2(T: np.ndarray) -> np.ndarray:
    """d(det T)/dT, the transposed adjugate, of a (..., 2, 2) stack."""
    return T[..., ::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]])


def metric_value(metric: QualityMetric, T) -> float:
    """Metric value for a single 2x2 matrix."""
    return float(metric.values(np.asarray(T, dtype=float)))


def element_quality(mesh: "MixedOrderMesh", metric: QualityMetric,
                    target: "TargetSpec | None" = None,
                    reduce: str = "max") -> np.ndarray:
    """Per-element metric values sampled at the quality quadrature points.

    Returns an array over elements holding the max (default) or mean of the
    metric across each element's sample points; inverted samples give inf.
    """
    if reduce not in ("max", "mean"):
        raise ValueError(f"unknown reduction {reduce!r}")
    target = target or TargetSpec()
    out = np.empty(len(mesh.elements))
    for (geometry, order), ids in mesh.groups().items():
        _, K, _ = _target_tables(geometry, order, target)
        mu = metric.values(map_jacobians(mesh.group_coords(ids), K))
        out[ids] = mu.max(axis=1) if reduce == "max" else mu.mean(axis=1)
    return out


@dataclass(frozen=True)
class TargetSpec:
    """Per-element target Jacobian.

    ``ideal`` targets the unit square for quads and the unit equilateral
    triangle for triangles; ``matrix`` uses a fixed user matrix with positive
    determinant.
    """
    kind: str = "ideal"
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("ideal", "matrix"):
            raise ValueError(f"unknown target kind {self.kind!r}")
        if self.kind == "matrix":
            m = np.asarray(self.matrix, dtype=float)
            if m.shape != (2, 2):
                raise ValueError("target matrix must be 2x2")
            if np.linalg.det(m) <= 0.0:
                raise ValueError("target matrix must have positive determinant")
            object.__setattr__(self, "matrix", m)

    def for_geometry(self, geometry: str) -> np.ndarray:
        if self.kind == "matrix":
            return self.matrix
        return IDEAL_TRIANGLE_TARGET if geometry == TRI else np.eye(2)


@dataclass
class SolverControls:
    """Settings of the fitting solver.

    Only ``max_iterations`` and ``fit_tol`` are settable; the rest are fixed
    constants.  The fit weight schedule: whenever the worst marked-node
    residual falls by less than a factor ``weight_trigger`` in an iteration,
    the weight is multiplied by ``weight_growth``, up to ``weight_cap``.
    """
    max_iterations: int = 200
    fit_tol: float = 1e-8
    grad_rtol: ClassVar[float] = 1e-12
    grad_atol: ClassVar[float] = 1e-13
    max_backtracks: ClassVar[int] = 12
    weight_growth: ClassVar[float] = 10.0
    weight_trigger: ClassVar[float] = 1.1
    weight_cap: ClassVar[float] = 1e10
    initial_damping: ClassVar[float] = 1e-4


def _check_fit_weight(fit_weight) -> None:
    if not (np.isfinite(fit_weight) and fit_weight >= 0.0):
        raise ValueError(f"fit_weight must be finite and non-negative, "
                         f"got {fit_weight}")


@dataclass
class FitConfig:
    """Mesh-independent part of a fitting problem, reusable across solves."""
    metric: QualityMetric = dfield(default_factory=lambda: QualityMetric("mu2"))
    target: TargetSpec = dfield(default_factory=TargetSpec)
    fit_weight: float = 1.0
    controls: SolverControls = dfield(default_factory=SolverControls)
    boundary: str = "slide"

    def __post_init__(self):
        _check_fit_weight(self.fit_weight)

    def problem(self, mesh: "MixedOrderMesh", field=None) -> "TmopProblem":
        return TmopProblem(mesh, self.metric, self.target, field,
                           self.fit_weight, self.controls, self.boundary)


@dataclass
class TmopProblem:
    """One r-adaptivity problem: mesh, metric, target, field, and penalty weight."""
    mesh: MixedOrderMesh
    metric: QualityMetric
    target: TargetSpec = dfield(default_factory=TargetSpec)
    field: object | None = None
    fit_weight: float = 1.0
    controls: SolverControls = dfield(default_factory=SolverControls)
    boundary: str = "slide"  # "slide" | "fixed" | "free"

    def __post_init__(self):
        _check_fit_weight(self.fit_weight)


# ---------------------------------------------------------------------------
# Material attributes and the marked face set

def assign_materials(mesh: MixedOrderMesh, field) -> None:
    """Set element attributes from the field sign at element centers (1 in,
    2 out), with one field query for the whole mesh."""
    if not mesh.elements:
        return
    groups = mesh.groups()
    centers = []
    for (geometry, order), ids in groups.items():
        ref = reference_element(geometry, order)
        B = ref.eval_basis(ref.center[None, :])
        centers.append((B @ mesh.group_coords(ids))[:, 0])
    values = field.values(np.concatenate(centers))
    for e, value in zip(np.concatenate(list(groups.values())), values):
        mesh.elements[e].attribute = 1 if value < 0.0 else 2


def mark_interface_faces(mesh: MixedOrderMesh, field=None,
                         boundary_mode: bool = False) -> set[int]:
    """Select the face set to fit and store it on the mesh.

    Interior mode marks edges whose two adjacent elements carry different
    material attributes.  Boundary mode marks domain-boundary edges of
    interior-material elements instead.  When ``field`` is given, material
    attributes are (re)assigned from it first.
    """
    if field is not None:
        assign_materials(mesh, field)
    marked: set[int] = set()
    for k, rec in enumerate(mesh.edges):
        if boundary_mode:
            if len(rec.sides) == 1 and \
                    mesh.elements[rec.sides[0].element].attribute == 1:
                marked.add(k)
        elif len(rec.sides) == 2:
            a, b = (mesh.elements[s.element].attribute for s in rec.sides)
            if a != b:
                marked.add(k)
    mesh.marked_faces = marked
    return marked


# ---------------------------------------------------------------------------
# Assembly

def _contract_grad(D: np.ndarray, K: np.ndarray) -> np.ndarray:
    """out[e, i, a] = sum_{q,c} D[e, q, a, c] K[q, i, c], batched over e."""
    n_el, nq = D.shape[:2]
    nn = K.shape[1]
    Df = D.transpose(0, 2, 1, 3).reshape(n_el, 2, 2 * nq)
    Kf = K.transpose(0, 2, 1).reshape(2 * nq, nn)
    return (Df @ Kf).transpose(0, 2, 1)


def _target_tables(geometry: str, order: int, target: TargetSpec):
    """Basis tables of one element group, K = grad(phi) W^{-1} at their
    quadrature points, and det W, for the group's target matrix W."""
    tables = basis_tables(geometry, order)
    W = target.for_geometry(geometry)
    K = np.einsum("qib,bc->qic", tables.grad_at_quad, np.linalg.inv(W))
    return tables, K, float(np.linalg.det(W))


class _Assembly:
    """Cached quantities for objective/gradient/Hessian evaluation."""

    def __init__(self, problem: TmopProblem):
        mesh = problem.mesh
        self.dm = mesh.dof_map()
        self.expand = self.dm.expand
        self.marked = self.dm.marked_node_ids(mesh)
        # the level set, or None when there is nothing to fit
        self.field = problem.field if self.marked.size else None
        self.groups = []
        for (geometry, order), ids in mesh.groups().items():
            tables, K, detW = _target_tables(geometry, order, problem.target)
            starts = np.array([self.dm.element_slices[e].start for e in ids])
            nn = tables.ref.num_nodes
            gather = starts[:, None] + np.arange(nn)[None, :]
            self.groups.append({
                "key": (geometry, order), "tables": tables, "detW": detW,
                "gather": gather, "K": K,
            })

    def min_det(self, t: np.ndarray) -> float:
        """Minimum map determinant over the validity sample set."""
        x_all = self.expand @ t
        return min_det_of((g["key"], x_all[g["gather"]]) for g in self.groups)

    def sigma(self, t: np.ndarray):
        """Level-set values at the marked nodes; None when nothing is fitted."""
        return None if self.field is None else self.field.values(t[self.marked])

    def sigma_gradients(self, t: np.ndarray):
        """Level-set gradients at the marked nodes; None when nothing is fitted."""
        return None if self.field is None \
            else self.field.gradients(t[self.marked])


def _quality_terms(asm: _Assembly, metric: QualityMetric, t: np.ndarray,
                   want_grad: bool):
    """Quality objective and optionally its gradient on independent nodes;
    the objective is inf on an inverted configuration."""
    x_all = asm.expand @ t
    total = 0.0
    g_all = np.zeros((asm.dm.total_local, 2)) if want_grad else None
    for g in asm.groups:
        X = x_all[g["gather"]]
        tables = g["tables"]
        T = map_jacobians(X, g["K"])
        if want_grad:
            mu, dmu = metric.values_and_derivs(T)
        else:
            mu = metric.values(T)
        if np.isinf(mu).any():
            return np.inf, None
        wq = tables.quad_weights
        total += g["detW"] * float((mu @ wq).sum())
        if want_grad:
            contrib = g["detW"] * _contract_grad(
                wq[None, :, None, None] * dmu, g["K"])
            g_all[g["gather"]] = contrib
    return total, (asm.expand.T @ g_all if want_grad else None)


def _total(fq: float, sigma, fit_weight: float) -> float:
    """Objective from its quality part and the marked-node level-set values."""
    return fq if sigma is None else fq + fit_weight * float(sigma @ sigma)


def _total_gradient(asm: _Assembly, gq: np.ndarray, sigma, dsigma,
                    fit_weight: float) -> np.ndarray:
    """Gradient from its quality part and the marked-node level-set values
    and gradients."""
    if sigma is None:
        return gq
    g = gq.copy()
    g[asm.marked] += 2.0 * fit_weight * sigma[:, None] * dsigma
    return g


def objective(problem: TmopProblem, coords: np.ndarray | None = None) -> float:
    """Total objective at the mesh's (or the given) independent node positions."""
    asm = _Assembly(problem)
    t = asm.dm.extract(problem.mesh) if coords is None else coords
    fq, _ = _quality_terms(asm, problem.metric, t, want_grad=False)
    if np.isinf(fq):
        return np.inf
    return _total(fq, asm.sigma(t), problem.fit_weight)


def gradient(problem: TmopProblem, coords: np.ndarray | None = None) -> np.ndarray:
    """Analytic gradient dF/dx on independent nodes, shape (num_nodes, 2).

    Dependent mixed-order edge nodes contribute through the transpose of
    their trace interpolation.
    """
    asm = _Assembly(problem)
    t = asm.dm.extract(problem.mesh) if coords is None else coords
    fq, gq = _quality_terms(asm, problem.metric, t, want_grad=True)
    if np.isinf(fq):
        raise MeshInvalidError("gradient requested on an inverted configuration")
    return _total_gradient(asm, gq, asm.sigma(t), asm.sigma_gradients(t),
                           problem.fit_weight)


# ---------------------------------------------------------------------------
# Boundary movement policy

def boundary_freedom(mesh: MixedOrderMesh, mode: str = "slide"):
    """Per-node movement freedom: 0 free, 1 along a line, 2 fixed.

    Boundary nodes slide along their boundary edge's line; vertices where two
    boundary lines meet at an angle are fixed.  Returns (kinds, tangents).
    """
    if mode not in ("slide", "fixed", "free"):
        raise ValueError(f"unknown boundary mode {mode!r}")
    dm = mesh.dof_map()
    kinds = np.zeros(dm.num_nodes, dtype=int)
    tangents = np.zeros((dm.num_nodes, 2))
    if mode == "free":
        return kinds, tangents
    for k in mesh.boundary_edges():
        vmin, vmax = mesh.edges[k].verts
        tangent = mesh.vertices[vmax] - mesh.vertices[vmin]
        norm = float(np.hypot(*tangent))
        if norm == 0.0:
            continue
        tangent = tangent / norm
        ids = dm.edge_node_ids(k, mesh)
        for node in ids:
            if mode == "fixed":
                kinds[node] = 2
            elif kinds[node] == 0:
                kinds[node] = 1
                tangents[node] = tangent
            elif kinds[node] == 1:
                cross = abs(tangents[node, 0] * tangent[1]
                            - tangents[node, 1] * tangent[0])
                if cross > 1e-12:
                    kinds[node] = 2  # corner: two distinct boundary lines
    return kinds, tangents


def _projector_blocks(kinds: np.ndarray, tangents: np.ndarray) -> np.ndarray:
    """Per-node 2x2 motion projectors: I for a free node, t t^T for a node
    sliding along tangent t, 0 for a fixed node."""
    blocks = np.zeros((len(kinds), 2, 2))
    blocks[kinds == 0] = np.eye(2)
    line = kinds == 1
    blocks[line] = tangents[line, :, None] * tangents[line, None, :]
    return blocks


def project_motion(vec: np.ndarray, kinds: np.ndarray,
                   tangents: np.ndarray) -> np.ndarray:
    """Project per-node motions onto the allowed movement subspaces."""
    return np.einsum("nab,nb->na", _projector_blocks(kinds, tangents), vec)


def _projector_matrices(kinds: np.ndarray, tangents: np.ndarray):
    """Sparse projector P and complement C = I - P on interleaved coordinates."""
    n = len(kinds)
    P = sp.bsr_matrix((_projector_blocks(kinds, tangents), np.arange(n),
                       np.arange(n + 1)), shape=(2 * n, 2 * n)).tocsr()
    return P, sp.identity(2 * n, format="csr") - P


# ---------------------------------------------------------------------------
# Gauss-Newton model Hessian

def _hessian_values(asm: _Assembly, metric: QualityMetric, t: np.ndarray,
                    fit_weight: float, dsigma=None) -> np.ndarray:
    """Values of the model of d2F/dx2, laid out for ``_NewtonPattern``.

    The vector holds, in order: each group's dense element blocks on
    interleaved local coordinates (2 * node + component), element by element
    and row-major; the 2x2 Gauss-Newton block of each marked node; and a
    trailing 1 for the constant part of the Newton matrix.

    The quality term is differentiated exactly (closed-form metric Hessian in
    2D).  Given the level-set gradients ``dsigma`` at the marked nodes, the
    fitting term adds the Gauss-Newton block 2 w (grad sigma)(grad sigma)^T
    per marked node, exact for affine fields; without them the blocks are 0.
    Indefiniteness of the quality part is handled by the solver's damping,
    not here.
    """
    x_all = asm.expand @ t
    values = []
    for g in asm.groups:
        X = x_all[g["gather"]]
        tables = g["tables"]
        K = g["K"]
        nn = tables.ref.num_nodes
        nq = K.shape[0]
        T = map_jacobians(X, K)
        adj = adj2(T)
        c_id, c_sym, c_dd, c_eps = metric.second_deriv_coeffs(T)
        base_w = g["detW"] * tables.quad_weights[None, :]
        # per-point products of T (and its adjugate) with the basis gradient,
        # flattened to the interleaved block index 2 * node + component
        tK = np.matmul(K[None], T.transpose(0, 1, 3, 2)).reshape(-1, nq, 2 * nn)
        dK = np.matmul(K[None], adj.transpose(0, 1, 3, 2)).reshape(-1, nq, 2 * nn)
        if "KKf" not in g:
            g["KKf"] = np.einsum("qic,qjc->qij", K, K).reshape(nq, nn * nn)
            g["Wepsf"] = (K[:, :, None, 0] * K[:, None, :, 1]
                          - K[:, :, None, 1] * K[:, None, :, 0]) \
                .reshape(nq, nn * nn)
        Hid = ((base_w * c_id) @ g["KKf"]).reshape(-1, nn, nn)
        Heps = ((base_w * c_eps) @ g["Wepsf"]).reshape(-1, nn, nn)
        He = np.matmul(np.swapaxes(tK * (base_w * c_sym)[:, :, None], 1, 2), dK)
        He = He + np.swapaxes(He, 1, 2)
        He += np.matmul(np.swapaxes(dK * (base_w * c_dd)[:, :, None], 1, 2), dK)
        He5 = He.reshape(-1, nn, 2, nn, 2)
        He5[:, :, 0, :, 0] += Hid
        He5[:, :, 1, :, 1] += Hid
        He5[:, :, 0, :, 1] += Heps
        He5[:, :, 1, :, 0] -= Heps
        values.append(He.ravel())
    if dsigma is None:
        values.append(np.zeros(4 * asm.marked.size))
    else:
        values.append(((2.0 * fit_weight)
                       * (dsigma[:, :, None] * dsigma[:, None, :])).ravel())
    values.append(np.ones(1))
    return np.concatenate(values)


def _row_entries(Q: sp.csr_matrix, rows: np.ndarray):
    """(position in ``rows``, column, value) of every stored entry of the
    given rows of the CSR matrix Q, row by row."""
    start = Q.indptr[rows]
    count = Q.indptr[rows + 1] - start
    owner = np.repeat(np.arange(len(rows)), count)
    first = np.cumsum(count) - count
    pos = np.repeat(start - first, count) + np.arange(owner.size)
    return owner, Q.indices[pos], Q.data[pos]


def _product_terms(Q: sp.csr_matrix, rows_a: np.ndarray, rows_b: np.ndarray):
    """Terms of sum_k Q[ra_k, :]^T v_k Q[rb_k, :]: for each term its value
    index k, its CSC key j * n + i for entry (i, j), and its weight
    Q[ra_k, i] Q[rb_k, j]."""
    ka, i, wa = _row_entries(Q, rows_a)
    kb, j, wb = _row_entries(Q, rows_b[ka])
    return ka[kb], j * Q.shape[1] + i[kb], wa[kb] * wb


class _NewtonPattern:
    """Fixed sparsity pattern of the Newton matrix P H P + C of one solve.

    H = E2^T B E2 + GN, where B holds the element blocks on local
    coordinates, E2 expands independent coordinates to them (trace
    interpolation included) and GN holds the marked-node Gauss-Newton
    blocks; P projects onto the allowed motions and C = I - P.  None of
    E2, P, C or the marked nodes changes during a solve, so the CSC data of
    P H P + C is one sparse linear map ``S`` of the ``_hessian_values``
    vector.  ``diag`` holds the slot of each diagonal entry, all of which
    are stored.
    """

    def __init__(self, asm: _Assembly, P: sp.csr_matrix, C: sp.csr_matrix):
        n = P.shape[0]
        # rows of E2 P (element blocks) stacked over rows of P (marked nodes)
        E2 = sp.kron(asm.expand, sp.eye(2), format="csr")
        Q = sp.vstack([E2 @ P, P], format="csr")
        Q.eliminate_zeros()
        rows_a, rows_b = [], []
        for g in asm.groups:
            m = 2 * g["tables"].ref.num_nodes
            offs = 2 * g["gather"][:, :1] + np.arange(m)
            rows_a.append(np.repeat(offs, m, axis=1).ravel())
            rows_b.append(np.tile(offs, m).ravel())
        idx = 2 * asm.dm.total_local + 2 * asm.marked[:, None] + np.arange(2)
        rows_a.append(np.repeat(idx, 2, axis=1).ravel())
        rows_b.append(np.tile(idx, 2).ravel())
        num_values = sum(r.size for r in rows_a)
        k, keys, w = _product_terms(Q, np.concatenate(rows_a),
                                    np.concatenate(rows_b))
        # the constant column: C, with its whole diagonal stored
        C = C.tocoo()
        off = C.row != C.col
        diag = np.arange(n) * (n + 1)
        keys = np.concatenate([keys, C.col[off] * n + C.row[off], diag])
        k = np.concatenate([k, np.full(off.sum() + n, num_values)])
        w = np.concatenate([w, C.data[off], C.diagonal()])
        # sorting the terms by key makes them the rows of S in CSR order;
        # a (slot, value) pair occurs at most once
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        slots = keys[starts]
        self.shape = (n, n)
        self.indices = slots % n
        self.indptr = np.searchsorted(slots // n, np.arange(n + 1))
        self.diag = np.searchsorted(slots, diag)
        self.S = sp.csr_matrix((w[order], k[order], np.r_[starts, keys.size]),
                               shape=(slots.size, num_values + 1))

    def assemble(self, values: np.ndarray) -> np.ndarray:
        """CSC data of P H P + C from ``_hessian_values`` output."""
        return self.S @ values

    def matrix(self, data: np.ndarray) -> sp.csc_matrix:
        """The matrix with the given CSC data."""
        return sp.csc_matrix((data, self.indices, self.indptr),
                             shape=self.shape)

    def damped(self, data: np.ndarray, shift: np.ndarray) -> sp.csc_matrix:
        """The matrix with ``shift`` added to its diagonal, on a copy."""
        damped = data.copy()
        damped[self.diag] += shift
        return self.matrix(damped)


# ---------------------------------------------------------------------------
# Solver

@dataclass
class IterationRecord:
    index: int
    objective_before: float
    objective_after: float
    fit_weight: float
    sigma_max: float | None
    step_size: float
    grad_norm: float
    min_det: float
    backtracks: int
    direction: str


@dataclass
class SolveReport:
    status: str = "converged"            # converged | stalled | max_iterations
    reason: str = ""
    iterations: list[IterationRecord] = dfield(default_factory=list)
    initial_objective: float = np.nan
    final_objective: float = np.nan
    initial_sigma_max: float | None = None
    final_sigma_max: float | None = None
    final_fit_weight: float = np.nan
    final_min_det: float = np.nan
    # sparse LU factorizations of the damped Newton matrix, and those of
    # them rejected (singular, non-finite or not a descent direction), each
    # of which raises the damping 16x
    factorizations: int = 0
    damping_retries: int = 0

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)


def solve_r_adaptivity(problem: TmopProblem):
    """Minimize the combined quality + fitting objective by node movement.

    Runs a damped Gauss-Newton descent with a halving line search.  Steps are
    accepted only when they decrease the objective and keep every element's
    Jacobian determinant positive on the sample set.  The Newton matrix
    P H P + C has one sparsity pattern per solve (``_NewtonPattern``): each
    iteration fills it with one sparse matrix-vector product, damping adds
    a multiple of its floored diagonal on a copy of its values, and SuperLU
    factors it in symmetric mode with an MMD ordering on A^T + A.  The fit
    weight follows a fixed schedule: when the worst marked-node residual
    falls by less than a factor 1.1 in an iteration, the weight is
    multiplied by 10, up to 1e10.
    ``problem.controls`` sets only the iteration cap and the fit tolerance.

    Returns
    -------
    (mesh, report)
        The mesh is updated in place.  ``report.status`` is ``converged``
        (fit tolerance or gradient tolerance reached), ``stalled`` (no
        decreasing valid step found), or ``max_iterations``.
    """
    mesh = problem.mesh
    controls = problem.controls
    apply_edge_constraints(mesh)
    require_valid(mesh, "solve_r_adaptivity")
    asm = _Assembly(problem)
    kinds, tangents = boundary_freedom(mesh, problem.boundary)
    P, C = _projector_matrices(kinds, tangents)
    t = asm.dm.extract(mesh)
    w = float(problem.fit_weight)
    report = SolveReport()

    def evaluate(tv):
        """Objective, its quality part and the marked-node level-set values
        at tv; the objective is inf on an inverted configuration."""
        fq, _ = _quality_terms(asm, problem.metric, tv, want_grad=False)
        if np.isinf(fq):
            return np.inf, fq, None
        sigma = asm.sigma(tv)
        return _total(fq, sigma, w), fq, sigma

    def projected_gradient():
        """Projected total gradient from the terms stored for the iterate."""
        return project_motion(_total_gradient(asm, gq, sigma, dsigma, w),
                              kinds, tangents)

    F, fq, sigma = evaluate(t)
    smax = None if sigma is None else float(np.abs(sigma).max())
    report.initial_objective = F
    report.initial_sigma_max = smax
    fitting = sigma is not None

    def finish(status, reason):
        report.status = status
        report.reason = reason
        report.final_objective = F
        report.final_sigma_max = smax
        report.final_fit_weight = w
        report.final_min_det = asm.min_det(t)
        asm.dm.scatter(mesh, t)
        return mesh, report

    if fitting and smax <= controls.fit_tol:
        return finish("converged", "marked nodes already on the isocontour")
    _, gq = _quality_terms(asm, problem.metric, t, want_grad=True)
    dsigma = asm.sigma_gradients(t)
    gp = projected_gradient()
    gnorm0 = float(np.linalg.norm(gp))
    if gnorm0 <= controls.grad_atol:
        return finish("converged", "gradient already negligible")

    newton = _NewtonPattern(asm, P, C)
    lam = controls.initial_damping
    smax_prev = smax
    # cap the initial trial displacement at a fraction of the smallest
    # element diameter so a stiff penalty cannot tangle the mesh in one jump
    h_min = min(mesh.element_diameter(e) for e in range(len(mesh.elements)))
    step_cap = 0.5 * h_min
    for it in range(1, controls.max_iterations + 1):
        data = newton.assemble(
            _hessian_values(asm, problem.metric, t, w, dsigma))
        diag = data[newton.diag]
        dfloor = np.maximum(diag, 1e-12 * diag.max() + 1e-300)
        gflat = gp.ravel()

        direction = "newton"
        d = None
        lam_try = lam
        for _ in range(8):
            report.factorizations += 1
            try:
                lu = spla.splu(newton.damped(data, lam_try * dfloor),
                               permc_spec="MMD_AT_PLUS_A",
                               options={"SymmetricMode": True})
                cand = lu.solve(-gflat)
            except RuntimeError:  # exactly singular
                cand = None
            if cand is not None and np.all(np.isfinite(cand)) \
                    and cand @ gflat < 0.0:
                d = project_motion(cand.reshape(-1, 2), kinds, tangents)
                break
            report.damping_retries += 1
            lam_try *= 16.0
        if d is None:
            direction = "steepest"
            d = -gp
        lam = lam_try

        def line_search(dvec, start_step):
            alpha = start_step
            for bt in range(controls.max_backtracks + 1):
                t_new = t + alpha * dvec
                trial = evaluate(t_new)
                if trial[0] < F and asm.min_det(t_new) > 0.0:
                    return t_new, trial, alpha, bt
                alpha *= 0.5
            return None, None, None, None

        dmax = float(np.abs(d).max())
        start = min(1.0, step_cap / dmax) if dmax > 0.0 else 1.0
        t_new, trial, alpha, bt = line_search(d, start)
        if t_new is None and direction == "newton":
            direction = "steepest"
            d = -gp
            Hg = (newton.matrix(data) @ d.ravel()) @ d.ravel()
            dmax = max(float(np.abs(d).max()), 1e-300)
            scale = (d.ravel() @ d.ravel()) / Hg if Hg > 0.0 else \
                0.1 * mesh.diameter() / dmax
            t_new, trial, alpha, bt = line_search(d, min(scale, step_cap / dmax))
            lam *= 16.0
        if t_new is None:
            return finish("stalled", "no valid decreasing step found")

        t, F_before, (F, fq, sigma) = t_new, F, trial
        smax = None if sigma is None else float(np.abs(sigma).max())
        lam = max(lam * 0.25, 1e-10)
        _, gq = _quality_terms(asm, problem.metric, t, want_grad=True)
        dsigma = asm.sigma_gradients(t)
        gp = projected_gradient()
        gnorm = float(np.linalg.norm(gp))
        report.iterations.append(IterationRecord(
            index=it, objective_before=F_before, objective_after=F,
            fit_weight=w, sigma_max=smax, step_size=alpha, grad_norm=gnorm,
            min_det=asm.min_det(t), backtracks=bt, direction=direction))

        if fitting and smax <= controls.fit_tol:
            return finish("converged", "fit tolerance reached")
        if gnorm <= max(controls.grad_rtol * gnorm0, controls.grad_atol):
            return finish("converged", "gradient tolerance reached")
        if fitting and w < controls.weight_cap and \
                smax_prev / max(smax, 1e-300) < controls.weight_trigger:
            w = min(w * controls.weight_growth, controls.weight_cap)
            F = _total(fq, sigma, w)
            gp = projected_gradient()
        smax_prev = smax

    return finish("max_iterations",
                  f"no convergence in {controls.max_iterations} iterations")
