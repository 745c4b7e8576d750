"""Target-matrix mesh quality optimization with level-set surface fitting.

The objective combines an element quality term and a penalty pulling marked
nodes onto the zero isocontour of a scalar field:

    F(x) = sum_elements integral mu(T) over the target element
         + fit_weight * sum_{marked nodes s} sigma(x_s)^2

where T = A W^{-1} couples the map Jacobian A to the ideal target W of the
element's geometry: the unit square (W = I) for quads and the unit
equilateral triangle for triangles.  Minimization moves only the independent
position nodes; dependent mixed-order edge nodes follow through the
trace-interpolation constraints.

A Newton iterate makes one element pass (``_element_pass``): the accepted
line-search trial's Jacobians and metric partials give the objective, the
gradient and the Hessian.  The map Jacobians keep the (E, 2, Q, 2) layout
of their own GEMM, and the metric, gradient, Hessian and validity formulas
read their four contiguous (E, Q) components T00, T01, T10 and T11.

The tables of an element kind that these formulas read are built once per
(geometry, order) by the cached ``target_tables``; a solve's ``_Assembly``
holds only what depends on its mesh.

The Newton system is symmetric and is kept as its upper triangle from
values to factorization: ``_hessian_values`` computes only the upper
triangle of each element block, with two GEMMs per (geometry, order)
group against the kind's tables, and ``_NewtonPattern`` maps those values
to the upper triangle of the Newton matrix and mirrors it into the one CSC
matrix per numbering that SuperLU factors.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field as dfield
from functools import lru_cache
from typing import ClassVar

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .basis import TRI, BasisTables, basis_tables, jacobian_table
from .errors import MeshInvalidError
from .mesh import (MixedOrderMesh, apply_edge_constraints, cofactors,
                   jacobian_components, jacobian_det, map_jacobians,
                   min_det_of, require_valid)

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
        if not _is_number(self.gamma):
            raise ValueError(f"gamma must be real, got {self.gamma!r}")
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

    def _eval(self, T):
        """(tau > 0 mask, partials) from the components (T00, T01, T10, T11)
        of T, each an array of one shape."""
        T00, T01, T10, T11 = T
        tau = jacobian_det(T)
        good = tau > 0.0
        frob2 = (T00 * T00 + T01 * T01) + (T10 * T10 + T11 * T11)
        return good, self._partials(frob2, np.where(good, tau, 1.0))

    def values(self, T) -> np.ndarray:
        """Metric values from the components (T00, T01, T10, T11) of T, each
        an array of one shape; +inf where det T <= 0."""
        good, (mu, *_) = self._eval(T)
        return np.where(good, mu, np.inf)


def _metric_derivs(T, partials):
    """Components of d(mu)/dT = 2 mu_f T + mu_tau cof(T) from the components
    of T and the partials of ``QualityMetric._eval``."""
    _, mu_f, mu_tau, _, _ = partials
    f2 = 2.0 * mu_f
    return tuple(f2 * t + mu_tau * a for t, a in zip(T, cofactors(T)))


def element_quality(mesh: "MixedOrderMesh",
                    metric: QualityMetric) -> np.ndarray:
    """Per-element metric values sampled at the quality quadrature points.

    Returns an array over elements holding the max of the metric across
    each element's sample points; inverted samples give inf.
    """
    out = np.empty(len(mesh.elements))
    for key, ids in mesh.groups().items():
        mu = metric.values(jacobian_components(
            map_jacobians(mesh.group_coords(ids), target_tables(*key).Gf)))
        out[ids] = mu.max(axis=1)
    return out


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

    def __post_init__(self):
        if not (_is_number(self.max_iterations, numbers.Integral)
                and self.max_iterations >= 1 and _is_number(self.fit_tol)
                and 0.0 < self.fit_tol < np.inf):
            raise ValueError("need an integer max_iterations >= 1 and a real "
                             "0 < fit_tol < inf, got "
                             f"{self.max_iterations!r} and {self.fit_tol!r}")


def _is_number(value, kind=numbers.Real) -> bool:
    """Whether ``value`` is an instance of ``kind`` other than a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_fit_weight(fit_weight) -> None:
    if not (_is_number(fit_weight) and 0.0 <= fit_weight < np.inf):
        raise ValueError(f"fit_weight must be a finite non-negative real "
                         f"number, got {fit_weight!r}")


@dataclass
class FitConfig:
    """Mesh-independent part of a fitting problem, reusable across solves."""
    metric: QualityMetric = dfield(default_factory=lambda: QualityMetric("mu2"))
    fit_weight: float = 1.0
    controls: SolverControls = dfield(default_factory=SolverControls)
    boundary: str = "slide"

    def __post_init__(self):
        _check_fit_weight(self.fit_weight)

    def problem(self, mesh: "MixedOrderMesh", field=None) -> "TmopProblem":
        return TmopProblem(mesh, self.metric, field,
                           self.fit_weight, self.controls, self.boundary)


@dataclass
class TmopProblem:
    """One r-adaptivity problem: mesh, metric, field, and penalty weight."""
    mesh: MixedOrderMesh
    metric: QualityMetric
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
    centers = [(basis_tables(*key).center_basis @ mesh.group_coords(ids))[:, 0]
               for key, ids in groups.items()]
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
    attribute = np.array([el.attribute for el in mesh.elements], dtype=int)
    a, b = mesh.edge_element_ids.T
    if boundary_mode:
        hit = (b < 0) & (attribute[a] == 1)
    else:
        # the missing side (-1) of a boundary edge reads the last element's
        # attribute, which the b >= 0 mask drops
        hit = (b >= 0) & (attribute[a] != attribute[b])
    marked = set(np.flatnonzero(hit).tolist())
    mesh.marked_faces = marked
    return marked


# ---------------------------------------------------------------------------
# Assembly

class TargetTables:
    """The read-only tables of one element kind that the quality term
    reads for a target W: the quadrature weights, det W, K = grad(phi)
    W^{-1} (Q, n, 2), the GEMM table Gf[i, (q, c)] = K[q, i, c] of the map
    Jacobians T = A W^{-1} and Kf = Gf^T of the gradient, and
    KK[(q, c, d), (i, j)] = K[q, i, c] K[q, j, d] of ``_hessian_values``
    with KKu, its columns at the pairs i <= j of ``upper``."""

    def __init__(self, tables: BasisTables, W: np.ndarray):
        self.K = K = np.einsum("qib,bc->qic", tables.grad_at_quad,
                               np.linalg.inv(W))
        nq, nn = K.shape[:2]
        self.quad_weights = tables.quad_weights
        self.detW = float(np.linalg.det(W))
        self.Gf = jacobian_table(K)
        self.Kf = np.ascontiguousarray(self.Gf.T)
        self.KK = np.einsum("qic,qjd->qcdij", K, K).reshape(4 * nq, nn * nn)
        self.upper = np.triu_indices(nn)
        self.KKu = self.KK[:, self.upper[0] * nn + self.upper[1]]
        for arr in (self.K, self.Gf, self.Kf, self.KK, self.KKu, *self.upper):
            arr.flags.writeable = False


@lru_cache(maxsize=None)
def target_tables(geometry: str, order: int) -> TargetTables:
    """Shared, cached ``TargetTables`` of one element kind for the ideal
    target W of its geometry: the unit square (W = I) for quads, the unit
    equilateral triangle for triangles."""
    W = IDEAL_TRIANGLE_TARGET if geometry == TRI else np.eye(2)
    return TargetTables(basis_tables(geometry, order), W)


class _Assembly:
    """The per-solve data of objective, gradient and Hessian evaluation;
    ``groups`` holds (key, ``target_tables``, ``DofMap.slots``) per group."""

    def __init__(self, problem: TmopProblem):
        mesh = problem.mesh
        self.dm = mesh.dof_map()
        self.field = problem.field
        self.marked = np.zeros(0, dtype=int) if problem.field is None \
            else self.dm.marked_node_ids(mesh)
        self.groups = [(key, target_tables(*key), gather)
                       for key, gather in self.dm.slots.items()]

    def min_det(self, t: np.ndarray) -> float:
        """Minimum map determinant over the validity sample set."""
        x_all = self.dm.expand @ t
        return min_det_of((key, x_all[gather])
                          for key, _, gather in self.groups)

    def sigma(self, t: np.ndarray) -> np.ndarray:
        """Level-set values at the marked nodes, shape (marked,)."""
        return self.field.values(t[self.marked]) if self.marked.size \
            else np.zeros(0)

    def sigma_gradients(self, t: np.ndarray) -> np.ndarray:
        """Level-set gradients at the marked nodes, shape (marked, 2)."""
        return self.field.gradients(t[self.marked]) if self.marked.size \
            else np.zeros((0, 2))


def _element_pass(asm: _Assembly, metric: QualityMetric, t: np.ndarray):
    """Quality objective at t and its state: per group, the components of
    the Jacobians T (``jacobian_components``) and the partials of
    ``QualityMetric._eval``, from which the gradient and the Hessian are
    computed without another pass.  The objective is inf and the state None
    on an inverted configuration."""
    x_all = asm.dm.expand @ t
    total = 0.0
    state = []
    for _, kind, gather in asm.groups:
        T = jacobian_components(map_jacobians(x_all[gather], kind.Gf))
        good, partials = metric._eval(T)
        if not good.all() or np.isinf(partials[0]).any():
            return np.inf, None
        total += kind.detW * float((partials[0] @ kind.quad_weights).sum())
        state.append((T, partials))
    return total, state


def _quality_gradient(asm: _Assembly, state) -> np.ndarray:
    """Gradient of the quality objective on independent nodes from the state
    of ``_element_pass``: per group, the weighted d(mu)/dT fills an
    (E, 2, Q, 2) buffer D[e, a, q, c], and the gradient's element blocks are
    the one GEMM of its (E, 2, 2Q) view with Kf."""
    g_all = np.zeros((asm.dm.total_local, 2))
    for (_, kind, gather), (T, partials) in zip(asm.groups, state):
        n_el, nq = T[0].shape
        D = np.empty((n_el, 2, nq, 2))
        for ac, dmu in enumerate(_metric_derivs(T, partials)):
            np.multiply(kind.quad_weights, dmu, out=D[:, ac // 2, :, ac % 2])
        g_all[gather] = kind.detW * (
            D.reshape(n_el, 2, 2 * nq) @ kind.Kf).transpose(0, 2, 1)
    return asm.dm.expand.T @ g_all


def _total(fq: float, sigma: np.ndarray, fit_weight: float) -> float:
    """Objective from its quality part and the marked-node level-set values."""
    return fq + fit_weight * float(sigma @ sigma)


def _total_gradient(asm: _Assembly, gq: np.ndarray, sigma: np.ndarray,
                    dsigma: np.ndarray, fit_weight: float) -> np.ndarray:
    """Gradient from its quality part and the marked-node level-set values
    and gradients."""
    g = gq.copy()
    g[asm.marked] += 2.0 * fit_weight * sigma[:, None] * dsigma
    return g


def objective(problem: TmopProblem, coords: np.ndarray | None = None) -> float:
    """Total objective at the mesh's (or the given) independent node positions."""
    asm = _Assembly(problem)
    t = asm.dm.extract(problem.mesh) if coords is None else coords
    fq, state = _element_pass(asm, problem.metric, t)
    if state is None:
        return np.inf
    return _total(fq, asm.sigma(t), problem.fit_weight)


def gradient(problem: TmopProblem, coords: np.ndarray | None = None) -> np.ndarray:
    """Analytic gradient dF/dx on independent nodes, shape (num_nodes, 2).

    Dependent mixed-order edge nodes contribute through the transpose of
    their trace interpolation.
    """
    asm = _Assembly(problem)
    t = asm.dm.extract(problem.mesh) if coords is None else coords
    _, state = _element_pass(asm, problem.metric, t)
    if state is None:
        raise MeshInvalidError("gradient requested on an inverted configuration")
    return _total_gradient(asm, _quality_gradient(asm, state), asm.sigma(t),
                           asm.sigma_gradients(t), problem.fit_weight)


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
    k = np.array(mesh.boundary_edges(), dtype=int)
    lo, hi = mesh.vertices[mesh.edge_vertex_ids[k]].transpose(1, 0, 2)
    tangent = hi - lo
    norm = np.hypot(tangent[:, 0], tangent[:, 1])
    keep = norm != 0.0   # a degenerate edge has no line
    k, tangent = k[keep], tangent[keep] / norm[keep, None]
    # (node, edge) pairs by ascending edge id; a node's first pair gives
    # its tangent, and a later edge off that line makes it a corner
    rows = dm.edge_nodes[k]
    node = rows[rows >= 0]
    edge = np.nonzero(rows >= 0)[0]
    if mode == "fixed":
        kinds[node] = 2
        return kinds, tangents
    ids, first = np.unique(node, return_index=True)
    tangents[ids] = tangent[edge[first]]
    cross = np.abs(tangents[node, 0] * tangent[edge, 1]
                   - tangents[node, 1] * tangent[edge, 0])
    kinds[ids] = 1
    kinds[node[cross > 1e-12]] = 2  # corner: two distinct boundary lines
    return kinds, tangents


def _motion_basis(kinds: np.ndarray, tangents: np.ndarray) -> sp.csr_matrix:
    """Orthonormal basis Z of the allowed node motions on interleaved
    coordinates, from the output of ``boundary_freedom``: two unit columns
    per free node, its tangent per sliding node and none per fixed node,
    in node order.  Z^T Z = I, and Z Z^T projects onto the allowed motions."""
    first = np.cumsum(2 - kinds) - (2 - kinds)
    free, line = np.flatnonzero(kinds == 0), np.flatnonzero(kinds == 1)
    rows = np.concatenate([2 * free, 2 * free + 1, 2 * line, 2 * line + 1])
    cols = np.concatenate([first[free], first[free] + 1, first[line],
                           first[line]])
    vals = np.concatenate([np.ones(2 * free.size), tangents[line].T.ravel()])
    Z = sp.csr_matrix((vals, (rows, cols)),
                      shape=(2 * len(kinds), 2 * free.size + line.size))
    Z.eliminate_zeros()
    return Z


# ---------------------------------------------------------------------------
# Gauss-Newton model Hessian

def _hessian_values(asm: _Assembly, state, fit_weight: float,
                    dsigma: np.ndarray) -> np.ndarray:
    """Values of the upper triangle of the model of d2F/dx2, laid out for
    ``_NewtonPattern``.

    An element block has row (node i, component a) and column (node j,
    component b); it is symmetric, so its upper triangle is the (i <= j)
    entries of its (0, 0) and (1, 1) component blocks and all entries of
    its (0, 1) block.  The vector holds, in order: for each group, the
    (0, 0) and (1, 1) upper triangles, in (e, a, (i, j)) order with the
    (i <= j) pairs of ``np.triu_indices``, then the (0, 1) blocks in
    (e, i, j) order; then the (0, 0), (1, 1) and (0, 1) entries of each
    marked node's 2x2 Gauss-Newton block.

    The quality term is exact, from the ``_element_pass`` state.  In 2D
    d2(mu)/dT_ac dT_bd = c_id delta_ab delta_cd + c_sym (T_ac cof_bd +
    cof_ac T_bd) + c_dd cof_ac cof_bd + c_eps eps_ab eps_cd, with cof the
    cofactors d(det T)/dT (``mesh.cofactors``), eps the alternating symbol
    and (c_id, c_sym, c_dd, c_eps) = (2 mu_f, 2 mu_ftau, mu_tautau, mu_tau),
    all read from the (E, Q) components of T.  Weighted by quadrature, it
    fills N[e, a, b, q, c, d] for (a, b) = (0, 0), (1, 1) and (0, 1), and a
    group's values are two GEMMs: the (a, a) blocks with the (i <= j)
    columns KKu of KK, the (0, 1) blocks with KK.  The fitting term adds
    2 w (grad sigma)(grad sigma)^T per marked node from the level-set
    gradients ``dsigma``, exact for affine fields.  Indefiniteness of the
    quality part is handled by the solver's damping, not here.
    """
    values = []
    for (_, kind, _), (Tc, (_, mu_f, mu_tau, mu_ftau, mu_tautau)) in zip(
            asm.groups, state):
        n_el, nq = Tc[0].shape
        w = kind.detW * kind.quad_weights
        c_id, c_sym = (2.0 * w) * mu_f, (2.0 * w) * mu_ftau
        c_dd, c_eps = w * mu_tautau, w * mu_tau
        cof = cofactors(Tc)
        # Nd[:, a] = N[:, a, a] and No = N[:, 0, 1]; as N[:, a, b, :, c, d]
        # = N[:, b, a, :, d, c], each pair ac <= bd is computed once
        Nd = np.empty((n_el, 2, nq, 2, 2))
        No = np.empty((n_el, nq, 2, 2))
        for ac in range(4):
            a, c = divmod(ac, 2)
            left = c_sym * Tc[ac] + c_dd * cof[ac]
            right = c_sym * cof[ac]
            for bd in range(ac, 4):
                b, d = divmod(bd, 2)
                v = left * cof[bd] + right * Tc[bd]
                if bd == ac:
                    v += c_id
                elif ac + bd == 3:  # eps_ab eps_cd = +1 for a = c, else -1
                    v += c_eps if a == c else -c_eps
                if a < b:
                    No[:, :, c, d] = v
                else:
                    Nd[:, a, :, c, d] = v
                    Nd[:, a, :, d, c] = v
        values.append((Nd.reshape(2 * n_el, 4 * nq) @ kind.KKu).ravel())
        values.append((No.reshape(n_el, 4 * nq) @ kind.KK).ravel())
    values.append(((2.0 * fit_weight)
                   * (dsigma[:, [0, 1, 0]] * dsigma[:, [0, 1, 1]])).ravel())
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
    """Terms of the upper triangle of the symmetric matrix sum_k v_k M_k,
    where M_k = Q[ra_k, :]^T Q[rb_k, :] plus, when ra_k != rb_k, its
    transpose: for each term its value index k, the CSC key j * n + i of its
    slot (i, j), i <= j, and its weight.  A term (i, j) of Q[ra_k, i]
    Q[rb_k, j] lands on (min(i, j), max(i, j)) when ra_k != rb_k, with twice
    its weight on the diagonal; when ra_k = rb_k the product is symmetric
    and its terms below the diagonal are dropped.  A (slot, value) pair can
    occur twice.  Keys are 64-bit: n^2 overflows 32 bits from n = 46341
    on."""
    ka, i, wa = _row_entries(Q, rows_a)
    kb, j, wb = _row_entries(Q, rows_b[ka])
    k, i, w = ka[kb], i[kb], wa[kb] * wb
    mirrored = rows_a[k] != rows_b[k]
    keep = mirrored | (i <= j)
    w[mirrored & (i == j)] *= 2.0
    lo, hi = np.minimum(i, j)[keep], np.maximum(i, j)[keep]
    return k[keep], hi.astype(np.int64) * Q.shape[1] + lo, w[keep]


def _expand_xy(expand: sp.csr_matrix) -> sp.csr_matrix:
    """E2 = expand (x) I_2 on interleaved coordinates: entry (r, col) of
    ``expand`` becomes (2 r + c, 2 col + c) for c = 0, 1."""
    coo = expand.tocoo()
    rows = (2 * coo.row[:, None] + [0, 1]).ravel()
    cols = (2 * coo.col[:, None] + [0, 1]).ravel()
    return sp.csr_matrix((np.repeat(coo.data, 2), (rows, cols)),
                         shape=(2 * expand.shape[0], 2 * expand.shape[1]))


class _NewtonPattern:
    """Fixed sparsity pattern of the Newton matrix Z^T H Z of one solve.

    H = E2^T B E2 + GN, where B holds the element blocks on local
    coordinates, E2 expands independent coordinates to them (trace
    interpolation included) and GN holds the marked-node Gauss-Newton
    blocks; Z is the ``_motion_basis`` of the allowed node motions.  None
    of E2, Z or the marked nodes changes during a solve, so the upper
    triangle of Z^T H Z is one sparse linear map ``S`` of the upper-triangle
    ``_hessian_values`` vector, one row per upper slot.  The pattern holds
    the full matrix: ``slot_rows`` says which row of S fills each of its
    CSC slots, the same row for an entry and its mirror image, so the
    matrix is exactly symmetric.  ``diag`` holds the slot of each diagonal
    entry; all of them are stored, because every allowed coordinate moves
    some element's nodes.  ``renumber`` moves the slots to a symmetric
    renumbering of the matrix; S keeps its rows.  ``A`` is the one
    ``csc_matrix`` of the current numbering, with int32 indices as SuperLU
    takes them; ``matrix`` and ``damped`` write their values into it.
    """

    def __init__(self, asm: _Assembly, Z: sp.csr_matrix):
        n = Z.shape[1]
        # rows of E2 Z (element blocks) stacked over rows of Z (marked nodes)
        Q = sp.vstack([_expand_xy(asm.dm.expand) @ Z, Z], format="csr")
        Q.eliminate_zeros()
        rows_a, rows_b = [], []
        for _, kind, gather in asm.groups:
            # local coordinates 2 i + a of the values' rows and columns, in
            # their order: the (a, a) upper triangles, then the (0, 1) blocks
            nn = gather.shape[1]
            i, j = kind.upper
            I, J = np.indices((nn, nn)).reshape(2, -1)
            first = 2 * gather[:, :1]
            for la, lb in ((np.r_[2 * i, 2 * i + 1], np.r_[2 * j, 2 * j + 1]),
                           (2 * I, 2 * J + 1)):
                rows_a.append((first + la).ravel())
                rows_b.append((first + lb).ravel())
        idx = 2 * asm.dm.total_local + 2 * asm.marked[:, None]
        rows_a.append((idx + [0, 1, 0]).ravel())
        rows_b.append((idx + [0, 1, 1]).ravel())
        num_values = sum(r.size for r in rows_a)
        k, keys, w = _product_terms(Q, np.concatenate(rows_a),
                                    np.concatenate(rows_b))
        # sorting the terms by key makes them the rows of S in CSR order;
        # ties keep the value order, as a stable sort would.  At 64x64 p3
        # the key stays below n^2 < (2 * 193^2)^2 times 9 terms (3 x 3
        # trace nodes) per each of 2.2e6 values: 1.1e17 < 2^63.
        order = np.argsort(keys * keys.size + np.arange(keys.size))
        keys = keys[order]
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        self.S = sp.csr_matrix((w[order], k[order], np.r_[starts, keys.size]),
                               shape=(starts.size, num_values))
        # each upper slot (i, j) and, off the diagonal, its mirror (j, i)
        upper = keys[starts]
        cols, rows = np.divmod(upper, n)
        off = np.flatnonzero(rows < cols)
        full = np.concatenate([upper, rows[off] * n + cols[off]])
        moved = np.argsort(full)
        self.shape = (n, n)
        self._set_slots(full[moved])
        self.slot_rows = np.concatenate([np.arange(upper.size), off])[moved]

    def _set_slots(self, slots: np.ndarray) -> None:
        """CSC structure and held matrix from the ascending slot keys
        j * n + i."""
        n = self.shape[0]
        cols, rows = np.divmod(slots, n)
        self.diag = np.searchsorted(slots, np.arange(n) * (n + 1))
        self.A = sp.csc_matrix(
            (np.zeros(slots.size), rows.astype(np.int32),
             np.searchsorted(cols, np.arange(n + 1)).astype(np.int32)),
            shape=self.shape)
        # ascending distinct keys: SuperLU need not check for duplicates
        self.A.has_canonical_format = True

    def renumber(self, perm: np.ndarray) -> np.ndarray:
        """Hold A[q][:, q] from now on, for the matrix A held so far and
        q = argsort(perm): entry (i, j) moves to (perm[i], perm[j]).
        Returns the old slot of each new slot, which maps CSC data of A to
        that of the renumbered matrix."""
        n = self.shape[0]
        perm = np.asarray(perm, dtype=np.int64)
        cols = np.repeat(np.arange(n), np.diff(self.A.indptr))
        keys = perm[cols] * n + perm[self.A.indices]
        moved = np.argsort(keys)
        self._set_slots(keys[moved])
        self.slot_rows = self.slot_rows[moved]
        return moved

    def assemble(self, values: np.ndarray) -> np.ndarray:
        """CSC data of Z^T H Z from ``_hessian_values`` output."""
        return (self.S @ values)[self.slot_rows]

    def matrix(self, data: np.ndarray) -> sp.csc_matrix:
        """The held matrix, holding the given CSC data."""
        self.A.data[:] = data
        return self.A

    def damped(self, data: np.ndarray, shift: np.ndarray) -> sp.csc_matrix:
        """The held matrix, holding the given CSC data with ``shift`` added
        to its diagonal; ``data`` is not changed."""
        A = self.matrix(data)
        A.data[self.diag] += shift
        return A


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


def _min_element_diameter(mesh: MixedOrderMesh) -> float:
    """Smallest bounding-box diagonal of an element's nodes, with one
    reduction per (geometry, order) group."""
    return min(float(np.hypot(*(c.max(axis=1) - c.min(axis=1)).T).min())
               for c in map(mesh.group_coords, mesh.groups().values()))


def solve_r_adaptivity(problem: TmopProblem):
    """Minimize the combined quality + fitting objective by node movement.

    Runs a damped Gauss-Newton descent with a halving line search.  Steps are
    accepted only when they decrease the objective and keep every element's
    Jacobian determinant positive on the sample set.  Each step is solved in
    the coordinates of the allowed node motions: interior nodes move freely,
    domain-boundary nodes slide along their boundary line and corners stay
    put.  With Z the orthonormal ``_motion_basis`` of these motions, the
    reduced gradient is g_z = Z^T g, the damped system is (Z^T H Z + lam D)
    dz = -g_z with D the floored diagonal of Z^T H Z, and the step is
    d = Z dz.  The Newton matrix Z^T H Z has one sparsity pattern per solve
    (``_NewtonPattern``): each iteration fills it with one sparse
    matrix-vector product from the upper triangle of the element and
    Gauss-Newton blocks, damping writes those values plus its diagonal
    shift into the pattern's one CSC matrix, and SuperLU factors that
    matrix in symmetric mode.  There is one MMD
    ordering per solve: the first factorization that is not exactly
    singular computes it on A^T + A, the motion coordinates are then
    renumbered by it (the columns of Z, the reduced gradient and the
    pattern's slots), and every later factorization, damping retries
    included, keeps the natural order of the renumbered matrix.  The step
    d = Z dz does not depend on that numbering.  The fit weight follows a
    fixed schedule: when the worst marked-node residual falls by less than
    a factor 1.1 in an iteration, the weight is multiplied by 10, up to
    1e10.
    ``problem.controls`` sets only the iteration cap and the fit tolerance.

    Each iteration factors the damped matrix at most 8 times: a factor that
    is exactly singular, non-finite or gives no descent direction raises
    the damping 16x and factors again.  When the Newton line search finds
    no step, one steepest-descent step is tried, with its start length from
    the Rayleigh quotient of the undamped matrix, and the damping is raised
    16x.

    Returns
    -------
    (mesh, report)
        The mesh is updated in place.  ``report.status`` and
        ``report.reason`` come from a closed set:

        - ``converged``: ``"marked nodes already on the isocontour"``,
          ``"gradient already negligible"``, ``"fit tolerance reached"`` or
          ``"gradient tolerance reached"``;
        - ``stalled``: ``"no descent direction"`` (8 factorizations gave
          none) or ``"no valid decreasing step found"`` (neither line search
          found one);
        - ``max_iterations``: ``"no convergence in <N> iterations"``.
    """
    mesh = problem.mesh
    controls = problem.controls
    apply_edge_constraints(mesh)
    require_valid(mesh, "solve_r_adaptivity")
    asm = _Assembly(problem)
    Z = _motion_basis(*boundary_freedom(mesh, problem.boundary))
    ZT = Z.T
    t = asm.dm.extract(mesh)
    w = float(problem.fit_weight)
    fitting = asm.marked.size > 0
    report = SolveReport()

    def evaluate(tv):
        """Objective, its quality part, the marked-node level-set values and
        the ``_element_pass`` state at tv; the objective is inf on an
        inverted configuration."""
        fq, state = _element_pass(asm, problem.metric, tv)
        if state is None:
            return np.inf, fq, None, None
        sigma = asm.sigma(tv)
        return _total(fq, sigma, w), fq, sigma, state

    def worst(sigma):
        """Worst marked-node residual; None when nothing is fitted."""
        return float(np.abs(sigma).max()) if fitting else None

    def reduced_gradient():
        """Total gradient in motion coordinates, from the terms stored for
        the iterate."""
        return ZT @ _total_gradient(asm, gq, sigma, dsigma, w).ravel()

    F, fq, sigma, state = evaluate(t)
    md = None  # min det of the last accepted trial
    smax = worst(sigma)
    report.initial_objective = F
    report.initial_sigma_max = smax

    def finish(status, reason):
        report.status = status
        report.reason = reason
        report.final_objective = F
        report.final_sigma_max = smax
        report.final_fit_weight = w
        report.final_min_det = asm.min_det(t) if md is None else md
        asm.dm.scatter(mesh, t)
        return mesh, report

    if fitting and smax <= controls.fit_tol:
        return finish("converged", "marked nodes already on the isocontour")
    gq = _quality_gradient(asm, state)
    dsigma = asm.sigma_gradients(t)
    gz = reduced_gradient()
    gnorm0 = float(np.linalg.norm(gz))
    if gnorm0 <= controls.grad_atol:
        return finish("converged", "gradient already negligible")

    newton = _NewtonPattern(asm, Z)
    ordering = "MMD_AT_PLUS_A"
    lam = controls.initial_damping
    smax_prev = smax
    # cap the initial trial displacement at a fraction of the smallest
    # element diameter so a stiff penalty cannot tangle the mesh in one jump
    step_cap = 0.5 * _min_element_diameter(mesh)

    def line_search(dvec, start_step):
        """First halving of start_step along dvec that lowers F and keeps the
        mesh valid: the point, its evaluation, the step, the number of
        backtracks and the point's min det; None if there is none."""
        alpha = start_step
        for bt in range(controls.max_backtracks + 1):
            t_new = t + alpha * dvec
            trial = evaluate(t_new)
            if trial[0] < F:
                md_new = asm.min_det(t_new)
                if md_new > 0.0:
                    return t_new, trial, alpha, bt, md_new
            alpha *= 0.5
        return None

    for it in range(1, controls.max_iterations + 1):
        data = newton.assemble(_hessian_values(asm, state, w, dsigma))
        diag = data[newton.diag]
        dfloor = np.maximum(diag, 1e-12 * diag.max() + 1e-300)

        d = None
        for _ in range(8):
            report.factorizations += 1
            try:
                lu = spla.splu(newton.damped(data, lam * dfloor),
                               permc_spec=ordering,
                               options={"SymmetricMode": True})
                dz = lu.solve(-gz)
            except RuntimeError:  # exactly singular
                dz = None
            if dz is not None and ordering != "NATURAL":
                # number the motion coordinates by the fill-reducing
                # ordering of this first factorization, so that the later
                # ones of the solve keep it without recomputing it
                q = np.argsort(lu.perm_c)
                data = data[newton.renumber(lu.perm_c)]
                dfloor, gz, dz = dfloor[q], gz[q], dz[q]
                Z = Z[:, q]
                ZT = Z.T
                ordering = "NATURAL"
            if dz is not None and np.all(np.isfinite(dz)) and dz @ gz < 0.0:
                d = (Z @ dz).reshape(-1, 2)
                break
            report.damping_retries += 1
            lam *= 16.0
        if d is None:
            return finish("stalled", "no descent direction")

        direction = "newton"
        # d != 0, since dz @ gz < 0
        found = line_search(d, min(1.0, step_cap / float(np.abs(d).max())))
        if found is None:
            # steepest descent with a Rayleigh-quotient step length
            direction = "steepest"
            d = -(Z @ gz).reshape(-1, 2)
            Hg = gz @ (newton.matrix(data) @ gz)
            dmax = max(float(np.abs(d).max()), 1e-300)
            scale = (gz @ gz) / Hg if Hg > 0.0 else \
                0.1 * mesh.diameter() / dmax
            found = line_search(d, min(scale, step_cap / dmax))
            lam *= 16.0
        if found is None:
            return finish("stalled", "no valid decreasing step found")

        F_before = F
        t, (F, fq, sigma, state), alpha, bt, md = found
        smax = worst(sigma)
        lam = max(lam * 0.25, 1e-10)
        gq = _quality_gradient(asm, state)
        dsigma = asm.sigma_gradients(t)
        gz = reduced_gradient()
        gnorm = float(np.linalg.norm(gz))
        report.iterations.append(IterationRecord(
            index=it, objective_before=F_before, objective_after=F,
            fit_weight=w, sigma_max=smax, step_size=alpha, grad_norm=gnorm,
            min_det=md, backtracks=bt, direction=direction))

        if fitting and smax <= controls.fit_tol:
            return finish("converged", "fit tolerance reached")
        if gnorm <= max(controls.grad_rtol * gnorm0, controls.grad_atol):
            return finish("converged", "gradient tolerance reached")
        if fitting and w < controls.weight_cap and \
                smax_prev / max(smax, 1e-300) < controls.weight_trigger:
            w = min(w * controls.weight_growth, controls.weight_cap)
            F = _total(fq, sigma, w)
            gz = reduced_gradient()
        smax_prev = smax

    return finish("max_iterations",
                  f"no convergence in {controls.max_iterations} iterations")
