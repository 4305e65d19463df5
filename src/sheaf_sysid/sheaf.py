"""Euclidean sheaves over directed graphs and their Hodge machinery.

A sheaf assigns an inner-product space (a "stalk") to every vertex and edge of
a directed graph, plus linear restriction maps sending the two endpoint stalks
of each edge into the edge stalk.  Disagreement between neighbours is measured
by the coboundary operator

    (delta x)_e = H_e x_{head(e)} - T_e x_{tail(e)},

represented by a block matrix ``B`` acting on flat vectors whose blocks follow
the vertex (resp. edge) input order.  The cochain spaces carry block-diagonal
Gram matrices ``M1`` and ``M2``, so the adjoint is ``delta* = M1^{-1} B^T M2``.

Everything downstream -- global sections (ker delta), the harmonic space
(ker delta*), Hodge projections, and pseudoinverse solves -- is read off the
whitened matrix ``L2^T B L1^{-T}`` with ``M1 = L1 L1^T`` and ``M2 = L2 L2^T``.
The operator is assembled block by block from the stalk Grams and the edge
maps, with no dense factorization or solve.  The rank, both cohomology
dimensions and the spectrum come from the singular values alone, computed on
the first query that needs them.  The singular vectors come from a second,
full SVD that runs only for a nonempty null basis or a pseudoinverse solve, so
a sheaf whose cohomology vanishes never computes them.  All objects are
immutable after construction.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import StructuralError

RANK_TOL = 1e-10
"""Relative singular-value cutoff below which a direction counts as null."""

_SPD_TOL = 1e-12


@dataclass(frozen=True)
class DirectedGraph:
    """A finite directed graph with a fixed edge order.

    The edge order defines the block layout of edge-indexed vectors, so it is
    part of the data, not an implementation detail.  Self-loops are allowed.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]  # (tail, head) pairs

    def __post_init__(self):
        object.__setattr__(
            self, "edges", tuple((int(t), int(h)) for t, h in self.edges)
        )
        if self.vertex_count < 0:
            raise StructuralError("vertex_count must be nonnegative")
        for t, h in self.edges:
            if not (0 <= t < self.vertex_count and 0 <= h < self.vertex_count):
                raise StructuralError(f"edge ({t}, {h}) references a missing vertex")

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def _check_spd(mat: np.ndarray, what: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise StructuralError(f"{what} must be a square matrix, got {mat.shape}")
    if not np.allclose(mat, mat.T, rtol=1e-10, atol=1e-12):
        raise StructuralError(f"{what} is not symmetric")
    eigs = np.linalg.eigvalsh(mat)
    if eigs[0] <= _SPD_TOL * max(1.0, abs(eigs[-1])):
        raise StructuralError(f"{what} is not positive definite (min eig {eigs[0]:g})")
    return mat


def _spd_factor(mats: np.ndarray, what: str) -> np.ndarray:
    """L with mat = L L^T for each of a stack (..., d, d): Cholesky, else eigh."""
    try:
        return np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        eigs, vecs = np.linalg.eigh(mats)
        if np.any(eigs[..., 0] <= _SPD_TOL * np.maximum(1.0, abs(eigs[..., -1]))):
            raise StructuralError(f"{what} is not positive definite") from None
        return vecs * np.sqrt(eigs)[..., None, :]


def _block_index(starts: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Row (m, dim, 1) and column (m, 1, dim) indices of the dim x dim blocks
    at ``starts`` on the diagonal: ``A[rows, cols]`` is their stack (m, dim, dim)."""
    idx = starts[:, None] + np.arange(dim)
    return idx[:, :, None], idx[:, None, :]


def _grouped(*keys: np.ndarray) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """(key, positions) for every distinct tuple across the equally long key arrays."""
    groups = [((), np.arange(len(keys[0])))]
    for k in keys:
        groups = [
            (key + (v,), at[k[at] == v])
            for key, at in groups
            for v in sorted(set(k[at].tolist()))
        ]
    return groups


class Sheaf:
    """Stalks, restriction maps, and Gram weights over a directed graph.

    Vertex stalk ``v`` is R^{vertex_stalk_dims[v]} with the inner product
    x^T R_v x'; likewise for edges.  ``head_maps[e]`` has shape
    (edge dim, head-vertex dim) and ``tail_maps[e]`` shape
    (edge dim, tail-vertex dim).  Grams default to identities.

    ``M2`` is the block-diagonal (read-only) Gram matrix of the 1-cochains,
    shared with every operator built from the sheaf.  Per-edge work views a
    1-cochain (..., d1) as blocks (..., E_k, k), one group per stalk width k:
    a reshape on a uniform layout, a column gather per group on a mixed one.
    ``edge_sq_norms(y)`` gives the squared Gram norms |y_e|^2 (..., edge_count)
    bit for bit as ``np.add.reduceat``, each from its edge's own Gram block so
    a row's result does not depend on its batch; ``edge_scale(y, g)`` scales
    each block y_e by g_e, so a radial force y_e g(|y_e|^2) is
    ``edge_scale(y, g(edge_sq_norms(y)))``; ``spread(f)`` repeats f_e over y_e.
    """

    def __init__(
        self,
        graph: DirectedGraph,
        vertex_stalk_dims: Sequence[int],
        edge_stalk_dims: Sequence[int],
        head_maps: Sequence[np.ndarray],
        tail_maps: Sequence[np.ndarray],
        vertex_grams: Sequence[np.ndarray] | None = None,
        edge_grams: Sequence[np.ndarray] | None = None,
    ):
        self.graph = graph
        self.vertex_stalk_dims = tuple(int(d) for d in vertex_stalk_dims)
        self.edge_stalk_dims = tuple(int(d) for d in edge_stalk_dims)
        if len(self.vertex_stalk_dims) != graph.vertex_count:
            raise StructuralError("one stalk dimension required per vertex")
        if len(self.edge_stalk_dims) != graph.edge_count:
            raise StructuralError("one stalk dimension required per edge")
        if any(d <= 0 for d in self.vertex_stalk_dims + self.edge_stalk_dims):
            raise StructuralError("stalk dimensions must be positive")

        if len(head_maps) != graph.edge_count or len(tail_maps) != graph.edge_count:
            raise StructuralError("one head map and one tail map required per edge")
        self.head_maps = tuple(np.asarray(m, dtype=float) for m in head_maps)
        self.tail_maps = tuple(np.asarray(m, dtype=float) for m in tail_maps)
        for e, (tail, head) in enumerate(graph.edges):
            for end, maps, v in (("head", self.head_maps, head), ("tail", self.tail_maps, tail)):
                want = (self.edge_stalk_dims[e], self.vertex_stalk_dims[v])
                if maps[e].shape != want:
                    raise StructuralError(
                        f"{end} map of edge {e} has shape {maps[e].shape}, expected {want}"
                    )
        self.vertex_grams = _stalk_grams(vertex_grams, self.vertex_stalk_dims, "vertex")
        self.edge_grams = _stalk_grams(edge_grams, self.edge_stalk_dims, "edge")

        v_offsets = np.concatenate([[0], np.cumsum(self.vertex_stalk_dims)])
        e_offsets = np.concatenate([[0], np.cumsum(self.edge_stalk_dims)])
        self.d0 = int(v_offsets[-1])
        self.d1 = int(e_offsets[-1])
        self.vertex_slices = tuple(
            slice(int(a), int(b)) for a, b in zip(v_offsets[:-1], v_offsets[1:])
        )
        self.edge_slices = tuple(
            slice(int(a), int(b)) for a, b in zip(e_offsets[:-1], e_offsets[1:])
        )
        self.M2 = np.zeros((self.d1, self.d1))
        for sl, g in zip(self.edge_slices, self.edge_grams):
            self.M2[sl, sl] = g
        self.M2.flags.writeable = False
        # M2 in band storage: the main diagonal, then every nonzero diagonal
        # at offset k (entries M2[j, j + k]), so M2 y costs O(d1) per band;
        # none at all for identity Grams, as y * 1.0 is y bit for bit.
        width = max(self.edge_stalk_dims, default=0)
        offsets = [0] + [
            k for k in range(1 - width, width) if k and np.diagonal(self.M2, k).any()
        ]
        bands = tuple((k, np.diagonal(self.M2, k).copy()) for k in offsets)
        self._gram_bands = () if offsets == [0] and (bands[0][1] == 1.0).all() else bands
        # The edges of each stalk width k and their columns (E_k, k); the one
        # group of a uniform layout holds every edge in order, so its blocks
        # are a reshape of the last axis to (..., E, k) rather than a gather.
        groups = _grouped(np.asarray(self.edge_stalk_dims, dtype=np.intp))
        self._width_groups = tuple(
            (at, e_offsets[at, None] + np.arange(k)) for (k,), at in groups
        )
        self._uniform = self._width_groups[0][1].shape if len(groups) == 1 else None

    def edge_sq_norms(self, y: np.ndarray) -> np.ndarray:
        """Per-edge squared Gram norms of a 1-cochain, shape (..., edge_count)."""
        y = _check_len(y, self.d1, "1-cochain")
        gram_y = y
        for k, band in self._gram_bands:
            if k == 0:
                gram_y = y * band
            elif k > 0:
                gram_y[..., :-k] += band * y[..., k:]
            else:
                gram_y[..., -k:] += band * y[..., :k]
        p = gram_y * y
        if self._uniform:
            return _block_sums(p.reshape(p.shape[:-1] + self._uniform))
        out = np.empty(y.shape[:-1] + (self.graph.edge_count,))
        for at, cols in self._width_groups:
            out[..., at] = _block_sums(p[..., cols])
        return out

    def edge_scale(self, y: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Each edge block y_e of a 1-cochain (..., d1) times its factor g_e
        of g (..., edge_count): ``y * spread(g)``, bit for bit."""
        if self._uniform:
            scaled = y.reshape(y.shape[:-1] + self._uniform) * g[..., None]
            return scaled.reshape(scaled.shape[:-2] + (self.d1,))
        out = np.empty(np.broadcast_shapes(y.shape[:-1], g.shape[:-1]) + (self.d1,))
        for at, cols in self._width_groups:
            out[..., cols] = y[..., cols] * g[..., at, None]
        return out

    def spread(self, f: np.ndarray) -> np.ndarray:
        """Repeat a per-edge factor (..., edge_count) over each edge stalk."""
        f = _check_len(f, self.graph.edge_count, "per-edge factor")
        return self.edge_scale(np.ones(self.d1), f)


def _stalk_grams(grams, dims: tuple[int, ...], what: str) -> tuple[np.ndarray, ...]:
    """One Gram per stalk, identities when grams is None, each checked to be
    positive definite and to match its stalk."""
    if grams is None:
        return tuple(np.eye(d) for d in dims)
    if len(grams) != len(dims):
        raise StructuralError(f"one Gram matrix required per {what}")
    grams = tuple(_check_spd(g, f"{what} Gram {i}") for i, g in enumerate(grams))
    for i, g in enumerate(grams):
        if g.shape[0] != dims[i]:
            raise StructuralError(f"{what} Gram {i} does not match its stalk")
    return grams


def _block_sums(b: np.ndarray) -> np.ndarray:
    """Sums over the last axis of blocks (..., k), bit for bit as reduceat
    (NaN signs too): the tail b[1:] summed from its own first term, in order
    below 8 terms and pairwise from 8 as np.sum does along a contiguous axis
    (started from -0.0, since -0.0 + s is s and np.sum's own +0.0 start turns
    an all -0.0 tail into +0.0), then plus b[0]."""
    if b.shape[-1] > 8:
        return np.ascontiguousarray(b[..., 1:]).sum(-1, initial=-0.0) + b[..., 0]
    tail = b[..., 1] if b.shape[-1] > 1 else -0.0
    for j in range(2, b.shape[-1]):
        tail = tail + b[..., j]
    return tail + b[..., 0]


class CoboundaryOperator:
    """Coboundary matrix plus the Gram data needed for adjoints.

    Attributes:
        sheaf: the defining sheaf.
        B: d1 x d0 coboundary matrix.
        M1, M2: block-diagonal Gram matrices of the 0- and 1-cochain spaces,
            with blocks in the sheaf's vertex and edge stalk layout.
        L1, L2: block-diagonal factors M1 = L1 L1^T and M2 = L2 L2^T (Cholesky
            per block, else an eigenfactorization; the fits accept any
            factor), so |v|^2_{C0} = |L1^T v|^2.
        delta_star_matrix: M1^{-1} B^T M2, the matrix of the adjoint.

    All are built per block, one batched ``np.linalg`` call per block shape;
    the (v, e) block of delta* is R_v^{-1} B_ev^T Q_e for vertex Gram R_v and
    edge Gram Q_e.  The singular values of the whitened L2^T B L1^{-T} give
    the rank and the spectrum; its singular vectors are computed only for a
    nonempty null basis or a pseudoinverse solve.
    """

    def __init__(self, sheaf: Sheaf, B: np.ndarray, M1: np.ndarray, M2: np.ndarray):
        self.sheaf = sheaf
        self.B = B
        self.M1 = M1
        self.M2 = M2
        v_dims = np.array(sheaf.vertex_stalk_dims, dtype=np.intp)
        e_dims = np.array(sheaf.edge_stalk_dims, dtype=np.intp)
        v_starts = np.cumsum(v_dims) - v_dims
        e_starts = np.cumsum(e_dims) - e_dims
        self._vertex_blocks = [_block_index(v_starts[at], d) for (d,), at in _grouped(v_dims)]
        self._edge_blocks = [(c[:, :, None], c[:, None, :]) for _, c in sheaf._width_groups]
        self.L1 = _block_factor(M1, self._vertex_blocks, "M1")
        self.L2 = _block_factor(M2, self._edge_blocks, "M2")
        # The nonzero blocks (e, v) of B: every edge's head block, and its tail
        # block unless it is a self-loop, whose one block holds both maps.
        # Stored as (edge rows, edge columns, vertex rows, vertex columns).
        tails, heads = np.array(sheaf.graph.edges, dtype=np.intp).reshape(-1, 2).T
        apart = np.flatnonzero(tails != heads)
        e = np.concatenate([np.arange(tails.size), apart])
        v = np.concatenate([heads, tails[apart]])
        self._coupling_blocks = [
            _block_index(e_starts[e[at]], de) + _block_index(v_starts[v[at]], dv)
            for (de, dv), at in _grouped(e_dims[e], v_dims[v])
        ]
        self.delta_star_matrix = np.zeros((self.d0, self.d1))
        for er, ec, vr, vc in self._coupling_blocks:
            b_t = B[er, vc].swapaxes(1, 2)
            self.delta_star_matrix[vr, ec] = np.linalg.solve(M1[vr, vc], b_t @ M2[er, ec])

    @functools.cached_property
    def _whitened(self) -> np.ndarray:
        """L2^T B L1^{-T}, block by block; read only by the two SVDs."""
        white = np.zeros((self.d1, self.d0))
        for er, ec, vr, vc in self._coupling_blocks:
            lb_t = (self.L2[er, ec].swapaxes(1, 2) @ self.B[er, vc]).swapaxes(1, 2)
            white[er, vc] = np.linalg.solve(self.L1[vr, vc], lb_t).swapaxes(1, 2)
        return white

    @functools.cached_property
    def _spectrum(self) -> np.ndarray:
        """Singular values of the whitened matrix, descending, without vectors."""
        return np.linalg.svd(self._whitened, compute_uv=False)

    @functools.cached_property
    def _svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full SVD (U, s, Vt) of the whitened matrix, for null bases and solves."""
        return np.linalg.svd(self._whitened, full_matrices=True)

    @property
    def d0(self) -> int:
        return self.B.shape[1]

    @property
    def d1(self) -> int:
        return self.B.shape[0]

    def rank(self) -> int:
        s = self._spectrum
        if s.size == 0 or s[0] == 0.0:
            return 0
        return int(np.count_nonzero(s > RANK_TOL * s[0]))

    def singular_values(self) -> np.ndarray:
        return self._spectrum.copy()


def _block_factor(mat: np.ndarray, blocks, what: str) -> np.ndarray:
    """The factor L of a block-diagonal mat = L L^T, factored block by block."""
    factor = np.zeros(mat.shape)
    for rows, cols in blocks:
        factor[rows, cols] = _spd_factor(mat[rows, cols], what)
    return factor


def _block_solve_t(factor: np.ndarray, blocks, x: np.ndarray) -> np.ndarray:
    """z with factor^T z = x for a block-diagonal factor; x is (n,) or (n, k)."""
    rhs = x.reshape(x.shape[0], -1)
    z = np.empty(rhs.shape)
    for rows, cols in blocks:
        at = rows[..., 0]
        z[at] = np.linalg.solve(factor[rows, cols].swapaxes(1, 2), rhs[at])
    return z.reshape(x.shape)


def build_coboundary(sheaf: Sheaf) -> CoboundaryOperator:
    """Assemble B and M1 from the sheaf data; M2 is the sheaf's own array.

    Block row e carries +head_map in the column block of head(e) and
    -tail_map in the column block of tail(e); for self-loops both accumulate
    into the same block.
    """
    B = np.zeros((sheaf.d1, sheaf.d0))
    for e, (tail, head) in enumerate(sheaf.graph.edges):
        rows = sheaf.edge_slices[e]
        B[rows, sheaf.vertex_slices[head]] += sheaf.head_maps[e]
        B[rows, sheaf.vertex_slices[tail]] -= sheaf.tail_maps[e]
    M1 = np.zeros((sheaf.d0, sheaf.d0))
    for v, g in enumerate(sheaf.vertex_grams):
        M1[sheaf.vertex_slices[v], sheaf.vertex_slices[v]] = g
    return CoboundaryOperator(sheaf, B, M1, sheaf.M2)


def _check_len(x: np.ndarray, n: int, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (n,):
        raise StructuralError(f"{what} has shape {x.shape}, expected a last axis of length {n}")
    return x


def apply_delta(op: CoboundaryOperator, x: np.ndarray) -> np.ndarray:
    """Apply the coboundary to a 0-cochain (batched over leading axes)."""
    x = _check_len(x, op.d0, "0-cochain")
    return x @ op.B.T


def apply_delta_star(op: CoboundaryOperator, y: np.ndarray) -> np.ndarray:
    """Apply the adjoint coboundary to a 1-cochain (batched over leading axes)."""
    y = _check_len(y, op.d1, "1-cochain")
    return y @ op.delta_star_matrix.T


def c0_inner(op: CoboundaryOperator, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """M1-weighted inner product on 0-cochains."""
    return np.einsum("...i,ij,...j->...", a, op.M1, b)


def c1_inner(op: CoboundaryOperator, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """M2-weighted inner product on 1-cochains."""
    return np.einsum("...i,ij,...j->...", a, op.M2, b)


def harmonic_basis(op: CoboundaryOperator) -> np.ndarray:
    """M2-orthonormal basis of ker delta*, the first cohomology: an array
    (d1, dim H1) whose column count is d1 - rank(B).

    Whitened left singular vectors with singular value <= RANK_TOL * sigma_max
    are mapped back through L2^{-T}.
    """
    rank = op.rank()
    if rank == op.d1:
        return np.zeros((op.d1, 0))
    return _block_solve_t(op.L2, op._edge_blocks, op._svd[0][:, rank:])


def global_section_basis(op: CoboundaryOperator) -> np.ndarray:
    """M1-orthonormal basis of ker delta, the global sections: an array
    (d0, dim H0) whose column count is d0 - rank(B)."""
    rank = op.rank()
    if rank == op.d0:
        return np.zeros((op.d0, 0))
    return _block_solve_t(op.L1, op._vertex_blocks, op._svd[2][rank:, :].T)


def hodge_project(
    op: CoboundaryOperator, harmonic: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Split y into its im-delta and harmonic components, given the harmonic
    basis (d1, dim H1) of ``harmonic_basis``; anything not 2-D with d1 rows
    raises StructuralError.

    Returns (im_delta_part, harmonic_part); the two are M2-orthogonal.
    """
    y = _check_len(y, op.d1, "1-cochain")
    harmonic = np.asarray(harmonic, dtype=float)
    if harmonic.ndim != 2 or harmonic.shape[0] != op.d1:
        raise StructuralError(
            f"harmonic basis has shape {harmonic.shape}, expected ({op.d1}, dim H1)"
        )
    harmonic_part = harmonic @ (harmonic.T @ (op.M2 @ y))
    return y - harmonic_part, harmonic_part


def delta_pseudoinverse_apply(op: CoboundaryOperator, b: np.ndarray) -> np.ndarray:
    """Apply the pseudoinverse of delta restricted to (ker delta)^perp.

    Solves the normal equations delta* delta x = delta* b with the minimum-M1-
    norm solution; harmonic b maps to zero.
    """
    b = _check_len(b, op.d1, "1-cochain")
    rank = op.rank()
    if rank == 0:
        return np.zeros(op.d0)
    U, s, Vt = op._svd
    bw = op.L2.T @ b
    coeff = (U[:, :rank].T @ bw) / s[:rank]
    xw = Vt[:rank, :].T @ coeff
    return _block_solve_t(op.L1, op._vertex_blocks, xw)


# ---------------------------------------------------------------------------
# Sheaf description files.
#
# JSON schema (row-major matrices, Grams optional and defaulting to identity):
# {
#   "vertex_count": n,
#   "vertex_stalk_dims": [d_0, ..., d_{n-1}],
#   "vertex_grams": [[[...]], ...],              # optional
#   "edges": [
#     {"tail": i, "head": j, "stalk_dim": d,
#      "head_map": [[...]], "tail_map": [[...]],
#      "gram": [[...]]}                           # gram optional
#   ]
# }
# Numeric fields round-trip bit-identically (shortest-repr JSON floats).
# ---------------------------------------------------------------------------

_SHEAF_KEYS = {"vertex_count", "vertex_stalk_dims", "vertex_grams", "edges"}
_EDGE_KEYS = {"tail", "head", "stalk_dim", "head_map", "tail_map", "gram"}


def sheaf_to_dict(sheaf: Sheaf) -> dict:
    edges = []
    for e, (tail, head) in enumerate(sheaf.graph.edges):
        edges.append(
            {
                "tail": tail,
                "head": head,
                "stalk_dim": sheaf.edge_stalk_dims[e],
                "head_map": sheaf.head_maps[e].tolist(),
                "tail_map": sheaf.tail_maps[e].tolist(),
                "gram": sheaf.edge_grams[e].tolist(),
            }
        )
    return {
        "vertex_count": sheaf.graph.vertex_count,
        "vertex_stalk_dims": list(sheaf.vertex_stalk_dims),
        "vertex_grams": [g.tolist() for g in sheaf.vertex_grams],
        "edges": edges,
    }


def sheaf_from_dict(data: dict) -> Sheaf:
    if not isinstance(data, dict):
        raise StructuralError("sheaf description must be a JSON object")
    unknown = set(data) - _SHEAF_KEYS
    if unknown:
        raise StructuralError(f"unknown sheaf keys: {sorted(unknown)}")
    for key in ("vertex_count", "vertex_stalk_dims", "edges"):
        if key not in data:
            raise StructuralError(f"sheaf description missing '{key}'")
    edges = data["edges"]
    if not isinstance(edges, list) or not all(isinstance(e, dict) for e in edges):
        raise StructuralError("sheaf 'edges' must be a list of objects")
    ends, dims, heads, tails, grams = [], [], [], [], []
    for e, entry in enumerate(edges):
        bad = set(entry) - _EDGE_KEYS
        if bad:
            raise StructuralError(f"unknown edge keys: {sorted(bad)}")
        for key in ("tail", "head", "stalk_dim", "head_map", "tail_map"):
            if key not in entry:
                raise StructuralError(f"edge entry missing '{key}'")
        at = f"edge {e}"
        ends.append((_whole(entry["tail"], f"{at} tail"), _whole(entry["head"], f"{at} head")))
        dims.append(_whole(entry["stalk_dim"], f"{at} stalk_dim", low=1))
        heads.append(_matrix(entry["head_map"], f"{at} head_map"))
        tails.append(_matrix(entry["tail_map"], f"{at} tail_map"))
        if "gram" in entry:
            grams.append(_matrix(entry["gram"], f"{at} gram"))
        else:
            grams.append(np.eye(dims[-1]))
    vertex_dims = data["vertex_stalk_dims"]
    if not isinstance(vertex_dims, list):
        raise StructuralError("sheaf vertex_stalk_dims must be a list")
    vertex_grams = data.get("vertex_grams")
    if vertex_grams is not None:
        if not isinstance(vertex_grams, list):
            raise StructuralError("sheaf vertex_grams must be a list")
        vertex_grams = [_matrix(g, f"vertex_grams[{v}]") for v, g in enumerate(vertex_grams)]
    return Sheaf(
        graph=DirectedGraph(_whole(data["vertex_count"], "vertex_count"), tuple(ends)),
        vertex_stalk_dims=[
            _whole(d, f"vertex_stalk_dims[{v}]", low=1) for v, d in enumerate(vertex_dims)
        ],
        edge_stalk_dims=dims,
        head_maps=heads,
        tail_maps=tails,
        vertex_grams=vertex_grams,
        edge_grams=grams if any("gram" in entry for entry in edges) else None,
    )


def _whole(value, what: str, low: int = 0) -> int:
    """A count, dimension or endpoint of a sheaf file: an integer >= low."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise StructuralError(f"sheaf {what} must be an integer >= {low}, got {value!r}")
    return int(value)


def _matrix(value, what: str) -> np.ndarray:
    """A map or Gram of a sheaf file: equally long rows of finite numbers."""
    rows = value if isinstance(value, list) and value else [None]
    if not all(
        isinstance(row, list)
        and len(row) == len(rows[0])
        and all(
            isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
            for v in row
        )
        for row in rows
    ):
        raise StructuralError(f"sheaf {what} must be a rectangular array of finite numbers")
    return np.array(rows, dtype=float)


def save_sheaf(sheaf: Sheaf, path: str | Path) -> None:
    Path(path).write_text(json.dumps(sheaf_to_dict(sheaf), indent=1) + "\n")


def load_sheaf(path: str | Path) -> Sheaf:
    try:
        data = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StructuralError(f"malformed sheaf file {path}: {exc}") from exc
    return sheaf_from_dict(data)
