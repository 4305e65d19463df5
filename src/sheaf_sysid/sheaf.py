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
The operator is built from the sheaf alone, one stack of blocks per block
shape, with no dense factorization or solve; B, M1, M2 and the rest are
assembled only when read, and the projections apply the Gram blocks instead.
The rank, both cohomology dimensions and the spectrum come from the singular
values alone, computed on the first query that needs them.  The singular
vectors come from a second, full SVD that runs only for a nonempty null basis
or a pseudoinverse solve, so a sheaf whose cohomology vanishes never computes
them.  All objects are immutable after construction.
"""

from __future__ import annotations

import functools
import json
import numbers
import sys
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
    # The symmetric part, so that the factor, the dense Gram and the block
    # products all read one matrix: halves, as g + g.T may overflow, and only
    # where g is not symmetric already, so a symmetric Gram keeps its bits.
    mat = np.where(mat == mat.T, mat, mat / 2 + mat.T / 2)
    eigs = np.linalg.eigvalsh(mat)
    if eigs[0] <= _SPD_TOL * max(1.0, abs(eigs[-1])):
        raise StructuralError(f"{what} is not positive definite (min eig {eigs[0]:g})")
    return mat


def _spd_factor(mats: np.ndarray, what: str) -> np.ndarray:
    """The Cholesky factor L, mat = L L^T, of each of a stack (..., d, d)."""
    try:
        return np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        raise StructuralError(f"{what} is not positive definite") from None


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
    assembled from the edge Grams on first read and shared with every
    operator built from the sheaf; operators read the Gram blocks instead,
    and the per-edge norms read M2's nonzero diagonals, taken one per width
    group from the blocks.  Per-edge work views a 1-cochain (..., d1) as
    blocks (..., E_k, k), one group per stalk width k: a reshape on a
    uniform layout, a column gather per group on a mixed one.
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

        e_offsets = np.concatenate([[0], np.cumsum(self.edge_stalk_dims)])
        self.d0 = sum(self.vertex_stalk_dims)
        self.d1 = int(e_offsets[-1])
        self.edge_slices = tuple(
            slice(int(a), int(b)) for a, b in zip(e_offsets[:-1], e_offsets[1:])
        )
        # The edges of each stalk width k with the row (E_k, k, 1) and column
        # (E_k, 1, k) indices of their blocks; the one group of a uniform
        # layout holds every edge in order, so its blocks are a reshape of the
        # last axis to (..., E, k) rather than a gather.
        groups = _grouped(np.asarray(self.edge_stalk_dims, dtype=np.intp))
        self._edge_blocks = tuple(
            (at, *_block_index(e_offsets[at], k)) for (k,), at in groups
        )
        self._uniform = self._edge_blocks[0][1].shape[:2] if len(groups) == 1 else None
        self._m2 = _block_rows(self.edge_grams, self._edge_blocks)
        # M2 in band storage: the main diagonal, then every nonzero diagonal
        # at offset k (entries M2[j, j + k]), so M2 y costs O(d1) per band;
        # none at all for identity Grams, as y * 1.0 is y bit for bit.  Band
        # k holds the k-th diagonal of each width group's Gram stack.
        width = max(self.edge_stalk_dims, default=0)
        bands = []
        for k in [0] + [k for k in range(1 - width, width) if k]:
            band = np.zeros(self.d1 - abs(k))
            for _, rows, _ in self._edge_blocks:
                if abs(k) < rows.shape[1]:
                    at = rows[:, : rows.shape[1] - abs(k), 0]
                    band[at] = np.diagonal(_blocks(self._m2, rows), k, axis1=1, axis2=2)
            if k == 0 or band.any():
                bands.append((k, band))
        self._gram_bands = () if len(bands) == 1 and (bands[0][1] == 1.0).all() else tuple(bands)

    @functools.cached_property
    def M2(self) -> np.ndarray:
        m2 = _dense(self._m2, self._edge_blocks)
        m2.flags.writeable = False
        return m2

    @functools.cached_property
    def _operator_blocks(self) -> tuple[list, list]:
        """Index stacks of the operator's blocks per block shape: (stalks, rows,
        cols) of M1's diagonal blocks, and (edges, tail, rows, cols, rows, cols)
        of B's head blocks, then tail blocks (a self-loop's comes twice)."""
        v_dims = np.array(self.vertex_stalk_dims, dtype=np.intp)
        e_dims = np.array(self.edge_stalk_dims, dtype=np.intp)
        v_starts, e_starts = np.cumsum(v_dims) - v_dims, np.cumsum(e_dims) - e_dims
        tails, heads = np.array(self.graph.edges, dtype=np.intp).reshape(-1, 2).T
        e, v = np.tile(np.arange(e_dims.size), 2), np.concatenate([heads, tails])
        tail = np.arange(e.size) >= e_dims.size
        vertex = [(at,) + _block_index(v_starts[at], d) for (d,), at in _grouped(v_dims)]
        return vertex, [
            (e[at], t) + _block_index(e_starts[e[at]], de) + _block_index(v_starts[v[at]], dv)
            for (t, de, dv), at in _grouped(tail, e_dims[e], v_dims[v])
        ]

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
        for at, rows, _ in self._edge_blocks:
            out[..., at] = _block_sums(p[..., rows[..., 0]])
        return out

    def edge_scale(self, y: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Each edge block y_e of a 1-cochain (..., d1) times its factor g_e
        of g (..., edge_count): ``y * spread(g)``, bit for bit."""
        if self._uniform:
            scaled = y.reshape(y.shape[:-1] + self._uniform) * g[..., None]
            return scaled.reshape(scaled.shape[:-2] + (self.d1,))
        out = np.empty(np.broadcast_shapes(y.shape[:-1], g.shape[:-1]) + (self.d1,))
        for at, rows, _ in self._edge_blocks:
            out[..., rows[..., 0]] = y[..., rows[..., 0]] * g[..., at, None]
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
    """Coboundary matrix plus the Gram data needed for adjoints, from the
    sheaf alone.

    Attributes:
        sheaf: the defining sheaf.
        B: d1 x d0 coboundary matrix.
        M1, M2: block-diagonal Gram matrices of the 0- and 1-cochain spaces,
            with blocks in the sheaf's vertex and edge stalk layout; M2 is the
            sheaf's own read-only array.
        L1: the block-diagonal Cholesky factor M1 = L1 L1^T, so
            |v|^2_{C0} = |L1^T v|^2.
        delta_star_matrix: M1^{-1} B^T M2, the matrix of the adjoint.
        whitened_adjoint: delta_star_matrix^T L1, which maps an edge force row
            to a 0-cochain whose C0 products are plain dot products.

    At construction the Gram blocks are factored (and a non-SPD one rejected)
    from one stack per block shape, and B's nonzero blocks are kept as one
    stack per block shape.  Every dense matrix above is assembled from those
    stacks on first read, so a spectrum-only caller holds none of them; the
    (v, e) block of delta* is R_v^{-1} B_ev^T Q_e for vertex Gram R_v and
    edge Gram Q_e.  The singular values of the whitened L2^T B L1^{-T} give
    the rank and the spectrum; its singular vectors are computed only for a
    nonempty null basis or a pseudoinverse solve.
    """

    def __init__(self, sheaf: Sheaf):
        self.sheaf, self.d0, self.d1 = sheaf, sheaf.d0, sheaf.d1
        self._edge_blocks = sheaf._edge_blocks
        self._vertex_blocks, coupling = sheaf._operator_blocks
        self._m1 = _block_rows(sheaf.vertex_grams, self._vertex_blocks)
        self._l1 = _block_factor(self._m1, self._vertex_blocks, "M1")
        self._l2 = _block_factor(sheaf._m2, self._edge_blocks, "M2")
        ends = np.array(sheaf.graph.edges, dtype=np.intp).reshape(-1, 2)
        loops = ends[:, 0] == ends[:, 1]
        self._coupling_blocks = [
            (er, ec, vr, vc, _coupling_values(sheaf, edges, tail, loops[edges]))
            for edges, tail, er, ec, vr, vc in coupling
        ]

    M1 = functools.cached_property(lambda self: _dense(self._m1, self._vertex_blocks))
    M2 = property(lambda self: self.sheaf.M2)
    L1 = functools.cached_property(lambda self: _dense(self._l1, self._vertex_blocks))
    whitened_adjoint = functools.cached_property(lambda self: self.delta_star_matrix.T @ self.L1)

    @functools.cached_property
    def B(self) -> np.ndarray:
        B = np.zeros((self.d1, self.d0))
        for er, _, _, vc, b in self._coupling_blocks:
            B[er, vc] = b
        return B

    @functools.cached_property
    def delta_star_matrix(self) -> np.ndarray:
        ds = np.zeros((self.d0, self.d1))
        for er, ec, vr, _, b in self._coupling_blocks:
            b_t_m2 = b.swapaxes(1, 2) @ _blocks(self.sheaf._m2, er)
            ds[vr, ec] = np.linalg.solve(_blocks(self._m1, vr), b_t_m2)
        return ds

    @functools.cached_property
    def _whitened(self) -> np.ndarray:
        """L2^T B L1^{-T}, block by block; read only by the two SVDs."""
        white = np.zeros((self.d1, self.d0))
        for er, _, vr, vc, b in self._coupling_blocks:
            lb_t = (_blocks(self._l2, er).swapaxes(1, 2) @ b).swapaxes(1, 2)
            white[er, vc] = np.linalg.solve(_blocks(self._l1, vr), lb_t).swapaxes(1, 2)
        return white

    @functools.cached_property
    def _spectrum(self) -> np.ndarray:
        """Singular values of the whitened matrix, descending, without vectors."""
        return np.linalg.svd(self._whitened, compute_uv=False)

    @functools.cached_property
    def _svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full SVD (U, s, Vt) of the whitened matrix, for null bases and solves."""
        return np.linalg.svd(self._whitened, full_matrices=True)

    def rank(self) -> int:
        s = self._spectrum
        if s.size == 0 or s[0] == 0.0:
            return 0
        return int(np.count_nonzero(s > RANK_TOL * s[0]))

    def singular_values(self) -> np.ndarray:
        return self._spectrum.copy()


def _coupling_values(sheaf: Sheaf, edges: np.ndarray, tail: bool, loops: np.ndarray):
    """B's blocks (m, de, dv) at the edges' tail (else head) vertices, as
    adding every head map to 0.0 and then subtracting every tail map leaves
    them: 0.0 + head, 0.0 - tail, and (0.0 + head) - tail at a self-loop."""
    maps = np.array([(sheaf.tail_maps if tail else sheaf.head_maps)[e] for e in edges])
    values = 0.0 - maps if tail else 0.0 + maps
    if loops.any():
        heads = np.array([sheaf.head_maps[e] for e in edges[loops]])
        values[loops] = (0.0 + heads) - np.array([sheaf.tail_maps[e] for e in edges[loops]])
    return values


def _block_rows(grams: Sequence[np.ndarray], blocks) -> np.ndarray:
    """The block-diagonal matrix of ``grams`` stored by block rows: row i holds
    row i of the matrix within its block (the layout of ``_block_factor``)."""
    out = np.zeros((sum(len(g) for g in grams), max(map(len, grams), default=0)))
    for at, rows, _ in blocks:
        out[rows, np.arange(rows.shape[1])] = np.array([grams[i] for i in at])
    return out


def _block_factor(mat: np.ndarray, blocks, what: str) -> np.ndarray:
    """The factor L of a block-diagonal mat = L L^T stored by block rows,
    factored from one stack of blocks per block shape, in the same layout."""
    factor = np.zeros(mat.shape)
    for _, rows, _ in blocks:
        factor[rows, np.arange(rows.shape[1])] = _spd_factor(_blocks(mat, rows), what)
    return factor


def _blocks(mat: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The (m, d, d) blocks of a block-row matrix at the rows (m, d, 1)."""
    return mat[rows, np.arange(rows.shape[1])]


def _dense(mat: np.ndarray, blocks) -> np.ndarray:
    """The dense block-diagonal matrix of a block-row matrix."""
    out = np.zeros((mat.shape[0],) * 2)
    for _, rows, cols in blocks:
        out[rows, cols] = _blocks(mat, rows)
    return out


def _block_t(factor: np.ndarray, blocks, x: np.ndarray, apply=np.linalg.solve) -> np.ndarray:
    """apply(L_b^T, x_b) on every diagonal block L_b of a block-row factor L,
    so by default z with L^T z = x; x is (n,) or (n, k)."""
    rhs = x.reshape(x.shape[0], -1)
    z = np.empty(rhs.shape)
    for _, rows, _ in blocks:
        at = rows[..., 0]
        z[at] = apply(_blocks(factor, rows).swapaxes(1, 2), rhs[at])
    return z.reshape(x.shape)


def build_coboundary(sheaf: Sheaf) -> CoboundaryOperator:
    """The coboundary operator of ``sheaf``; B, M1 and the sheaf's M2 are
    assembled on first read.

    Block row e carries +head_map in the column block of head(e) and
    -tail_map in the column block of tail(e); for self-loops both accumulate
    into the same block.
    """
    return CoboundaryOperator(sheaf)


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
    return _block_t(op._l2, op._edge_blocks, op._svd[0][:, rank:])


def global_section_basis(op: CoboundaryOperator) -> np.ndarray:
    """M1-orthonormal basis of ker delta, the global sections: an array
    (d0, dim H0) whose column count is d0 - rank(B)."""
    rank = op.rank()
    if rank == op.d0:
        return np.zeros((op.d0, 0))
    return _block_t(op._l1, op._vertex_blocks, op._svd[2][rank:, :].T)


def hodge_project(
    op: CoboundaryOperator, harmonic: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Split y into its im-delta and harmonic components, given the harmonic
    basis (d1, dim H1) of ``harmonic_basis``; anything not 2-D with d1 rows
    raises StructuralError.

    Returns (im_delta_part, harmonic_part); the two are M2-orthogonal.
    """
    y = _check_len(y, op.d1, "1-cochain")
    if y.ndim != 1:
        raise StructuralError(f"1-cochain has shape {y.shape}, expected ({op.d1},)")
    harmonic = np.asarray(harmonic, dtype=float)
    if harmonic.ndim != 2 or harmonic.shape[0] != op.d1:
        raise StructuralError(
            f"harmonic basis has shape {harmonic.shape}, expected ({op.d1}, dim H1)"
        )
    m2_y = _block_t(op.sheaf._m2, op._edge_blocks, y, np.matmul)
    harmonic_part = harmonic @ (harmonic.T @ m2_y)
    return y - harmonic_part, harmonic_part


def section_part(op: CoboundaryOperator, x: np.ndarray) -> np.ndarray:
    """The M1-orthogonal projection of a 0-cochain (d0,) onto the global
    sections, with M1 applied block by block."""
    x = np.asarray(x, dtype=float)
    if x.shape != (op.d0,):
        raise StructuralError(f"0-cochain has shape {x.shape}, expected ({op.d0},)")
    sections = global_section_basis(op)
    return sections @ (sections.T @ _block_t(op._m1, op._vertex_blocks, x, np.matmul))


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
    bw = _block_t(op._l2, op._edge_blocks, b, np.matmul)
    coeff = (U[:, :rank].T @ bw) / s[:rank]
    xw = Vt[:rank, :].T @ coeff
    return _block_t(op._l1, op._vertex_blocks, xw)


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
# A number written in its shortest repr reads back as that float, bit for bit.
# ---------------------------------------------------------------------------

_SHEAF_KEYS = {"vertex_count", "vertex_stalk_dims", "vertex_grams", "edges"}
_EDGE_KEYS = {"tail", "head", "stalk_dim", "head_map", "tail_map", "gram"}


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
            # the bound also refuses nan, and an int that no float can hold
            isinstance(v, numbers.Real) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max
            for v in row
        )
        for row in rows
    ):
        raise StructuralError(f"sheaf {what} must be a rectangular array of finite numbers")
    return np.array(rows, dtype=float)


def load_sheaf(path: str | Path) -> Sheaf:
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:  # not UTF-8, not JSON, or an int past the digit limit
        raise StructuralError(f"malformed sheaf file {path}: {exc}") from exc
    return sheaf_from_dict(data)
