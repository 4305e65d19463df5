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
    shared with every operator built from the sheaf.  Two methods serve every
    per-edge computation, for any mix of stalk dimensions and Grams, batched
    over leading axes: ``edge_sq_norms(y)`` maps a 1-cochain (..., d1) to its
    per-edge squared Gram norms |y_e|^2 (..., edge_count), reading only each
    edge's own Gram block so a row's result does not depend on its batch, and
    ``spread(f)``
    repeats a per-edge factor (..., edge_count) over each edge's stalk
    (..., d1), so a radial force y_e g(|y_e|^2) is
    ``y * spread(g(edge_sq_norms(y)))``.
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
            de = self.edge_stalk_dims[e]
            want_h = (de, self.vertex_stalk_dims[head])
            want_t = (de, self.vertex_stalk_dims[tail])
            if self.head_maps[e].shape != want_h:
                raise StructuralError(
                    f"head map of edge {e} has shape {self.head_maps[e].shape}, "
                    f"expected {want_h}"
                )
            if self.tail_maps[e].shape != want_t:
                raise StructuralError(
                    f"tail map of edge {e} has shape {self.tail_maps[e].shape}, "
                    f"expected {want_t}"
                )

        if vertex_grams is None:
            self.vertex_grams = tuple(np.eye(d) for d in self.vertex_stalk_dims)
        else:
            if len(vertex_grams) != graph.vertex_count:
                raise StructuralError("one Gram matrix required per vertex")
            self.vertex_grams = tuple(
                _check_spd(g, f"vertex Gram {v}") for v, g in enumerate(vertex_grams)
            )
        if edge_grams is None:
            self.edge_grams = tuple(np.eye(d) for d in self.edge_stalk_dims)
        else:
            if len(edge_grams) != graph.edge_count:
                raise StructuralError("one Gram matrix required per edge")
            self.edge_grams = tuple(
                _check_spd(g, f"edge Gram {e}") for e, g in enumerate(edge_grams)
            )
        for v, g in enumerate(self.vertex_grams):
            if g.shape[0] != self.vertex_stalk_dims[v]:
                raise StructuralError(f"vertex Gram {v} does not match its stalk")
        for e, g in enumerate(self.edge_grams):
            if g.shape[0] != self.edge_stalk_dims[e]:
                raise StructuralError(f"edge Gram {e} does not match its stalk")

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
        self._edge_starts = e_offsets[:-1].astype(np.intp)
        self._edge_dims = np.asarray(self.edge_stalk_dims, dtype=np.intp)
        self.M2 = np.zeros((self.d1, self.d1))
        for sl, g in zip(self.edge_slices, self.edge_grams):
            self.M2[sl, sl] = g
        self.M2.flags.writeable = False
        # M2 in band storage: the main diagonal, then every nonzero diagonal
        # at offset k (entries M2[j, j + k]), so M2 y costs O(d1) per band.
        width = max(self.edge_stalk_dims, default=0)
        offsets = [0] + [
            k for k in range(1 - width, width) if k and np.diagonal(self.M2, k).any()
        ]
        self._gram_bands = tuple((k, np.diagonal(self.M2, k).copy()) for k in offsets)

    def edge_sq_norms(self, y: np.ndarray) -> np.ndarray:
        """Per-edge squared Gram norms of a 1-cochain, shape (..., edge_count)."""
        y = _check_len(y, self.d1, "1-cochain")
        (_, main), *off_diagonal = self._gram_bands
        gram_y = y * main
        for k, band in off_diagonal:
            if k > 0:
                gram_y[..., :-k] += band * y[..., k:]
            else:
                gram_y[..., -k:] += band * y[..., :k]
        return np.add.reduceat(gram_y * y, self._edge_starts, axis=-1)

    def spread(self, f: np.ndarray) -> np.ndarray:
        """Repeat a per-edge factor (..., edge_count) over each edge stalk."""
        return np.repeat(f, self._edge_dims, axis=-1)


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
        e_dims = sheaf._edge_dims
        v_starts = np.cumsum(v_dims) - v_dims
        e_starts = sheaf._edge_starts
        self._vertex_blocks = [_block_index(v_starts[at], d) for (d,), at in _grouped(v_dims)]
        self._edge_blocks = [_block_index(e_starts[at], d) for (d,), at in _grouped(e_dims)]
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


@dataclass(frozen=True)
class HarmonicSpace:
    """M2-orthonormal basis of ker delta*, isomorphic to the first cohomology."""

    basis: np.ndarray  # d1 x dim_h1
    dim_h1: int


@dataclass(frozen=True)
class SectionSpace:
    """M1-orthonormal basis of ker delta, the space of global sections."""

    basis: np.ndarray  # d0 x dim_h0
    dim_h0: int


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
    if x.shape[-1] != n:
        raise StructuralError(f"{what} has block length {x.shape[-1]}, expected {n}")
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


def harmonic_basis(op: CoboundaryOperator) -> HarmonicSpace:
    """M2-orthonormal basis of ker delta*.

    Whitened left singular vectors with singular value <= RANK_TOL * sigma_max
    are mapped back through L2^{-T}; the count equals d1 - rank(B).
    """
    rank = op.rank()
    if rank == op.d1:
        return HarmonicSpace(basis=np.zeros((op.d1, 0)), dim_h1=0)
    basis = _block_solve_t(op.L2, op._edge_blocks, op._svd[0][:, rank:])
    return HarmonicSpace(basis=basis, dim_h1=op.d1 - rank)


def global_section_basis(op: CoboundaryOperator) -> SectionSpace:
    """M1-orthonormal basis of ker delta (the global sections)."""
    rank = op.rank()
    if rank == op.d0:
        return SectionSpace(basis=np.zeros((op.d0, 0)), dim_h0=0)
    basis = _block_solve_t(op.L1, op._vertex_blocks, op._svd[2][rank:, :].T)
    return SectionSpace(basis=basis, dim_h0=op.d0 - rank)


def hodge_project(
    op: CoboundaryOperator, harmonic: HarmonicSpace, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Split y into its im-delta and harmonic components.

    Returns (im_delta_part, harmonic_part); the two are M2-orthogonal.
    """
    y = _check_len(y, op.d1, "1-cochain")
    if harmonic.basis.shape[0] != op.d1:
        raise StructuralError("harmonic basis does not match this operator")
    coeff = harmonic.basis.T @ (op.M2 @ y)
    harmonic_part = harmonic.basis @ coeff
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
    except json.JSONDecodeError as exc:
        raise StructuralError(f"malformed sheaf file {path}: {exc}") from exc
    return sheaf_from_dict(data)
