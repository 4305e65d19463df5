"""Coboundary assembly, adjoints, Hodge decomposition, and the file format."""

import copy
import json

import numpy as np
import pytest
from conftest import random_sheaf, random_spd
from hypothesis import given, settings
from hypothesis import strategies as st

from sheaf_sysid import experiments
from sheaf_sysid.dynamics import equilibrium_projection
from sheaf_sysid.errors import StructuralError
from sheaf_sysid.experiments import make_cycle_sheaf
from sheaf_sysid.sheaf import (
    CoboundaryOperator,
    DirectedGraph,
    RANK_TOL,
    Sheaf,
    apply_delta,
    apply_delta_star,
    build_coboundary,
    c0_inner,
    c1_inner,
    delta_pseudoinverse_apply,
    global_section_basis,
    harmonic_basis,
    hodge_project,
    load_sheaf,
    section_part,
    sheaf_from_dict,
)


def two_vertex_sheaf():
    graph = DirectedGraph(vertex_count=2, edges=((0, 1),))
    eye = np.eye(2)
    return Sheaf(graph, [2, 2], [2], head_maps=[eye], tail_maps=[eye])


def test_two_vertex_identity_coboundary():
    op = build_coboundary(two_vertex_sheaf())
    expected = np.array([[-1.0, 0.0, 1.0, 0.0], [0.0, -1.0, 0.0, 1.0]])
    assert np.array_equal(op.B, expected)


def test_two_vertex_apply_delta_example():
    op = build_coboundary(two_vertex_sheaf())
    y = apply_delta(op, np.array([1.0, 0.0, 0.0, 1.0]))
    assert np.allclose(y, [-1.0, 1.0])


def test_identity_cycle_block_pattern(identity_cycle):
    _, op = identity_cycle
    assert op.B.shape == (6, 6)
    eye = np.eye(2)
    for e in range(3):
        rows = slice(2 * e, 2 * e + 2)
        head = (e + 1) % 3
        assert np.array_equal(op.B[rows, 2 * head : 2 * head + 2], eye)
        assert np.array_equal(op.B[rows, 2 * e : 2 * e + 2], -eye)


def test_self_loop_accumulates_both_maps():
    graph = DirectedGraph(vertex_count=1, edges=((0, 0),))
    sheaf = Sheaf(
        graph, [1], [1], head_maps=[np.eye(1)], tail_maps=[2.0 * np.eye(1)]
    )
    op = build_coboundary(sheaf)
    assert np.array_equal(op.B, [[-1.0]])


def test_constant_section_is_global_section(identity_cycle):
    _, op = identity_cycle
    x = np.tile([0.3, -1.2], 3)
    assert np.allclose(apply_delta(op, x), 0.0)


def test_rotated_cycle_has_no_constant_sections(rotated_cycle):
    _, op = rotated_cycle
    x = np.tile([0.3, -1.2], 3)
    assert np.abs(apply_delta(op, x)).max() > 0.1


def test_constant_edge_cochain_is_harmonic_on_identity_cycle(identity_cycle):
    _, op = identity_cycle
    y = np.tile([0.7, -0.2], 3)
    assert np.allclose(apply_delta_star(op, y), 0.0)


def test_apply_delta_star_zero(identity_cycle):
    _, op = identity_cycle
    assert np.allclose(apply_delta_star(op, np.zeros(op.d1)), 0.0)


def test_shape_mismatch_raises(identity_cycle):
    _, op = identity_cycle
    with pytest.raises(StructuralError):
        apply_delta(op, np.zeros(op.d0 + 1))
    with pytest.raises(StructuralError):
        apply_delta_star(op, np.zeros(op.d1 - 1))


def test_adjoint_identity_on_random_sheaves():
    rng = np.random.default_rng(7)
    for trial in range(100):
        sheaf = random_sheaf(rng, allow_self_loops=trial % 4 == 0)
        op = build_coboundary(sheaf)
        x = rng.standard_normal(op.d0)
        y = rng.standard_normal(op.d1)
        lhs = c1_inner(op, apply_delta(op, x), y)
        rhs = c0_inner(op, x, apply_delta_star(op, y))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_harmonic_dimensions_on_cycles(identity_cycle, rotated_cycle):
    assert harmonic_basis(identity_cycle[1]).shape[1] == 2
    assert harmonic_basis(rotated_cycle[1]).shape[1] == 0


def test_path_graph_has_no_harmonic_space():
    op = build_coboundary(two_vertex_sheaf())
    assert harmonic_basis(op).shape[1] == 0


def test_harmonic_basis_is_m2_orthonormal_and_invisible():
    rng = np.random.default_rng(11)
    for _ in range(20):
        op = build_coboundary(random_sheaf(rng, n_vertices=3, n_edges=5))
        harm = harmonic_basis(op)
        gram = harm.T @ op.M2 @ harm
        assert np.allclose(gram, np.eye(harm.shape[1]), atol=1e-10)
        for col in harm.T:
            assert np.linalg.norm(op.B.T @ op.M2 @ col) <= 1e-10


def test_global_sections_on_cycles(identity_cycle, rotated_cycle):
    assert global_section_basis(identity_cycle[1]).shape[1] == 2
    assert global_section_basis(rotated_cycle[1]).shape[1] == 0


def test_global_sections_of_edgeless_graph():
    graph = DirectedGraph(vertex_count=2, edges=())
    sheaf = Sheaf(graph, [2, 2], [], head_maps=[], tail_maps=[])
    op = build_coboundary(sheaf)
    assert global_section_basis(op).shape[1] == 4
    assert harmonic_basis(op).shape[1] == 0


def test_hodge_completeness_on_random_sheaves():
    rng = np.random.default_rng(13)
    for _ in range(20):
        op = build_coboundary(random_sheaf(rng))
        rank = op.rank()
        assert rank + harmonic_basis(op).shape[1] == op.d1
        assert global_section_basis(op).shape[1] + rank == op.d0


def test_hodge_projection_splits_orthogonally():
    rng = np.random.default_rng(17)
    for _ in range(20):
        op = build_coboundary(random_sheaf(rng))
        harm = harmonic_basis(op)

        # image vectors have no harmonic part
        y_im = apply_delta(op, rng.standard_normal(op.d0))
        _, harmonic_part = hodge_project(op, harm, y_im)
        assert np.linalg.norm(harmonic_part) <= 1e-10 * (1 + np.linalg.norm(y_im))

        # harmonic basis vectors have no image part
        if harm.shape[1]:
            z = harm[:, 0]
            im_part, _ = hodge_project(op, harm, z)
            assert np.linalg.norm(im_part) <= 1e-10

        # the split satisfies Pythagoras in the M2 norm
        y = rng.standard_normal(op.d1)
        im_part, harmonic_part = hodge_project(op, harm, y)
        total = c1_inner(op, y, y)
        parts = c1_inner(op, im_part, im_part) + c1_inner(
            op, harmonic_part, harmonic_part
        )
        assert abs(total - parts) <= 1e-10 * (1.0 + abs(total))
        assert abs(c1_inner(op, im_part, harmonic_part)) <= 1e-10 * (1.0 + abs(total))


def test_hodge_project_takes_only_a_basis_of_d1_rows(identity_cycle, rotated_cycle):
    _, op = identity_cycle
    harm = harmonic_basis(op)
    y = np.arange(op.d1, dtype=float)
    for bad in (harm[:, 0], harm[:-1], harm[None], np.float64(1.0), harm.T):
        with pytest.raises(StructuralError, match="harmonic basis has shape"):
            hodge_project(op, bad, y)
    # an empty basis (d1, 0) is a basis: nothing of y is harmonic
    _, rotated = rotated_cycle
    im_part, harmonic_part = hodge_project(rotated, harmonic_basis(rotated), y)
    assert np.array_equal(im_part, y) and not harmonic_part.any()


def test_pseudoinverse_recovers_orthogonal_preimage():
    rng = np.random.default_rng(19)
    for _ in range(10):
        op = build_coboundary(random_sheaf(rng))
        sections = global_section_basis(op)
        x = rng.standard_normal(op.d0)
        x -= sections @ (sections.T @ (op.M1 @ x))  # x in (ker delta)^perp
        b = apply_delta(op, x)
        assert np.allclose(delta_pseudoinverse_apply(op, b), x, atol=1e-8)


def test_pseudoinverse_kills_harmonic_part():
    rng = np.random.default_rng(23)
    op = build_coboundary(random_sheaf(rng, n_vertices=3, n_edges=5))
    harm = harmonic_basis(op)
    if harm.shape[1] == 0:
        pytest.skip("sampled sheaf happens to have trivial harmonic space")
    z = harm @ rng.standard_normal(harm.shape[1])
    assert np.allclose(delta_pseudoinverse_apply(op, z), 0.0, atol=1e-10)


def test_pseudoinverse_range_is_m1_orthogonal_to_sections():
    rng = np.random.default_rng(29)
    for _ in range(10):
        op = build_coboundary(random_sheaf(rng))
        sections = global_section_basis(op)
        x = delta_pseudoinverse_apply(op, rng.standard_normal(op.d1))
        for col in sections.T:
            assert abs(c0_inner(op, x, col)) <= 1e-10 * (1 + np.linalg.norm(x))


def test_invalid_restriction_map_shape_raises():
    graph = DirectedGraph(vertex_count=2, edges=((0, 1),))
    with pytest.raises(StructuralError):
        Sheaf(graph, [2, 2], [2], head_maps=[np.eye(3)], tail_maps=[np.eye(2)])


def test_non_spd_gram_raises():
    graph = DirectedGraph(vertex_count=2, edges=((0, 1),))
    bad = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(StructuralError):
        Sheaf(
            graph,
            [2, 2],
            [2],
            head_maps=[np.eye(2)],
            tail_maps=[np.eye(2)],
            edge_grams=[bad],
        )


def _cycle_with_vertex_gram(gram) -> Sheaf:
    """The identity 3-cycle with gram on vertex 0 and identities elsewhere."""
    cycle = make_cycle_sheaf(3, "identity")
    return Sheaf(
        cycle.graph, [2] * 3, [2] * 3, head_maps=cycle.head_maps, tail_maps=cycle.tail_maps,
        vertex_grams=[np.array(gram), np.eye(2), np.eye(2)],
    )


def test_an_accepted_gram_is_stored_as_its_symmetric_part():
    # symmetric only to the acceptance tolerance: every product reads one matrix
    op = build_coboundary(_cycle_with_vertex_gram([[2.0, 0.5 + 1e-11], [0.5, 1.0]]))
    assert op.sheaf.vertex_grams[0][0, 1] == op.sheaf.vertex_grams[0][1, 0] == 0.5 + 0.5e-11
    assert np.array_equal(op.M1, op.M1.T)
    x = np.random.default_rng(8).standard_normal(op.d0)
    sections = global_section_basis(op)
    assert np.abs(section_part(op, x) - sections @ (sections.T @ (op.M1 @ x))).max() <= 1e-15
    # an exactly symmetric Gram keeps its bits, at the float limits too; an
    # unsymmetric one near them has a finite symmetric part
    tiny = np.nextafter(0.0, 1.0)
    for gram in ([[1e308, 1e307], [1e307, 1e308]], [[1.0, tiny], [tiny, 1.0]],
                 [[1.0, -0.0], [-0.0, 1.0]]):
        stored = _cycle_with_vertex_gram(gram).vertex_grams[0]
        assert np.array_equal(stored, gram) and np.array_equal(np.signbit(stored), np.signbit(gram))
    big = [[1e308, np.nextafter(1e307, np.inf)], [1e307, 1e308]]
    stored = _cycle_with_vertex_gram(big).vertex_grams[0]
    assert np.isfinite(stored).all() and stored[0, 0] == 1e308 and stored[0, 1] == stored[1, 0]


def test_edge_referencing_missing_vertex_raises():
    with pytest.raises(StructuralError):
        DirectedGraph(vertex_count=2, edges=((0, 2),))


# --- description files ------------------------------------------------------


def test_sheaf_file_roundtrip_is_bit_identical(tmp_path):
    # random floats written in their shortest repr (json.dumps) read back bit
    # for bit; the Grams mirror their upper triangle, since a Gram that is
    # symmetric only to rounding is stored as its symmetric part
    rng = np.random.default_rng(31)
    ends, dims = ((0, 1), (1, 2), (2, 0), (1, 1)), [2, 3, 1]
    heads = [rng.standard_normal((2, dims[h])) for _, h in ends]
    tails = [rng.standard_normal((2, dims[t])) for t, _ in ends]

    def symmetric_spd(d):
        g = random_spd(rng, d)
        return np.triu(g) + np.triu(g, 1).T

    edge_grams = [symmetric_spd(2) for _ in ends]
    vertex_grams = [symmetric_spd(d) for d in dims]
    edges = [
        {"tail": t, "head": h, "stalk_dim": 2,
         "head_map": H.tolist(), "tail_map": T.tolist(), "gram": G.tolist()}
        for (t, h), H, T, G in zip(ends, heads, tails, edge_grams)
    ]
    vertex_lists = [g.tolist() for g in vertex_grams]
    data = {"vertex_count": 3, "vertex_stalk_dims": dims, "vertex_grams": vertex_lists,
            "edges": edges}
    path = tmp_path / "sheaf.json"
    path.write_text(json.dumps(data, indent=1))
    sheaf = load_sheaf(path)
    assert sheaf.graph.edges == ends
    for got, want in ((sheaf.head_maps, heads), (sheaf.tail_maps, tails),
                      (sheaf.edge_grams, edge_grams), (sheaf.vertex_grams, vertex_grams)):
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


TWO_VERTEX = {
    "vertex_count": 2,
    "vertex_stalk_dims": [2, 2],
    "edges": [
        {
            "tail": 0,
            "head": 1,
            "stalk_dim": 2,
            "head_map": [[1.0, 0.0], [0.0, 1.0]],
            "tail_map": [[1.0, 0.0], [0.0, 1.0]],
        }
    ],
}


def test_sheaf_dict_omitted_grams_default_to_identity():
    sheaf = sheaf_from_dict(TWO_VERTEX)
    assert np.array_equal(sheaf.edge_grams[0], np.eye(2))
    assert np.array_equal(sheaf.vertex_grams[1], np.eye(2))


def test_sheaf_dict_rejects_unknown_keys():
    data = {**TWO_VERTEX, "extra": 1}
    with pytest.raises(StructuralError):
        sheaf_from_dict(data)


def test_malformed_sheaf_file_raises(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(StructuralError):
        load_sheaf(path)


# --- per-edge norm primitive -------------------------------------------------


@pytest.mark.parametrize("batch", [(), (5,), (2, 3)])
def test_edge_sq_norms_match_per_edge_gram_norms(mixed_sheaf, batch):
    sheaf = mixed_sheaf
    y = np.random.default_rng(21).standard_normal(batch + (sheaf.d1,))
    got = sheaf.edge_sq_norms(y)
    assert got.shape == batch + (sheaf.graph.edge_count,)
    for e, sl in enumerate(sheaf.edge_slices):
        block = y[..., sl]
        want = np.einsum("...i,ij,...j->...", block, sheaf.edge_grams[e], block)
        assert np.allclose(got[..., e], want, rtol=1e-12, atol=1e-12)


def test_edge_sq_norms_of_a_row_do_not_depend_on_its_batch(mixed_sheaf):
    y = np.random.default_rng(23).standard_normal((200, mixed_sheaf.d1))
    alone = np.array([mixed_sheaf.edge_sq_norms(row) for row in y])
    assert np.array_equal(mixed_sheaf.edge_sq_norms(y), alone)


def test_spread_repeats_each_edge_factor_over_its_stalk(mixed_sheaf):
    sheaf = mixed_sheaf
    f = np.random.default_rng(22).standard_normal((2, 3, sheaf.graph.edge_count))
    spread = sheaf.spread(f)
    assert spread.shape == (2, 3, sheaf.d1)
    for e, sl in enumerate(sheaf.edge_slices):
        for i in range(sl.start, sl.stop):
            assert np.array_equal(spread[..., i], f[..., e])


def test_edge_primitive_on_edgeless_sheaf():
    sheaf = Sheaf(DirectedGraph(vertex_count=2, edges=()), [2, 2], [], [], [])
    assert sheaf.edge_sq_norms(np.zeros(0)).shape == (0,)
    assert sheaf.edge_sq_norms(np.zeros((3, 0))).shape == (3, 0)
    assert sheaf.spread(np.zeros((3, 0))).shape == (3, 0)


def test_edge_sq_norms_rejects_wrong_length(mixed_sheaf):
    with pytest.raises(StructuralError):
        mixed_sheaf.edge_sq_norms(np.zeros(mixed_sheaf.d1 + 1))


def uniform_sheaf(width: int, grams: str) -> Sheaf:
    """A directed 3-cycle with 2-D vertex stalks and edge stalks of one width;
    grams "unit" (identities), "diagonal" (no off-diagonal band), "full", or
    "unit-diagonal" (ones on the diagonal beside off-diagonal bands)."""
    rng = np.random.default_rng(width)
    graph = DirectedGraph(vertex_count=3, edges=((0, 1), (1, 2), (2, 0)))
    maps = [rng.standard_normal((width, 2)) for _ in range(6)]
    unit_diagonal = np.eye(width) + 0.4 * np.eye(width, k=1) + 0.4 * np.eye(width, k=-1)
    edge_grams = {
        "unit": None,
        "diagonal": [np.diag(rng.uniform(0.5, 2.0, width)) for _ in range(3)],
        "full": [random_spd(rng, width) for _ in range(3)],
        "unit-diagonal": [unit_diagonal] * 3,
    }[grams]
    return Sheaf(graph, [2] * 3, [width] * 3, maps[:3], maps[3:], edge_grams=edge_grams)


def reduceat_sq_norms(sheaf: Sheaf, y: np.ndarray) -> np.ndarray:
    """The per-edge squared norms as np.add.reduceat over each edge's products
    y_i (M2 y)_i, with M2 y built band by band: the main diagonal, then each
    nonzero diagonal in increasing offset."""
    y = np.asarray(y, dtype=float)
    width = max(sheaf.edge_stalk_dims)
    gram_y = y * np.diagonal(sheaf.M2)
    for k in range(1 - width, width):
        band = np.diagonal(sheaf.M2, k)
        if k > 0 and band.any():
            gram_y[..., :-k] += band * y[..., k:]
        elif k < 0 and band.any():
            gram_y[..., -k:] += band * y[..., :k]
    starts = [sl.start for sl in sheaf.edge_slices]
    return np.add.reduceat(gram_y * y, starts, axis=-1)


def hard_cochains(sheaf: Sheaf, lead: tuple) -> np.ndarray:
    """Random 1-cochains over 16 decades with rows of +0.0, of -0.0 and of
    mixed signed zeros, a -0.0 first entry in every edge of one row, and one
    row of infinities and NaNs of both signs."""
    rng = np.random.default_rng(sum(sheaf.edge_stalk_dims) + len(lead))
    shape = lead + (sheaf.d1,)
    y = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    rows = y.reshape(-1, sheaf.d1)
    if len(rows) >= 5:
        rows[0] = 0.0
        rows[1] = -0.0
        rows[2] = rng.choice([0.0, -0.0], sheaf.d1)
        rows[3, [sl.start for sl in sheaf.edge_slices]] = -0.0
        rows[4] = rng.choice([np.inf, -np.inf, np.nan, -np.nan, 1.0], sheaf.d1)
    return y


def assert_same_bits(got, want):
    """Equal values, NaNs in the same places, and the same sign bits."""
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def wide_mixed_sheaf() -> Sheaf:
    sheaf = random_sheaf(np.random.default_rng(7), n_vertices=3, n_edges=4, max_dim=10)
    assert max(sheaf.edge_stalk_dims) > 8 and len(set(sheaf.edge_stalk_dims)) > 1
    return sheaf


EDGE_LAYOUTS = [
    (w, g) for w in range(1, 10) for g in ("unit", "diagonal", "full", "unit-diagonal")
]


@pytest.mark.parametrize("layout", EDGE_LAYOUTS + ["mixed", "wide mixed"])
@pytest.mark.parametrize("lead", [(), (9,), (0,), (3, 4), (2, 0, 3)])
def test_edge_sq_norms_equal_reduceat_bit_for_bit(mixed_sheaf, layout, lead):
    # signed zeros included: the tail of each block is summed from its own
    # first term (in order below 8 terms, pairwise from 8), not from +0.0
    sheaf = {"mixed": mixed_sheaf, "wide mixed": wide_mixed_sheaf()}.get(layout)
    sheaf = sheaf or uniform_sheaf(*layout)
    y = hard_cochains(sheaf, lead)
    with np.errstate(invalid="ignore"):  # inf - inf in the row of infinities
        want = reduceat_sq_norms(sheaf, y)
        assert want.shape == lead + (sheaf.graph.edge_count,)
        assert_same_bits(sheaf.edge_sq_norms(y), want)
        y_f = np.asfortranarray(y)
        assert_same_bits(sheaf.edge_sq_norms(y_f), reduceat_sq_norms(sheaf, y_f))
        if y.ndim == 2 and len(y):
            # numpy's arithmetic may give a NaN another sign in a lone row or
            # another memory order, so each is held to reduceat on the same input
            assert_same_bits(
                np.array([sheaf.edge_sq_norms(row) for row in y]),
                np.array([reduceat_sq_norms(sheaf, row) for row in y]),
            )


@pytest.mark.parametrize("width", range(7, 10))
def test_norms_of_negative_zero_products_keep_their_sign(width):
    # Under a full Gram, y = -0.0 gives M2 y = +0.0 on some coordinates and so
    # products y_i (M2 y)_i of -0.0: an edge whose products are all -0.0 has
    # norm -0.0, which a tail sum started from +0.0 would turn into +0.0.
    sheaf = uniform_sheaf(width, "full")
    y = np.full((2, sheaf.d1), -0.0)
    got, want = sheaf.edge_sq_norms(y), reduceat_sq_norms(sheaf, y)
    assert np.signbit(want).any()
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("layout", [(2, "unit"), (9, "full"), "mixed", "wide mixed"])
def test_edge_scale_and_spread_equal_repeat_bit_for_bit(mixed_sheaf, layout):
    sheaf = {"mixed": mixed_sheaf, "wide mixed": wide_mixed_sheaf()}.get(layout)
    sheaf = sheaf or uniform_sheaf(*layout)
    dims = sheaf.edge_stalk_dims
    rng = np.random.default_rng(5)
    for lead in ((), (6,), (0,), (2, 3)):
        y = hard_cochains(sheaf, lead)
        g = rng.standard_normal(lead + (sheaf.graph.edge_count,))
        g.reshape(-1, g.shape[-1])[:1] = -0.0
        want = y * np.repeat(g, dims, axis=-1)
        assert_same_bits(sheaf.edge_scale(y, g), want)
        assert_same_bits(y * sheaf.spread(g), want)
        assert_same_bits(sheaf.spread(g), np.repeat(g, dims, axis=-1))
    # a per-row factor against one cochain, and one factor against a batch
    y, g = hard_cochains(sheaf, ()), rng.standard_normal((5, sheaf.graph.edge_count))
    assert_same_bits(sheaf.edge_scale(y, g), y * np.repeat(g, dims, axis=-1))
    ys = hard_cochains(sheaf, (5,))
    assert_same_bits(sheaf.edge_scale(ys, g[0]), ys * np.repeat(g[0], dims))


def test_a_scalar_is_not_a_cochain(identity_cycle):
    sheaf, op = identity_cycle
    harmonic = harmonic_basis(op)
    calls = [
        (sheaf.edge_sq_norms, "1-cochain"),
        (sheaf.spread, "per-edge factor"),
        (lambda v: apply_delta(op, v), "0-cochain"),
        (lambda v: apply_delta_star(op, v), "1-cochain"),
        (lambda v: hodge_project(op, harmonic, v), "1-cochain"),
        (lambda v: delta_pseudoinverse_apply(op, v), "1-cochain"),
    ]
    for call, what in calls:
        for scalar in (1.0, np.float64(2.0), np.array(3.0)):
            with pytest.raises(StructuralError, match=f"{what} has shape .*, expected a last axis"):
                call(scalar)


def test_operator_shares_the_sheaf_edge_gram(mixed_sheaf):
    op = build_coboundary(mixed_sheaf)
    assert op.M2 is mixed_sheaf.M2
    assert not op.M2.flags.writeable


def _close(got, want):
    scale = max(1.0, np.abs(want).max(initial=0.0))
    return got.shape == want.shape and np.abs(got - want).max(initial=0.0) <= 1e-12 * scale


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_vertices=st.integers(2, 5),
    n_edges=st.integers(0, 7),
    self_loops=st.booleans(),
)
def test_block_wise_operator_matches_the_dense_formulas(seed, n_vertices, n_edges, self_loops):
    # Mixed stalk dimensions 1 to 3, random SPD Grams, and possibly self-loops.
    sheaf = random_sheaf(
        np.random.default_rng(seed), n_vertices, n_edges, allow_self_loops=self_loops
    )
    op = build_coboundary(sheaf)
    B, M1, M2 = op.B, op.M1, op.M2
    # the spectrum and both null bases first: they read the per-block
    # factors, and the dense L1 and delta* are assembled only when read
    rank, spectrum = op.rank(), op.singular_values()
    sections, harm = global_section_basis(op), harmonic_basis(op)
    assert not {"L1", "delta_star_matrix"} & set(op.__dict__)
    assert _close(op.L1 @ op.L1.T, M1)
    assert _close(op.delta_star_matrix, np.linalg.solve(M1, B.T @ M2))
    L2 = np.linalg.cholesky(M2)
    white = L2.T @ np.linalg.solve(op.L1, B.T).T
    assert _close(op._whitened, white)
    s = np.linalg.svd(white, compute_uv=False)
    assert _close(spectrum, s)
    assert rank == (int(np.count_nonzero(s > RANK_TOL * s[0])) if s.size and s[0] else 0)
    assert sections.shape[1] == op.d0 - rank
    assert harm.shape[1] == op.d1 - rank


def loop_form_coboundary(sheaf):
    """B, M1 and M2 filled one slice assignment per edge and per vertex, and
    M2's bands read off its dense diagonals."""
    ends = np.cumsum(sheaf.vertex_stalk_dims)
    at = [slice(end - d, end) for end, d in zip(ends, sheaf.vertex_stalk_dims)]
    B = np.zeros((sheaf.d1, sheaf.d0))
    for e, (tail, head) in enumerate(sheaf.graph.edges):
        rows = sheaf.edge_slices[e]
        B[rows, at[head]] += sheaf.head_maps[e]
        B[rows, at[tail]] -= sheaf.tail_maps[e]
    M1 = np.zeros((sheaf.d0, sheaf.d0))
    for v, g in enumerate(sheaf.vertex_grams):
        M1[at[v], at[v]] = g
    M2 = np.zeros((sheaf.d1, sheaf.d1))
    for sl, g in zip(sheaf.edge_slices, sheaf.edge_grams):
        M2[sl, sl] = g
    width = max(sheaf.edge_stalk_dims, default=0)
    offsets = [0] + [k for k in range(1 - width, width) if k and np.diagonal(M2, k).any()]
    bands = tuple((k, np.diagonal(M2, k).copy()) for k in offsets)
    if offsets == [0] and (bands[0][1] == 1.0).all():
        bands = ()
    return B, M1, M2, bands


def loop_form_whitened(op, B):
    """L2^T B L1^{-T} by the operator's per-block products, with every block of
    B gathered from ``B``."""
    white = np.zeros((op.d1, op.d0))
    for _, _, er, _, vr, vc in op.sheaf._operator_blocks[1]:
        l2 = op._l2[er, np.arange(er.shape[1])]
        lb_t = (l2.swapaxes(1, 2) @ B[er, vc]).swapaxes(1, 2)
        l1 = op._l1[vr, np.arange(vr.shape[1])]
        white[er, vc] = np.linalg.solve(l1, lb_t).swapaxes(1, 2)
    return white


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_vertices=st.integers(1, 4),
    n_edges=st.integers(0, 7),
    weighted=st.booleans(),
)
def test_block_fill_equals_the_per_edge_loop_bit_for_bit(seed, n_vertices, n_edges, weighted):
    # self-loops accumulate both maps into one block, and a -0.0 map entry
    # becomes +0.0 (0.0 + -0.0), which a bare copy would not give
    rng = np.random.default_rng(seed)
    base = random_sheaf(rng, n_vertices, n_edges, weighted=weighted, allow_self_loops=True)

    def signed_zeros(m):
        return np.where(rng.random(m.shape) < 0.5, rng.choice([0.0, -0.0], m.shape), m)

    sheaf = Sheaf(
        base.graph,
        base.vertex_stalk_dims,
        base.edge_stalk_dims,
        [signed_zeros(m) for m in base.head_maps],
        [signed_zeros(m) for m in base.tail_maps],
        base.vertex_grams,
        base.edge_grams,
    )
    op = build_coboundary(sheaf)
    B, M1, M2, bands = loop_form_coboundary(sheaf)
    # the spectrum comes from B's block stacks, before any dense matrix exists
    white = loop_form_whitened(op, B)
    assert op._whitened.tobytes() == white.tobytes()
    spectrum = np.linalg.svd(white, compute_uv=False)
    assert op.singular_values().tobytes() == spectrum.tobytes()
    assert not {"B", "M1"} & set(op.__dict__) and "M2" not in sheaf.__dict__
    assert op.B.tobytes() == B.tobytes() and op.M1.tobytes() == M1.tobytes()
    assert op.M2 is sheaf.M2 and sheaf.M2.tobytes() == M2.tobytes()
    assert len(sheaf._gram_bands) == len(bands)
    for (k, band), (k_want, want) in zip(sheaf._gram_bands, bands):
        assert k == k_want and band.tobytes() == want.tobytes()


def test_a_gram_that_is_not_positive_definite_fails_its_cholesky_factor(mixed_sheaf):
    # the operator factors the sheaf's own Grams, so that is where a non-PD
    # one (here slipped past the Sheaf's check) is refused
    negated = copy.copy(mixed_sheaf)
    negated.vertex_grams = tuple(-g for g in mixed_sheaf.vertex_grams)
    with pytest.raises(StructuralError, match="M1 is not positive definite"):
        CoboundaryOperator(negated)


def test_vanishing_cohomology_computes_no_singular_vectors():
    op = build_coboundary(make_cycle_sheaf(9, "rotated"))
    sections, harm = global_section_basis(op), harmonic_basis(op)
    assert sections.shape == (op.d0, 0) and harm.shape == (op.d1, 0)
    assert op.singular_values().size == op.d0
    assert "_spectrum" in op.__dict__ and "_svd" not in op.__dict__
    # the pseudoinverse needs the vectors, and the limit of the flow is B^{-1} b
    b = np.random.default_rng(3).standard_normal(op.d1)
    got = equilibrium_projection(op, b, np.zeros(op.d0))
    assert "_svd" in op.__dict__
    assert _close(got, np.linalg.solve(op.B, b))


def test_the_projections_apply_the_grams_block_by_block():
    # no dense M1 or M2 is assembled for one product
    op = build_coboundary(make_cycle_sheaf(9, "rotated"))
    equilibrium_projection(op, np.ones(op.d1), np.ones(op.d0))
    assert "M1" not in op.__dict__
    op = build_coboundary(make_cycle_sheaf(3, "identity"))
    ray = experiments._limited_ray(op, np.random.default_rng(0))
    assert "M1" not in op.__dict__
    assert np.abs(global_section_basis(op).T @ ray).max() <= 1e-12
    hodge_project(op, harmonic_basis(op), np.ones(op.d1))
    assert "M2" not in op.sheaf.__dict__
    # on weighted Grams, the dense formulas up to rounding
    rng = np.random.default_rng(31)
    for _ in range(5):
        op = build_coboundary(random_sheaf(rng))
        sections, harm = global_section_basis(op), harmonic_basis(op)
        x, y = rng.standard_normal(op.d0), rng.standard_normal(op.d1)
        want = sections @ (sections.T @ (op.M1 @ x))
        assert np.allclose(section_part(op, x), want, rtol=0.0, atol=1e-12)
        want = harm @ (harm.T @ (op.M2 @ y))
        assert np.allclose(hodge_project(op, harm, y)[1], want, rtol=0.0, atol=1e-12)
    for bad in (np.ones((2, op.d0)), np.ones(op.d0 + 1)):
        with pytest.raises(StructuralError, match="0-cochain has shape"):
            section_part(op, bad)
    with pytest.raises(StructuralError, match="1-cochain has shape"):
        hodge_project(op, harm, np.ones((op.d1 + 1, op.d1)))


def test_null_bases_on_the_identity_cycle_are_orthonormal_kernels():
    op = build_coboundary(make_cycle_sheaf(9, "identity"))
    sections, harm = global_section_basis(op), harmonic_basis(op)
    assert (sections.shape[1], harm.shape[1]) == (2, 2)
    assert np.allclose(sections.T @ op.M1 @ sections, np.eye(2), atol=1e-12)
    assert np.allclose(harm.T @ op.M2 @ harm, np.eye(2), atol=1e-12)
    assert np.abs(op.B @ sections).max() <= 1e-12
    assert np.abs(op.delta_star_matrix @ harm).max() <= 1e-12
    # Identity Grams: the limit is pinv(B) b plus the Euclidean projection of
    # the rest of x0 onto ker B.
    rng = np.random.default_rng(5)
    b, x0 = rng.standard_normal(op.d1), rng.standard_normal(op.d0)
    pinv = np.linalg.pinv(op.B)
    xb = pinv @ b
    want = xb + (np.eye(op.d0) - pinv @ op.B) @ (x0 - xb)
    assert _close(equilibrium_projection(op, b, x0), want)


@pytest.mark.parametrize("edges", [[1], ["tail"], [[0, 1]], 5])
def test_sheaf_from_dict_rejects_edges_that_are_not_objects(edges):
    with pytest.raises(StructuralError, match="edges"):
        sheaf_from_dict({"vertex_count": 2, "vertex_stalk_dims": [2, 2], "edges": edges})


def _one_edge_description(**edge):
    entry = {"tail": 0, "head": 1, "stalk_dim": 2,
             "head_map": [[1.0, 0.0], [0.0, 1.0]], "tail_map": [[1.0, 0.0], [0.0, 1.0]]}
    entry.update(edge)
    return {"vertex_count": 2, "vertex_stalk_dims": [2, 2], "edges": [entry]}


@pytest.mark.parametrize(
    "field, value, key",
    [
        ("vertex_count", "a", "vertex_count"),
        ("vertex_count", 2.0, "vertex_count"),
        ("vertex_stalk_dims", [2, "2"], r"vertex_stalk_dims\[1\]"),
        ("vertex_stalk_dims", 2, "vertex_stalk_dims"),
        ("vertex_grams", [[[1.0, 0.0], [0.0, 1.0]], "I"], r"vertex_grams\[1\]"),
        ("tail", 0.5, "edge 0 tail"),
        ("head", True, "edge 0 head"),
        ("stalk_dim", "2", "edge 0 stalk_dim"),
        ("stalk_dim", -1, "edge 0 stalk_dim"),
        ("head_map", "x", "edge 0 head_map"),
        ("head_map", [[1.0, 0.0], [0.0]], "edge 0 head_map"),
        ("tail_map", [[1.0, "0"], [0.0, 1.0]], "edge 0 tail_map"),
        ("tail_map", [], "edge 0 tail_map"),
        ("gram", [[1.0, 0.0], [0.0, float("nan")]], "edge 0 gram"),
        ("gram", None, "edge 0 gram"),
    ],
)
def test_sheaf_from_dict_rejects_malformed_fields(field, value, key):
    if field in ("vertex_count", "vertex_stalk_dims", "vertex_grams"):
        data = {**_one_edge_description(), field: value}
    else:
        data = _one_edge_description(**{field: value})
    with pytest.raises(StructuralError, match=key):
        sheaf_from_dict(data)


def test_sheaf_from_dict_reads_integers_and_rectangular_maps():
    sheaf = sheaf_from_dict(_one_edge_description(gram=[[2.0, 0.5], [0.5, 1]]))
    assert sheaf.graph.edges == ((0, 1),)
    assert sheaf.edge_grams[0].dtype == float
    assert np.array_equal(sheaf.edge_grams[0], [[2.0, 0.5], [0.5, 1.0]])
