"""Coboundary assembly, adjoints, Hodge decomposition, and the file format."""

import json

import numpy as np
import pytest
from conftest import random_sheaf

from sheaf_sysid import (
    DirectedGraph,
    Sheaf,
    StructuralError,
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
    save_sheaf,
    sheaf_from_dict,
    sheaf_to_dict,
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
    assert harmonic_basis(identity_cycle[1]).dim_h1 == 2
    assert harmonic_basis(rotated_cycle[1]).dim_h1 == 0


def test_path_graph_has_no_harmonic_space():
    op = build_coboundary(two_vertex_sheaf())
    assert harmonic_basis(op).dim_h1 == 0


def test_harmonic_basis_is_m2_orthonormal_and_invisible():
    rng = np.random.default_rng(11)
    for _ in range(20):
        op = build_coboundary(random_sheaf(rng, n_vertices=3, n_edges=5))
        harm = harmonic_basis(op)
        gram = harm.basis.T @ op.M2 @ harm.basis
        assert np.allclose(gram, np.eye(harm.dim_h1), atol=1e-10)
        for col in harm.basis.T:
            assert np.linalg.norm(op.B.T @ op.M2 @ col) <= 1e-10


def test_global_sections_on_cycles(identity_cycle, rotated_cycle):
    assert global_section_basis(identity_cycle[1]).dim_h0 == 2
    assert global_section_basis(rotated_cycle[1]).dim_h0 == 0


def test_global_sections_of_edgeless_graph():
    graph = DirectedGraph(vertex_count=2, edges=())
    sheaf = Sheaf(graph, [2, 2], [], head_maps=[], tail_maps=[])
    op = build_coboundary(sheaf)
    assert global_section_basis(op).dim_h0 == 4
    assert harmonic_basis(op).dim_h1 == 0


def test_hodge_completeness_on_random_sheaves():
    rng = np.random.default_rng(13)
    for _ in range(20):
        op = build_coboundary(random_sheaf(rng))
        rank = op.rank()
        assert rank + harmonic_basis(op).dim_h1 == op.d1
        assert global_section_basis(op).dim_h0 + rank == op.d0


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
        if harm.dim_h1:
            z = harm.basis[:, 0]
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


def test_pseudoinverse_recovers_orthogonal_preimage():
    rng = np.random.default_rng(19)
    for _ in range(10):
        op = build_coboundary(random_sheaf(rng))
        sections = global_section_basis(op)
        x = rng.standard_normal(op.d0)
        x -= sections.basis @ (sections.basis.T @ (op.M1 @ x))  # x in (ker delta)^perp
        b = apply_delta(op, x)
        assert np.allclose(delta_pseudoinverse_apply(op, b), x, atol=1e-8)


def test_pseudoinverse_kills_harmonic_part():
    rng = np.random.default_rng(23)
    op = build_coboundary(random_sheaf(rng, n_vertices=3, n_edges=5))
    harm = harmonic_basis(op)
    if harm.dim_h1 == 0:
        pytest.skip("sampled sheaf happens to have trivial harmonic space")
    z = harm.basis @ rng.standard_normal(harm.dim_h1)
    assert np.allclose(delta_pseudoinverse_apply(op, z), 0.0, atol=1e-10)


def test_pseudoinverse_range_is_m1_orthogonal_to_sections():
    rng = np.random.default_rng(29)
    for _ in range(10):
        op = build_coboundary(random_sheaf(rng))
        sections = global_section_basis(op)
        x = delta_pseudoinverse_apply(op, rng.standard_normal(op.d1))
        for col in sections.basis.T:
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


def test_edge_referencing_missing_vertex_raises():
    with pytest.raises(StructuralError):
        DirectedGraph(vertex_count=2, edges=((0, 2),))


# --- description files ------------------------------------------------------


def test_sheaf_file_roundtrip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(31)
    sheaf = random_sheaf(rng)
    path = tmp_path / "sheaf.json"
    save_sheaf(sheaf, path)
    reloaded = load_sheaf(path)
    path2 = tmp_path / "sheaf2.json"
    save_sheaf(reloaded, path2)
    assert path.read_bytes() == path2.read_bytes()
    for a, b in zip(sheaf.head_maps, reloaded.head_maps):
        assert np.array_equal(a, b)
    for a, b in zip(sheaf.vertex_grams, reloaded.vertex_grams):
        assert np.array_equal(a, b)


def test_sheaf_dict_omitted_grams_default_to_identity():
    data = {
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
    sheaf = sheaf_from_dict(data)
    assert np.array_equal(sheaf.edge_grams[0], np.eye(2))
    assert np.array_equal(sheaf.vertex_grams[1], np.eye(2))


def test_sheaf_dict_rejects_unknown_keys():
    data = sheaf_to_dict(two_vertex_sheaf())
    data["extra"] = 1
    with pytest.raises(StructuralError):
        sheaf_from_dict(data)


def test_malformed_sheaf_file_raises(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(StructuralError):
        load_sheaf(path)


def test_sheaf_to_dict_is_json_serializable(identity_cycle):
    sheaf, _ = identity_cycle
    json.dumps(sheaf_to_dict(sheaf))


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


def test_operator_shares_the_sheaf_edge_gram(mixed_sheaf):
    op = build_coboundary(mixed_sheaf)
    assert op.M2 is mixed_sheaf.M2
    assert not op.M2.flags.writeable


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
