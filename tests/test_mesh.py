import math

import numpy as np
import pytest

from smmn import mesh
from smmn.errors import ConfigurationError, InvariantError, UsageError

import oracles


def check_invariants(m):
    assert np.abs(np.linalg.norm(m.vertices, axis=1) - 1.0).max() < 1e-9
    counts = np.bincount(m.facet_edges.reshape(-1), minlength=m.num_edges)
    assert np.all(counts == 2), "closed 2-manifold"
    assert m.num_vertices - m.num_edges + m.num_facets == 2
    centroids = m.vertices[m.facets].mean(axis=1)
    assert np.all(np.einsum("ij,ij->i", m.facet_normals, centroids) > 0)


def test_icosahedron_counts():
    m = mesh.icosphere(0)
    assert (m.num_vertices, m.num_facets, m.num_edges) == (12, 20, 30)


def test_order6_vertex_count():
    assert mesh.icosphere(6).num_vertices == 40962


def test_order2_vertex_count():
    # 10 * 4^n + 2, cross-checked by explicit double subdivision
    m2 = mesh.subdivide(mesh.subdivide(mesh.icosphere(0)))
    assert m2.num_vertices == 162
    assert mesh.icosphere(2).num_vertices == 10 * 4**2 + 2


@pytest.mark.parametrize("order", range(0, 5))
def test_icosphere_invariants(order):
    m = mesh.icosphere(order)
    assert m.num_vertices == 10 * 4**order + 2
    check_invariants(m)


def test_icosphere_order_guard():
    with pytest.raises(ConfigurationError):
        mesh.icosphere(9)
    with pytest.raises(ConfigurationError):
        mesh.icosphere(-1)


def test_vertex_ordering_is_nested():
    coarse = mesh.icosphere(2)
    fine = mesh.icosphere(3)
    np.testing.assert_array_equal(
        fine.vertices[: coarse.num_vertices], coarse.vertices
    )
    # midpoints follow in ascending (min, max) edge order
    mids = mesh._normalize_rows(
        coarse.vertices[coarse.edges[:, 0]] + coarse.vertices[coarse.edges[:, 1]]
    )
    np.testing.assert_array_equal(fine.vertices[coarse.num_vertices :], mids)


def test_subdivide_facet_count_quadruples():
    m = mesh.icosphere(1)
    assert mesh.subdivide(m).num_facets == 4 * m.num_facets


def test_subdivide_icosahedron_counts():
    m = mesh.subdivide(mesh.icosphere(0))
    assert m.num_vertices == 42  # 12 + 30 edge midpoints
    assert m.num_facets == 80
    check_invariants(m)


def test_subdivide_rejects_non_manifold():
    verts = mesh.icosphere(0).vertices
    open_facets = mesh.icosphere(0).facets[:-1]  # drop one facet
    broken = mesh.TriMesh(verts, open_facets, validate=False)
    with pytest.raises(InvariantError):
        mesh.subdivide(broken)


def test_validate_rejects_off_sphere_vertices():
    m = mesh.icosphere(0)
    verts = m.vertices.copy()
    verts[3] *= 1.001
    with pytest.raises(InvariantError):
        mesh.TriMesh(verts, m.facets)


def test_validate_rejects_bad_winding():
    m = mesh.icosphere(0)
    facets = m.facets.copy()
    facets[0] = facets[0][::-1]
    with pytest.raises(InvariantError):
        mesh.TriMesh(m.vertices, facets)


# -- padded neighbourhood tables ---------------------------------------------


@pytest.mark.parametrize("m", [mesh.icosphere(1), oracles.random_hull_mesh(40, 4)],
                         ids=["icosphere1", "hull40"])
def test_one_ring_rows_are_incident_corners_ascending(m):
    ring = m.one_ring
    degrees = np.bincount(m.facets.reshape(-1), minlength=m.num_vertices)
    assert ring.shape == (m.num_vertices, degrees.max())
    for v in range(m.num_vertices):
        corners = [3 * f + j for f in range(m.num_facets) for j in range(3)
                   if m.facets[f, j] == v]
        pad = [-1] * (ring.shape[1] - len(corners))
        np.testing.assert_array_equal(ring[v], corners + pad)
        np.testing.assert_array_equal(m.vertex_facets(v), np.array(corners) // 3)


def test_padded_groups_table():
    table = mesh.padded_groups([2, 0, 2, 2, 0], 4)
    np.testing.assert_array_equal(table, [[1, 4, -1], [-1, -1, -1], [0, 2, 3],
                                          [-1, -1, -1]])
    assert mesh.padded_groups([], 2).shape == (2, 0)
    groups = mesh.scatter_matrix([2, 0, 2, 2, 0], 4)
    np.testing.assert_array_equal(groups.toarray(), [[0, 1, 0, 0, 1], [0] * 5,
                                                     [1, 0, 1, 1, 0], [0] * 5])
    np.testing.assert_array_equal(groups.indices, [2, 0, 2, 2, 0])
    assert groups.indices.dtype == groups.indptr.dtype == np.int32
    # a negative key leaves its column empty
    np.testing.assert_array_equal(mesh.scatter_matrix([1, -1, 0], 2).toarray(),
                                  [[0, 0, 1], [1, 0, 0]])


def test_edge_facets_are_the_two_facets_on_each_edge():
    m = oracles.random_hull_mesh(40, 4)
    for e, (a, b) in enumerate(m.edges):
        on_edge = [f for f in range(m.num_facets) if {a, b} <= set(m.facets[f])]
        np.testing.assert_array_equal(m.edge_facets[e], on_edge)


# -- hierarchy ---------------------------------------------------------------


def test_identity_vertices_self_map():
    h = mesh.build_hierarchy(1)
    cl = h.clustering(1)
    np.testing.assert_array_equal(cl.parent[:12], np.arange(12))
    assert cl.parent[0] == 0


def test_clustering_total_and_surjective():
    h = mesh.build_hierarchy(2)
    for fine_order in (1, 2):
        cl = h.clustering(fine_order)
        assert len(cl.parent) == 10 * 4**fine_order + 2
        assert cl.num_coarse == 10 * 4 ** (fine_order - 1) + 2
        sizes = (cl.table >= 0).sum(axis=1)
        assert np.all(sizes >= 1), "every cluster non-empty"
        assert sizes.sum() == cl.num_fine


def test_midpoint_tie_breaks_to_lower_endpoint():
    coarse = mesh.icosphere(0)
    fine = mesh.icosphere(1)
    h = mesh.build_hierarchy(4)
    cl = h.clustering(1)
    for eidx in range(coarse.num_edges):
        v = 12 + eidx
        a, b = coarse.edges[eidx]
        d_a = np.linalg.norm(fine.vertices[v] - coarse.vertices[a])
        d_b = np.linalg.norm(fine.vertices[v] - coarse.vertices[b])
        assert abs(d_a - d_b) < 1e-12, "midpoint is numerically equidistant"
        assert cl.parent[v] == min(a, b)
    # brute-force nearest coarse vertex, ties to the lowest index
    for fine_order in range(1, 5):
        fine_v = h.mesh(fine_order).vertices
        coarse_v = h.mesh(fine_order - 1).vertices
        dist = np.linalg.norm(fine_v[:, None, :] - coarse_v[None, :, :], axis=2)
        nearest = np.argmax(dist <= dist.min(axis=1, keepdims=True) + 1e-12, axis=1)
        np.testing.assert_array_equal(h.clustering(fine_order).parent, nearest)


def test_cluster_maps_deterministic():
    a = mesh.build_hierarchy(2)
    b = mesh.build_hierarchy(2)
    for k in (1, 2):
        np.testing.assert_array_equal(a.clustering(k).parent, b.clustering(k).parent)
        np.testing.assert_array_equal(a.clustering(k).table, b.clustering(k).table)


def test_members_grouped_and_sorted():
    cl = mesh.build_hierarchy(1).clustering(1)
    for c in range(cl.num_coarse):
        members = cl.members(c)
        assert np.all(np.diff(members) > 0)
        assert c in members  # identity vertex inside its own cluster
        np.testing.assert_array_equal(cl.parent[members], c)


# -- facet geometry ----------------------------------------------------------


def test_theta_zero_when_normal_parallel():
    # synthetic check through the public API: every icosahedron facet
    # normal makes the same angle with each of its corner directions.
    m = mesh.icosphere(0)
    theta, _ = mesh.facet_geometry(m, int(m.facets[0][0]), 0)
    assert 0.0 <= theta <= math.pi


def test_icosahedron_thetas_equal_by_symmetry():
    m = mesh.icosphere(0)
    for v in (0, 5, 11):
        thetas = [mesh.facet_geometry(m, v, int(f))[0] for f in m.vertex_facets(v)]
        assert max(thetas) - min(thetas) < 1e-9


def test_icosahedron_phis_follow_winding():
    m = mesh.icosphere(0)
    v = 0
    facets = m.vertex_facets(v)
    phis = np.array([mesh.facet_geometry(m, v, int(f))[1] for f in facets])
    assert len(np.unique(np.round(phis, 9))) == len(facets)
    # walking facets in phi order must traverse edge-adjacent facets
    ring = [int(f) for f in facets[np.argsort(phis)]]
    for fa, fb in zip(ring, ring[1:] + ring[:1]):
        shared = set(m.facets[fa]) & set(m.facets[fb])
        assert len(shared) == 2 and v in shared


def test_facet_geometry_ranges():
    m = mesh.icosphere(2)
    theta, phi = mesh.incidence_angles(m)
    assert np.all((theta >= 0.0) & (theta <= math.pi))
    assert np.all((phi >= 0.0) & (phi < 2.0 * math.pi))


def test_facet_geometry_requires_incidence():
    m = mesh.icosphere(0)
    non_incident = next(
        f for f in range(m.num_facets) if 0 not in set(m.facets[f])
    )
    with pytest.raises(UsageError):
        mesh.facet_geometry(m, 0, non_incident)


def test_facet_geometry_rotation_invariance():
    rng = np.random.default_rng(3)
    m = mesh.icosphere(1)
    # random rotation via QR
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    rotated = mesh.TriMesh(m.vertices @ q.T, m.facets)
    theta0, phi0 = mesh.incidence_angles(m)
    north = q @ np.array([0.0, 0.0, 1.0])
    east = q @ np.array([1.0, 0.0, 0.0])
    theta1, phi1 = mesh.incidence_angles(rotated, north=north, east=east)
    np.testing.assert_allclose(theta0, theta1, atol=1e-7)
    dphi = np.abs(phi0 - phi1)
    np.testing.assert_allclose(
        np.minimum(dphi, 2.0 * math.pi - dphi), 0.0, atol=1e-7
    )


def test_pole_vertices_use_fallback_axis():
    # poles appear at order >= 1 on this icosahedron layout; the frame
    # must stay finite and orthonormal everywhere.
    m = mesh.icosphere(2)
    e1, e2 = mesh.local_frames(m.vertices)
    assert np.all(np.isfinite(e1)) and np.all(np.isfinite(e2))
    np.testing.assert_allclose(np.linalg.norm(e1, axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(
        np.einsum("ij,ij->i", e1, m.vertices), 0.0, atol=1e-12
    )


# -- resampling --------------------------------------------------------------


def test_self_resampling_is_identity():
    m = mesh.icosphere(2)
    values = np.random.default_rng(0).standard_normal(m.num_vertices)
    np.testing.assert_array_equal(mesh.resample_barycentric(m, values, m), values)


def test_coincident_vertex_copies_exactly():
    src = mesh.icosphere(1)
    dst = mesh.icosphere(2)  # first 42 vertices coincide with src
    values = np.random.default_rng(1).standard_normal(src.num_vertices)
    out = mesh.resample_barycentric(src, values, dst)
    np.testing.assert_array_equal(out[: src.num_vertices], values)


def test_edge_midpoint_gets_mean():
    src = mesh.icosphere(0)
    dst = mesh.icosphere(1)
    values = np.arange(12.0)
    out = mesh.resample_barycentric(src, values, dst)
    for eidx in range(src.num_edges):
        a, b = src.edges[eidx]
        assert out[12 + eidx] == pytest.approx((values[a] + values[b]) / 2, abs=1e-12)


def test_constant_field_preserved():
    src = mesh.icosphere(1)
    dst = mesh.icosphere(3)
    out = mesh.resample_barycentric(src, np.full(src.num_vertices, 2.75), dst)
    np.testing.assert_allclose(out, 2.75, atol=1e-12)


def test_resampling_is_linear():
    rng = np.random.default_rng(2)
    src, dst = mesh.icosphere(1), mesh.icosphere(2)
    x = rng.standard_normal(src.num_vertices)
    y = rng.standard_normal(src.num_vertices)
    alpha, beta = 1.7, -0.4
    lhs = mesh.resample_barycentric(src, alpha * x + beta * y, dst)
    rhs = alpha * mesh.resample_barycentric(src, x, dst) + beta * mesh.resample_barycentric(src, y, dst)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_resample_channel_stack():
    src, dst = mesh.icosphere(1), mesh.icosphere(2)
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((3, src.num_vertices))
    out = mesh.resample_barycentric(src, stack, dst)
    assert out.shape == (3, dst.num_vertices)
    for c in range(3):
        np.testing.assert_array_equal(
            out[c], mesh.resample_barycentric(src, stack[c], dst)
        )


def test_resample_wrong_length_rejected():
    src, dst = mesh.icosphere(1), mesh.icosphere(2)
    with pytest.raises(UsageError):
        mesh.resample_barycentric(src, np.zeros(7), dst)


# -- label resampling --------------------------------------------------------


def test_labels_coincident_vertices_keep_label():
    src, dst = mesh.icosphere(1), mesh.icosphere(2)
    rng = np.random.default_rng(4)
    labels = mesh.AtlasLabels(rng.integers(1, 6, src.num_vertices))
    out = mesh.resample_labels(src, labels, dst)
    np.testing.assert_array_equal(out.labels[: src.num_vertices], labels.labels)


def test_single_label_atlas_stays_single():
    src, dst = mesh.icosphere(0), mesh.icosphere(2)
    labels = mesh.AtlasLabels(np.full(12, 7))
    out = mesh.resample_labels(src, labels, dst)
    assert set(np.unique(out.labels)) == {7}
    assert out.names[7] == "roi_7"


def test_label_follows_max_weight():
    # a point placed clearly nearest one corner must take its label
    src = mesh.icosphere(0)
    labels = np.zeros(12, dtype=int)
    labels[src.facets[0]] = [5, 5, 9]
    atlas = mesh.AtlasLabels(labels)
    a, b, c = src.facets[0]
    probe = mesh._normalize_rows(
        (0.5 * src.vertices[a] + 0.3 * src.vertices[b] + 0.2 * src.vertices[c])[None]
    )
    facet_id = mesh.locate_facets(src, probe)[0]
    w = mesh._barycentric_in_facets(src, probe, np.array([facet_id]))[0]
    assert w[np.where(src.facets[facet_id] == a)[0][0]] == max(w)
    dst = mesh.TriMesh(
        np.vstack([src.vertices, probe]),
        src.facets,  # facets unused for labels beyond location
        validate=False,
    )
    out_labels = mesh.resample_labels(src, atlas, dst)
    assert out_labels.labels[-1] == 5


def test_label_tie_breaks_to_lowest_vertex_index():
    src = mesh.icosphere(0)
    dst = mesh.icosphere(1)
    labels = mesh.AtlasLabels(np.arange(12))
    out = mesh.resample_labels(src, labels, dst)
    for eidx in range(src.num_edges):
        a, b = src.edges[eidx]  # weights 1/2, 1/2 at the midpoint
        assert out.labels[12 + eidx] == min(a, b)


def test_atlas_roi_queries():
    atlas = mesh.AtlasLabels(np.array([0, 1, 1, 2]), names={1: "front"})
    assert atlas.roi_ids() == [1, 2]
    np.testing.assert_array_equal(atlas.roi_vertices(1), [1, 2])
    assert atlas.names[1] == "front"
    assert atlas.names[2] == "roi_2"
    assert atlas.names[0] == "unknown"


def test_atlas_requires_known_hemisphere():
    with pytest.raises(UsageError):
        mesh.AtlasLabels(np.zeros(4, dtype=int), hemisphere="middle")
