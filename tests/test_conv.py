import math
import tracemalloc

from hypothesis import given, strategies as st
import numpy as np
import pytest

from smmn import conv, mesh, spharm
from smmn.errors import ShapeError

import oracles


# -- brute-force oracles, straight from the aggregation definitions ----------

V2F_ANGLES = [(math.pi / 2, 0.0), (math.pi / 2, math.pi / 2), (0.0, 0.0)]


def brute_vertex2facet(m, x, bank):
    out = np.zeros((bank.out_channels, m.num_facets))
    for f in range(m.num_facets):
        for j, (theta, phi) in enumerate(V2F_ANGLES):
            filt = spharm.filter_eval(bank, theta, phi)
            out[:, f] += filt @ x[:, m.facets[f, j]]
    return out


def brute_facet2vertex(m, h, bank):
    out = np.zeros((bank.out_channels, m.num_vertices))
    for v in range(m.num_vertices):
        incident = np.flatnonzero((m.facets == v).any(axis=1))
        for f in incident:
            theta, phi = mesh.facet_geometry(m, v, int(f))
            out[:, v] += spharm.filter_eval(bank, theta, phi) @ h[:, f]
        out[:, v] /= len(incident)
    return out


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(42)


@pytest.mark.parametrize("order", [0, 1])
def test_vertex2facet_matches_brute_force(order, rng):
    m = mesh.icosphere(order)
    bank = spharm.FilterBank.random(3, 2, 3, rng)
    x = conv.FeatureMap(rng.standard_normal((2, m.num_vertices)), level=order)
    fast = conv.vertex2facet(m, x, bank)
    slow = brute_vertex2facet(m, x.values, bank)
    assert np.abs(fast.values - slow).max() < 1e-12


@pytest.mark.parametrize("order", [0, 1])
def test_facet2vertex_matches_brute_force(order, rng):
    m = mesh.icosphere(order)
    bank = spharm.FilterBank.random(3, 3, 2, rng)
    h = conv.FacetFeatureMap(rng.standard_normal((3, m.num_facets)), level=order)
    fast = conv.facet2vertex(m, h, bank)
    slow = brute_facet2vertex(m, h.values, bank)
    assert np.abs(fast.values - slow).max() < 1e-12


@pytest.mark.parametrize("order", [0, 1])
def test_vertex2vertex_matches_brute_force(order, rng):
    m = mesh.icosphere(order)
    bank_vf = spharm.FilterBank.random(3, 2, 4, rng)
    bank_fv = spharm.FilterBank.random(3, 4, 2, rng)
    x = conv.FeatureMap(rng.standard_normal((2, m.num_vertices)), level=order)
    fast = conv.vertex2vertex(m, x, bank_vf, bank_fv, activation="linear")
    slow = brute_facet2vertex(m, brute_vertex2facet(m, x.values, bank_vf), bank_fv)
    assert np.abs(fast.values - slow).max() < 1e-12


@pytest.fixture(scope="module")
def hull():
    m = oracles.random_hull_mesh(40, 4)
    assert np.bincount(m.facets.reshape(-1)).max() > 6, "degrees beyond 6"
    return m


def test_operators_match_brute_force_on_irregular_mesh(hull, rng):
    bank_vf = spharm.FilterBank.random(3, 2, 4, rng)
    bank_fv = spharm.FilterBank.random(3, 4, 3, rng)
    x = rng.standard_normal((2, hull.num_vertices))
    h = rng.standard_normal((4, hull.num_facets))
    g = brute_vertex2facet(hull, x, bank_vf)
    fast_g = conv.vertex2facet(hull, conv.FeatureMap(x), bank_vf).values
    assert np.abs(fast_g - g).max() < 1e-12
    fast_v = conv.facet2vertex(hull, conv.FacetFeatureMap(h), bank_fv).values
    assert np.abs(fast_v - brute_facet2vertex(hull, h, bank_fv)).max() < 1e-12
    fast_vv = conv.vertex2vertex(hull, conv.FeatureMap(x), bank_vf, bank_fv,
                                 activation="linear").values
    assert np.abs(fast_vv - brute_facet2vertex(hull, g, bank_fv)).max() < 1e-12


def test_backward_cores_are_adjoints_on_irregular_mesh(hull, rng):
    # Both operators are bilinear in (features, coefficients): each
    # backward core must be the exact adjoint in both arguments.
    ctx = conv.conv_context(hull, 3)
    c_vf = rng.standard_normal((3, 2, 16))
    c_fv = rng.standard_normal((2, 3, 16))
    x = rng.standard_normal((2, 2, hull.num_vertices))
    h = rng.standard_normal((2, 3, hull.num_facets))
    y = rng.standard_normal((2, 3, hull.num_facets))
    z = rng.standard_normal((2, 2, hull.num_vertices))

    ax = conv.v2f_forward_core(ctx, x, c_vf)
    gx, gc = conv.v2f_backward_core(ctx, c_vf, x, y)
    assert np.sum(ax * y) == pytest.approx(np.sum(x * gx), rel=1e-12)
    assert np.sum(ax * y) == pytest.approx(np.sum(c_vf * gc), rel=1e-12)

    bh = conv.f2v_forward_core(ctx, h, c_fv)
    gh, gc = conv.f2v_backward_core(ctx, c_fv, h, z)
    assert np.sum(bh * z) == pytest.approx(np.sum(h * gh), rel=1e-12)
    assert np.sum(bh * z) == pytest.approx(np.sum(c_fv * gc), rel=1e-12)


def test_constant_filter_constant_field_gives_three(rng):
    m = mesh.icosphere(0)
    bank = spharm.FilterBank.constant(1.0)
    x = conv.FeatureMap(np.ones((1, m.num_vertices)), level=0)
    out = conv.vertex2facet(m, x, bank)
    np.testing.assert_allclose(out.values, 3.0, atol=1e-12)


def test_zero_input_zero_output(rng):
    m = mesh.icosphere(1)
    bank = spharm.FilterBank.random(3, 2, 3, rng)
    x = conv.FeatureMap(np.zeros((2, m.num_vertices)), level=1)
    assert np.all(conv.vertex2facet(m, x, bank).values == 0.0)


def test_one_hot_vertex_touches_exactly_incident_facets(rng):
    m = mesh.icosphere(0)
    bank = spharm.FilterBank.random(3, 1, 1, rng)
    for v in (0, 7):
        x = np.zeros((1, m.num_vertices))
        x[0, v] = 1.0
        out = conv.vertex2facet(m, conv.FeatureMap(x, level=0), bank)
        nonzero = set(np.flatnonzero(np.abs(out.values[0]) > 1e-15))
        incident = set(int(f) for f in m.vertex_facets(v))
        assert nonzero == incident
        assert len(incident) == 5


def test_facet2vertex_constant_filter_mean(rng):
    m = mesh.icosphere(0)
    bank = spharm.FilterBank.constant(1.0)
    h = np.zeros((1, m.num_facets))
    v = 4
    incident = m.vertex_facets(v)
    h[0, incident] = [1.0, 2.0, 3.0, 4.0, 5.0]
    out = conv.facet2vertex(m, conv.FacetFeatureMap(h, level=0), bank)
    assert out.values[0, v] == pytest.approx(3.0, abs=1e-12)


def test_facet2vertex_constant_field(rng):
    m = mesh.icosphere(1)
    bank = spharm.FilterBank.constant(1.0)
    h = conv.FacetFeatureMap(np.full((1, m.num_facets), 0.7), level=1)
    np.testing.assert_allclose(
        conv.facet2vertex(m, h, bank).values, 0.7, atol=1e-12
    )


def test_vertex2vertex_constant_chain(rng):
    # F == 1 banks, constant input c, zero bias, linear activation -> 3c
    m = mesh.icosphere(1)
    one = spharm.FilterBank.constant(1.0)
    c = -1.3
    x = conv.FeatureMap(np.full((1, m.num_vertices), c), level=1)
    out = conv.vertex2vertex(m, x, one, one, activation="linear")
    np.testing.assert_allclose(out.values, 3.0 * c, atol=1e-11)


def test_linearity_in_features(rng):
    m = mesh.icosphere(1)
    bank = spharm.FilterBank.random(3, 2, 3, rng)
    x = rng.standard_normal((2, m.num_vertices))
    y = rng.standard_normal((2, m.num_vertices))
    a, b = 0.6, -2.2
    lhs = conv.vertex2facet(m, conv.FeatureMap(a * x + b * y, level=1), bank).values
    rhs = (
        a * conv.vertex2facet(m, conv.FeatureMap(x, level=1), bank).values
        + b * conv.vertex2facet(m, conv.FeatureMap(y, level=1), bank).values
    )
    assert np.abs(lhs - rhs).max() < 1e-12


def test_linearity_in_coefficients(rng):
    m = mesh.icosphere(1)
    h = conv.FacetFeatureMap(rng.standard_normal((2, m.num_facets)), level=1)
    c1 = spharm.FilterBank.random(3, 2, 2, rng)
    c2 = spharm.FilterBank.random(3, 2, 2, rng)
    a, b = 1.1, 0.4
    mixed = spharm.FilterBank(3, 2, 2, a * c1.coeffs + b * c2.coeffs)
    lhs = conv.facet2vertex(m, h, mixed).values
    rhs = a * conv.facet2vertex(m, h, c1).values + b * conv.facet2vertex(m, h, c2).values
    assert np.abs(lhs - rhs).max() < 1e-12


def test_channel_mismatch_raises(rng):
    m = mesh.icosphere(0)
    bank = spharm.FilterBank.random(3, 2, 3, rng)
    x = conv.FeatureMap(np.zeros((3, m.num_vertices)), level=0)
    with pytest.raises(ShapeError):
        conv.vertex2facet(m, x, bank)
    bank_fv = spharm.FilterBank.random(3, 4, 2, rng)
    with pytest.raises(ShapeError):
        conv.vertex2vertex(m, x, spharm.FilterBank.random(3, 3, 3, rng), bank_fv)
    x2 = conv.FeatureMap(np.zeros((2, m.num_vertices)), level=0)
    with pytest.raises(ShapeError):  # one block runs at one filter degree
        conv.vertex2vertex(m, x2, spharm.FilterBank.random(1, 2, 4, rng), bank_fv)


@pytest.mark.parametrize("bias", [np.zeros(2), np.zeros((3, 1)), np.zeros(4),
                                  np.array([0.0, np.nan, 0.0])])
def test_vertex2vertex_bias_must_be_finite_per_output_channel(bias, rng):
    m = mesh.icosphere(0)
    x = conv.FeatureMap(rng.standard_normal((2, m.num_vertices)), level=0)
    bank_vf = spharm.FilterBank.random(3, 2, 4, rng)
    bank_fv = spharm.FilterBank.random(3, 4, 3, rng)
    with pytest.raises(ShapeError, match=r"\(3,\)"):
        conv.vertex2vertex(m, x, bank_vf, bank_fv, bias=bias)


def test_determinism(rng):
    m = mesh.icosphere(1)
    bank = spharm.FilterBank.random(3, 2, 2, rng)
    x = conv.FeatureMap(rng.standard_normal((2, m.num_vertices)), level=1)
    a = conv.vertex2facet(m, x, bank).values
    b = conv.vertex2facet(m, x, bank).values
    np.testing.assert_array_equal(a, b)


# -- adjoint and gradient checks ----------------------------------------------


def test_vertex2facet_adjoint(rng):
    m = mesh.icosphere(1)
    ctx = conv.conv_context(m, 3)
    coeffs = rng.standard_normal((3, 2, 16))
    x = rng.standard_normal((1, 2, m.num_vertices))
    y = rng.standard_normal((1, 3, m.num_facets))
    ax = conv.v2f_forward_core(ctx, x, coeffs)
    aty, _ = conv.v2f_backward_core(ctx, coeffs, x, y)
    assert abs(np.sum(ax * y) - np.sum(x * aty)) < 1e-10


def test_facet2vertex_adjoint(rng):
    m = mesh.icosphere(1)
    ctx = conv.conv_context(m, 3)
    coeffs = rng.standard_normal((2, 3, 16))
    h = rng.standard_normal((1, 3, m.num_facets))
    z = rng.standard_normal((1, 2, m.num_vertices))
    bh = conv.f2v_forward_core(ctx, h, coeffs)
    btz, _ = conv.f2v_backward_core(ctx, coeffs, h, z)
    assert abs(np.sum(bh * z) - np.sum(h * btz)) < 1e-10


def test_constant_filter_gradient_is_transpose(rng):
    # with F == const the conv is a fixed linear operator; its input
    # gradient must be exactly the adjoint applied to the upstream.
    m = mesh.icosphere(0)
    ctx = conv.conv_context(m, 0)
    coeffs = spharm.FilterBank.constant(2.5).coeffs
    x = rng.standard_normal((1, 1, m.num_vertices))
    up = rng.standard_normal((1, 1, m.num_facets))
    grad_x, _ = conv.v2f_backward_core(ctx, coeffs, x, up)
    # adjoint by hand: scatter 2.5 * up to each corner vertex
    expected = np.zeros_like(x)
    for f in range(m.num_facets):
        for j in range(3):
            expected[0, 0, m.facets[f, j]] += 2.5 * up[0, 0, f]
    assert np.abs(grad_x - expected).max() < 1e-10


def _fd_coeff_gradient(fn, coeffs, upstream, h=1e-6):
    grad = np.zeros_like(coeffs)
    it = np.nditer(coeffs, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        up_c = coeffs.copy()
        up_c[idx] += h
        dn_c = coeffs.copy()
        dn_c[idx] -= h
        grad[idx] = np.sum((fn(up_c) - fn(dn_c)) * upstream) / (2 * h)
    return grad


def test_conv_gradients_match_finite_differences(rng):
    m = mesh.icosphere(1)
    ctx = conv.conv_context(m, 2)
    coeffs_vf = rng.standard_normal((2, 2, 9))
    coeffs_fv = rng.standard_normal((2, 2, 9))
    x = rng.standard_normal((1, 2, m.num_vertices))
    h_map = rng.standard_normal((1, 2, m.num_facets))
    up_f = rng.standard_normal((1, 2, m.num_facets))
    up_v = rng.standard_normal((1, 2, m.num_vertices))

    _, g_vf = conv.v2f_backward_core(ctx, coeffs_vf, x, up_f)
    fd_vf = _fd_coeff_gradient(
        lambda c: conv.v2f_forward_core(ctx, x, c), coeffs_vf, up_f
    )
    rel = np.abs(g_vf - fd_vf) / np.maximum(np.abs(fd_vf), 1e-8)
    assert rel.max() < 1e-4

    _, g_fv = conv.f2v_backward_core(ctx, coeffs_fv, h_map, up_v)
    fd_fv = _fd_coeff_gradient(
        lambda c: conv.f2v_forward_core(ctx, h_map, c), coeffs_fv, up_v
    )
    rel = np.abs(g_fv - fd_fv) / np.maximum(np.abs(fd_fv), 1e-8)
    assert rel.max() < 1e-4


# -- pooling / unpooling -------------------------------------------------------


@pytest.fixture(scope="module")
def clustering():
    return mesh.build_hierarchy(1).clustering(1)


def test_pool_max_takes_maximum(clustering):
    x = np.zeros((1, 42))
    members = clustering.members(3)
    x[0, members[:3]] = [1.0, -2.0, 3.0]
    out, argmax = conv.pool_max_core(x, clustering)
    assert out[0, 3] == 3.0
    assert out.shape == (1, 12)
    assert argmax is None


def test_pool_singleton_cluster_identity():
    # build a 1-level clustering by hand with a singleton
    cl = mesh.VertexClustering(np.array([0, 0, 1]))
    x = np.array([[5.0, -1.0, 9.5]])
    out, argmax = conv.pool_max_core(x, cl, return_argmax=True)
    np.testing.assert_array_equal(out, [[5.0, 9.5]])
    np.testing.assert_array_equal(argmax, [[0, 2]])


def test_pool_constant_field_argmax_tie_break(clustering):
    x = np.full((2, 42), 1.25)
    out, argmax = conv.pool_max_core(x, clustering, return_argmax=True)
    np.testing.assert_allclose(out, 1.25)
    for c in range(clustering.num_coarse):
        np.testing.assert_array_equal(argmax[:, c], clustering.members(c).min())


def test_unpool_broadcast():
    cl = mesh.VertexClustering(np.array([0, 0, 1]))
    x = np.array([[4.0, 7.0]])
    np.testing.assert_array_equal(conv.unpool_core(x, cl), [[4.0, 4.0, 7.0]])


def test_unpool_pool_of_cluster_constant_is_identity(clustering):
    rng = np.random.default_rng(5)
    coarse = rng.standard_normal((2, clustering.num_coarse))
    fine = conv.unpool_core(coarse, clustering)
    back, _ = conv.pool_max_core(fine, clustering)
    np.testing.assert_array_equal(back, coarse)
    again = conv.unpool_core(back, clustering)
    np.testing.assert_array_equal(again, fine)


def test_pool_unpool_roundtrip_any_field(clustering):
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 42))
    pooled, _ = conv.pool_max_core(x, clustering)
    recovered, _ = conv.pool_max_core(conv.unpool_core(pooled, clustering), clustering)
    np.testing.assert_array_equal(recovered, pooled)


def test_pool_gradient_routes_to_argmax(clustering):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 42))
    _, argmax = conv.pool_max_core(x, clustering, return_argmax=True)
    up = rng.standard_normal((2, 12))
    grad = conv.pool_max_backward_core(up, argmax, clustering.num_fine)
    for c in range(2):
        for cl_id in range(12):
            members = clustering.members(cl_id)
            winner = argmax[c, cl_id]
            for v in members:
                expected = up[c, cl_id] if v == winner else 0.0
                assert grad[c, v] == expected


def test_unpool_gradient_sums_members(clustering):
    rng = np.random.default_rng(8)
    up = rng.standard_normal((1, 42))
    grad = conv.unpool_backward_core(up, clustering)
    for cl_id in range(12):
        assert grad[0, cl_id] == pytest.approx(
            up[0, clustering.members(cl_id)].sum(), rel=1e-12
        )


def test_pool_unpool_adjoint(clustering):
    rng = np.random.default_rng(9)
    x = rng.standard_normal((1, 2, 12))
    y = rng.standard_normal((1, 2, 42))
    ax = conv.unpool_core(x, clustering)
    aty = conv.unpool_backward_core(y, clustering)
    assert abs(np.sum(ax * y) - np.sum(x * aty)) < 1e-10


@given(lead=st.sampled_from([(), (3,), (2, 3)]), seed=st.integers(0, 2**32 - 1),
       levels=st.integers(1, 4))
def test_pool_max_ties_break_to_the_lowest_fine_id(clustering, lead, seed, levels):
    # Values from a few levels force ties inside most clusters.
    rng = np.random.default_rng(seed)
    x = rng.integers(0, levels, size=lead + (clustering.num_fine,)).astype(float)
    out, argmax = conv.pool_max_core(x, clustering, return_argmax=True)
    up = rng.standard_normal(out.shape)
    grad = conv.pool_max_backward_core(up, argmax, clustering.num_fine)
    expected = np.zeros_like(x)
    for idx in np.ndindex(*lead):
        for c in range(clustering.num_coarse):
            members = clustering.members(c)
            values = x[idx][members]
            winner = members[values == values.max()].min()
            assert out[idx][c] == values.max()
            assert argmax[idx][c] == winner
            expected[idx + (winner,)] = up[idx + (c,)]
    np.testing.assert_array_equal(grad, expected)


# -- layouts -------------------------------------------------------------------


def _row_major_view(a):
    """``a`` (..., N) as a view of a C-contiguous (N, ...) copy."""
    view = np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -1, 0)), 0, -1)
    assert not view.flags.c_contiguous
    return view


def _core_calls(ctx, clustering, rng):
    """Each core as a function of its (..., N) array arguments, with those
    arguments' trailing shapes."""
    c_vf = rng.standard_normal((3, 2, 16))
    c_fv = rng.standard_normal((2, 3, 16))
    v, f, vc = ctx.num_vertices, ctx.num_facets, clustering.num_coarse

    def pool_backward(grad_out, x):
        _, argmax = conv.pool_max_core(x, clustering, return_argmax=True)
        return conv.pool_max_backward_core(grad_out, argmax, clustering.num_fine)

    return {
        "v2f_forward_core": (lambda x: conv.v2f_forward_core(ctx, x, c_vf),
                             [(2, v)]),
        "v2f_backward_core": (lambda x, y: conv.v2f_backward_core(ctx, c_vf, x, y),
                              [(2, v), (3, f)]),
        "f2v_forward_core": (lambda h: conv.f2v_forward_core(ctx, h, c_fv),
                             [(3, f)]),
        "f2v_backward_core": (lambda h, z: conv.f2v_backward_core(ctx, c_fv, h, z),
                              [(3, f), (2, v)]),
        "pool_max_core": (lambda x: conv.pool_max_core(x, clustering, True), [(v,)]),
        "pool_max_backward_core": (pool_backward, [(vc,), (v,)]),
        "unpool_core": (lambda x: conv.unpool_core(x, clustering), [(vc,)]),
        "unpool_backward_core": (lambda z: conv.unpool_backward_core(z, clustering),
                                 [(v,)]),
    }


@pytest.mark.parametrize("core, lead", [
    (core, (3,)) for core in ("v2f_forward_core", "v2f_backward_core",
                              "f2v_forward_core", "f2v_backward_core")
] + [
    (core, lead) for core in ("pool_max_core", "pool_max_backward_core",
                              "unpool_core", "unpool_backward_core")
    for lead in [(2,), (3, 2)]
])
def test_cores_give_equal_arrays_on_either_layout(core, lead):
    # A C-contiguous (..., N) input and a view of an (N, ...) buffer holding
    # the same values give equal outputs and gradients.
    hierarchy = mesh.build_hierarchy(2)
    rng = np.random.default_rng(11)
    ctx = conv.conv_context(hierarchy.mesh(2), 3)
    fn, shapes = _core_calls(ctx, hierarchy.clustering(2), rng)[core]
    args = [rng.standard_normal(lead + shape) for shape in shapes]
    plain = fn(*args)
    viewed = fn(*[_row_major_view(a) for a in args])
    if not isinstance(plain, tuple):
        plain, viewed = (plain,), (viewed,)
    for a, b in zip(plain, viewed):
        if a is not None:
            np.testing.assert_array_equal(a, b)


def _spread(rows, result, fill):
    """The (B, C, N) table of a core's (C, P) rows on a partial selection:
    those rows at the selected entries, ``fill`` (a (1, C, N) table, or
    NaN for None) at the others."""
    table = np.empty(rows.mask.shape + result.shape[:1])
    table[...] = np.nan if fill is None else np.moveaxis(fill, -1, 0)
    table[rows.mask] = result.T
    return np.moveaxis(table, 0, -1)


@pytest.mark.parametrize("surface", ["icosphere", "hull"])
@pytest.mark.parametrize("batch", [1, 5])
def test_forward_cores_compute_only_selected_rows(batch, surface, request):
    # With a RowSelection the forward cores give the dense values on the
    # selected (row, batch) entries, reading no other input row, and its
    # table holds the base rows elsewhere, or NaN without a base.  The hull
    # has vertices of degree above 6, so its facet2vertex pads differ by
    # vertex.
    m = request.getfixturevalue(surface) if surface == "hull" else mesh.icosphere(2)
    ctx = conv.conv_context(m, 3)
    rng = np.random.default_rng(12)
    k = spharm.num_coefficients(3)
    x = rng.standard_normal((batch, 4, ctx.num_vertices))
    h = rng.standard_normal((batch, 3, ctx.num_facets))
    vf, fv = rng.standard_normal((3, 4, k)), rng.standard_normal((2, 3, k))
    base = rng.standard_normal((1, 3, ctx.num_facets))
    masks = [rng.random((n, batch)) < 0.3 for n in (ctx.num_facets, ctx.num_vertices)]
    for mask in masks:
        mask[0] = False  # one row with no entry, one with every entry
        mask[1] = True
    facet_rows, vertex_rows = ctx.select(*masks)
    for core, rows, arg, coeffs, fill, unselected in [
        (conv.v2f_forward_core, facet_rows, x, vf, base, base),
        (conv.f2v_forward_core, vertex_rows, h, fv, None, np.nan),
    ]:
        # The input rows a selected entry reads: its facet's corners, or
        # its vertex's incident facets.  NaN in every other row must not
        # reach the selected entries.
        mask = rows.mask
        if core is conv.v2f_forward_core:
            read = np.zeros((ctx.num_vertices, batch), bool)
            for corner in ctx.corners:
                np.logical_or.at(read, corner, mask)
        else:
            read = mask[ctx.corners].any(axis=0)
        dense = core(ctx, arg, coeffs)
        masked_arg = np.where(read.T[:, None, :], arg, np.nan)
        sparse = _spread(rows, core(ctx, masked_arg, coeffs, rows=rows), fill)
        sel = mask.T[:, None, :].repeat(len(coeffs), axis=1)
        np.testing.assert_allclose(sparse[sel], dense[sel], rtol=1e-13, atol=1e-13)
        expected = np.broadcast_to(unselected, dense.shape)
        np.testing.assert_array_equal(sparse[~sel], expected[~sel])


@pytest.mark.parametrize("surface", ["icosphere", "hull"])
@pytest.mark.parametrize("chunk_rows", [1, 7, 25])
def test_f2v_vertex_chunks_match_one_chunk(chunk_rows, surface, request,
                                           monkeypatch):
    # Chunking the vertices changes no forward output or input gradient
    # bit, full or partial selection; the coefficient gradient sums the
    # chunks' partial sums, so it agrees to rounding.  Budgets of 1, 7 and
    # 25 filter rows give 1-vertex chunks and ragged last chunks.
    m = request.getfixturevalue(surface) if surface == "hull" else mesh.icosphere(2)
    ctx = conv.conv_context(m, 3)
    rng = np.random.default_rng(13)
    batch, out_ch, in_ch = 3, 2, 3
    c = rng.standard_normal((out_ch, in_ch, spharm.num_coefficients(3)))
    h = rng.standard_normal((batch, in_ch, ctx.num_facets))
    z = rng.standard_normal((batch, out_ch, ctx.num_vertices))
    mask = rng.random((ctx.num_vertices, batch)) < 0.3
    mask[0], mask[1] = False, True
    _, partial = ctx.select(np.ones((ctx.num_facets, batch), bool), mask)

    def calls():
        return (conv.f2v_forward_core(ctx, h, c),
                conv.f2v_forward_core(ctx, h, c, rows=partial),
                *conv.f2v_backward_core(ctx, c, h, z))

    one_chunk = calls()
    assert len(conv._vertex_chunks(ctx.num_vertices, out_ch, in_ch)) == 1
    monkeypatch.setattr(conv, "_F2V_CHUNK_BYTES", 8 * out_ch * in_ch * chunk_rows)
    parts = conv._vertex_chunks(ctx.num_vertices, out_ch, in_ch)
    sizes = [len(range(ctx.num_vertices)[part]) for part in parts]
    assert max(sizes) == chunk_rows and sum(sizes) == ctx.num_vertices
    assert sizes[-1] < chunk_rows or chunk_rows == 1
    chunked = calls()
    for a, b in zip(one_chunk[:3], chunked[:3]):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_allclose(chunked[3], one_chunk[3],
                               rtol=0, atol=1e-13 * np.abs(one_chunk[3]).max())
    fwd, grad_h, grad_c = chunked[0], chunked[2], chunked[3]
    assert np.sum(fwd * z) == pytest.approx(np.sum(h * grad_h), rel=1e-12)
    assert np.sum(fwd * z) == pytest.approx(np.sum(c * grad_c), rel=1e-12)


@pytest.mark.parametrize("surface", ["icosphere", "hull"])
def test_backward_folds_sum_in_their_documented_order(surface, request):
    # Each backward neighbourhood sum equals, to the bit, a loop that adds
    # its rows in the documented order: a vertex's corners in ascending id
    # (vertex2facet), a facet's corners j = 0, 1, 2 (facet2vertex) and a
    # cluster's members in ascending id (unpool).  The rows summed are made
    # by the same array expressions the cores use.
    m = request.getfixturevalue(surface) if surface == "hull" else mesh.icosphere(2)
    ctx = conv.conv_context(m, 3)
    rng = np.random.default_rng(15)
    batch, out_ch, in_ch = 3, 2, 4
    v, f = ctx.num_vertices, ctx.num_facets
    c = rng.standard_normal((out_ch, in_ch, spharm.num_coefficients(3)))
    corner_vertex = m.facets.reshape(-1)

    x = rng.standard_normal((batch, in_ch, v))
    y = rng.standard_normal((batch, out_ch, f))
    fj = np.einsum("oik,jk->joi", c, ctx.v2f_basis)
    dy = np.moveaxis(y, -1, 0).reshape(-1, out_ch)
    shares = np.stack([(dy @ fj[j]).reshape(f, batch, in_ch) for j in range(3)], 1)
    expected = np.zeros((v, batch, in_ch))
    for corner, share in enumerate(shares.reshape(3 * f, batch, in_ch)):
        expected[corner_vertex[corner]] += share
    grad_x, _ = conv.v2f_backward_core(ctx, c, x, y)
    np.testing.assert_array_equal(np.moveaxis(grad_x, -1, 0), expected)

    h = rng.standard_normal((batch, in_ch, f))
    z = rng.standard_normal((batch, out_ch, v))
    assert len(conv._vertex_chunks(v, out_ch, in_ch)) == 1
    dv = np.moveaxis(z, -1, 0)
    slot_share = [np.matmul(dv, conv._filters(basis, c)) for basis in ctx.slot_basis]
    expected = np.zeros((f, batch, in_ch))
    for corner in range(3 * f):
        vertex = corner_vertex[corner]
        slot = np.flatnonzero(m.one_ring[vertex] == corner)[0]
        expected[corner // 3] += slot_share[slot][vertex]
    grad_h, _ = conv.f2v_backward_core(ctx, c, h, z)
    np.testing.assert_array_equal(np.moveaxis(grad_h, -1, 0), expected)

    if surface == "hull":  # uneven clusters, each owning its own vertex
        coarse = v // 4
        clustering = mesh.VertexClustering(np.concatenate(
            [np.arange(coarse), rng.integers(0, coarse, v - coarse)]))
    else:
        clustering = mesh.build_hierarchy(2).clustering(2)
    grad = rng.standard_normal((batch, in_ch, v))
    expected = np.zeros((clustering.num_coarse, batch, in_ch))
    for fine, parent in enumerate(clustering.parent):
        expected[parent] += np.moveaxis(grad, -1, 0)[fine]
    summed = conv.unpool_backward_core(grad, clustering)
    np.testing.assert_array_equal(np.moveaxis(summed, -1, 0), expected)


def test_f2v_backward_peak_is_its_fold_buffer_and_one_gradient():
    # Past the slot loop, the backward holds its (D, V, B, in) fold buffer
    # and the (F, B, in) input gradient it folds into, and no second
    # gradient-sized temporary.  At 4 channels the chunk temporaries are
    # small beside these.
    m = mesh.icosphere(4)
    ctx = conv.conv_context(m, 3)
    rng = np.random.default_rng(16)
    batch, ch = 8, 4
    c = rng.standard_normal((ch, ch, spharm.num_coefficients(3)))
    h = np.moveaxis(rng.standard_normal((ctx.num_facets, batch, ch)), 0, -1)
    z = np.moveaxis(rng.standard_normal((ctx.num_vertices, batch, ch)), 0, -1)
    fold_buffer = ctx.slot_basis.shape[0] * ctx.num_vertices * batch * ch * 8
    gradient = ctx.num_facets * batch * ch * 8
    conv.f2v_backward_core(ctx, c, h, z)  # builds the cached full selection
    tracemalloc.start()
    try:
        conv.f2v_backward_core(ctx, c, h, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < fold_buffer + 1.5 * gradient


def test_f2v_calls_never_hold_a_full_mesh_filter():
    # At order 4 and 32x32 channels one (V, out, in) filter stack is 20 MiB;
    # the cores build their filters in vertex chunks of at most 8 MiB, so
    # no call peaks at the size of a full-mesh stack.
    m = mesh.icosphere(4)
    ctx = conv.conv_context(m, 3)
    rng = np.random.default_rng(14)
    c = rng.standard_normal((32, 32, spharm.num_coefficients(3)))
    h = rng.standard_normal((1, 32, ctx.num_facets))
    z = rng.standard_normal((1, 32, ctx.num_vertices))
    full_filter = ctx.num_vertices * c[..., 0].nbytes
    assert full_filter > 20 * 2**20
    for call in (lambda: conv.f2v_forward_core(ctx, h, c),
                 lambda: conv.f2v_backward_core(ctx, c, h, z)):
        call()  # builds the cached full selection outside the trace
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full_filter


def test_feature_map_validation():
    with pytest.raises(ShapeError):
        conv.FeatureMap(np.zeros((2, 13)), level=0)  # wrong V for level
    with pytest.raises(ShapeError):
        conv.FeatureMap(np.array([[np.nan, 1.0]]))
    with pytest.raises(ShapeError):
        conv.FeatureMap(np.zeros(5))
