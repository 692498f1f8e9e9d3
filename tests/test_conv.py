import math
import tracemalloc

from hypothesis import given, strategies as st
import numpy as np
import pytest

from smmn import conv, mesh, spharm
from smmn.errors import InvariantError, ShapeError

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
@pytest.mark.parametrize("batch", [1, 3, 20])
def test_f2v_matches_brute_force_at_every_batch_size(batch, surface, request,
                                                     monkeypatch):
    # Each batch column of facet2vertex, on the full selection and on the
    # selected entries of a partial one, is the brute-force filtered mean
    # of its incident facets: in one chunk and in 7-vertex chunks.
    m = request.getfixturevalue(surface) if surface == "hull" else mesh.icosphere(1)
    rng = np.random.default_rng(21)
    in_ch, out_ch = 4, 3
    bank = spharm.FilterBank.random(3, in_ch, out_ch, rng)
    ctx = conv.conv_context(m, bank.l_max)
    h = rng.standard_normal((batch, in_ch, m.num_facets))
    slow = np.stack([brute_facet2vertex(m, column, bank) for column in h])
    mask = rng.random((m.num_vertices, batch)) < 0.3
    mask[0], mask[1] = False, True
    _, partial = ctx.select(np.ones((m.num_facets, batch), bool), mask)
    sel = mask.T[:, None, :].repeat(out_ch, axis=1)
    for chunk_rows in (None, 7):
        with monkeypatch.context() as patch:
            if chunk_rows:
                patch.setattr(conv, "_F2V_AGGREGATE_BYTES",
                              8 * bank.coeffs.shape[2] * batch * in_ch * chunk_rows)
            fast = conv.f2v_forward_core(ctx, h, bank.coeffs)
            picked = _spread(partial, conv.f2v_forward_core(ctx, h, bank.coeffs,
                                                            rows=partial), None)
        assert np.abs(fast - slow).max() < 1e-12
        assert np.abs(picked[sel] - slow[sel]).max() < 1e-12


@pytest.mark.parametrize("surface", ["icosphere", "hull"])
@pytest.mark.parametrize("chunk_rows", [1, 7, 25])
def test_f2v_vertex_chunks_match_one_chunk(chunk_rows, surface, request,
                                           monkeypatch):
    # Chunking the vertices changes no forward output or input gradient
    # bit, full or partial selection; the coefficient gradient sums the
    # chunks' partial sums, so it agrees to rounding.  Budgets of 1, 7 and
    # 25 full-width aggregate rows give 1-vertex chunks and ragged last
    # chunks.  At B = 1 a 1-vertex chunk mixes one (vertex, batch) row,
    # which its GEMMs pad to 16 rows, as every chunk.
    m = request.getfixturevalue(surface) if surface == "hull" else mesh.icosphere(2)
    ctx = conv.conv_context(m, 3)
    rng = np.random.default_rng(13)
    k = spharm.num_coefficients(3)
    for batch, out_ch, in_ch in [(3, 2, 3), (1, 1, 4), (1, 3, 4)]:
        c = rng.standard_normal((out_ch, in_ch, k))
        h = rng.standard_normal((batch, in_ch, ctx.num_facets))
        z = rng.standard_normal((batch, out_ch, ctx.num_vertices))
        mask = rng.random((ctx.num_vertices, batch)) < 0.3
        mask[0], mask[1] = False, True
        _, partial = ctx.select(np.ones((ctx.num_facets, batch), bool), mask)
        gather = ctx.full_selection(batch)[1].gather

        def calls():
            return (conv.f2v_forward_core(ctx, h, c),
                    conv.f2v_forward_core(ctx, h, c, rows=partial),
                    *conv.f2v_backward_core(ctx, c, h, z))

        def chunk_sizes():
            return [part.stop - part.start for part, _ in
                    conv._aggregates(ctx, conv._flat(h), gather, None)]

        assert chunk_sizes() == [ctx.num_vertices]
        one_chunk = calls()
        with monkeypatch.context() as patch:
            patch.setattr(conv, "_F2V_AGGREGATE_BYTES", 8 * k * batch * in_ch * chunk_rows)
            sizes = chunk_sizes()
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
@pytest.mark.parametrize("base", [False, True])
def test_partial_f2v_selections_have_one_row_per_entry(base, surface, request):
    # A partial facet2vertex selection gathers one row per entry of
    # entries(), base rows included, and pads none; the full selection
    # gathers every vertex at every batch id.
    m = request.getfixturevalue(surface) if surface == "hull" else mesh.icosphere(2)
    ctx = conv.conv_context(m, 3)
    rng = np.random.default_rng(16)
    batch, v = 4, ctx.num_vertices
    reads = np.arange(v * (batch + base)).reshape(v, -1)
    for density in (0.05, 0.3, 0.9):
        mask = rng.random((v, batch)) < density
        mask[0], mask[1] = False, True
        _, rows = ctx.select(rng.random((ctx.num_facets, batch)) < density, mask,
                             reads, base)
        assert rows.gather.shape == (len(ctx.slot_facets), mask.sum() + base * v, 1)
        np.testing.assert_array_equal(rows.active, conv.entries(mask, base)[0])
    full = ctx.full_selection(batch)[1]
    assert full.gather.shape == (len(ctx.slot_facets), v, batch)
    assert full.active is None


@pytest.mark.parametrize("surface", ["icosphere", "hull"])
@pytest.mark.parametrize("batch", [1, 3])
def test_f2v_entry_bits_do_not_depend_on_the_other_entries(batch, surface,
                                                           request):
    # An entry of a partial selection M comes out to the bit as it does in
    # a superset of M, and as in the full selection.
    m = request.getfixturevalue(surface) if surface == "hull" else mesh.icosphere(2)
    ctx = conv.conv_context(m, 3)
    rng = np.random.default_rng(17)
    c = rng.standard_normal((3, 4, spharm.num_coefficients(3)))
    h = rng.standard_normal((batch, 4, ctx.num_facets))
    facets = np.ones((ctx.num_facets, batch), bool)
    mask = rng.random((ctx.num_vertices, batch)) < 0.1
    mask[0], mask[1] = False, True
    superset = mask | (rng.random(mask.shape) < 0.5)
    picked = [_spread(rows, conv.f2v_forward_core(ctx, h, c, rows=rows), None)
              for rows in (ctx.select(facets, sel)[1] for sel in (mask, superset))]
    sel = mask.T[:, None, :].repeat(len(c), axis=1)
    np.testing.assert_array_equal(picked[0][sel], picked[1][sel])
    np.testing.assert_array_equal(picked[0][sel], conv.f2v_forward_core(ctx, h, c)[sel])


@pytest.mark.parametrize("in_ch, out_ch", [(16, 12), (32, 20)])
def test_forward_rows_match_the_full_call_at_any_output_width(in_ch, out_ch):
    # At order 5 and B = 1, a 300-facet selection's vertex2facet products
    # are small and the full call's are large.  Unpadded, OpenBLAS rounds
    # the two otherwise at an output width of 12 or 20 on its SkylakeX
    # kernel; padded to a multiple of 8 columns, the rows agree to the bit.
    ctx = conv.conv_context(mesh.icosphere(5), 3)
    rng = np.random.default_rng(23)
    k = spharm.num_coefficients(3)
    x = rng.standard_normal((1, in_ch, ctx.num_vertices))
    h = rng.standard_normal((1, in_ch, ctx.num_facets))
    vf, fv = (rng.standard_normal((out_ch, in_ch, k)) for _ in range(2))
    facets = np.zeros((ctx.num_facets, 1), bool)
    facets[rng.choice(ctx.num_facets, 300, replace=False)] = True
    vertices = np.zeros((ctx.num_vertices, 1), bool)
    vertices[rng.choice(ctx.num_vertices, 300, replace=False)] = True
    facet_rows, vertex_rows = ctx.select(facets, vertices)
    for core, arg, coeffs, rows in [(conv.v2f_forward_core, x, vf, facet_rows),
                                    (conv.f2v_forward_core, h, fv, vertex_rows)]:
        picked = core(ctx, arg, coeffs, rows=rows)
        np.testing.assert_array_equal(picked, core(ctx, arg, coeffs)[0][:, rows.mask[:, 0]],
                                      err_msg=core.__name__)


@pytest.mark.parametrize("surface", ["icosphere", "hull"])
def test_backward_folds_sum_in_their_documented_order(surface, request):
    # Each backward neighbourhood sum equals, to the bit, a loop that adds
    # its rows in the documented order: a vertex's corners in ascending id
    # (vertex2facet) and a cluster's members in ascending id (unpool).  The
    # rows summed are made by the same array expressions the cores use.
    # facet2vertex's fold has its own test below.
    m = request.getfixturevalue(surface) if surface == "hull" else mesh.icosphere(2)
    ctx = conv.conv_context(m, 3)
    rng = np.random.default_rng(15)
    batch, out_ch, in_ch = 3, 2, 4
    v, f = ctx.num_vertices, ctx.num_facets
    c = rng.standard_normal((out_ch, in_ch, spharm.num_coefficients(3)))

    x = rng.standard_normal((batch, in_ch, v))
    y = rng.standard_normal((batch, out_ch, f))
    fj = np.einsum("oik,jk->joi", c, ctx.v2f_basis)
    dy = np.moveaxis(y, -1, 0).reshape(-1, out_ch)
    shares = np.stack([(dy @ fj[j]).reshape(f, batch, in_ch) for j in range(3)], 1)
    expected = np.zeros((v, batch, in_ch))
    for corner, share in enumerate(shares.reshape(3 * f, batch, in_ch)):
        expected[m.facets.flat[corner]] += share
    grad_x, _ = conv.v2f_backward_core(ctx, c, x, y)
    np.testing.assert_array_equal(np.moveaxis(grad_x, -1, 0), expected)

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


def _traced_peak(call):
    """The tracemalloc peak of ``call()``, run once before to build the
    cached full selection outside the trace."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_f2v_backward_peak_is_its_fold_buffer_and_one_gradient():
    # The backward holds the (F, B, in) input gradient it folds into and
    # its chunk buffers, no (D, V, B, in) slot-share buffer (7.9 MiB here)
    # and no second gradient-sized temporary.
    m = mesh.icosphere(4)
    ctx = conv.conv_context(m, 3)
    rng = np.random.default_rng(16)
    batch, ch = 8, 8
    c = rng.standard_normal((ch, ch, spharm.num_coefficients(3)))
    h = np.moveaxis(rng.standard_normal((ctx.num_facets, batch, ch)), 0, -1)
    z = np.moveaxis(rng.standard_normal((ctx.num_vertices, batch, ch)), 0, -1)
    slot_shares = ctx.slot_basis.shape[0] * ctx.num_vertices * batch * ch * 8
    gradient = ctx.num_facets * batch * ch * 8
    bound = 1.5 * gradient + 2 * conv._F2V_AGGREGATE_BYTES
    assert bound < slot_shares
    assert _traced_peak(lambda: conv.f2v_backward_core(ctx, c, h, z)) < bound


def test_v2f_backward_peak_is_one_gradient_and_its_chunk_buffers():
    # The backward holds the (V, B, in) input gradient it folds into and
    # its chunk buffers, no (3F, B, in) corner-share buffer (7.5 MiB here)
    # and no gathered (F·B, 3·in) corner table.
    m = mesh.icosphere(4)
    ctx = conv.conv_context(m, 3)
    rng = np.random.default_rng(22)
    batch, ch = 8, 8
    c = rng.standard_normal((ch, ch, spharm.num_coefficients(3)))
    x = np.moveaxis(rng.standard_normal((ctx.num_vertices, batch, ch)), 0, -1)
    y = np.moveaxis(rng.standard_normal((ctx.num_facets, batch, ch)), 0, -1)
    corner_shares = 3 * ctx.num_facets * batch * ch * 8
    gradient = ctx.num_vertices * batch * ch * 8
    bound = 1.5 * gradient + 3 * conv._V2F_CHUNK_BYTES
    assert bound < corner_shares
    assert _traced_peak(lambda: conv.v2f_backward_core(ctx, c, x, y)) < bound


def test_fold_adds_a_column_slice_and_rejects_rows_that_do_not_fit():
    # _fold adds the rows of a column slice into their total rows, and
    # checks sizes and layout before scipy's kernel, which would write
    # wherever they point.
    m = mesh.icosphere(1)
    ctx = conv.conv_context(m, 3)
    total = np.zeros((ctx.num_vertices, 2, 3))
    rows = np.ones((4, 3, 6))  # corners 12..23, one (2, 3) row each
    conv._fold(total, ctx.vertex_corners, slice(12, 24), rows)
    counts = np.bincount(m.facets.reshape(-1)[12:24], minlength=ctx.num_vertices)
    np.testing.assert_array_equal(total, np.broadcast_to(counts[:, None, None], total.shape))
    with pytest.raises(InvariantError):
        conv._fold(total, ctx.vertex_corners, slice(12, 24), rows[:3])
    with pytest.raises(InvariantError):
        conv._fold(total.transpose(0, 2, 1), ctx.vertex_corners, slice(12, 24), rows)


@pytest.mark.parametrize("chunked", [True, False])
def test_f2v_paths_pass_the_fd_and_adjoint_oracles(chunked, hull, monkeypatch):
    # At B = 2 on the irregular hull, in one aggregate chunk and in 7-vertex
    # chunks: the backward is the forward's adjoint in both arguments, and
    # central differences match both gradients.
    ctx = conv.conv_context(hull, 2)
    rng = np.random.default_rng(19)
    c = rng.standard_normal((2, 3, 9))
    if chunked:
        monkeypatch.setattr(conv, "_F2V_AGGREGATE_BYTES", 8 * 9 * 2 * 3 * 7)
    h = rng.standard_normal((2, 3, hull.num_facets))
    z = rng.standard_normal((2, 2, hull.num_vertices))
    bh = conv.f2v_forward_core(ctx, h, c)
    gh, gc = conv.f2v_backward_core(ctx, c, h, z)
    assert np.sum(bh * z) == pytest.approx(np.sum(h * gh), rel=1e-12)
    assert np.sum(bh * z) == pytest.approx(np.sum(c * gc), rel=1e-12)
    fd = _fd_coeff_gradient(lambda cc: conv.f2v_forward_core(ctx, h, cc), c, z)
    assert (np.abs(gc - fd) / np.maximum(np.abs(fd), 1e-8)).max() < 1e-4
    step, direction = 1e-6, rng.standard_normal(h.shape)
    fd_dir = np.sum((conv.f2v_forward_core(ctx, h + step * direction, c)
                     - conv.f2v_forward_core(ctx, h - step * direction, c)) * z) / (2 * step)
    assert abs(fd_dir - np.sum(direction * gh)) < 1e-4 * abs(fd_dir)


@pytest.mark.parametrize("surface", ["icosphere", "hull"])
def test_aggregate_backward_folds_sum_in_their_documented_order(surface, request):
    # A vertex's slot shares are its basis rows times the aggregate's
    # gradient dy C_k; the input gradient adds them, to the bit, one at a
    # time into each facet's row, in ascending vertex id.
    m = request.getfixturevalue(surface) if surface == "hull" else mesh.icosphere(2)
    ctx = conv.conv_context(m, 3)
    rng = np.random.default_rng(18)
    batch, ch, k = 2, 16, spharm.num_coefficients(3)
    v, f = ctx.num_vertices, ctx.num_facets
    c = rng.standard_normal((ch, ch, k))
    h = rng.standard_normal((batch, ch, f))
    z = rng.standard_normal((batch, ch, v))
    dy = np.moveaxis(z, -1, 0).reshape(-1, ch)
    grad_agg = np.matmul(dy, np.ascontiguousarray(c.transpose(2, 0, 1)))  # (K, V·B, in)
    shares = np.matmul(ctx.slot_basis.transpose(1, 0, 2),
                       grad_agg.reshape(k, v, -1).transpose(1, 0, 2))  # (V, D, B·in)
    expected = np.zeros((f, batch * ch))
    for vertex in range(v):
        for slot, corner in enumerate(m.one_ring[vertex]):
            if corner >= 0:
                expected[corner // 3] += shares[vertex, slot]
    grad_h, _ = conv.f2v_backward_core(ctx, c, h, z)
    np.testing.assert_array_equal(np.moveaxis(grad_h, -1, 0).reshape(f, -1), expected)


def _f2v_peaks(ctx, batch, ch, rng):
    # Traced peaks of one forward and one backward call at (B, ch, ch),
    # with the (K, V, B, in) whole-mesh aggregate, and the backward's
    # bound: the (F, B, in) gradient plus its chunk buffers.
    k = ctx.slot_basis.shape[2]
    c = rng.standard_normal((ch, ch, k))
    h = np.moveaxis(rng.standard_normal((ctx.num_facets, batch, ch)), 0, -1)
    z = np.moveaxis(rng.standard_normal((ctx.num_vertices, batch, ch)), 0, -1)
    peaks = [_traced_peak(lambda: conv.f2v_forward_core(ctx, h, c)),
             _traced_peak(lambda: conv.f2v_backward_core(ctx, c, h, z))]
    aggregate = k * ctx.num_vertices * batch * ch * 8
    gradient = ctx.num_facets * batch * ch * 8
    return peaks, aggregate, 1.5 * gradient + 2 * conv._F2V_AGGREGATE_BYTES


def test_f2v_calls_never_hold_a_full_mesh_filter():
    # At order 4 and 32x32 channels, B = 1, one (V, out, in) filter stack
    # is 20 MiB and the (K, V, B, in) whole-mesh aggregate 10 MiB; the
    # cores aggregate in vertex chunks of 1 MiB, so no call holds either.
    ctx = conv.conv_context(mesh.icosphere(4), 3)
    (forward, backward), aggregate, bound = _f2v_peaks(
        ctx, 1, 32, np.random.default_rng(14))
    full_filter = ctx.num_vertices * 32 * 32 * 8
    assert full_filter > 20 * 2**20 and aggregate > 10 * 2**20
    assert forward < aggregate / 2
    assert backward < bound < aggregate < full_filter


def test_f2v_aggregate_peaks_hold_no_full_aggregate():
    # At order 4, B = 2 with 16 channels, the backward peaks below 1.5
    # (F, B, in) gradients plus two chunk budgets, and neither call holds
    # the (K, V, B, in) aggregate of the whole mesh (10 MiB): each works on
    # one chunk buffer of 1 MiB.
    ctx = conv.conv_context(mesh.icosphere(4), 3)
    (forward, backward), aggregate, bound = _f2v_peaks(
        ctx, 2, 16, np.random.default_rng(20))
    assert aggregate > 10 * 2**20
    assert forward < aggregate / 2
    assert backward < bound < aggregate


@pytest.mark.parametrize("order, above_1e12, above_1e6",
                         [(3, 16, 10), (4, 15, 10), (5, 13, 8), (6, 13, 6)])
def test_slot_basis_rank_falls_with_the_order(order, above_1e12, above_1e6):
    # The facet-normal angle shrinks with the mesh spacing, so the 16
    # filter terms sampled at the ring slots grow nearly collinear: fewer
    # relative singular values of the (D·V, 16) basis stay above 1e-12 and
    # 1e-6 as the order rises.  None lies within 5 % of either threshold.
    basis = conv.conv_context(mesh.icosphere(order), 3).slot_basis
    s = np.linalg.svd(basis.reshape(-1, basis.shape[2]), compute_uv=False)
    rel = s / s[0]
    for threshold, count in ((1e-12, above_1e12), (1e-6, above_1e6)):
        assert (rel > 1.05 * threshold).sum() == (rel > threshold / 1.05).sum() == count


def test_feature_map_validation():
    with pytest.raises(ShapeError):
        conv.FeatureMap(np.zeros((2, 13)), level=0)  # wrong V for level
    with pytest.raises(ShapeError):
        conv.FeatureMap(np.array([[np.nan, 1.0]]))
    with pytest.raises(ShapeError):
        conv.FeatureMap(np.zeros(5))
