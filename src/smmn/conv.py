"""Mesh convolution operators and cluster pooling, with exact gradients.

Three operators move features around the mesh:

* ``vertex2facet`` combines a facet's three corner features with the
  filter evaluated at three fixed angles, g_f = F(pi/2, 0) h1 +
  F(pi/2, pi/2) h2 + F(0, 0) h3, following the facet's stored corner
  order;
* ``facet2vertex`` averages incident facet features back onto each
  vertex, weighting facet f by F(theta_f, phi_f) where the angles locate
  the facet normal in the vertex's tangent frame;
* ``vertex2vertex`` chains the two, adds a per-output-channel bias and a
  pointwise nonlinearity (leaky rectifier, slope 0.01, by default).

The network runs the batched array cores (``*_core`` and the
``block_*`` pair); the FeatureMap operators are checked shims over them.
Everything is linear in both features and filter coefficients (before
the nonlinearity), so the backward passes are exact.  All reductions run
in a fixed order; identical inputs give bit-identical outputs.

Each mesh caches a :class:`ConvContext` per filter degree holding its
padded one-ring table and the filter basis sampled at every ring slot.

The cores take and return (B, C, N) arrays but compute on their
vertex- or facet-major (N, B, C) row tables.  A neighbourhood read
(facet corners, ring slots, cluster members, parents) is then a row
gather through a padded table, whose -1 pads read an appended zero or
-inf row, and a channel mix is one 2-D GEMM on (N·B, C) rows.  The
network carries every feature as a (B, C, N) view of a C-contiguous
(N, B, C) buffer, so these row tables cost no copy.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, UsageError
from .mesh import incidence_angles
from .spharm import filter_basis

LEAKY_SLOPE = 0.01

# Fixed vertex2facet filter angles for corners (h1, h2, h3).
_V2F_ANGLES = ((np.pi / 2.0, 0.0), (np.pi / 2.0, np.pi / 2.0), (0.0, 0.0))


@dataclass
class FeatureMap:
    """Per-vertex feature grid of shape (channels, vertices)."""

    values: np.ndarray
    level: int | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ShapeError(f"feature map must be 2D (C, V), got {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ShapeError("feature map contains non-finite values")
        if self.level is not None:
            expected = 10 * 4**self.level + 2
            if self.values.shape[1] != expected:
                raise ShapeError(
                    f"level-{self.level} feature map needs {expected} vertices, "
                    f"got {self.values.shape[1]}"
                )

    @property
    def channels(self):
        return self.values.shape[0]

    @property
    def num_vertices(self):
        return self.values.shape[1]


@dataclass
class FacetFeatureMap:
    """Per-facet feature grid of shape (channels, facets)."""

    values: np.ndarray
    level: int | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ShapeError(f"facet map must be 2D (C, F), got {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ShapeError("facet map contains non-finite values")

    @property
    def channels(self):
        return self.values.shape[0]

    @property
    def num_facets(self):
        return self.values.shape[1]


class ConvContext:
    """Precomputed one-ring structure of one mesh at one filter degree.

    ``slots`` (D, V) is the mesh's one-ring table, slot-major: the corner
    id 3f + j in ring slot d of vertex v, or -1.  ``slot_facets`` holds
    the facet ids and ``slot_basis`` (D, V, K) the filter basis divided
    by the vertex degree (slot sums are then facet2vertex's means), zero
    at the pads.  ``corner_slot[3f + j]`` is the flat index of corner j
    of facet f in ``slots``; it folds slot arrays back onto facets.
    """

    def __init__(self, mesh, l_max):
        self.l_max = l_max
        self.num_vertices = mesh.num_vertices
        self.num_facets = mesh.num_facets

        self.corners = np.ascontiguousarray(mesh.facets.T)  # (3, F)
        self.v2f_basis = np.stack(
            [filter_basis(l_max, th, ph) for th, ph in _V2F_ANGLES]
        )  # (3, K)

        slots = self.slots = np.ascontiguousarray(mesh.one_ring.T)  # (D, V)
        self.slot_facets = slots // 3  # the pads stay -1
        # Sorting the flat table puts the pads first, then corners 0, 1, ...
        self.corner_slot = np.argsort(slots, axis=None)[(slots < 0).sum():]

        theta, phi = incidence_angles(mesh)
        # Weight 1/degree makes slot sums means; weight 0 clears the pads,
        # which gather the last row of the facet-major (3F, K) basis.
        weight = np.where(slots >= 0, 1.0 / (slots >= 0).sum(axis=0), 0.0)
        self.slot_basis = filter_basis(l_max, theta, phi)[slots]
        self.slot_basis *= weight[..., None]


def conv_context(mesh, l_max):
    """The mesh's cached :class:`ConvContext` for filters of degree l_max."""
    ctx = mesh._conv_cache.get(l_max)
    if ctx is None:
        ctx = ConvContext(mesh, l_max)
        mesh._conv_cache[l_max] = ctx
    return ctx


# ---------------------------------------------------------------------------
# Array cores.  Each takes (B, C, N) arrays, N being vertices or facets, and
# returns (B, C, N) views of C-contiguous (N, B, C) row tables (see the module
# docstring).  A C-contiguous (B, C, N) input gives the same values.


def _rows(x):
    """The (N, ...) row table of a (..., N) array, as a view."""
    return np.moveaxis(x, -1, 0)


def _cols(rows):
    """The (..., N) view of an (N, ...) row table: the inverse of _rows."""
    return np.moveaxis(rows, 0, -1)


def _padded_rows(x, fill):
    """The row table of ``x`` plus a last row ``fill``, which the -1 pads of
    a padded table gather."""
    rows = _rows(x)
    return np.concatenate([rows, np.full((1,) + rows.shape[1:], fill)])


def _mix(rows, weights):
    """(N, B, in) rows times an (in, out) matrix, as one 2-D GEMM."""
    n, batch, c_in = rows.shape
    return (rows.reshape(n * batch, c_in) @ weights).reshape(n, batch, -1)


def v2f_forward_core(ctx, x, coeffs):
    fj = np.einsum("oik,jk->joi", coeffs, ctx.v2f_basis)
    rows = _rows(x)
    out = _mix(rows[ctx.corners[0]], fj[0].T)
    out += _mix(rows[ctx.corners[1]], fj[1].T)
    out += _mix(rows[ctx.corners[2]], fj[2].T)
    return _cols(out)


def v2f_backward_core(ctx, coeffs, x, grad_out):
    fj = np.einsum("oik,jk->joi", coeffs, ctx.v2f_basis)
    rows = _rows(x)
    batch, out_ch, num_f = grad_out.shape
    dy = _rows(grad_out).reshape(num_f * batch, out_ch)
    # Row 3f + j is corner j's share of facet f's gradient; the zero last
    # row is what the pads of ``slots`` gather.
    contrib = np.empty((3 * num_f + 1, batch, rows.shape[2]))
    contrib[-1] = 0.0
    corner_rows = contrib[:-1].reshape(num_f, 3, batch, -1)
    grad_coeffs = np.zeros_like(coeffs)
    for j in range(3):
        corner_rows[:, j] = (dy @ fj[j]).reshape(num_f, batch, -1)
        xj = rows[ctx.corners[j]].reshape(num_f * batch, -1)
        grad_coeffs += (dy.T @ xj)[:, :, None] * ctx.v2f_basis[j][None, None, :]
    grad_x = contrib[ctx.slots[0]]  # summed over the ring slots, in slot order
    for slot in ctx.slots[1:]:
        grad_x += contrib[slot]
    return _cols(grad_x), grad_coeffs


def _filters(basis, coeffs):
    """Filter matrices F(theta, phi) at (V, K) basis rows, as (V, out, in)."""
    out_ch, in_ch, k = coeffs.shape
    return (basis @ coeffs.reshape(out_ch * in_ch, k).T).reshape(-1, out_ch, in_ch)


def f2v_forward_core(ctx, h, coeffs):
    rows = _padded_rows(h, 0.0)  # (F + 1, B, in)
    acc = 0.0  # (V, B, out), summed one ring slot at a time, in slot order
    for basis, facets in zip(ctx.slot_basis, ctx.slot_facets):
        acc += np.matmul(rows[facets], _filters(basis, coeffs).transpose(0, 2, 1))
    return _cols(acc)


def f2v_backward_core(ctx, coeffs, h, grad_out):
    out_ch, c_in, k = coeffs.shape
    rows = _padded_rows(h, 0.0)  # (F + 1, B, in)
    dv = np.ascontiguousarray(_rows(grad_out))  # (V, B, out)
    grad_coeffs = 0.0  # (out * in, K)
    dhe = np.empty(ctx.slots.shape + rows.shape[1:])  # (D, V, B, in)
    for d, (basis, facets) in enumerate(zip(ctx.slot_basis, ctx.slot_facets)):
        outer = np.matmul(dv.transpose(0, 2, 1), rows[facets])  # (V, out, in)
        grad_coeffs += outer.reshape(-1, out_ch * c_in).T @ basis
        np.matmul(dv, _filters(basis, coeffs), out=dhe[d])
    # Flat row corner_slot[3f + j] of dhe is corner j of facet f.
    flat = dhe.reshape((-1,) + rows.shape[1:])
    corners = ctx.corner_slot.reshape(-1, 3)
    grad_h = flat[corners[:, 0]]
    grad_h += flat[corners[:, 1]]
    grad_h += flat[corners[:, 2]]
    return _cols(grad_h), grad_coeffs.reshape(out_ch, c_in, k)


def leaky_relu(x, slope=LEAKY_SLOPE):
    return np.where(x > 0.0, x, slope * x)


def leaky_relu_grad(x, slope=LEAKY_SLOPE):
    return np.where(x > 0.0, 1.0, slope)


def block_forward(ctx, h, vf, fv, bias, activate):
    """vertex2facet -> facet2vertex -> bias -> optional leaky ReLU.

    Returns the output and what :func:`block_backward` needs, each in the
    layout of the cores' outputs.
    """
    g = v2f_forward_core(ctx, h, vf)
    z = f2v_forward_core(ctx, g, fv)
    pre = z + bias[None, :, None]
    out = leaky_relu(pre) if activate else pre
    return out, (h, g, pre, activate)


def block_backward(ctx, saved, vf, fv, grad_out):
    """Gradients of :func:`block_forward`: (input, vf, fv, bias)."""
    h, g, pre, activate = saved
    if activate:
        grad_out = grad_out * leaky_relu_grad(pre)
    grad_bias = grad_out.sum(axis=(0, 2))
    grad_g, grad_fv = f2v_backward_core(ctx, fv, g, grad_out)
    grad_h, grad_vf = v2f_backward_core(ctx, vf, h, grad_g)
    return grad_h, grad_vf, grad_fv, grad_bias


def pool_max_core(x, clustering, return_argmax=False):
    """Cluster max over the -inf-padded member table; the argmax is a fine
    vertex id, the lowest one on ties."""
    members = _padded_rows(x, -np.inf)[clustering.table]  # (Vc, D, ...)
    out = members.max(axis=1)
    if not return_argmax:
        return _cols(out), None
    # Members ascend, so writing the ids of the slots that hold the max,
    # from the last slot to the first, leaves the lowest.
    table = clustering.table.reshape(clustering.table.shape + (1,) * (out.ndim - 1))
    argmax = np.broadcast_to(table[:, 0], out.shape).copy()
    for d in range(table.shape[1] - 1, -1, -1):
        np.copyto(argmax, table[:, d], where=members[:, d] == out)
    return _cols(out), _cols(argmax)


def pool_max_backward_core(grad_out, argmax, num_fine):
    grad_x = np.zeros((num_fine,) + grad_out.shape[:-1], dtype=np.float64)
    np.put_along_axis(grad_x, _rows(argmax), _rows(grad_out), axis=0)
    return _cols(grad_x)


def unpool_core(x, clustering):
    return _cols(_rows(x)[clustering.parent])


def unpool_backward_core(grad_out, clustering):
    return _cols(_padded_rows(grad_out, 0.0)[clustering.table].sum(axis=1))


# ---------------------------------------------------------------------------
# Spec-level operators on feature maps.


def _check_vertex_input(mesh, x, bank):
    if bank.in_channels != x.channels:
        raise ShapeError(
            f"filter bank expects {bank.in_channels} channels, got {x.channels}"
        )
    if x.num_vertices != mesh.num_vertices:
        raise ShapeError(
            f"feature map has {x.num_vertices} vertices, mesh has {mesh.num_vertices}"
        )


def vertex2facet(mesh, x, bank):
    """Aggregate corner features into facet features with fixed-angle filters."""
    _check_vertex_input(mesh, x, bank)
    ctx = conv_context(mesh, bank.l_max)
    out = v2f_forward_core(ctx, x.values[None], bank.coeffs)[0]
    return FacetFeatureMap(out, level=x.level)


def facet2vertex(mesh, g, bank):
    """Average filter-weighted incident facet features onto each vertex."""
    if bank.in_channels != g.channels:
        raise ShapeError(
            f"filter bank expects {bank.in_channels} channels, got {g.channels}"
        )
    if g.num_facets != mesh.num_facets:
        raise ShapeError(
            f"facet map has {g.num_facets} facets, mesh has {mesh.num_facets}"
        )
    ctx = conv_context(mesh, bank.l_max)
    out = f2v_forward_core(ctx, g.values[None], bank.coeffs)
    return FeatureMap(out[0], level=g.level)


def vertex2vertex(mesh, x, bank_vf, bank_fv, bias=None, activation="leaky_relu"):
    """vertex2facet followed by facet2vertex, plus bias and nonlinearity.

    One :func:`block_forward`; both banks must share one filter degree.
    """
    if (bank_vf.out_channels, bank_vf.l_max) != (bank_fv.in_channels, bank_fv.l_max):
        raise ShapeError(
            f"bank chain mismatch: vertex2facet emits {bank_vf.out_channels} "
            f"channels of degree {bank_vf.l_max}, facet2vertex expects "
            f"{bank_fv.in_channels} of degree {bank_fv.l_max}"
        )
    if activation not in ("leaky_relu", "linear"):
        raise UsageError(f"unknown activation {activation!r}")
    _check_vertex_input(mesh, x, bank_vf)
    bias = np.zeros(bank_fv.out_channels) if bias is None else np.asarray(bias, float)
    out, _ = block_forward(conv_context(mesh, bank_vf.l_max), x.values[None],
                           bank_vf.coeffs, bank_fv.coeffs, bias,
                           activation == "leaky_relu")
    return FeatureMap(out[0], level=x.level)
