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
the nonlinearity), so the backward passes are exact; a block's backward
reads its input, its facet features and its pre-activation's sign.  All
reductions run in a fixed order; identical inputs give bit-identical
outputs.

Each mesh caches a :class:`ConvContext` per filter degree holding its
ring-slot tables, sampled filter basis and backward incidence matrices.

The cores take and return (B, C, N) arrays but compute on their
vertex- or facet-major (N, B, C) row tables, so a channel mix is one
2-D GEMM on (N·B, C) rows.  The network carries every feature as a
(B, C, N) view of a C-contiguous (N, B, C) buffer, so these row tables
cost no copy.

A forward core computes the (row, batch) entries of a :class:`RowSelection`,
reading its input rows through the selection's flat gather indices:
vertex2facet as three GEMMs on the facets' corner rows, facet2vertex with
each active vertex's filters on its facet rows, a pool as the max of its
members' rows, an unpool as a copy of its parent's row.  A dense call is
the identity case: the context's cached full selection reads row
n * B + b of the (N, B, C) table and writes that table.  ROI-masked
detection (:mod:`smmn.anomaly`) runs partial selections on compact
tables: a core takes and gives the (C, P) rows of the selected entries
only, followed, in the encoder, by one base row per table row, which
every unselected entry reads.  facet2vertex, forward and backward, runs
over vertex chunks and, within a chunk, one ring slot at a time, so its
(rows, out, in) filter temporaries follow a fixed byte budget, not the
mesh; each vertex still sums its slots in slot order.  One call builds
each (chunk, slot) filter stack once and applies it to every group of
rows it computes (detection's ROI rows and base rows).  A slot past a
vertex's degree reads the vertex's first facet under a zero basis (in
the facet2vertex backward too).  The dense pool's -1 pads read an appended
-inf row.  Every backward neighbourhood sum (a vertex's corners, a facet's
ring slots, a cluster's members) is one cached sparse 0/1 matrix product.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

from .errors import ShapeError, UsageError
from .mesh import group_matrix, incidence_angles
from .spharm import filter_basis

LEAKY_SLOPE = 0.01

# Fixed vertex2facet filter angles for corners (h1, h2, h3).
_V2F_ANGLES = ((np.pi / 2.0, 0.0), (np.pi / 2.0, np.pi / 2.0), (0.0, 0.0))

# Bytes of one (rows, out, in) facet2vertex temporary: the filters of a
# vertex chunk at one ring slot, or the backward's outer products.
_F2V_CHUNK_BYTES = 8 * 2**20


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

    Ring slot d of vertex v (slot-major, D x V) is its d-th corner 3f + j
    in ascending id, the mesh's one-ring.  ``slot_basis`` (D, V, K) is the
    filter basis there over the vertex degree (slot sums are then
    facet2vertex's means), zero past the degree.  ``slot_facets`` holds
    the facet ids; a slot past the degree repeats the vertex's first
    facet, a row the vertex reads anyway.  The facet2vertex cores slice
    these by vertex chunk.  Row v of the 0/1 ``csr_array``
    ``vertex_corners`` (V, 3F) lists vertex v's corners in ascending id,
    row f of ``facet_slots`` (F, D·V) the flat slots of corners 3f, 3f + 1,
    3f + 2 in that order.  :meth:`full_selection` caches dense selections.
    """

    def __init__(self, mesh, l_max):
        self.l_max = l_max
        self.num_vertices = mesh.num_vertices
        self.num_facets = mesh.num_facets

        self.corners = np.ascontiguousarray(mesh.facets.T)  # (3, F)
        self.v2f_basis = np.stack(
            [filter_basis(l_max, th, ph) for th, ph in _V2F_ANGLES]
        )  # (3, K)

        slots = np.ascontiguousarray(mesh.one_ring.T)  # (D, V), -1 past the degree
        self.slot_facets = np.where(slots >= 0, slots, slots[0]) // 3
        self.vertex_corners = group_matrix(mesh.facets.reshape(-1), self.num_vertices)
        # Each corner's flat slot (pads sort first), unsorted: the fold's order.
        at = np.argsort(slots, axis=None)[(slots < 0).sum():].astype(np.int32)
        starts = np.arange(0, len(at) + 1, 3, dtype=np.int32)
        self.facet_slots = csr_array((np.ones(len(at)), at, starts),
                                     shape=(self.num_facets, slots.size))

        theta, phi = incidence_angles(mesh)
        # Weight 1/degree makes slot sums means; weight 0 clears the pads,
        # which gather the last row of the facet-major (3F, K) basis.
        weight = np.where(slots >= 0, 1.0 / (slots >= 0).sum(axis=0), 0.0)
        self.slot_basis = filter_basis(l_max, theta, phi)[slots]
        self.slot_basis *= weight[..., None]
        self._full = {}  # batch size -> full_selection

    def select(self, facets, vertices, reads=None, base=False):
        """The (facet, vertex) :class:`RowSelection` pair that
        :func:`block_forward` computes on an (F, B) facet and a (V, B)
        vertex mask, with ``base`` rows or without.  ``reads`` (V, B + base)
        gives the flat input row of each entry (the
        :meth:`RowSelection.positions` of the step before), and facet2vertex
        then reads the facet selection's output; by default both read the
        dense layout n * B + b.
        """
        batch = facets.shape[1]
        dense = reads is None
        if dense:
            reads = np.arange(self.num_vertices * batch).reshape(-1, batch)
        f, b = entries(facets, base)
        facet_rows = RowSelection(facets, reads[self.corners[:, f], b], base,
                                  full=dense and facets.all())
        slot_reads = (np.arange(self.num_facets * batch).reshape(-1, batch)
                      if dense else facet_rows.positions())
        # Ring slot d of each active vertex at its selected batch ids, padded
        # to one width; a pad repeats the vertex's first id.
        counts = vertices.sum(axis=1)
        active = np.flatnonzero(counts)
        valid = np.arange(counts.max(initial=0)) < counts[active, None]
        ids = np.zeros(valid.shape, dtype=np.int64)
        ids[valid] = np.nonzero(vertices)[1]
        ids = np.where(valid, ids, ids[:, :1])
        gather = [slot_reads[self.slot_facets[:, active, None], ids]]
        order = np.flatnonzero(valid)
        if base:
            # The base rows of every vertex, the selected ones' first, so
            # that both groups of a vertex chunk share its filters.
            active = np.concatenate([active, np.flatnonzero(~vertices.any(axis=1))])
            gather.append(slot_reads[:, batch:][self.slot_facets[:, active]])
            order = np.concatenate([order, valid.size + np.argsort(active)])
        elif valid.all():
            order = None
        return facet_rows, RowSelection(
            vertices, gather, base, full=dense and vertices.all(), order=order,
            active=None if np.array_equal(active, np.arange(self.num_vertices))
            else active)

    def full_selection(self, batch):
        """:meth:`select` of every row at batch size ``batch``, which a
        dense call runs; built once per batch size."""
        if batch not in self._full:
            self._full[batch] = self.select(np.ones((self.num_facets, batch), bool),
                                            np.ones((self.num_vertices, batch), bool))
        return self._full[batch]


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


def _summed(matrix, rows):
    """``matrix @ rows`` for an (N, ...) row table, as a row table."""
    return (matrix @ rows.reshape(len(rows), -1)).reshape((-1,) + rows.shape[1:])


def _flat(x):
    """The (N·B, C) rows of a (B, C, N) array, entry (n, b) being row
    n * B + b, or the (P, C) rows of a (C, P) one."""
    return _rows(x).reshape(-1, x.shape[-2])


def entries(mask, base=False):
    """The (row, batch) ids of the entries a selection of the (N, B) ``mask``
    computes, in the order it writes them: the True entries in row-major
    order, then, with ``base``, entry (n, B) of every row n."""
    n, b = np.nonzero(mask)
    if base:
        n = np.concatenate([n, np.arange(len(mask))])
        b = np.concatenate([b, np.full(len(mask), mask.shape[1])])
    return n, b


def gathering(mask, index, reads, base=False):
    """The :class:`RowSelection` of the entries of ``mask`` (see
    :func:`entries`) in which entry (n, b) reads input entries
    (index[n], b), the input's rows being laid out by ``reads`` (a
    :meth:`RowSelection.positions` table): a pool's member table, an
    unpool's parents.  An index of -1 reads the last row, a pool's pad."""
    n, b = entries(mask, base)
    index = index[n]
    reads = np.pad(reads, ((0, 1), (0, 0)), constant_values=-1)
    b = b.reshape(b.shape + (1,) * (index.ndim - 1))
    return RowSelection(mask, reads[index, b], base)


class RowSelection:
    """The entries of an (N, B) table that a forward core computes, and the
    flat rows of its input that each one reads.

    ``mask`` is the (N, B) boolean table of selected entries.  The core
    writes one row per entry of :func:`entries`: the selected ones, then,
    with ``base``, one base row per table row, which the row's unselected
    entries equal.  ``full`` says the rows are the dense (N, B) table.

    ``gather`` holds the flat input rows each output row reads: (3, P)
    facet corners for vertex2facet, (P, D) cluster members with -1 pads
    for a pool, (P,) parents for an unpool.  For facet2vertex it is a list
    of (D, A, W) groups, ring slot d of A vertices at W batch ids padded
    to one width.  ``active`` lists the vertices whose filters the core
    builds (None for all, in order), and each group's A vertices lead it.
    ``order`` picks the output rows from the groups' padded rows laid end
    to end (None if they are the output already).
    """

    def __init__(self, mask, gather, base=False, *, full=False, order=None,
                 active=None):
        self.mask, self.gather, self.base, self.full = mask, gather, base, full
        self.order, self.active = order, active

    def positions(self):
        """The (N, B + base) flat row, in this selection's output, of each
        entry; an unselected entry reads its row's base row, or, without
        a base, the row after the output."""
        pos = np.cumsum(self.mask).reshape(self.mask.shape)
        tail = pos[-1, -1]
        pos -= 1
        if self.base:
            tail = tail + np.arange(len(pos))[:, None]
        np.copyto(pos, tail, where=~self.mask)
        return np.hstack([pos, tail]) if self.base else pos

    def result(self, picked):
        """A core's output from its computed rows: the (B, C, N) table for
        the full selection, else the (C, P) rows of :func:`entries`."""
        if self.order is not None:
            picked = picked.take(self.order, axis=0)
        return _cols(picked.reshape((self.mask.shape if self.full else (-1,))
                                    + picked.shape[-1:]))


def v2f_forward_core(ctx, x, coeffs, *, rows=None):
    """Facet features at the (facet, batch) pairs of ``rows``, a
    :class:`RowSelection` of the (F, B) table (every pair by default):
    three GEMMs on the gathered corner rows."""
    rows = rows or ctx.full_selection(x.shape[0])[0]
    fj = np.einsum("oik,jk->joi", coeffs, ctx.v2f_basis)
    flat = _flat(x)
    picked = flat.take(rows.gather[0], axis=0) @ fj[0].T
    picked += flat.take(rows.gather[1], axis=0) @ fj[1].T
    picked += flat.take(rows.gather[2], axis=0) @ fj[2].T
    return rows.result(picked)


def v2f_backward_core(ctx, coeffs, x, grad_out):
    fj = np.einsum("oik,jk->joi", coeffs, ctx.v2f_basis)
    batch, out_ch, num_f = grad_out.shape
    flat = _flat(x)
    dy = _flat(grad_out)  # (F·B, out)
    contrib = np.empty((3 * num_f, batch, flat.shape[1]))  # row 3f + j: corner j's share
    grad_coeffs = np.zeros_like(coeffs)
    for j, gather in enumerate(ctx.full_selection(batch)[0].gather):
        contrib[j::3] = (dy @ fj[j]).reshape(num_f, batch, -1)
        grad_coeffs += (dy.T @ flat.take(gather, axis=0))[:, :, None] * ctx.v2f_basis[j]
    return _cols(_summed(ctx.vertex_corners, contrib)), grad_coeffs


def _filters(basis, coeffs):
    """Filter matrices F(theta, phi) at (V, K) basis rows, as (V, out, in).

    One GEMM, whose rows do not depend on how many there are; a single row
    is computed as two, since numpy runs a one-row product as a GEMV,
    which rounds otherwise.
    """
    out_ch, in_ch, k = coeffs.shape
    rows = basis if len(basis) != 1 else basis.repeat(2, axis=0)
    flat = rows @ coeffs.reshape(out_ch * in_ch, k).T
    return flat[:len(basis)].reshape(-1, out_ch, in_ch)


def _vertex_chunks(count, out_ch, in_ch):
    """Consecutive slices of ``count`` vertices, each short enough that one
    (rows, out, in) filter or outer-product stack fits _F2V_CHUNK_BYTES."""
    step = max(1, _F2V_CHUNK_BYTES // (8 * out_ch * in_ch))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def f2v_forward_core(ctx, h, coeffs, *, rows=None):
    """Vertex features at the (vertex, batch) pairs of ``rows``, a
    :class:`RowSelection` of the (V, B) table (every pair by default):
    each active vertex's filters applied to its gathered facet rows, in
    vertex chunks (:func:`_vertex_chunks`), summed over the ring slots in
    slot order.  Each (chunk, slot) filter stack is built once and serves
    every group of the selection."""
    rows = rows or ctx.full_selection(h.shape[0])[1]
    flat = _flat(h)
    sizes = [gather[0].size for gather in rows.gather]
    picked = np.zeros((sum(sizes), len(coeffs)))
    accs = [acc.reshape(gather.shape[1:] + (-1,)) for acc, gather in  # (A, W, out)
            zip(np.split(picked, np.cumsum(sizes)[:-1]), rows.gather)]
    active = rows.active
    count = ctx.num_vertices if active is None else len(active)
    for part in _vertex_chunks(count, *coeffs.shape[:2]):
        basis = ctx.slot_basis[:, part if active is None else active[part]]
        for d in range(len(basis)):
            filters = _filters(basis[d], coeffs).transpose(0, 2, 1)
            for acc, gather in zip(accs, rows.gather):
                chunk = acc[part]  # the group's vertices lead the chunk's
                chunk += np.matmul(flat.take(gather[d, part], axis=0),
                                   filters[:len(chunk)])
            del filters  # freed before the next slot's filters are built
    return rows.result(picked)


def f2v_backward_core(ctx, coeffs, h, grad_out):
    """Gradients of :func:`f2v_forward_core` on the full selection, (input,
    coeffs), in the forward's vertex chunks and slot order; the coefficient
    gradient sums the chunks in vertex order."""
    out_ch, c_in, k = coeffs.shape
    batch = h.shape[0]
    flat = _flat(h)
    dv = np.ascontiguousarray(_rows(grad_out))  # (V, B, out)
    gathers, = ctx.full_selection(batch)[1].gather  # (D, V, B)
    grad_coeffs = 0.0  # (out * in, K)
    dhe = np.empty(ctx.slot_basis.shape[:2] + (batch, c_in))  # (D, V, B, in)
    for part in _vertex_chunks(len(dv), out_ch, c_in):
        dvp = dv[part]
        for d, (basis, gather) in enumerate(zip(ctx.slot_basis[:, part],
                                                gathers[:, part])):
            # The (rows, out, in) outer products and the gathered rows are
            # temporaries, freed before the filters are built.
            outer = np.matmul(dvp.transpose(0, 2, 1), flat.take(gather, axis=0))
            grad_coeffs += outer.reshape(-1, out_ch * c_in).T @ basis
            del outer
            np.matmul(dvp, _filters(basis, coeffs), out=dhe[d, part])
    grad_h = _summed(ctx.facet_slots, dhe.reshape(-1, batch, c_in))  # corners 0, 1, 2
    return _cols(grad_h), grad_coeffs.reshape(out_ch, c_in, k)


def leaky_relu(x, slope=LEAKY_SLOPE):
    """x where x > 0, else slope * x (for 0 <= slope <= 1), in the memory
    layout of ``x``; NaN stays NaN."""
    out = slope * x
    return np.maximum(out, x, out=out)


def block_forward(ctx, h, vf, fv, bias, activate, *, rows=None):
    """vertex2facet -> facet2vertex -> bias -> optional leaky ReLU.

    Returns the output and what :func:`block_backward` needs, (h, g,
    pre > 0), the sign None if linear, each in the layout of the cores'
    outputs.  ``rows``, the (facet, vertex)
    :class:`RowSelection` pair, defaults to the context's full selections.
    A partial pair (built with ``reads``, see :meth:`ConvContext.select`)
    takes the (C, P) rows of the step before and gives the (C, P) rows of
    its vertex selection; the bias and the activation touch those rows
    only.
    """
    facet_rows, vertex_rows = rows or ctx.full_selection(h.shape[0])
    g = v2f_forward_core(ctx, h, vf, rows=facet_rows)
    pre = f2v_forward_core(ctx, g, fv, rows=vertex_rows)
    pre += bias[:, None]
    out = leaky_relu(pre) if activate else pre
    return out, (h, g, pre > 0.0 if activate else None)


def block_backward(ctx, saved, vf, fv, grad_out):
    """Gradients of :func:`block_forward`: (input, vf, fv, bias)."""
    h, g, positive = saved
    if positive is not None:
        grad_out = grad_out * np.where(positive, 1.0, LEAKY_SLOPE)
    grad_bias = grad_out.sum(axis=(0, 2))
    grad_g, grad_fv = f2v_backward_core(ctx, fv, g, grad_out)
    grad_h, grad_vf = v2f_backward_core(ctx, vf, h, grad_g)
    return grad_h, grad_vf, grad_fv, grad_bias


def pool_max_core(x, clustering, return_argmax=False, *, rows=None):
    """Cluster max over the -inf-padded member table; the argmax is a fine
    vertex id, the lowest one on ties.  With ``rows``, a
    :class:`RowSelection` of the coarse entries, the max of each over its
    gathered member rows, as (C, P) rows."""
    index = clustering.table if rows is None else rows.gather
    fine = _rows(x)  # the -1 pads read a last -inf row
    members = np.concatenate([fine, np.full_like(fine[:1], -np.inf)]).take(index, axis=0)
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


def unpool_core(x, clustering, *, rows=None):
    """Each fine vertex's parent row; with ``rows``, a :class:`RowSelection`
    of the fine entries, each entry's gathered row, as (C, P) rows."""
    index = clustering.parent if rows is None else rows.gather
    return _cols(_rows(x).take(index, axis=0))


def unpool_backward_core(grad_out, clustering):
    return _cols(_summed(clustering.member_matrix, _rows(grad_out)))


# ---------------------------------------------------------------------------
# Spec-level operators on feature maps.


def _check_input(bank, x, count, what):
    """ShapeError unless ``x`` has the bank's input channels and ``count``
    rows, ``what`` naming the map and its rows."""
    if bank.in_channels != x.channels:
        raise ShapeError(
            f"filter bank expects {bank.in_channels} channels, got {x.channels}"
        )
    if x.values.shape[1] != count:
        raise ShapeError(
            f"{what[0]} has {x.values.shape[1]} {what[1]}, mesh has {count}"
        )


def vertex2facet(mesh, x, bank):
    """Aggregate corner features into facet features with fixed-angle filters."""
    _check_input(bank, x, mesh.num_vertices, ("feature map", "vertices"))
    ctx = conv_context(mesh, bank.l_max)
    out = v2f_forward_core(ctx, x.values[None], bank.coeffs)[0]
    return FacetFeatureMap(out, level=x.level)


def facet2vertex(mesh, g, bank):
    """Average filter-weighted incident facet features onto each vertex."""
    _check_input(bank, g, mesh.num_facets, ("facet map", "facets"))
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
    _check_input(bank_vf, x, mesh.num_vertices, ("feature map", "vertices"))
    out_ch = bank_fv.out_channels
    bias = np.zeros(out_ch) if bias is None else np.asarray(bias, float)
    if bias.shape != (out_ch,) or not np.all(np.isfinite(bias)):
        raise ShapeError(f"bias must be finite with shape ({out_ch},), got "
                         f"shape {bias.shape}")
    out, _ = block_forward(conv_context(mesh, bank_vf.l_max), x.values[None],
                           bank_vf.coeffs, bank_fv.coeffs, bias,
                           activation == "leaky_relu")
    return FeatureMap(out[0], level=x.level)
