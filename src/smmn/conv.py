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
reads its input and its pre-activation's sign, and makes its facet
features again.  All reductions run in a fixed order; identical inputs
give bit-identical outputs.

Each mesh caches a :class:`ConvContext` per filter degree holding its
ring-slot tables, sampled filter basis and backward incidence matrices.

The cores take and return (B, C, N) arrays but compute on their
vertex- or facet-major (N, B, C) row tables, so a channel mix is one
2-D GEMM on (N·B, C) rows.  The network carries every feature as a
(B, C, N) view of a C-contiguous (N, B, C) buffer, so these row tables
cost no copy.  Every channel-mix GEMM runs on a multiple of 16 rows
(:func:`_padded`; gather indices and buffers hold the pad rows) with a
C-contiguous right operand.  OpenBLAS then computes a row as among any
other multiple of 16 rows, on its SkylakeX and Haswell kernels alike: a
row's bits do not depend on how many rows share its GEMM.  The limit: on
SkylakeX, products below about 1e6 multiply-adds with an output width of
2, 4 or 12 run on another kernel, which rounds otherwise.

A forward core computes the (row, batch) entries of a :class:`RowSelection`,
reading its input rows through the selection's flat gather indices:
vertex2facet as three GEMMs on the facets' corner rows, facet2vertex as each
entry's filtered ring sum of its vertex's facet rows, a pool as the max of
its members' rows, an unpool as its parent's row.  A dense call is the
identity case: the context's cached full selection reads row n * B + b of
the (N, B, C) table and writes that table.  ROI-masked detection
(:mod:`smmn.anomaly`) runs partial selections on compact tables: a core
takes and gives the (C, P) rows of the selected entries only, followed, in
the encoder, by one base row per table row, which every unselected entry
reads, and computes no other row.  facet2vertex, forward and backward, sums
each filter term over the ring first and mixes channels after, the
patch-operator form of MoNet (Monti et al., 2017), over vertex chunks of a
fixed byte budget, not the mesh.  A slot past a vertex's degree reads its
first facet under a zero basis.  The dense pool's -1 pads read an appended
-inf row.  The convolution backwards work in chunks too, vertex2facet's over
facets: each chunk's shares are added into the input gradient in place, in
the order of a cached sparse 0/1 matrix's columns (a vertex's corners in
ascending id, a facet's corners in ascending vertex id), so no full-mesh
share buffer is made; an unpool's backward folds its clusters so too.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse._sparsetools import csc_matvecs

from .errors import InvariantError, ShapeError, UsageError
from .mesh import incidence_angles, scatter_matrix
from .spharm import filter_basis

LEAKY_SLOPE = 0.01

# Fixed vertex2facet filter angles for corners (h1, h2, h3).
_V2F_ANGLES = ((np.pi / 2.0, 0.0), (np.pi / 2.0, np.pi / 2.0), (0.0, 0.0))

# Bytes of one (K, rows, B·in) facet2vertex aggregate: a vertex chunk that
# stays in L2 cache.
_F2V_AGGREGATE_BYTES = 2**20

# Bytes of one vertex2facet backward chunk buffer, (rows, 3, B·in) corner
# shares.
_V2F_CHUNK_BYTES = 2**20

_ROWS = 16  # see _padded


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
    facet, a row the vertex reads anyway.  The backward folds scatter by
    two 0/1 :func:`~smmn.mesh.scatter_matrix` matrices (:func:`_fold`): column c of
    ``vertex_corners`` (V, 3F) holds corner c's vertex, column v·D + d of
    ``facet_slots`` (F, V·D) the facet of vertex v's ring slot d, none
    past the degree.  :meth:`full_selection` caches dense selections.
    """

    def __init__(self, mesh, l_max):
        self.l_max = l_max
        self.num_vertices = mesh.num_vertices
        self.num_facets = mesh.num_facets

        self.corners = np.ascontiguousarray(mesh.facets.T)  # (3, F)
        self.v2f_basis = np.stack(
            [filter_basis(l_max, th, ph) for th, ph in _V2F_ANGLES]
        )  # (3, K)

        ring = mesh.one_ring  # (V, D), -1 past the degree
        slots = np.ascontiguousarray(ring.T)
        self.slot_facets = np.where(slots >= 0, slots, slots[0]) // 3
        self.vertex_corners = scatter_matrix(mesh.facets.reshape(-1), self.num_vertices)
        self.facet_slots = scatter_matrix(np.where(ring >= 0, ring // 3, -1).reshape(-1),
                                          self.num_facets)

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
        dense layout n * B + b.  facet2vertex's gather holds one row per
        entry, unless it takes every entry and no base rows.
        """
        batch = facets.shape[1]
        dense = reads is None
        if dense:
            reads = np.arange(self.num_vertices * batch).reshape(-1, batch)
        f, b = (np.pad(i, (0, _padded(len(i)) - len(i))) for i in entries(facets, base))
        facet_rows = RowSelection(facets, reads[self.corners[:, f], b], base,
                                  full=dense and facets.all())
        slot_reads = (np.arange(self.num_facets * batch).reshape(-1, batch)
                      if dense else facet_rows.positions())
        if vertices.all() and not base:  # ring slot d of every vertex at every batch id
            gather, active = slot_reads[self.slot_facets], None
        else:  # one row per entry: ring slot d of its vertex at its batch id
            v, b = entries(vertices, base)
            gather, active = slot_reads[self.slot_facets[:, v], b][..., None], v
        return facet_rows, RowSelection(vertices, gather, base, active=active,
                                        full=dense and vertices.all())

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


def _padded(count):
    """The row count of a channel-mix GEMM on ``count`` rows: the next
    multiple of _ROWS, the module docstring's row rule."""
    return -(-count // _ROWS) * _ROWS


def _window(table, start, count):
    """Rows ``start`` on of an (N, C) table, ``_padded(count)`` of them, as
    a view, or with zero rows past the table's end."""
    rows = _padded(count)
    block = table[start:start + rows]
    return block if len(block) == rows else np.pad(block, ((0, rows - len(block)), (0, 0)))


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
    facet corners for vertex2facet, P rounded up by :func:`_padded` (a pad
    reads facet 0 at batch id 0), (P, D) cluster members with -1 pads
    for a pool, (P,) parents for an unpool.  For facet2vertex it is (D, A,
    W), ring slot d of vertex ``active[a]`` at W batch ids: (D, V, B) for
    every vertex at every batch id (``active`` None), else (D, P, 1), one
    row per entry.
    """

    def __init__(self, mask, gather, base=False, *, full=False, active=None):
        self.mask, self.gather, self.base, self.full = mask, gather, base, full
        self.active = active

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
        """A core's output from its computed rows, which lead ``picked``
        (pad rows may follow): the (B, C, N) table for the full selection,
        else the (C, P) rows of :func:`entries`."""
        size = np.count_nonzero(self.mask) + self.base * len(self.mask)
        picked = picked.reshape(-1, picked.shape[-1])[:size]
        return _cols(picked.reshape((self.mask.shape if self.full else (-1,))
                                    + picked.shape[-1:]))


def v2f_forward_core(ctx, x, coeffs, *, rows=None):
    """Facet features at the (facet, batch) pairs of ``rows``, a
    :class:`RowSelection` of the (F, B) table (every pair by default):
    three GEMMs on the gathered corner rows."""
    rows = rows or ctx.full_selection(x.shape[0])[0]
    fj = np.einsum("oik,jk->joi", coeffs, ctx.v2f_basis)
    fj = np.ascontiguousarray(fj.transpose(0, 2, 1))  # (3, in, out)
    flat = _flat(x)
    picked = flat.take(rows.gather[0], axis=0) @ fj[0]
    picked += flat.take(rows.gather[1], axis=0) @ fj[1]
    picked += flat.take(rows.gather[2], axis=0) @ fj[2]
    return rows.result(picked)


def v2f_backward_core(ctx, coeffs, x, grad_out):
    """Gradients of :func:`v2f_forward_core` on the full selection, (input,
    coeffs), over facet chunks: a chunk's corner shares dy F_j, made in one
    reused buffer, are added to each vertex's rows in ascending corner id
    (:func:`_fold`), and its corners' input rows, gathered side by side into
    a (rows·B, 3·in) table, give the coefficient gradient in one GEMM."""
    fj = np.ascontiguousarray(np.einsum("oik,jk->joi", coeffs, ctx.v2f_basis))
    batch, out_ch, num_f = grad_out.shape
    flat, in_ch = _flat(x), x.shape[1]
    dy = np.ascontiguousarray(_flat(grad_out))  # (F·B, out)
    gather = ctx.full_selection(batch)[0].gather  # (3, F·B + pad)
    grad_x = np.zeros((ctx.num_vertices, batch, in_ch))
    grad_fj = np.zeros((out_ch, 3 * in_ch))  # dyᵀ [x_0 x_1 x_2]
    # A multiple of _ROWS facets, so no chunk but the last has pad rows.
    step = _ROWS * max(1, _V2F_CHUNK_BYTES // (_ROWS * 24 * batch * in_ch))
    shares = np.empty((min(step, num_f), 3, batch * in_ch))  # row 3f + j: corner j's
    corners = np.empty((min(step, num_f) * batch, 3, in_ch))
    for lo in range(0, num_f, step):
        count = min(step, num_f - lo)
        part = slice(lo * batch, (lo + count) * batch)
        dyc = _window(dy, part.start, count * batch)
        for j in range(3):
            shares[:count, j] = (dyc @ fj[j])[:count * batch].reshape(count, -1)
        _fold(grad_x, ctx.vertex_corners, slice(3 * lo, 3 * (lo + count)), shares[:count])
        picked = np.take(flat, gather[:, part].T, axis=0, out=corners[:count * batch],
                         mode="clip")  # the gather's ids are in range
        grad_fj += dyc[:count * batch].T @ picked.reshape(count * batch, -1)
    grad_coeffs = np.einsum("oji,jk->oik", grad_fj.reshape(out_ch, 3, in_ch), ctx.v2f_basis)
    return _cols(grad_x), grad_coeffs


def _fold(total, matrix, cols, rows):
    """``total += matrix[:, cols] @ rows`` in place, for a slice ``cols`` of
    a ``csc_array``, a C-contiguous (N, ...) ``total`` and one row of its
    row size per column.  scipy's compiled CSC kernel adds each row into
    its total row by ascending column, so a total row sums its columns in
    ascending order wherever the columns are cut."""
    width, count = total[0].size, cols.stop - cols.start
    if rows.size != count * width or not total.flags.c_contiguous:
        # The kernel trusts its sizes: a mismatch would write out of bounds.
        raise InvariantError(f"cannot fold {rows.shape} rows of {count} columns "
                             f"into a {total.shape} table")
    csc_matvecs(len(total), count, width, matrix.indptr[cols.start:cols.stop + 1],
                matrix.indices, matrix.data, rows.reshape(-1), total.reshape(-1))


def _f2v_step(ctx, width):
    """Vertices per facet2vertex chunk of W·in = ``width`` columns."""
    return max(1, _F2V_AGGREGATE_BYTES // (8 * ctx.slot_basis.shape[2] * width))


def _aggregates(ctx, flat, gather, active):
    """Per vertex chunk of a (D, A, W) facet2vertex ``gather``, its slice
    and the (K, rows·W, in) sums a[k, a] = sum_d slot_basis[d, a, k]
    flat[gather[d, a]] (``active`` as in :class:`RowSelection`), then pad
    rows, in one reused buffer of about _F2V_AGGREGATE_BYTES."""
    slots, count, width = gather.shape
    k, in_ch = ctx.slot_basis.shape[2], flat.shape[1]
    step = _f2v_step(ctx, width * in_ch)
    buffer = np.zeros((k, _padded(min(step, count) * width), in_ch))
    for lo in range(0, count, step):
        part = slice(lo, min(lo + step, count))
        basis = ctx.slot_basis[:, part if active is None else active[part]]
        rows = (part.stop - lo) * width
        np.matmul(basis.transpose(1, 2, 0),  # (rows, K, D) @ (rows, D, W·in)
                  flat.take(gather[:, part].transpose(1, 0, 2), axis=0).reshape(
                      -1, slots, width * in_ch),
                  out=buffer[:, :rows].reshape(k, -1, width * in_ch).transpose(1, 0, 2))
        yield part, buffer[:, :_padded(rows)]


def f2v_forward_core(ctx, h, coeffs, *, rows=None):
    """Vertex features at the (vertex, batch) pairs of ``rows``, a
    :class:`RowSelection` of the (V, B) table (every pair by default): per
    vertex chunk, one GEMM per filter term mixes its ring sums
    (:func:`_aggregates`), added in term order.  A row's bits do not depend
    on the other rows, within the module docstring's limit."""
    rows = rows or ctx.full_selection(h.shape[0])[1]
    out_ch = coeffs.shape[0]
    mix = np.ascontiguousarray(coeffs.transpose(2, 1, 0))  # (K, in, out)
    acc = np.zeros(rows.gather.shape[1:] + (out_ch,))  # (A, W, out)
    for part, agg in _aggregates(ctx, _flat(h), rows.gather, rows.active):
        chunk = acc[part].reshape(-1, out_ch)
        for term in np.matmul(agg, mix):
            chunk += term[:len(chunk)]
        del term  # and with it the chunk's (K, rows, out) products
    return rows.result(acc)


def f2v_backward_core(ctx, coeffs, h, grad_out):
    """Gradients of :func:`f2v_forward_core` on the full selection, (input,
    coeffs), over its chunks: a chunk's aggregate, made again, gives the
    coefficient gradient dyᵀ a[k], then holds its own gradient dy C_k, which
    the basis spreads over the ring slots.  :func:`_fold` adds each slot's
    share into its facet's rows, so a facet sums its corners' shares in
    ascending vertex id, whatever the chunks."""
    out_ch, c_in, k = coeffs.shape
    batch = h.shape[0]
    flat = _flat(h)
    dv = np.ascontiguousarray(_flat(grad_out))  # (V·B, out)
    gather = ctx.full_selection(batch)[1].gather  # (D, V, B)
    slots = len(gather)
    grad_h = np.zeros((ctx.num_facets, batch, c_in))
    shares = np.empty((min(_f2v_step(ctx, batch * c_in), ctx.num_vertices), slots,
                       batch * c_in))  # (rows, D, B·in)
    mix = np.ascontiguousarray(coeffs.transpose(2, 0, 1))  # (K, out, in)
    grad_coeffs = np.zeros((k, out_ch, c_in))
    for part, agg in _aggregates(ctx, flat, gather, None):
        count = (part.stop - part.start) * batch
        window = _window(dv, part.start * batch, count)  # (rows·B + pad, out)
        grad_coeffs += np.matmul(window[:count].T, agg[:, :count])
        np.matmul(window, mix, out=agg)  # the gradient, in place
        chunk = shares[:part.stop - part.start]
        np.matmul(ctx.slot_basis[:, part].transpose(1, 0, 2),
                  agg[:, :count].reshape(k, -1, batch * c_in).transpose(1, 0, 2), out=chunk)
        _fold(grad_h, ctx.facet_slots, slice(slots * part.start, slots * part.stop), chunk)
    return _cols(grad_h), grad_coeffs.transpose(1, 2, 0)


def leaky_relu(x, slope=LEAKY_SLOPE):
    """x where x > 0, else slope * x (for 0 <= slope <= 1), in the memory
    layout of ``x``; NaN stays NaN."""
    out = slope * x
    return np.maximum(out, x, out=out)


def block_forward(ctx, h, vf, fv, bias, activate, *, rows=None):
    """vertex2facet -> facet2vertex -> bias -> optional leaky ReLU.

    Returns the output and what :func:`block_backward` needs, (h, pre >
    0), the sign None if linear, each in the layout of the cores' outputs;
    the facet features are not kept.  ``rows``, the (facet, vertex)
    :class:`RowSelection` pair, defaults to the context's full selections.
    A partial pair (built with ``reads``, see :meth:`ConvContext.select`)
    takes the (C, P) rows of the step before and gives the (C, P) rows of
    its vertex selection; the bias and the activation touch those rows
    only.
    """
    facet_rows, vertex_rows = rows or ctx.full_selection(h.shape[0])
    g = v2f_forward_core(ctx, h, vf, rows=facet_rows)
    pre = f2v_forward_core(ctx, g, fv, rows=vertex_rows)
    del g  # before the bias, activation and sign make their buffers
    pre += bias[:, None]
    out = leaky_relu(pre) if activate else pre
    return out, (h, pre > 0.0 if activate else None)


def block_backward(ctx, saved, vf, fv, grad_out):
    """Gradients of :func:`block_forward`: (input, vf, fv, bias).  The
    facet features are made again from the saved input, the forward's
    call, so they have its bits, and freed before the vertex2facet
    backward (gradient checkpointing, Chen et al., 2016)."""
    h, positive = saved
    if positive is not None:
        grad_out = grad_out * np.where(positive, 1.0, LEAKY_SLOPE)
    grad_bias = grad_out.sum(axis=(0, 2))
    grad_g, grad_fv = f2v_backward_core(ctx, fv, v2f_forward_core(ctx, h, vf), grad_out)
    del grad_out  # the masked copy, freed before the vertex2facet backward
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
    grad_x = np.zeros((clustering.num_coarse,) + grad_out.shape[:-1])
    _fold(grad_x, clustering.member_matrix, slice(0, clustering.num_fine), _rows(grad_out))
    return _cols(grad_x)


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
