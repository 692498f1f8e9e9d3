"""Spherical triangle meshes, the icosphere hierarchy, and resampling.

Meshes are closed genus-0 triangle meshes with unit-norm vertices and
consistent outward winding.  Icospheres are built by recursive 1-to-4
subdivision of a regular icosahedron with midpoints projected back to
the unit sphere; order k has ``10 * 4**k + 2`` vertices.  Vertex
ordering is canonical: the first vertices of order k are exactly the
order k-1 vertices, followed by edge midpoints in ascending
(min, max) edge order.

Variable-size neighbourhoods (the facets around a vertex or an edge,
the members of a pooling cluster) list their ids in ascending order, as
a -1-padded :func:`padded_groups` table, which gathers read, or as a sparse
0/1 :func:`scatter_matrix`, whose columns a fold (:func:`smmn.conv._fold`)
adds into each group's row in that order.  All structures are immutable
after construction and safe to share across threads.
"""

from dataclasses import dataclass, field
from functools import cached_property
import math

import numpy as np
from scipy.sparse import csc_array
from scipy.spatial import cKDTree

from .errors import ConfigurationError, InvariantError, UsageError

MAX_ICOSPHERE_ORDER = 8

_UNIT_NORM_TOL = 1e-9
_CONTAINMENT_EPS = 1e-12
_WEIGHT_SNAP = 1e-13
_POLE_TOL = 1e-6


def _normalize_rows(points):
    norms = np.linalg.norm(points, axis=-1, keepdims=True)
    return points / norms


def scatter_matrix(keys, n):
    """Ids 0..len(keys)-1 grouped by key: the (n, len(keys)) 0/1 int32-indexed
    ``csc_array`` whose column i holds a 1 in row keys[i], none if keys[i] < 0."""
    keys = np.asarray(keys, dtype=np.int32)
    ids = np.flatnonzero(keys >= 0).astype(np.int32)
    return csc_array((np.ones(len(ids)), (keys[ids], ids)), shape=(n, len(keys)))


def padded_groups(keys, n):
    """Ids 0..len(keys)-1 grouped by key as an (n, D) table: row k lists the
    ids with key k in ascending order, padded with -1 to the largest size D."""
    keys = np.asarray(keys, dtype=np.int64)
    counts = np.bincount(keys, minlength=n)
    table = np.full((n, counts.max(initial=0)), -1, dtype=np.int64)
    # Boolean assignment fills row by row, in the order of the stably sorted ids.
    table[np.arange(table.shape[1]) < counts[:, None]] = np.argsort(keys, kind="stable")
    table.setflags(write=False)
    return table


class TriMesh:
    """Immutable spherical triangle mesh.

    Parameters
    ----------
    vertices : (V, 3) array
        Unit-sphere coordinates.
    facets : (F, 3) int array
        Vertex-index triples with consistent outward winding.
    validate : bool
        Check the structural invariants on construction.
    """

    def __init__(self, vertices, facets, validate=True):
        vertices = np.array(vertices, dtype=np.float64)
        facets = np.array(facets, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise InvariantError(f"vertices must be (V, 3), got {vertices.shape}")
        if facets.ndim != 2 or facets.shape[1] != 3:
            raise InvariantError(f"facets must be (F, 3), got {facets.shape}")
        if facets.size and (facets.min() < 0 or facets.max() >= len(vertices)):
            raise InvariantError("facet indices out of vertex range")
        vertices.setflags(write=False)
        facets.setflags(write=False)
        self.vertices = vertices
        self.facets = facets
        self._conv_cache = {}
        if validate:
            self.validate()

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_facets(self):
        return len(self.facets)

    @cached_property
    def _edge_data(self):
        # Slot j of facet f is the edge (facets[f, j], facets[f, (j+1) % 3]).
        pairs = np.stack(
            [self.facets[:, [0, 1]], self.facets[:, [1, 2]], self.facets[:, [2, 0]]],
            axis=1,
        ).reshape(-1, 2)
        pairs_sorted = np.sort(pairs, axis=1)
        edges, inverse = np.unique(pairs_sorted, axis=0, return_inverse=True)
        edges.setflags(write=False)
        facet_edges = inverse.reshape(self.num_facets, 3)
        facet_edges.setflags(write=False)
        return edges, facet_edges

    @property
    def edges(self):
        """(E, 2) array of vertex pairs, each (min, max), lexicographically sorted."""
        return self._edge_data[0]

    @property
    def facet_edges(self):
        """(F, 3) edge ids; slot j is the edge from corner j to corner j+1."""
        return self._edge_data[1]

    @property
    def num_edges(self):
        return len(self.edges)

    @cached_property
    def edge_facets(self):
        """(E, 2) incident facet ids per edge, ascending; raises if non-manifold."""
        table = padded_groups(self.facet_edges.reshape(-1), self.num_edges)
        counts = (table >= 0).sum(axis=1)
        if np.any(counts != 2):
            bad = int(np.argmax(counts != 2))
            raise InvariantError(
                f"mesh is not a closed 2-manifold: edge {bad} lies on "
                f"{int(counts[bad])} facets"
            )
        out = table // 3
        out.setflags(write=False)
        return out

    @cached_property
    def one_ring(self):
        """(V, D) corner ids 3f + j at which each vertex sits, ascending in f,
        padded with -1 up to the largest vertex degree D."""
        return padded_groups(self.facets.reshape(-1), self.num_vertices)

    def vertex_facets(self, v):
        """Ascending ids of the facets incident to vertex v."""
        ring = self.one_ring[v]
        return ring[ring >= 0] // 3

    @cached_property
    def facet_normals(self):
        """(F, 3) unit outward facet normals."""
        a, b, c = (self.vertices[self.facets[:, j]] for j in range(3))
        raw = np.cross(b - a, c - a)
        norms = np.linalg.norm(raw, axis=1)
        if np.any(norms <= 0.0):
            raise InvariantError("mesh contains a degenerate (zero-area) facet")
        out = raw / norms[:, None]
        out.setflags(write=False)
        return out

    @cached_property
    def facet_centroid_dirs(self):
        """(F, 3) unit directions of facet centroids."""
        cent = self.vertices[self.facets].mean(axis=1)
        out = _normalize_rows(cent)
        out.setflags(write=False)
        return out

    def validate(self):
        """Raise :class:`InvariantError` if any structural invariant fails."""
        norms = np.linalg.norm(self.vertices, axis=1)
        if np.any(np.abs(norms - 1.0) > _UNIT_NORM_TOL):
            bad = int(np.argmax(np.abs(norms - 1.0)))
            raise InvariantError(
                f"vertex {bad} is not on the unit sphere (|v| = {norms[bad]!r})"
            )
        self.edge_facets  # manifold check
        euler = self.num_vertices - self.num_edges + self.num_facets
        if euler != 2:
            raise InvariantError(f"Euler characteristic is {euler}, expected 2")
        cent = self.vertices[self.facets].mean(axis=1)
        if np.any(np.einsum("ij,ij->i", self.facet_normals, cent) <= 0.0):
            bad = int(
                np.argmax(np.einsum("ij,ij->i", self.facet_normals, cent) <= 0.0)
            )
            raise InvariantError(f"facet {bad} is wound inward")


# Regular icosahedron with outward CCW winding.
_PHI = (1.0 + math.sqrt(5.0)) / 2.0
_ICO_VERTICES = np.array(
    [
        (-1.0, _PHI, 0.0),
        (1.0, _PHI, 0.0),
        (-1.0, -_PHI, 0.0),
        (1.0, -_PHI, 0.0),
        (0.0, -1.0, _PHI),
        (0.0, 1.0, _PHI),
        (0.0, -1.0, -_PHI),
        (0.0, 1.0, -_PHI),
        (_PHI, 0.0, -1.0),
        (_PHI, 0.0, 1.0),
        (-_PHI, 0.0, -1.0),
        (-_PHI, 0.0, 1.0),
    ]
) / math.sqrt(1.0 + _PHI * _PHI)
_ICO_FACETS = np.array(
    [
        (0, 11, 5),
        (0, 5, 1),
        (0, 1, 7),
        (0, 7, 10),
        (0, 10, 11),
        (1, 5, 9),
        (5, 11, 4),
        (11, 10, 2),
        (10, 7, 6),
        (7, 1, 8),
        (3, 9, 4),
        (3, 4, 2),
        (3, 2, 6),
        (3, 6, 8),
        (3, 8, 9),
        (4, 9, 5),
        (2, 4, 11),
        (6, 2, 10),
        (8, 6, 7),
        (9, 8, 1),
    ],
    dtype=np.int64,
)

_icosphere_cache = {}


def icosphere(order):
    """Canonical icosphere of the given subdivision order.

    Order 0 is the regular icosahedron; order k has ``10 * 4**k + 2``
    vertices.  Meshes are cached and shared; treat them as read-only.
    """
    if order < 0 or int(order) != order:
        raise ConfigurationError(f"icosphere order must be a non-negative integer")
    order = int(order)
    if order > MAX_ICOSPHERE_ORDER:
        raise ConfigurationError(
            f"icosphere order {order} exceeds the guard "
            f"({MAX_ICOSPHERE_ORDER}); build coarser meshes"
        )
    if order not in _icosphere_cache:
        if order == 0:
            mesh = TriMesh(_ICO_VERTICES, _ICO_FACETS)
        else:
            mesh = subdivide(icosphere(order - 1))
        _icosphere_cache[order] = mesh
    return _icosphere_cache[order]


def subdivide(mesh):
    """Split every facet 1-to-4 via sphere-projected edge midpoints.

    The input vertices keep their indices; midpoints are appended in
    ascending (min, max) edge order, making the refinement deterministic.
    """
    mesh.edge_facets  # raises on non-manifold input
    v = mesh.vertices
    edges = mesh.edges
    midpoints = _normalize_rows(v[edges[:, 0]] + v[edges[:, 1]])
    new_vertices = np.vstack([v, midpoints])

    mid_idx = mesh.num_vertices + np.arange(mesh.num_edges)
    m_ab = mid_idx[mesh.facet_edges[:, 0]]
    m_bc = mid_idx[mesh.facet_edges[:, 1]]
    m_ca = mid_idx[mesh.facet_edges[:, 2]]
    a, b, c = mesh.facets[:, 0], mesh.facets[:, 1], mesh.facets[:, 2]
    children = np.stack(
        [
            np.stack([a, m_ab, m_ca], axis=1),
            np.stack([m_ab, b, m_bc], axis=1),
            np.stack([m_ca, m_bc, c], axis=1),
            np.stack([m_ab, m_bc, m_ca], axis=1),
        ],
        axis=1,
    ).reshape(-1, 3)
    return TriMesh(new_vertices, children)


@dataclass(frozen=True)
class VertexClustering:
    """Assignment of fine-level vertices to coarse-level clusters.

    ``parent[v]`` is the coarse vertex owning fine vertex v; every coarse
    vertex owns at least itself.  Row c of the (num_coarse, D) ``table``
    (:func:`padded_groups`) and of ``member_matrix`` (:func:`scatter_matrix`)
    lists cluster c's fine vertices in ascending order.
    """

    parent: np.ndarray

    @cached_property
    def table(self):
        return padded_groups(self.parent, self.num_coarse)

    @cached_property
    def member_matrix(self):
        return scatter_matrix(self.parent, self.num_coarse)

    @property
    def num_fine(self):
        return len(self.parent)

    @property
    def num_coarse(self):
        return int(self.parent.max()) + 1

    def members(self, c):
        row = self.table[c]
        return row[row >= 0]


def cluster_to_coarse(coarse):
    """Parent of each vertex of ``subdivide(coarse)`` among the coarse vertices.

    Coarse vertices map to themselves.  The midpoint of edge (a, b), a < b,
    appended in ``coarse.edges`` order, is equidistant from a and b and
    nearer to them than to any other coarse vertex; the tie breaks to a.
    """
    parent = np.concatenate([np.arange(coarse.num_vertices), coarse.edges[:, 0]])
    parent.setflags(write=False)
    return parent


@dataclass(frozen=True)
class IcosphereHierarchy:
    """Icosphere meshes of orders 0..max_order plus their clusterings.

    ``clusterings[k]`` maps each order k+1 vertex onto its subdivision
    parent at order k (see :func:`cluster_to_coarse`).
    """

    levels: tuple
    clusterings: tuple

    @property
    def max_order(self):
        return len(self.levels) - 1

    def mesh(self, order):
        return self.levels[order]

    def clustering(self, fine_order):
        """Clustering from ``fine_order`` down to ``fine_order - 1``."""
        if fine_order < 1 or fine_order > self.max_order:
            raise UsageError(f"no clustering below order {fine_order}")
        return self.clusterings[fine_order - 1]


def build_hierarchy(max_order):
    """Build icosphere levels 0..max_order with subdivision-parent clusterings.

    Each order k+1 vertex clusters onto the order k vertex it came from;
    an edge midpoint onto the edge's lower endpoint (its nearest one).
    """
    if max_order < 1:
        raise ConfigurationError("hierarchy needs max_order >= 1")
    levels = tuple(icosphere(k) for k in range(max_order + 1))
    clusterings = tuple(
        VertexClustering(cluster_to_coarse(levels[k]))
        for k in range(max_order)
    )
    return IcosphereHierarchy(levels=levels, clusterings=clusterings)


def local_frames(vertices, north=(0.0, 0.0, 1.0), east=(1.0, 0.0, 0.0)):
    """Tangent-plane bases (e1, e2) at unit vertices.

    e1 is the normalized tangent projection of ``north``; vertices within
    1e-6 of +/-north use ``east`` instead.  e2 = v x e1 completes the
    right-handed frame.
    """
    vertices = np.asarray(vertices, dtype=np.float64)
    north = np.asarray(north, dtype=np.float64)
    east = np.asarray(east, dtype=np.float64)
    proj = north - (vertices @ north)[:, None] * vertices
    polar = np.minimum(
        np.linalg.norm(vertices - north, axis=1),
        np.linalg.norm(vertices + north, axis=1),
    )
    fallback = polar < _POLE_TOL
    if np.any(fallback):
        alt = east - (vertices[fallback] @ east)[:, None] * vertices[fallback]
        proj[fallback] = alt
    e1 = _normalize_rows(proj)
    e2 = np.cross(vertices, e1)
    return e1, e2


def incidence_angles(mesh, north=(0.0, 0.0, 1.0), east=(1.0, 0.0, 0.0)):
    """Facet-normal angles (theta, phi) for every vertex-facet incidence.

    Returns (theta, phi) arrays of length 3F in facet-major order
    (incidence ``3 * f + j`` is corner j of facet f).  theta is the angle
    between the facet normal and the vertex direction; phi is the azimuth
    of the normal's tangent projection in the vertex frame, in [0, 2 pi).
    """
    verts = mesh.vertices[mesh.facets.reshape(-1)]
    normals = np.repeat(mesh.facet_normals, 3, axis=0)
    e1, e2 = local_frames(verts, north=north, east=east)
    cos_t = np.clip(np.einsum("ij,ij->i", normals, verts), -1.0, 1.0)
    theta = np.arccos(cos_t)
    tang = normals - cos_t[:, None] * verts
    phi = np.arctan2(
        np.einsum("ij,ij->i", tang, e2), np.einsum("ij,ij->i", tang, e1)
    )
    phi = np.mod(phi, 2.0 * math.pi)
    return theta, phi


def facet_geometry(mesh, v, f, north=(0.0, 0.0, 1.0), east=(1.0, 0.0, 0.0)):
    """Angles (theta_f, phi_f) of facet f's normal seen from vertex v."""
    corners = mesh.facets[f]
    matches = np.flatnonzero(corners == v)
    if len(matches) == 0:
        raise UsageError(f"facet {f} is not incident to vertex {v}")
    mesh.facet_normals  # raises on degenerate facets
    theta, phi = incidence_angles(mesh, north=north, east=east)
    e = 3 * f + int(matches[0])
    return float(theta[e]), float(phi[e])


def sphere_angles(points):
    """Colatitude/azimuth (theta in [0, pi], phi in [0, 2 pi)) of unit points."""
    points = np.asarray(points, dtype=np.float64)
    theta = np.arccos(np.clip(points[..., 2], -1.0, 1.0))
    phi = np.mod(np.arctan2(points[..., 1], points[..., 0]), 2.0 * math.pi)
    return theta, phi


def _candidate_pass(src, dirs, cand):
    """Containment test of each direction against padded candidate facets."""
    tri = src.vertices[src.facets[cand]]  # (N, M, 3, 3); pads are masked below
    ok = cand >= 0
    for j in range(3):  # inside the great circle through corners j and j + 1
        normal = np.cross(tri[..., j, :], tri[..., (j + 1) % 3, :])
        side = np.einsum("nmi,nmi->nm", normal, dirs[:, None, :])
        ok &= side >= -_CONTAINMENT_EPS
    return ok


def locate_facets(src, dirs):
    """Facet of ``src`` whose spherical triangle contains each direction.

    Candidates are gathered around nearest source vertices and tested by
    determinant signs with a small slack; directions that defeat the
    search (numerically on an edge or outside all candidates) fall back
    to the facet with the nearest centroid, so the result is total.
    """
    dirs = _normalize_rows(np.asarray(dirs, dtype=np.float64))
    tree = cKDTree(src.vertices)
    result = np.full(len(dirs), -1, dtype=np.int64)

    for k_near in (1, 8):
        pending = np.where(result < 0)[0]
        if len(pending) == 0:
            return result
        _, near = tree.query(dirs[pending], k=k_near)
        # Facets around the nearest vertices; the -1 pads stay -1.
        cand = src.one_ring[near].reshape(len(pending), -1) // 3
        ok = _candidate_pass(src, dirs[pending], cand)
        choice = np.where(ok, cand, np.iinfo(np.int64).max).min(axis=1)
        hit = ok.any(axis=1)
        result[pending[hit]] = choice[hit]

    pending = np.where(result < 0)[0]
    if len(pending):
        ctree = cKDTree(src.facet_centroid_dirs)
        _, fallback = ctree.query(dirs[pending], k=1)
        result[pending] = fallback
    return result


def _barycentric_in_facets(src, dirs, facet_ids):
    """Central-projection barycentric weights of directions in given facets.

    Weights are clamped to the simplex: entries below 1e-13 snap to zero
    and rows renormalize to sum exactly to 1, so a direction coincident
    with a source vertex gets weight exactly 1 there.
    """
    tri = src.vertices[src.facets[facet_ids]]  # (N, 3, 3) rows a, b, c
    mats = np.swapaxes(tri, 1, 2)  # columns are corner positions
    w = np.linalg.solve(mats, dirs[..., None])[..., 0]
    w = np.where(w < _WEIGHT_SNAP, 0.0, w)
    return w / w.sum(axis=1, keepdims=True)


def resample_barycentric(src, src_values, dst):
    """Resample per-vertex values from ``src`` onto ``dst``.

    ``src_values`` may be (V,) or (..., V); interpolation is linear with
    non-negative weights that sum to one (so constants are preserved and
    self-resampling is the identity).
    """
    src_values = np.asarray(src_values, dtype=np.float64)
    if src_values.shape[-1] != src.num_vertices:
        raise UsageError(
            f"got {src_values.shape[-1]} values for a {src.num_vertices}-vertex mesh"
        )
    facet_ids = locate_facets(src, dst.vertices)
    w = _barycentric_in_facets(src, dst.vertices, facet_ids)
    corners = src.facets[facet_ids]  # (N, 3)
    gathered = src_values[..., corners]  # (..., N, 3)
    return np.einsum("...nj,nj->...n", gathered, w)


@dataclass
class AtlasLabels:
    """Per-vertex ROI labels; id 0 marks unknown / medial wall.

    Every id present in ``labels`` gets a name ("roi_<id>" is synthesized
    when none is supplied).
    """

    labels: np.ndarray
    names: dict = field(default_factory=dict)
    hemisphere: str = "left"

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.hemisphere not in ("left", "right"):
            raise UsageError(f"hemisphere must be left or right, got {self.hemisphere!r}")
        names = {0: "unknown"}
        names.update(self.names)
        for rid in np.unique(self.labels):
            names.setdefault(int(rid), f"roi_{int(rid)}")
        self.names = names

    @property
    def num_vertices(self):
        return len(self.labels)

    def roi_ids(self):
        """Sorted ids of the labeled (non-zero) ROIs present."""
        ids = np.unique(self.labels)
        return [int(r) for r in ids if r != 0]

    def roi_vertices(self, roi_id):
        return np.flatnonzero(self.labels == roi_id)


def resample_labels(src, src_labels, dst):
    """Transfer atlas labels onto ``dst`` by maximal barycentric weight.

    Weight ties (within 1e-12) resolve to the lowest source vertex index.
    """
    if src_labels.num_vertices != src.num_vertices:
        raise UsageError("label array length does not match the source mesh")
    facet_ids = locate_facets(src, dst.vertices)
    w = _barycentric_in_facets(src, dst.vertices, facet_ids)
    corners = src.facets[facet_ids]  # (N, 3)
    near_max = w >= w.max(axis=1, keepdims=True) - 1e-12
    pick_vertex = np.where(near_max, corners, np.iinfo(np.int64).max).min(axis=1)
    labels = src_labels.labels[pick_vertex]
    return AtlasLabels(
        labels=labels, names=dict(src_labels.names), hemisphere=src_labels.hemisphere
    )
