"""File formats: neuroimaging binaries, atlas CSV, subject containers,
dataset manifests, and the Euler-number quality filter.

All binary parsers are strict: malformed input raises
:class:`~smmn.errors.ParseError` carrying the byte offset of the
failure, never partial data.  Writers and readers round-trip
bit-exactly; the big-endian formats are parsed explicitly so behaviour
does not depend on host endianness.  Byte layouts are documented in
``docs/formats.md``.
"""

from dataclasses import dataclass
import json
import math
import os
import struct
import warnings

import numpy as np

from .errors import DomainError, InvariantError, ParseError, UsageError
from .mesh import AtlasLabels, TriMesh

CURV_MAGIC = b"\xff\xff\xff"
SURF_MAGIC = b"\xff\xff\xfe"
CONTAINER_MAGIC = b"SMMN"
SUBJECT_KIND = 0x02
SUBJECT_VERSION = 1


class _Cursor:
    """Byte cursor with offset-bearing errors."""

    def __init__(self, data, path):
        self.data = data
        self.path = path
        self.offset = 0

    def take(self, n, what):
        if self.offset + n > len(self.data):
            raise ParseError(
                f"truncated while reading {what}", offset=self.offset, path=self.path
            )
        out = self.data[self.offset : self.offset + n]
        self.offset += n
        return out

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def done(self):
        if self.offset != len(self.data):
            raise ParseError(
                "trailing bytes after payload", offset=self.offset, path=self.path
            )


def text_lines(path):
    """(byte offset, text) of each line of a UTF-8 text file, newlines kept.

    A line that is not UTF-8 raises a ParseError at its byte offset.
    """
    with open(path, "rb") as fp:
        raw_lines = fp.readlines()
    out = []
    offset = 0
    for raw in raw_lines:
        try:
            out.append((offset, raw.decode("utf-8")))
        except UnicodeDecodeError as exc:
            raise ParseError(f"line is not UTF-8 text ({exc.reason})",
                             offset=offset, path=str(path)) from None
        offset += len(raw)
    return out


# ---------------------------------------------------------------------------
# FreeSurfer-style per-vertex scalar files ("curv", new binary format).


def read_fs_curv(path):
    """Per-vertex scalar file: returns (values, vertex_count).

    Layout: 3-byte magic ff ff ff, big-endian int32 vertex count, facet
    count and values-per-vertex (must be 1), then vertex count big-endian
    float32 values.
    """
    with open(path, "rb") as fp:
        cur = _Cursor(fp.read(), str(path))
    if cur.take(3, "magic") != CURV_MAGIC:
        raise ParseError("bad per-vertex scalar magic", offset=0, path=str(path))
    n_vertices, _n_facets, vals_per_vertex = cur.unpack(">iii", "header")
    if n_vertices < 0:
        raise ParseError("negative vertex count", offset=3, path=str(path))
    if vals_per_vertex != 1:
        raise ParseError(
            f"values-per-vertex is {vals_per_vertex}, expected 1",
            offset=11,
            path=str(path),
        )
    raw = cur.take(4 * n_vertices, "vertex values")
    cur.done()
    values = np.frombuffer(raw, dtype=">f4").astype(np.float64)
    return values, n_vertices


def write_fs_curv(path, values, n_facets=0):
    values = np.asarray(values, dtype=np.float64)
    with open(path, "wb") as fp:
        fp.write(CURV_MAGIC)
        fp.write(struct.pack(">iii", len(values), n_facets, 1))
        fp.write(values.astype(">f4").tobytes())


# ---------------------------------------------------------------------------
# FreeSurfer-style triangle surface files.


def read_fs_surface(path):
    """Triangle surface file: returns a TriMesh.

    Layout: 3-byte magic ff ff fe, a comment terminated by two newline
    bytes, big-endian int32 vertex and facet counts, vertex*3 big-endian
    float32 coordinates, facet*3 big-endian int32 indices.  Vertices must
    be finite and lie on a common sphere (within 1%; template spheres are
    radius 100); they are projected exactly onto the unit sphere, since
    downstream meshes demand exact unit vertices.  A mesh that fails
    :meth:`TriMesh.validate` is a ParseError at the facet block's offset.
    """
    with open(path, "rb") as fp:
        cur = _Cursor(fp.read(), str(path))
    if cur.take(3, "magic") != SURF_MAGIC:
        raise ParseError("bad surface magic", offset=0, path=str(path))
    end = cur.data.find(b"\n\n", cur.offset)
    if end < 0:
        raise ParseError(
            "unterminated comment (no double newline)",
            offset=cur.offset,
            path=str(path),
        )
    cur.offset = end + 2
    n_vertices, n_facets = cur.unpack(">ii", "counts")
    if n_vertices < 0 or n_facets < 0:
        raise ParseError("negative count", offset=end + 2, path=str(path))
    coord_off = cur.offset
    coords = np.frombuffer(
        cur.take(12 * n_vertices, "vertex coordinates"), dtype=">f4"
    ).astype(np.float64)
    if not np.all(np.isfinite(coords)):
        bad = int(np.argmin(np.isfinite(coords)))
        raise ParseError("non-finite vertex coordinate",
                         offset=coord_off + 4 * bad, path=str(path))
    facet_off = cur.offset
    facets = np.frombuffer(
        cur.take(12 * n_facets, "facet indices"), dtype=">i4"
    ).astype(np.int64)
    cur.done()
    if facets.size and (facets.min() < 0 or facets.max() >= n_vertices):
        bad = int(np.argmax((facets < 0) | (facets >= n_vertices)))
        raise ParseError(
            f"facet index {facets[bad]} out of range (V={n_vertices})",
            offset=facet_off + 4 * bad,
            path=str(path),
        )
    vertices = coords.reshape(n_vertices, 3)
    radii = np.linalg.norm(vertices, axis=1)
    if n_vertices == 0 or np.any(radii <= 0):
        raise ParseError("degenerate surface radius", offset=end + 2, path=str(path))
    mean_radius = radii.mean()
    if np.abs(radii - mean_radius).max() > 0.01 * mean_radius:
        raise ParseError(
            "surface is not spherical (vertex radii spread exceeds 1%)",
            offset=end + 2,
            path=str(path),
        )
    try:
        return TriMesh(vertices / radii[:, None], facets.reshape(n_facets, 3))
    except InvariantError as exc:
        raise ParseError(f"invalid mesh: {exc}", offset=facet_off,
                         path=str(path)) from None


def write_fs_surface(path, mesh, comment="created by smmn", radius=1.0):
    with open(path, "wb") as fp:
        fp.write(SURF_MAGIC)
        fp.write(comment.encode("utf-8") + b"\n\n")
        fp.write(struct.pack(">ii", mesh.num_vertices, mesh.num_facets))
        fp.write((mesh.vertices * radius).astype(">f4").tobytes())
        fp.write(mesh.facets.astype(">i4").tobytes())


# ---------------------------------------------------------------------------
# Atlas CSV (vertex_index,label_id) with optional label-table sidecar.


def read_atlas_csv(path, mesh, label_table=None, hemisphere="left"):
    """Per-vertex ROI labels; unlisted vertices default to 0 (unknown).

    Duplicate vertex rows keep the last value (with a warning); vertex
    indices beyond the mesh raise a ParseError with the line's byte
    offset.
    """
    labels = np.zeros(mesh.num_vertices, dtype=np.int64)
    seen = np.zeros(mesh.num_vertices, dtype=bool)
    for lineno, (offset, line) in enumerate(text_lines(path)):
        text = line.strip()
        if lineno == 0:
            if text != "vertex_index,label_id":
                raise ParseError(
                    f"unexpected atlas header {text!r}", offset=0, path=str(path)
                )
        elif text:
            try:
                v_str, l_str = text.split(",")
                v, lab = int(v_str), int(l_str)
            except ValueError:
                raise ParseError(
                    f"malformed atlas row {text!r}", offset=offset, path=str(path)
                ) from None
            if v < 0 or v >= mesh.num_vertices:
                raise ParseError(
                    f"vertex index {v} outside mesh (V={mesh.num_vertices})",
                    offset=offset,
                    path=str(path),
                )
            if seen[v]:
                warnings.warn(
                    f"{path}: duplicate atlas row for vertex {v}; keeping the last",
                    stacklevel=2,
                )
            labels[v] = lab
            seen[v] = True
    names = dict(label_table) if label_table else {}
    return AtlasLabels(labels=labels, names=names, hemisphere=hemisphere)


def write_atlas_csv(path, atlas):
    with open(path, "w", newline="") as fp:
        fp.write("vertex_index,label_id\n")
        for v, lab in enumerate(atlas.labels):
            fp.write(f"{v},{int(lab)}\n")


def read_label_table(path):
    """Sidecar `label_id,name` table."""
    table = {}
    for lineno, (offset, line) in enumerate(text_lines(path)):
        text = line.strip()
        if lineno == 0:
            if text != "label_id,name":
                raise ParseError(
                    f"unexpected label table header {text!r}", offset=0, path=str(path)
                )
        elif text:
            try:
                l_str, name = text.split(",", 1)
                table[int(l_str)] = name
            except ValueError:
                raise ParseError(
                    f"malformed label row {text!r}", offset=offset, path=str(path)
                ) from None
    return table


def write_label_table(path, names):
    with open(path, "w", newline="") as fp:
        fp.write("label_id,name\n")
        for lab in sorted(names):
            fp.write(f"{lab},{names[lab]}\n")


# ---------------------------------------------------------------------------
# Internal subject feature container.


def write_subject_features(path, values, channel_names):
    """SMMN subject container: per-channel little-endian float32 arrays."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != len(channel_names):
        raise UsageError("values must be (channels, vertices) matching channel_names")
    with open(path, "wb") as fp:
        fp.write(CONTAINER_MAGIC)
        fp.write(struct.pack("<BB", SUBJECT_KIND, SUBJECT_VERSION))
        fp.write(struct.pack("<I", len(channel_names)))
        for name in channel_names:
            blob = name.encode("utf-8")
            fp.write(struct.pack("<H", len(blob)))
            fp.write(blob)
        fp.write(struct.pack("<I", values.shape[1]))
        for row in values:
            fp.write(row.astype("<f4").tobytes())


def read_subject_features(path):
    """Returns (values (C, V) as float64, channel_names)."""
    with open(path, "rb") as fp:
        cur = _Cursor(fp.read(), str(path))
    if cur.take(4, "magic") != CONTAINER_MAGIC:
        raise ParseError("bad container magic", offset=0, path=str(path))
    kind, version = cur.unpack("<BB", "kind/version")
    if kind != SUBJECT_KIND:
        raise ParseError(f"not a subject container (kind {kind})", offset=4,
                         path=str(path))
    if version != SUBJECT_VERSION:
        raise ParseError(f"unsupported container version {version}", offset=5,
                         path=str(path))
    (n_channels,) = cur.unpack("<I", "channel count")
    names = []
    for i in range(n_channels):
        (name_len,) = cur.unpack("<H", f"channel {i} name length")
        start = cur.offset
        try:
            names.append(cur.take(name_len, f"channel {i} name").decode("utf-8"))
        except UnicodeDecodeError:
            raise ParseError(f"channel {i} name is not UTF-8", offset=start,
                             path=str(path)) from None
    (n_vertices,) = cur.unpack("<I", "vertex count")
    rows = []
    for name in names:
        raw = cur.take(4 * n_vertices, f"{name} values")
        rows.append(np.frombuffer(raw, dtype="<f4").astype(np.float64))
    cur.done()
    return np.stack(rows) if rows else np.zeros((0, n_vertices)), tuple(names)


# ---------------------------------------------------------------------------
# Dataset manifest.


@dataclass
class SubjectEntry:
    subject_id: str
    files: dict  # channel name -> path (relative to the manifest)
    age: float
    sex: float
    group: str = "control"
    euler: float = None
    split: str = "test"


@dataclass
class DatasetManifest:
    subjects: list
    channel_names: tuple
    seed: int = 0
    atlas: str = None
    label_table: str = None
    root: str = "."

    def split(self, name):
        return [s for s in self.subjects if s.split == name]

    def resolve(self, relpath):
        return os.path.join(self.root, relpath)


def save_manifest(manifest, path):
    doc = {
        "format": "smmn-manifest",
        "version": 1,
        "seed": manifest.seed,
        "channel_names": list(manifest.channel_names),
        "atlas": manifest.atlas,
        "label_table": manifest.label_table,
        "subjects": [
            {
                "id": s.subject_id,
                "files": dict(s.files),
                "age": s.age,
                "sex": s.sex,
                "group": s.group,
                "euler": s.euler,
                "split": s.split,
            }
            for s in manifest.subjects
        ],
    }
    with open(path, "w") as fp:
        json.dump(doc, fp, indent=1)
        fp.write("\n")


def load_manifest(path, check_files=True):
    """Load a manifest; ids must be unique and referenced files present."""
    with open(path) as fp:
        try:
            doc = json.load(fp)
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"manifest is not valid JSON: {exc.msg}", offset=exc.pos,
                path=str(path),
            ) from None
    if not isinstance(doc, dict) or doc.get("format") != "smmn-manifest":
        raise ParseError("not a dataset manifest", offset=0, path=str(path))

    def field(obj, key, kinds, where, optional=False):
        """``obj[key]`` checked against ``kinds``; None if optional and null."""
        value = obj.get(key) if isinstance(obj, dict) else None
        if optional and value is None:
            return None
        if (isinstance(value, bool) or not isinstance(value, kinds)
                or isinstance(value, float) and not math.isfinite(value)):
            raise ParseError(f"{where}: {key!r} is missing, of the wrong type "
                             "or not finite", path=str(path))
        return value

    root = os.path.dirname(os.path.abspath(path))
    subjects = []
    seen = set()
    for i, entry in enumerate(field(doc, "subjects", list, "manifest")):
        where = f"subject {i}"
        sid = field(entry, "id", str, where)
        if sid in seen:
            raise ParseError(f"duplicate subject id {sid!r}", offset=0, path=str(path))
        seen.add(sid)
        files = field(entry, "files", dict, where)
        if not all(isinstance(v, str) for v in files.values()):
            raise ParseError(f"{where}: 'files' must map channels to paths",
                             path=str(path))
        age, sex = (float(field(entry, k, (int, float), where)) for k in ("age", "sex"))
        subjects.append(
            SubjectEntry(
                subject_id=sid,
                files=dict(files),
                age=age,
                sex=sex,
                group=field(entry, "group", str, where, optional=True) or "control",
                euler=field(entry, "euler", (int, float), where, optional=True),
                split=field(entry, "split", str, where, optional=True) or "test",
            )
        )
    channel_names = field(doc, "channel_names", list, "manifest")
    if not all(isinstance(c, str) for c in channel_names):
        raise ParseError("manifest: 'channel_names' must be strings", path=str(path))
    manifest = DatasetManifest(
        subjects=subjects,
        channel_names=tuple(channel_names),
        seed=field(doc, "seed", int, "manifest", optional=True) or 0,
        atlas=field(doc, "atlas", str, "manifest", optional=True),
        label_table=field(doc, "label_table", str, "manifest", optional=True),
        root=root,
    )
    if check_files:
        for s in manifest.subjects:
            for channel, rel in s.files.items():
                full = manifest.resolve(rel)
                if not os.path.exists(full):
                    raise ParseError(
                        f"subject {s.subject_id!r} channel {channel!r} file "
                        f"missing: {full}",
                        offset=0,
                        path=str(path),
                    )
    return manifest


def load_subject_features(manifest, entry):
    """Stack one subject's per-channel files in manifest channel order.

    A non-finite value raises :class:`DomainError` naming the subject
    and channel.
    """
    rows = []
    for channel in manifest.channel_names:
        if channel not in entry.files:
            raise UsageError(
                f"subject {entry.subject_id!r} has no file for channel {channel!r}"
            )
        values, names = read_subject_features(manifest.resolve(entry.files[channel]))
        if channel not in names:
            raise UsageError(
                f"file {entry.files[channel]!r} does not carry channel {channel!r}"
            )
        row = values[names.index(channel)]
        if not np.all(np.isfinite(row)):
            raise DomainError(
                f"subject {entry.subject_id!r} channel {channel!r}: "
                f"{int(np.sum(~np.isfinite(row)))} non-finite values in "
                f"{entry.files[channel]!r}"
            )
        rows.append(row)
    return np.stack(rows)


def qc_filter(manifest, threshold=25.0):
    """Drop subjects whose |euler - median euler| exceeds the threshold.

    Subjects without an Euler metric pass through unchanged (with a
    warning when the whole manifest lacks metrics).
    """
    eulers = [s.euler for s in manifest.subjects if s.euler is not None]
    if not eulers:
        warnings.warn("manifest has no Euler metrics; QC filter is a no-op",
                      stacklevel=2)
        return manifest
    median = float(np.median(eulers))
    kept = [
        s
        for s in manifest.subjects
        if s.euler is None or abs(s.euler - median) <= threshold
    ]
    return DatasetManifest(
        subjects=kept,
        channel_names=manifest.channel_names,
        seed=manifest.seed,
        atlas=manifest.atlas,
        label_table=manifest.label_table,
        root=manifest.root,
    )
