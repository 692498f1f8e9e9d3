"""File formats: neuroimaging binaries, atlas CSV, subject containers,
dataset manifests, and the Euler-number quality filter.

Every file the package reads enters through :class:`Cursor`, which holds
the file's bytes and builds every :class:`~smmn.errors.ParseError`, so a
malformed input always ends as one carrying the path and the byte offset
of the failure, never as partial data.  The cursor also owns the
``SMMN`` container header (shared with the model checkpoint in
:mod:`smmn.net`), typed big- or little-endian array reads, and the
UTF-8 line split of the text formats (config files and score tables
included).  Writers and readers round-trip bit-exactly; the big-endian
formats are parsed explicitly so behaviour does not depend on host
endianness.  Byte layouts are documented in ``docs/formats.md``.
"""

from dataclasses import dataclass, replace
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


class Cursor:
    """One input file: its bytes, a read offset, and its parse errors.

    :meth:`error` is the only place a ParseError is built; it fills in
    the path.
    """

    def __init__(self, path):
        self.path = str(path)
        with open(path, "rb") as fp:
            self.data = fp.read()
        self.offset = 0

    def error(self, message, offset):
        """The ParseError for ``message`` at byte ``offset`` of this file."""
        return ParseError(message, offset=offset, path=self.path)

    def take(self, n, what):
        if self.offset + n > len(self.data):
            raise self.error(f"truncated while reading {what}", self.offset)
        out = self.data[self.offset : self.offset + n]
        self.offset += n
        return out

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def array(self, dtype, shape, what, finite=False):
        """The next ``shape`` values stored as ``dtype``, read into a new
        float64 (float ``dtype``) or int64 (integer ``dtype``) array.

        With ``finite``, a NaN or infinity is a ParseError at its own offset.
        """
        dtype = np.dtype(dtype)
        start = self.offset
        raw = self.take(dtype.itemsize * math.prod(shape), what)
        out = np.frombuffer(raw, dtype=dtype).reshape(shape).astype(
            np.float64 if dtype.kind == "f" else np.int64
        )
        if finite and not np.all(np.isfinite(out)):
            bad = int(np.argmin(np.isfinite(out)))
            raise self.error(f"non-finite value in {what}",
                             start + dtype.itemsize * bad)
        return out

    def header(self, kind, version, what):
        """Read the ``SMMN`` container header: the magic at offset 0, then
        the ``kind`` byte at 4 and the format ``version`` byte at 5."""
        if self.take(4, "magic") != CONTAINER_MAGIC:
            raise self.error(f"bad {what} magic", 0)
        got_kind, got_version = self.unpack("<BB", "kind/version")
        if got_kind != kind:
            raise self.error(f"not a {what} (kind {got_kind})", 4)
        if got_version != version:
            raise self.error(f"unsupported {what} version {got_version}", 5)

    def lines(self):
        """(byte offset, text) of each line, split after each ``\\n`` only
        and newlines kept.  A line that is not UTF-8 is a ParseError at
        its offset.
        """
        out = []
        offset = 0
        while offset < len(self.data):
            end = self.data.find(b"\n", offset) + 1 or len(self.data)
            try:
                out.append((offset, self.data[offset:end].decode("utf-8")))
            except UnicodeDecodeError as exc:
                raise self.error(f"line is not UTF-8 text ({exc.reason})",
                                 offset) from None
            offset = end
        return out

    def done(self):
        if self.offset != len(self.data):
            raise self.error("trailing bytes after payload", self.offset)


# ---------------------------------------------------------------------------
# FreeSurfer-style per-vertex scalar files ("curv", new binary format).


def read_fs_curv(path):
    """Per-vertex scalar file: returns (values, vertex_count).

    Layout: 3-byte magic ff ff ff, big-endian int32 vertex count, facet
    count and values-per-vertex (must be 1), then vertex count big-endian
    float32 values, which must be finite.
    """
    cur = Cursor(path)
    if cur.take(3, "magic") != CURV_MAGIC:
        raise cur.error("bad per-vertex scalar magic", 0)
    n_vertices, _n_facets, vals_per_vertex = cur.unpack(">iii", "header")
    if n_vertices < 0:
        raise cur.error("negative vertex count", 3)
    if vals_per_vertex != 1:
        raise cur.error(f"values-per-vertex is {vals_per_vertex}, expected 1", 11)
    values = cur.array(">f4", (n_vertices,), "vertex values", finite=True)
    cur.done()
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
    cur = Cursor(path)
    if cur.take(3, "magic") != SURF_MAGIC:
        raise cur.error("bad surface magic", 0)
    end = cur.data.find(b"\n\n", cur.offset)
    if end < 0:
        raise cur.error("unterminated comment (no double newline)", cur.offset)
    cur.offset = end + 2
    n_vertices, n_facets = cur.unpack(">ii", "counts")
    if n_vertices < 0 or n_facets < 0:
        raise cur.error("negative count", end + 2)
    vertices = cur.array(">f4", (n_vertices, 3), "vertex coordinates", finite=True)
    facet_off = cur.offset
    facets = cur.array(">i4", (n_facets, 3), "facet indices")
    cur.done()
    out_of_range = (facets < 0) | (facets >= n_vertices)
    if out_of_range.any():
        bad = int(np.argmax(out_of_range))
        raise cur.error(
            f"facet index {facets.flat[bad]} out of range (V={n_vertices})",
            facet_off + 4 * bad,
        )
    radii = np.linalg.norm(vertices, axis=1)
    if n_vertices == 0 or np.any(radii <= 0):
        raise cur.error("degenerate surface radius", end + 2)
    mean_radius = radii.mean()
    if np.abs(radii - mean_radius).max() > 0.01 * mean_radius:
        raise cur.error(
            "surface is not spherical (vertex radii spread exceeds 1%)", end + 2
        )
    try:
        return TriMesh(vertices / radii[:, None], facets)
    except InvariantError as exc:
        raise cur.error(f"invalid mesh: {exc}", facet_off) from None


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
    cur = Cursor(path)
    for lineno, (offset, line) in enumerate(cur.lines()):
        text = line.strip()
        if lineno == 0:
            if text != "vertex_index,label_id":
                raise cur.error(f"unexpected atlas header {text!r}", 0)
        elif text:
            try:
                v_str, l_str = text.split(",")
                v, lab = int(v_str), np.int64(int(l_str))
            except (ValueError, OverflowError):
                raise cur.error(f"malformed atlas row {text!r}", offset) from None
            if v < 0 or v >= mesh.num_vertices:
                raise cur.error(
                    f"vertex index {v} outside mesh (V={mesh.num_vertices})", offset
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
    cur = Cursor(path)
    for lineno, (offset, line) in enumerate(cur.lines()):
        text = line.strip()
        if lineno == 0:
            if text != "label_id,name":
                raise cur.error(f"unexpected label table header {text!r}", 0)
        elif text:
            try:
                l_str, name = text.split(",", 1)
                table[int(l_str)] = name
            except ValueError:
                raise cur.error(f"malformed label row {text!r}", offset) from None
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
    cur = Cursor(path)
    cur.header(SUBJECT_KIND, SUBJECT_VERSION, "subject container")
    (n_channels,) = cur.unpack("<I", "channel count")
    names = []
    for i in range(n_channels):
        (name_len,) = cur.unpack("<H", f"channel {i} name length")
        start = cur.offset
        try:
            names.append(cur.take(name_len, f"channel {i} name").decode("utf-8"))
        except UnicodeDecodeError:
            raise cur.error(f"channel {i} name is not UTF-8", start) from None
    (n_vertices,) = cur.unpack("<I", "vertex count")
    rows = [cur.array("<f4", (n_vertices,), f"{name} values") for name in names]
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
    """Load a manifest; ids must be unique and referenced files present.

    The file must be UTF-8 JSON; a decoding or JSON error is a ParseError
    at its byte offset, and an error in the document's fields one at
    offset 0.
    """
    cur = Cursor(path)
    try:
        text = cur.data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise cur.error(f"manifest is not UTF-8 text ({exc.reason})",
                        exc.start) from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise cur.error(f"manifest is not valid JSON: {exc.msg}",
                        len(text[: exc.pos].encode("utf-8"))) from None
    if not isinstance(doc, dict) or doc.get("format") != "smmn-manifest":
        raise cur.error("not a dataset manifest", 0)

    def field(obj, key, kinds, where, optional=False):
        """``obj[key]`` checked against ``kinds``; None if optional and null."""
        value = obj.get(key) if isinstance(obj, dict) else None
        if optional and value is None:
            return None
        if (isinstance(value, bool) or not isinstance(value, kinds)
                or isinstance(value, float) and not math.isfinite(value)):
            raise cur.error(f"{where}: {key!r} is missing, of the wrong type "
                            "or not finite", 0)
        return value

    root = os.path.dirname(os.path.abspath(path))
    subjects = []
    seen = set()
    for i, entry in enumerate(field(doc, "subjects", list, "manifest")):
        where = f"subject {i}"
        sid = field(entry, "id", str, where)
        if sid in seen:
            raise cur.error(f"duplicate subject id {sid!r}", 0)
        seen.add(sid)
        files = field(entry, "files", dict, where)
        if not all(isinstance(v, str) for v in files.values()):
            raise cur.error(f"{where}: 'files' must map channels to paths", 0)
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
        raise cur.error("manifest: 'channel_names' must be strings", 0)
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
                    raise cur.error(
                        f"subject {s.subject_id!r} channel {channel!r} file "
                        f"missing: {full}",
                        0,
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
    return replace(manifest, subjects=kept)
