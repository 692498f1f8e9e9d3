import functools
import json
import math
import os
import pathlib
import struct
import tempfile

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from smmn import anomaly, io, mesh, net, synth
from smmn.errors import ConfigurationError, DomainError, ParseError, UsageError

TETRA_VERTICES = np.array(
    [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)], dtype=float
) / math.sqrt(3.0)
TETRA_FACETS = np.array([(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)])


# -- per-vertex scalar format ---------------------------------------------------


def test_curv_fixture_bytes_parse(tmp_path):
    # hand-laid hex: magic, V=3, F=0, vals=1, then 1.5, -2.0, 0.0 as >f4
    blob = bytes.fromhex(
        "ffffff" + "00000003" + "00000000" + "00000001"
        + "3fc00000" + "c0000000" + "00000000"
    )
    path = tmp_path / "three.curv"
    path.write_bytes(blob)
    values, count = io.read_fs_curv(path)
    assert count == 3
    np.testing.assert_array_equal(values, [1.5, -2.0, 0.0])


def test_curv_writer_bytes_are_literal(tmp_path):
    path = tmp_path / "w.curv"
    io.write_fs_curv(path, [1.5, -2.0, 0.0], n_facets=0)
    expected = bytes.fromhex(
        "ffffff" + "00000003" + "00000000" + "00000001"
        + "3fc00000" + "c0000000" + "00000000"
    )
    assert path.read_bytes() == expected


def test_curv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.standard_normal(97).astype(np.float32).astype(np.float64)
    path = tmp_path / "rt.curv"
    io.write_fs_curv(path, values, n_facets=190)
    back, count = io.read_fs_curv(path)
    np.testing.assert_array_equal(back, values)
    io.write_fs_curv(tmp_path / "rt2.curv", back, n_facets=190)
    assert (tmp_path / "rt2.curv").read_bytes() == path.read_bytes()


def test_curv_empty_file_offset_zero(tmp_path):
    path = tmp_path / "empty.curv"
    path.write_bytes(b"")
    with pytest.raises(ParseError) as err:
        io.read_fs_curv(path)
    assert err.value.offset == 0


def test_curv_bad_magic(tmp_path):
    path = tmp_path / "bad.curv"
    path.write_bytes(b"\xff\xff\xfe" + b"\x00" * 12)
    with pytest.raises(ParseError) as err:
        io.read_fs_curv(path)
    assert err.value.offset == 0


def test_curv_wrong_vals_per_vertex(tmp_path):
    path = tmp_path / "bad2.curv"
    path.write_bytes(b"\xff\xff\xff" + struct.pack(">iii", 2, 0, 3))
    with pytest.raises(ParseError) as err:
        io.read_fs_curv(path)
    assert err.value.offset == 11


def test_curv_truncated_values(tmp_path):
    path = tmp_path / "short.curv"
    path.write_bytes(b"\xff\xff\xff" + struct.pack(">iii", 4, 0, 1) + b"\x00" * 7)
    with pytest.raises(ParseError) as err:
        io.read_fs_curv(path)
    assert err.value.offset == 15


# -- surface format -------------------------------------------------------------


def _tetra_blob(comment=b"test", vertices=TETRA_VERTICES, facets=TETRA_FACETS):
    blob = b"\xff\xff\xfe" + comment + b"\n\n"
    blob += struct.pack(">ii", 4, 4)
    blob += vertices.astype(">f4").tobytes()
    blob += facets.astype(">i4").tobytes()
    return blob


def test_surface_tetrahedron_fixture(tmp_path):
    path = tmp_path / "tetra.surf"
    path.write_bytes(_tetra_blob())
    m = io.read_fs_surface(path)
    assert m.num_vertices == 4
    assert m.num_facets == 4
    np.testing.assert_array_equal(m.facets, TETRA_FACETS)
    np.testing.assert_allclose(
        m.vertices, TETRA_VERTICES.astype(np.float32), atol=1e-7
    )


def test_surface_round_trip_bit_exact(tmp_path):
    m = mesh.icosphere(1)
    path = tmp_path / "a.surf"
    io.write_fs_surface(path, m, comment="roundtrip")
    back = io.read_fs_surface(path)
    path2 = tmp_path / "b.surf"
    io.write_fs_surface(path2, back, comment="roundtrip")
    assert path.read_bytes() == path2.read_bytes()


def test_surface_radius_rescaled(tmp_path):
    # template spheres are stored at radius 100
    path = tmp_path / "r100.surf"
    io.write_fs_surface(path, mesh.icosphere(0), comment="", radius=100.0)
    m = io.read_fs_surface(path)
    np.testing.assert_allclose(np.linalg.norm(m.vertices, axis=1), 1.0, atol=1e-6)


def test_surface_bad_magic(tmp_path):
    path = tmp_path / "bad.surf"
    path.write_bytes(b"\xff\xff\xff" + b"x\n\n")
    with pytest.raises(ParseError) as err:
        io.read_fs_surface(path)
    assert err.value.offset == 0


def test_surface_unterminated_comment(tmp_path):
    path = tmp_path / "bad2.surf"
    path.write_bytes(b"\xff\xff\xfecomment without terminator")
    with pytest.raises(ParseError) as err:
        io.read_fs_surface(path)
    assert err.value.offset == 3


@pytest.mark.parametrize("damage", ["nan", "inf", "wound inward"])
def test_surface_bad_geometry_is_parse_error(tmp_path, damage):
    vertices, facets = TETRA_VERTICES.copy(), TETRA_FACETS
    coords_at = len(b"\xff\xff\xfetest\n\n") + 8
    if damage == "wound inward":
        facets = facets[:, ::-1]
        expected = coords_at + 48  # the facet block
    else:
        vertices[2, 1] = np.nan if damage == "nan" else np.inf
        expected = coords_at + 4 * (2 * 3 + 1)
    path = tmp_path / "bad.surf"
    path.write_bytes(_tetra_blob(vertices=vertices, facets=facets))
    with pytest.raises(ParseError) as err:
        io.read_fs_surface(path)
    assert (err.value.offset, err.value.path) == (expected, str(path))


def test_surface_index_out_of_range(tmp_path):
    facets = TETRA_FACETS.copy()
    facets[2, 1] = 9
    blob = b"\xff\xff\xfet\n\n" + struct.pack(">ii", 4, 4)
    blob += TETRA_VERTICES.astype(">f4").tobytes()
    blob += facets.astype(">i4").tobytes()
    path = tmp_path / "oob.surf"
    path.write_bytes(blob)
    with pytest.raises(ParseError) as err:
        io.read_fs_surface(path)
    facet_section = len(b"\xff\xff\xfet\n\n") + 8 + 48
    assert err.value.offset == facet_section + 4 * (2 * 3 + 1)


def test_surface_truncated(tmp_path):
    path = tmp_path / "short.surf"
    path.write_bytes(_tetra_blob()[:-5])
    with pytest.raises(ParseError):
        io.read_fs_surface(path)


# -- atlas CSV --------------------------------------------------------------------


def test_atlas_csv_round_trip(tmp_path):
    m = mesh.icosphere(1)
    labels = np.random.default_rng(1).integers(0, 5, m.num_vertices)
    atlas = mesh.AtlasLabels(labels, names={1: "front", 2: "back"})
    path = tmp_path / "atlas.csv"
    io.write_atlas_csv(path, atlas)
    table_path = tmp_path / "labels.csv"
    io.write_label_table(table_path, atlas.names)
    table = io.read_label_table(table_path)
    back = io.read_atlas_csv(path, m, label_table=table)
    np.testing.assert_array_equal(back.labels, labels)
    assert back.names[1] == "front"


def test_atlas_uniform_labels(tmp_path):
    m = mesh.icosphere(0)
    path = tmp_path / "one.csv"
    path.write_text(
        "vertex_index,label_id\n" + "".join(f"{v},1\n" for v in range(12))
    )
    atlas = io.read_atlas_csv(path, m)
    assert atlas.roi_ids() == [1]


def test_atlas_missing_vertices_default_unknown(tmp_path):
    m = mesh.icosphere(0)
    path = tmp_path / "partial.csv"
    path.write_text("vertex_index,label_id\n0,4\n5,4\n")
    atlas = io.read_atlas_csv(path, m)
    assert atlas.labels[0] == 4 and atlas.labels[5] == 4
    assert np.sum(atlas.labels == 0) == 10


def test_atlas_duplicate_row_last_wins(tmp_path):
    m = mesh.icosphere(0)
    path = tmp_path / "dup.csv"
    path.write_text("vertex_index,label_id\n3,1\n3,2\n")
    with pytest.warns(UserWarning):
        atlas = io.read_atlas_csv(path, m)
    assert atlas.labels[3] == 2


def test_atlas_unknown_label_gets_synthesized_name(tmp_path):
    m = mesh.icosphere(0)
    path = tmp_path / "syn.csv"
    path.write_text("vertex_index,label_id\n0,42\n")
    atlas = io.read_atlas_csv(path, m)
    assert atlas.names[42] == "roi_42"


def test_atlas_vertex_out_of_range(tmp_path):
    m = mesh.icosphere(0)
    path = tmp_path / "oob.csv"
    path.write_text("vertex_index,label_id\n12,1\n")
    with pytest.raises(ParseError) as err:
        io.read_atlas_csv(path, m)
    assert err.value.offset == len("vertex_index,label_id\n")


def test_atlas_label_beyond_int64_is_parse_error(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text("vertex_index,label_id\n0,1\n1,99999999999999999999\n")
    with pytest.raises(ParseError) as err:
        io.read_atlas_csv(path, mesh.icosphere(0))
    assert err.value.offset == len("vertex_index,label_id\n0,1\n")


# -- subject container ---------------------------------------------------------


def test_subject_container_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    values = rng.standard_normal((2, 37)).astype(np.float32).astype(np.float64)
    path = tmp_path / "s.smmn"
    io.write_subject_features(path, values, ("thickness", "volume"))
    back, names = io.read_subject_features(path)
    assert names == ("thickness", "volume")
    np.testing.assert_array_equal(back, values)
    path2 = tmp_path / "s2.smmn"
    io.write_subject_features(path2, back, names)
    assert path2.read_bytes() == path.read_bytes()


def test_subject_container_magic_and_kind(tmp_path):
    path = tmp_path / "bad.smmn"
    path.write_bytes(b"XXXX")
    with pytest.raises(ParseError) as err:
        io.read_subject_features(path)
    assert err.value.offset == 0
    path.write_bytes(b"SMMN\x01\x01")  # model kind, not subject
    with pytest.raises(ParseError) as err:
        io.read_subject_features(path)
    assert err.value.offset == 4


def test_subject_container_truncation_offset(tmp_path):
    path = tmp_path / "trunc.smmn"
    io.write_subject_features(path, np.zeros((1, 10)), ("x",))
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])
    with pytest.raises(ParseError) as err:
        io.read_subject_features(path)
    assert err.value.offset is not None


def test_subject_container_without_requested_channel(tmp_path):
    path = tmp_path / "s.smmn"
    io.write_subject_features(path, np.zeros((2, 5)), ("thickness", "area"))
    assert io.read_subject_features(path, "area")[1] == ("thickness", "area")
    with pytest.raises(ParseError, match="'curv'") as err:
        io.read_subject_features(path, "curv")
    assert (err.value.path, err.value.offset) == (str(path), 6)


# -- manifest -------------------------------------------------------------------


def _manifest(tmp_path, eulers):
    subjects = []
    for i, euler in enumerate(eulers):
        rel = f"sub{i}.smmn"
        io.write_subject_features(tmp_path / rel, np.zeros((1, 12)), ("x",))
        subjects.append(
            io.SubjectEntry(
                subject_id=f"sub{i}", files={"x": rel}, age=60.0 + i, sex=1.0,
                euler=euler, split="train",
            )
        )
    return io.DatasetManifest(
        subjects=subjects, channel_names=("x",), seed=4, root=str(tmp_path)
    )


def test_manifest_round_trip(tmp_path):
    manifest = _manifest(tmp_path, [-10, -12, -100])
    path = tmp_path / "manifest.json"
    io.save_manifest(manifest, path)
    back = io.load_manifest(path)
    assert [s.subject_id for s in back.subjects] == ["sub0", "sub1", "sub2"]
    assert back.channel_names == ("x",)
    assert back.seed == 4
    feats = io.load_subject_features(back, back.subjects[0])
    assert feats.shape == (1, 12)


def test_manifest_duplicate_id_rejected(tmp_path):
    manifest = _manifest(tmp_path, [0, 0])
    manifest.subjects[1].subject_id = "sub0"
    path = tmp_path / "manifest.json"
    io.save_manifest(manifest, path)
    with pytest.raises(ParseError):
        io.load_manifest(path)


def test_manifest_missing_file_rejected(tmp_path):
    manifest = _manifest(tmp_path, [0])
    manifest.subjects[0].files["x"] = "nope.smmn"
    path = tmp_path / "manifest.json"
    io.save_manifest(manifest, path)
    with pytest.raises(ParseError):
        io.load_manifest(path)
    assert io.load_manifest(path, check_files=False).subjects


@pytest.mark.parametrize("edit", [
    lambda d: d.pop("subjects"),
    lambda d: d.update(subjects={"sub0": {}}),
    lambda d: d.pop("channel_names"),
    lambda d: d.update(channel_names=[1]),
    lambda d: d["subjects"][0].pop("id"),
    lambda d: d["subjects"][0].update(id=7),
    lambda d: d["subjects"][0].pop("files"),
    lambda d: d["subjects"][0].update(files={"x": None}),
    lambda d: d["subjects"][0].pop("age"),
    lambda d: d["subjects"][0].update(age="old"),
    lambda d: d["subjects"][0].update(sex=None),
    lambda d: d["subjects"][0].update(sex=True),
    lambda d: d["subjects"].__setitem__(0, "sub0"),
    lambda d: d["subjects"][0].update(euler="x"),
    lambda d: d["subjects"][0].update(euler=float("nan")),
    lambda d: d["subjects"][0].update(split=3),
    lambda d: d["subjects"][0].update(group=["patient"]),
    lambda d: d.update(seed="4"),
    lambda d: d.update(seed=1.5),
    lambda d: d.update(atlas=5),
    lambda d: d.update(label_table=True),
    lambda d: d["subjects"][0].update(age=float("inf")),
    lambda d: d["subjects"][0].update(files={"y": "sub0.smmn"}),
])
def test_manifest_missing_or_ill_typed_field(tmp_path, edit):
    path = tmp_path / "manifest.json"
    io.save_manifest(_manifest(tmp_path, [0]), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as err:
        io.load_manifest(path, check_files=False)
    assert err.value.path == str(path)


@pytest.mark.parametrize("key, value", [
    ("sex", 7), ("sex", 0), ("sex", 0.5), ("group", "patinet"), ("group", ""),
    ("split", "trian"), ("split", ""),
])
def test_manifest_value_outside_its_set_is_parse_error(tmp_path, key, value):
    # A misspelt split would silently drop the subject from training.
    path = tmp_path / "manifest.json"
    io.save_manifest(_manifest(tmp_path, [0, 0]), path)
    doc = json.loads(path.read_text())
    doc["subjects"][1][key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=f"subject 'sub1': '{key}' is ") as err:
        io.load_manifest(path)
    assert (err.value.path, err.value.offset) == (str(path), 0)


def test_manifest_accepts_every_listed_value(tmp_path):
    path = tmp_path / "manifest.json"
    io.save_manifest(_manifest(tmp_path, [0] * 4), path)
    doc = json.loads(path.read_text())
    for entry, sex, group, split in zip(doc["subjects"], (-1, 1, -1.0, 1.0),
                                        ("control", "patient", None, "patient"),
                                        ("train", "val", "test", None)):
        entry.update(sex=sex, group=group, split=split)
    path.write_text(json.dumps(doc))
    back = io.load_manifest(path)
    assert [(s.sex, s.group, s.split) for s in back.subjects] == [
        (-1.0, "control", "train"), (1.0, "patient", "val"),
        (-1.0, "control", "test"), (1.0, "patient", "test")]


def test_manifest_optional_fields_may_be_null(tmp_path):
    path = tmp_path / "manifest.json"
    io.save_manifest(_manifest(tmp_path, [None]), path)
    doc = json.loads(path.read_text())
    doc["subjects"][0].update(group=None, split=None)
    doc.update(seed=None, atlas=None, label_table=None)
    path.write_text(json.dumps(doc))
    back = io.load_manifest(path)
    entry = back.subjects[0]
    assert (entry.group, entry.split, entry.euler) == ("control", "test", None)
    assert (back.seed, back.atlas, back.label_table) == (0, None, None)


def test_subject_features_non_finite_is_domain_error(tmp_path):
    manifest = _manifest(tmp_path, [0])
    values = np.zeros((1, 12))
    values[0, 4] = np.inf
    io.write_subject_features(tmp_path / "sub0.smmn", values, ("x",))
    with pytest.raises(DomainError, match="'sub0' channel 'x'"):
        io.load_subject_features(manifest, manifest.subjects[0])


def test_label_table_non_utf8_offset(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_bytes(b"label_id,name\n1,precentral\n2,\xffsuperior\n")
    with pytest.raises(ParseError) as err:
        io.read_label_table(path)
    assert err.value.offset == 27
    assert err.value.path == str(path)


@functools.lru_cache(maxsize=None)
def _valid_inputs():
    """Bytes of a small valid file of each of the eight input formats."""
    with tempfile.TemporaryDirectory() as tmp:
        model = net.MMNModel(net.ModelConfig(input_order=1, channels=(2,), l_max=1,
                                             channel_names=("x",), seed=5))
        model.norm_mean, model.norm_std = np.array([0.5]), np.array([2.0])
        model.ctx_stats = np.array([60.0, 8.0])
        ckpt = os.path.join(tmp, "model.smmn")
        net.save_model(model, ckpt)
        subject = os.path.join(tmp, "subject.smmn")
        io.write_subject_features(subject, np.arange(24.0).reshape(2, 12),
                                  ("thickness", "area"))
        surface = os.path.join(tmp, "lh.sphere")
        io.write_fs_surface(surface, mesh.icosphere(1))
        curv = os.path.join(tmp, "lh.thickness")
        io.write_fs_curv(curv, np.linspace(1.0, 4.0, 42), n_facets=80)
        manifest = os.path.join(tmp, "manifest.json")
        io.save_manifest(_manifest(pathlib.Path(tmp), [-10, None]), manifest)
        atlas = synth.synthetic_atlas(mesh.icosphere(1), n_rois=3)
        atlas_csv = os.path.join(tmp, "atlas.csv")
        io.write_atlas_csv(atlas_csv, atlas)
        labels = os.path.join(tmp, "labels.csv")
        io.write_label_table(labels, atlas.names)
        scores = os.path.join(tmp, "scores.csv")
        anomaly.write_scores_csv(anomaly.ScoreMatrix(
            subject_ids=["s0", "s1"], hemisphere="left", channel_names=("x",),
            roi_ids=[1, 2], roi_names={1: "parcel_01", 2: "parcel_02"},
            scores=np.array([[[0.5], [1.25]], [[-0.75], [2.0]]]),
            roi_sizes=np.array([14, 9]),
        ), scores)
        paths = {"checkpoint": ckpt, "subject": subject, "surface": surface,
                 "curv": curv, "manifest": manifest, "atlas": atlas_csv,
                 "labels": labels, "scores": scores}
        out = {}
        for kind, path in paths.items():
            with open(path, "rb") as fp:
                out[kind] = fp.read()
        return out


_READERS = {
    "checkpoint": net.load_model, "subject": io.read_subject_features,
    "surface": io.read_fs_surface, "curv": io.read_fs_curv,
    "manifest": functools.partial(io.load_manifest, check_files=False),
    "atlas": lambda path: io.read_atlas_csv(path, mesh.icosphere(1)),
    "labels": io.read_label_table, "scores": anomaly.read_scores_csv,
}


@pytest.mark.filterwarnings("ignore:.*duplicate atlas row")
@settings(max_examples=800)
@given(
    st.sampled_from(sorted(_READERS)),
    st.sampled_from(["truncate", "flip"]),
    st.integers(0, 10**6),
    st.integers(0, 7),
)
def test_damaged_container_raises_parse_error_or_loads(kind, damage, where, bit):
    blob = _valid_inputs()[kind]
    at = where % len(blob)
    if damage == "truncate":
        blob = blob[:at]
    else:
        blob = blob[:at] + bytes([blob[at] ^ (1 << bit)]) + blob[at + 1 :]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "damaged")
        with open(path, "wb") as fp:
            fp.write(blob)
        try:
            _READERS[kind](path)
        except ParseError as exc:
            assert exc.path == path
            assert exc.offset is not None


def test_manifest_invalid_json(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text("{broken")
    with pytest.raises(ParseError) as err:
        io.load_manifest(path)
    assert err.value.offset == 1
    # The offset counts bytes, not characters: the e-acute takes two.
    path.write_bytes('{"\u00e9": broken'.encode("utf-8"))
    with pytest.raises(ParseError) as err:
        io.load_manifest(path)
    assert err.value.offset == 7


# -- QC filter --------------------------------------------------------------------


def test_qc_all_equal_none_excluded(tmp_path):
    manifest = _manifest(tmp_path, [-20, -20, -20])
    assert len(io.qc_filter(manifest).subjects) == 3


def test_qc_excludes_far_from_median(tmp_path):
    manifest = _manifest(tmp_path, [-10, -12, -100])
    kept = io.qc_filter(manifest)
    # median -12; |-100 + 12| = 88 > 25 -> excluded
    assert [s.subject_id for s in kept.subjects] == ["sub0", "sub1"]


def test_qc_missing_metrics_passthrough(tmp_path):
    manifest = _manifest(tmp_path, [None, None])
    with pytest.warns(UserWarning):
        kept = io.qc_filter(manifest)
    assert len(kept.subjects) == 2


def test_qc_boundary_inclusive(tmp_path):
    manifest = _manifest(tmp_path, [0, 0, 0, 25, 26])  # median 0
    kept = io.qc_filter(manifest)
    ids = [s.subject_id for s in kept.subjects]
    assert "sub3" in ids  # exactly 25 from the median stays
    assert "sub4" not in ids


# -- synthetic generator ---------------------------------------------------------


def test_synth_same_seed_byte_identical(tmp_path):
    cfg = synth.SynthConfig(order=1, n_subjects=6, n_patients=2,
                            anomaly_amplitude=2.0, n_rois=5, seed=12)
    p1 = synth.generate_dataset(cfg, tmp_path / "a")
    p2 = synth.generate_dataset(cfg, tmp_path / "b")
    for rel in ["manifest.json", "atlas.csv", "labels.csv", "sub-0.smmn"]:
        a = (tmp_path / "a" / rel).read_bytes()
        b = (tmp_path / "b" / rel).read_bytes()
        assert a == b, rel


def test_synth_amplitude_zero_groups_indistinguishable():
    cfg = synth.SynthConfig(order=2, n_subjects=40, n_patients=20,
                            anomaly_amplitude=0.0, n_rois=8, seed=5)
    fields, _, _, groups, _ = synth.generate_fields(cfg)
    rng = np.random.default_rng(0)
    ctrl = fields[:20].reshape(-1)
    pat = fields[20:].reshape(-1)
    a = rng.choice(ctrl, 200, replace=False)
    b = rng.choice(pat, 200, replace=False)
    result = scipy.stats.ks_2samp(a, b)
    assert result.pvalue > 0.01


def test_synth_bump_raises_target_roi():
    cfg = synth.SynthConfig(order=2, n_subjects=30, n_patients=15, anomaly_roi=3,
                            anomaly_amplitude=5.0, n_rois=8, seed=6)
    fields, _, _, groups, bumped = synth.generate_fields(cfg)
    atlas = synth.synthetic_atlas(mesh.icosphere(2), 8)
    verts = atlas.roi_vertices(3)
    ctrl_mean = fields[:15, 0][:, verts].mean()
    pat_mean = fields[15:, 0][:, verts].mean()
    assert pat_mean - ctrl_mean > 3.0 * fields[:15, 0].std()
    assert bumped[15:].all() and not bumped[:15].any()


def test_synth_age_slope_sign():
    cfg = synth.SynthConfig(order=1, n_subjects=150, age_slope=(-0.2,), seed=8)
    fields, ages, _, _, _ = synth.generate_fields(cfg)
    means = fields[:, 0, :].mean(axis=1)
    slope, _ = np.polyfit(ages, means, 1)
    resid = means - np.polyval(np.polyfit(ages, means, 1), ages)
    se = resid.std() / (ages.std() * math.sqrt(len(ages)))
    assert slope < 0.0
    expected = -0.2 / ((85.0 - 45.0) / math.sqrt(12.0))
    assert abs(slope - expected) < 4.0 * se


def test_synth_splits_and_groups(tmp_path):
    cfg = synth.SynthConfig(order=1, n_subjects=10, n_patients=3, n_train=4,
                            n_val=2, n_rois=5, seed=1)
    path = synth.generate_dataset(cfg, tmp_path / "ds")
    manifest = io.load_manifest(path)
    splits = [s.split for s in manifest.subjects]
    assert splits == ["train"] * 4 + ["val"] * 2 + ["test"] * 4
    groups = [s.group for s in manifest.subjects]
    assert groups == ["control"] * 7 + ["patient"] * 3
    assert manifest.atlas == "atlas.csv"


def test_synth_config_guards():
    with pytest.raises(ConfigurationError):
        synth.SynthConfig(order=7)
    with pytest.raises(ConfigurationError):
        synth.SynthConfig(anomaly_amplitude=-1.0)
    with pytest.raises(ConfigurationError):
        synth.SynthConfig(n_subjects=5, n_patients=9)
    with pytest.raises(ConfigurationError):
        synth.SynthConfig(n_subjects=5, n_train=4, n_val=4)


def test_synth_missing_roi_rejected():
    cfg = synth.SynthConfig(order=1, n_subjects=4, n_patients=2, n_rois=5,
                            anomaly_roi=77, anomaly_amplitude=1.0, seed=0)
    with pytest.raises(ConfigurationError):
        synth.generate_fields(cfg)


def test_synthetic_atlas_structure():
    m = mesh.icosphere(2)
    atlas = synth.synthetic_atlas(m, 34)
    assert atlas.roi_ids() == list(range(1, 35))
    assert np.all(np.bincount(atlas.labels, minlength=35) > 0)
    assert atlas.num_vertices == m.num_vertices
