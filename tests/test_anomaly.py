import os
from pathlib import Path
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from smmn import anomaly, conv, mesh, net, spharm, synth
from smmn.errors import DomainError, ParseError, ShapeError, UsageError


@pytest.fixture(scope="module")
def setup():
    """A lightly trained order-2 model plus a matching atlas."""
    order = 2
    m = mesh.icosphere(order)
    theta, phi = mesh.sphere_angles(m.vertices)
    basis = spharm.filter_basis(2, theta, phi)
    rng = np.random.default_rng(0)

    def make(n, seed):
        r = np.random.default_rng(seed)
        out = []
        for i in range(n):
            age = r.uniform(45, 85)
            sex = 1.0 if r.random() < 0.5 else -1.0
            field = basis @ r.standard_normal(9) + r.normal(0, 0.25, m.num_vertices)
            out.append(
                net.Sample(features=field[None],
                           context=net.ContextVector(age, sex),
                           subject_id=f"s{seed}_{i}")
            )
        return out

    cfg = net.ModelConfig(input_order=order, channels=(8, 12), in_channels=1,
                          channel_names=("thickness",), seed=0)
    model = net.MMNModel(cfg)
    net.train(model, make(40, 1), make(12, 2),
              net.TrainConfig(epochs=6, seed=0, batch_size=10, patience=6))
    atlas = synth.synthetic_atlas(m, 14)
    return model, atlas, make(6, 3)


def test_zero_residual_scores_zero():
    # the scoring rule itself: a perfect reconstruction scores 0
    resid = np.zeros((2, 30))
    assert anomaly.roi_residual_scores(resid, np.arange(5)).sum() == 0.0


def test_detect_roi_deterministic(setup):
    model, atlas, samples = setup
    rec = samples[0]
    a = anomaly.detect_roi(model, rec, atlas, 3)
    b = anomaly.detect_roi(model, rec, atlas, 3)
    assert a == b
    assert a >= 0.0 and np.isfinite(a)


def test_detect_roi_missing_roi(setup):
    model, atlas, samples = setup
    with pytest.raises(UsageError):
        anomaly.detect_roi(model, samples[0], atlas, 999)


def test_masking_locality_bit_exact(setup):
    """In-ROI perturbation cannot change the ROI's reconstruction."""
    model, atlas, samples = setup
    roi = 5
    verts = atlas.roi_vertices(roi)
    rec = samples[0]

    xn = model.normalize(rec.features)
    xb = xn.copy()
    xb[:, verts] = model.params["mask_token"][:, None]
    ctxn = model.normalize_context(rec.context)
    xhat0, _ = net.forward_core(model, xb[None], ctxn[None])

    perturbed = rec.features.copy()
    perturbed[:, verts] += 3.21
    rec2 = anomaly.SubjectRecord("p", perturbed, rec.context)
    xn2 = model.normalize(rec2.features)
    xb2 = xn2.copy()
    xb2[:, verts] = model.params["mask_token"][:, None]
    np.testing.assert_array_equal(xb, xb2)  # masked inputs identical
    xhat1, _ = net.forward_core(model, xb2[None], ctxn[None])
    np.testing.assert_array_equal(xhat0, xhat1)

    # and the score shifts exactly by the residual arithmetic
    s_before = anomaly.detect_roi(model, rec, atlas, roi)
    s_after = anomaly.detect_roi(model, rec2, atlas, roi)
    expected = float(np.abs(xhat0[0][:, verts] - xn2[:, verts]).mean(axis=1).sum())
    assert s_after == expected
    assert s_after != s_before


def test_out_of_roi_perturbation_can_change_score(setup):
    model, atlas, samples = setup
    roi = 5
    outside = atlas.roi_vertices(6)
    rec = samples[1]
    s_before = anomaly.detect_roi(model, rec, atlas, roi)
    perturbed = rec.features.copy()
    perturbed[:, outside] += 10.0
    s_after = anomaly.detect_roi(
        model, anomaly.SubjectRecord("p", perturbed, rec.context), atlas, roi
    )
    assert s_after != s_before


def test_detect_all_cardinality(setup):
    model, atlas, samples = setup
    report = anomaly.detect_all(model, samples[0], atlas)
    assert len(report.roi_ids) == len(atlas.roi_ids()) == 14
    assert report.scores.shape == (1, 14, 1)
    assert np.all(report.scores >= 0.0)
    assert np.all(np.isfinite(report.scores))
    assert 0 not in report.roi_ids


def test_detect_all_scores_match_detect_roi_values(setup):
    model, atlas, samples = setup
    rec = samples[2]
    report = anomaly.detect_all(model, rec, atlas)
    for roi in (1, 7, 14):
        single = anomaly.detect_roi(model, rec, atlas, roi)
        col = report.roi_ids.index(roi)
        assert report.scores[0, col].sum() == pytest.approx(single, rel=1e-10)


def test_detect_all_deterministic(setup):
    model, atlas, samples = setup
    rec = samples[3]
    a = anomaly.detect_all(model, rec, atlas)
    b = anomaly.detect_all(model, rec, atlas)
    np.testing.assert_array_equal(a.scores, b.scores)


def test_context_changes_report(setup):
    model, atlas, samples = setup
    rec = samples[4]
    base = anomaly.detect_all(model, rec, atlas)
    other = anomaly.SubjectRecord(
        rec.subject_id, rec.features,
        net.ContextVector(rec.context.age + 15.0, rec.context.sex),
    )
    shifted = anomaly.detect_all(model, other, atlas)
    assert np.abs(base.scores - shifted.scores).max() > 0.0


def test_injected_bump_ranks_first(setup):
    model, atlas, samples = setup
    roi = 9
    verts = atlas.roi_vertices(roi)
    rec = samples[5]
    bumped = rec.features.copy()
    bumped[:, verts] += 5.0 * model.norm_std[:, None]
    report = anomaly.detect_all(
        model, anomaly.SubjectRecord("b", bumped, rec.context), atlas
    )
    top_roi = report.roi_ids[int(np.argmax(report.scores[0].sum(axis=1)))]
    assert top_roi == roi


def test_cohort_scores_shape_and_rows(setup):
    model, atlas, samples = setup
    records = samples[:3]
    matrix = anomaly.cohort_scores(model, records, atlas)
    assert matrix.scores.shape == (3, 14, 1)
    for i, rec in enumerate(records):
        row = anomaly.detect_all(model, rec, atlas)
        np.testing.assert_array_equal(matrix.scores[i], row.scores[0])
    assert matrix.subject_ids == [r.subject_id for r in records]


def _dense_scores(model, subject, atlas, normalized=True):
    """(R, C) scores of one standalone B = 1 masked forward pass per ROI."""
    xn = model.normalize(subject.features)
    ctxn = model.normalize_context(subject.context)[None]
    scores = []
    for roi in atlas.roi_ids():
        verts = atlas.roi_vertices(roi)
        xb, _ = net.masked_batch(model, xn[None], [verts])
        xhat, _ = net.forward_core(model, xb, ctxn)
        resid = xhat[0][:, verts] - xn[:, verts]
        if not normalized:
            resid = resid * model.norm_std[:, None]
        scores.append(np.abs(resid).mean(axis=1))
    return np.array(scores)


def _random_order3_model(channels=(8, 16), seed=3):
    """An order-3 model with random parameters and normalization."""
    model = net.MMNModel(net.ModelConfig(input_order=3, channels=channels,
                                         in_channels=2, channel_names=("a", "b"),
                                         seed=seed))
    rng = np.random.default_rng(seed)
    for name, arr in model.params.items():
        if name.endswith("_b"):
            model.params[name] = 0.1 * rng.standard_normal(arr.shape)
    model.norm_mean = np.array([2.5, -1.0])
    model.norm_std = np.array([0.5, 3.0])
    model.ctx_stats = np.array([60.0, 9.0])
    return model


def _order3_case():
    model = _random_order3_model()
    atlas = synth.synthetic_atlas(model.hierarchy.mesh(3), 34)
    rng = np.random.default_rng(4)
    subjects = [
        net.Sample(2.5 + 0.5 * rng.standard_normal((2, model.num_input_vertices)),
                   net.ContextVector(50.0 + 10 * i, 1.0 - 2 * (i % 2)), f"o3_{i}")
        for i in range(2)
    ]
    return model, atlas, subjects


@pytest.mark.parametrize("normalized", [True, False])
def test_detection_equals_one_dense_pass_per_roi(setup, normalized):
    """The sparse walk scores every ROI as a standalone dense masked pass
    does; an entry read outside a decoder block's demand would be NaN and
    stop detection instead."""
    cases = [setup[:2] + (setup[2][:2],), _order3_case()]
    for model, atlas, subjects in cases:
        reference = np.stack([_dense_scores(model, s, atlas, normalized)
                              for s in subjects])
        assert reference.shape[1] == len(atlas.roi_ids()) in (14, 34)
        matrix = anomaly.cohort_scores(model, subjects, atlas, normalized=normalized)
        np.testing.assert_allclose(matrix.scores, reference, rtol=1e-12, atol=0)
        single = anomaly.detect_all(model, subjects[0], atlas, normalized=normalized)
        np.testing.assert_allclose(single.scores[0], reference[0], rtol=1e-12, atol=0)


@pytest.mark.parametrize("order", [2, 3])
def test_support_tables_hold_every_changed_encoder_row(setup, order):
    """Perturbing one ROI's inputs changes an encoder block's output only
    inside that block's support.  The leaky rectifier is strictly
    increasing, so an output changes exactly where its pre-activation
    does; each output is recomputed from the input the tape saved."""
    if order == 2:
        model, atlas, samples = setup
        features = samples[0].features
        context = samples[0].context
    else:
        model, atlas, subjects = _order3_case()
        features, context = subjects[0].features, subjects[0].context
    roi_ids = atlas.roi_ids()
    tables = anomaly.roi_tables(model, atlas, roi_ids)
    plan = model.config.plan()
    encoder = [step[1] for step in plan[:plan.index(("bottleneck",))]
               if step[0] == "block"]
    ctxn = model.normalize_context(context)[None]
    for r in (0, len(roi_ids) // 2, len(roi_ids) - 1):
        verts = atlas.roi_vertices(roi_ids[r])
        tapes = []
        for shift in (0.0, 1.5):
            x = model.normalize(features)
            x[:, verts] += shift
            _, tape = net.forward_core(model, x[None], ctxn, record=True)
            tapes.append(tape)
        blocks = [i for i, step in enumerate(plan) if step[0] == "block"]
        for name, i in zip(encoder, blocks):
            level, activate = plan[i][2], plan[i][5]
            out_a, out_b = (conv.block_forward(
                model.context_of(level), saved[i][0], model.params[f"{name}_vf"],
                model.params[f"{name}_fv"], model.params[f"{name}_b"], activate)[0][0]
                for saved in tapes)
            changed = np.any(out_a != out_b, axis=0)
            support = tables.rows[name][1].mask[:, r]
            assert changed.any()
            assert not np.any(changed & ~support), name
    # the first block's support is a small part of the mesh
    assert tables.rows[encoder[0]][1].mask.mean() < 0.2


def test_roi_tables_compute_no_pad_rows():
    """On the order-3, 34-ROI atlas every facet2vertex selection gathers
    one row per entry: its selected entries, then, in the encoder, one
    base row per vertex."""
    model, atlas, _ = _order3_case()
    tables = anomaly.roi_tables(model, atlas, atlas.roi_ids())
    blocks = [pair[1] for step, pair in tables.rows.items() if isinstance(step, str)]
    assert len(blocks) == 8
    assert sum(int(rows.mask.sum()) for rows in blocks) == 10531
    assert sum(rows.gather.shape[1] * rows.gather.shape[2] for rows in blocks) == (
        10531 + sum(len(rows.mask) for rows in blocks if rows.base))


@pytest.mark.parametrize("seed, channels", [(0, (16, 32)), (1, (8, 12)), (2, (32, 16))])
def test_every_roi_walk_equals_the_dense_masked_pass(seed, channels):
    """For random order-3 models of three widths, each of the 34 ROIs'
    one-ROI walk reconstructs the ROI's vertices to the bit as a dense
    ROI-masked forward pass does: a row's bits do not depend on how many
    rows its GEMMs hold."""
    model = _random_order3_model(channels, seed)
    atlas = synth.synthetic_atlas(model.hierarchy.mesh(3), 34)
    rng = np.random.default_rng(seed)
    xn = model.normalize(2.5 + 0.5 * rng.standard_normal((2, model.num_input_vertices)))
    ctxn = model.normalize_context(net.ContextVector(60.0, 1.0))
    for roi in atlas.roi_ids():
        tables = anomaly.roi_tables(model, atlas, [roi])
        walk = anomaly._reconstruct(model, xn, ctxn, tables)[:, tables.scored[0]]
        xb, _ = net.masked_batch(model, xn[None], tables.vertices)
        dense, _ = net.forward_core(model, xb, ctxn[None])
        np.testing.assert_array_equal(walk, dense[0][:, tables.vertices[0]],
                                      err_msg=f"ROI {roi}")


def test_bit_exact_checks_pass_on_the_haswell_kernel():
    """The row-bit checks hold under OpenBLAS's Haswell kernel too, the one
    it picks on AVX2 CPUs without AVX-512: a child pytest runs them with
    OPENBLAS_CORETYPE=Haswell, set in its environment only."""
    tests = ["tests/test_anomaly.py::test_every_roi_walk_equals_the_dense_masked_pass",
             "tests/test_anomaly.py::test_masking_locality_bit_exact",
             "tests/test_conv.py::test_f2v_vertex_chunks_match_one_chunk"]
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=Path(__file__).resolve().parents[1],
                          env=dict(os.environ, OPENBLAS_CORETYPE="Haswell"),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


def test_non_finite_features_are_a_domain_error(setup):
    model, atlas, samples = setup
    bad = net.Sample(samples[0].features.copy(), samples[0].context, "nan_subject")
    bad.features[0, 17] = np.nan
    with pytest.raises(DomainError, match="'nan_subject' has non-finite features"):
        anomaly.detect_all(model, bad, atlas)
    with pytest.raises(DomainError, match="'nan_subject'"):
        anomaly.cohort_scores(model, [samples[0], bad], atlas)


def test_non_finite_scores_are_a_domain_error(setup):
    # finite features whose reconstruction overflows
    model, atlas, samples = setup
    features = np.where(np.arange(model.num_input_vertices) % 2, 1e307, -1e307)
    huge = net.Sample(features[None], samples[1].context, "huge")
    with np.errstate(all="ignore"):
        with pytest.raises(DomainError, match="'huge' has non-finite anomaly scores"):
            anomaly.detect_all(model, huge, atlas)
        with pytest.raises(DomainError, match="'huge'"):
            anomaly.cohort_scores(model, [samples[0], huge], atlas)


def test_cohort_scores_order_independent(setup):
    model, atlas, samples = setup
    records = samples[:4]
    a = anomaly.cohort_scores(model, records, atlas)
    b = anomaly.cohort_scores(model, records[::-1], atlas)
    for i, sid in enumerate(a.subject_ids):
        j = b.subject_ids.index(sid)
        np.testing.assert_array_equal(a.scores[i], b.scores[j])


def test_cohort_skips_mismatched_subjects(setup):
    model, atlas, samples = setup
    bad = anomaly.SubjectRecord("bad", np.zeros((1, 12)),
                                net.ContextVector(60.0, 1.0))
    with pytest.warns(UserWarning):
        matrix = anomaly.cohort_scores(
            model, [samples[0], bad], atlas
        )
    assert matrix.num_subjects == 1
    assert matrix.skipped and matrix.skipped[0][0] == "bad"


def test_cohort_scores_take_the_hemisphere_of_the_atlas(setup, tmp_path):
    # a training Sample and a SubjectRecord score alike; neither names a
    # hemisphere, every row gets the atlas's
    model, _, samples = setup
    right = synth.synthetic_atlas(mesh.icosphere(2), 14, hemisphere="right")
    records = [samples[0]] + [
        anomaly.SubjectRecord(s.subject_id, s.features, s.context)
        for s in samples[1:3]
    ]
    matrix = anomaly.cohort_scores(model, records, right)
    assert matrix.hemisphere == "right"
    anomaly.write_scores_csv(matrix, tmp_path / "scores.csv")
    rows = (tmp_path / "scores.csv").read_text().splitlines()[1:]
    assert len(rows) == 3 * 14
    assert {row.split(",")[1] for row in rows} == {"right"}


def test_cohort_empty_rejected(setup):
    model, atlas, _ = setup
    with pytest.raises(UsageError):
        anomaly.cohort_scores(model, [], atlas)


def test_atlas_level_mismatch(setup):
    model, _, samples = setup
    small_atlas = synth.synthetic_atlas(mesh.icosphere(1), 5)
    with pytest.raises(ShapeError):
        anomaly.detect_all(model, samples[0], small_atlas)
    # the atlas is checked once for the cohort, not blamed on each subject
    with pytest.raises(ShapeError, match="atlas covers 42 vertices"):
        anomaly.cohort_scores(model, samples[:2], small_atlas)


def test_raw_scores_scale_with_norm_std(setup):
    model, atlas, samples = setup
    rec = samples[0]
    z_score = anomaly.detect_roi(model, rec, atlas, 2, normalized=True)
    raw_score = anomaly.detect_roi(model, rec, atlas, 2, normalized=False)
    assert raw_score == pytest.approx(z_score * model.norm_std[0], rel=1e-12)


def test_scores_csv_json_round_trip(setup, tmp_path):
    model, atlas, samples = setup
    matrix = anomaly.cohort_scores(model, samples[:3], atlas)
    csv_path = tmp_path / "scores.csv"
    anomaly.write_scores_csv(matrix, csv_path)
    header = csv_path.read_text().splitlines()[0]
    assert header == "subject_id,hemisphere,channel,roi_id,roi_name,n_vertices,score"
    loaded = anomaly.read_scores_csv(csv_path)
    assert loaded.subject_ids == matrix.subject_ids
    assert loaded.roi_ids == matrix.roi_ids
    np.testing.assert_array_equal(loaded.scores, matrix.scores)  # repr round-trip
    json_path = tmp_path / "scores.json"
    anomaly.write_scores_json(matrix, json_path)
    import json

    doc = json.loads(json_path.read_text())
    assert len(doc["scores"]) == 3 * 14
    assert doc["scores"][0]["roi_id"] == matrix.roi_ids[0]


@pytest.mark.parametrize("column, value", [
    ("roi_id", "x"), ("n_vertices", "1.5"), ("score", "high"), ("score", "nan"),
])
def test_read_scores_csv_bad_value_is_parse_error(tmp_path, column, value):
    good = {"subject_id": "s0", "hemisphere": "left", "channel": "thickness",
            "roi_id": "3", "roi_name": "roi_3", "n_vertices": "12", "score": "0.5"}
    bad = dict(good, **{column: value})
    lines = [",".join(anomaly.REPORT_COLUMNS)] + [
        ",".join(row[c] for c in anomaly.REPORT_COLUMNS) for row in (good, bad)
    ]
    path = tmp_path / "scores.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="line 3") as err:
        anomaly.read_scores_csv(path)
    assert err.value.offset == len(lines[0]) + len(lines[1]) + 2
    assert err.value.path == str(path)


def test_read_scores_csv_rows_in_any_order(tmp_path):
    header = ",".join(anomaly.REPORT_COLUMNS) + "\n"
    rows = [f"s{s},right,{c},{r},roi_{r},{r + 4},{s + r / 10}\n"
            for s in range(2) for c in ("thickness", "area") for r in (7, 3)]
    path = tmp_path / "scores.csv"
    path.write_text(header + "".join(reversed(rows)))
    loaded = anomaly.read_scores_csv(path)
    assert loaded.subject_ids == ["s1", "s0"]
    assert loaded.channel_names == ("area", "thickness")
    assert loaded.roi_ids == [3, 7]
    assert loaded.hemisphere == "right"
    assert loaded.roi_names == {3: "roi_3", 7: "roi_7"}
    np.testing.assert_array_equal(loaded.roi_sizes, [7, 11])
    np.testing.assert_array_equal(loaded.scores[:, :, 0], [[1.3, 1.7], [0.3, 0.7]])


@pytest.mark.parametrize("block", range(4))
def test_a_read_outside_a_decoder_demand_is_a_domain_error(monkeypatch, block):
    """Without one (vertex, ROI) pair of one decoder block's demand, the
    step after it reads the NaN row in its place, so detection stops
    instead of returning finite scores."""
    model, atlas, subjects = _order3_case()
    real = conv.ConvContext.select
    decoder_calls = []

    def select(self, facets, vertices, reads=None, base=False):
        if not base:
            if len(decoder_calls) == block:
                vertices = vertices.copy()
                vertices.flat[np.flatnonzero(vertices)[0]] = False
            decoder_calls.append(vertices.shape)
        return real(self, facets, vertices, reads, base)

    monkeypatch.setattr(conv.ConvContext, "select", select)
    tables = anomaly.roi_tables(model, atlas, atlas.roi_ids())
    assert len(decoder_calls) == 4
    with pytest.raises(DomainError, match="non-finite anomaly scores"):
        anomaly.detect_all(model, subjects[0], atlas, tables=tables)


def test_detection_never_holds_a_full_roi_table():
    # Order 4, 34 ROIs, 16 channels: one (F, R, C) facet table is 21 MiB.
    # Detection keeps only the rows it computes, so scoring one subject of
    # a cohort (its tables built once, outside the trace) peaks below that
    # single table.
    model = net.MMNModel(net.ModelConfig(input_order=4, channels=(16, 16),
                                         in_channels=2, channel_names=("a", "b")))
    atlas = synth.synthetic_atlas(model.hierarchy.mesh(4), 34)
    rng = np.random.default_rng(5)
    subject = net.Sample(rng.standard_normal((2, model.num_input_vertices)),
                         net.ContextVector(60.0, 1.0), "o4")
    full_table = model.context_of(4).num_facets * 34 * 16 * 8
    assert full_table > 21 * 2**20
    tables = anomaly.roi_tables(model, atlas, atlas.roi_ids())
    anomaly.detect_all(model, subject, atlas, tables=tables)  # fills the caches
    tracemalloc.start()
    try:
        anomaly.detect_all(model, subject, atlas, tables=tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < full_table
