import numpy as np
import pytest

from smmn import anomaly, mesh, net, spharm, synth
from smmn.errors import ParseError, ShapeError, UsageError


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


def _as_record(sample):
    return anomaly.SubjectRecord(
        subject_id=sample.subject_id,
        features=sample.features,
        context=sample.context,
    )


def test_zero_residual_scores_zero():
    # the scoring rule itself: a perfect reconstruction scores 0
    resid = np.zeros((2, 30))
    assert anomaly.roi_residual_scores(resid, np.arange(5)).sum() == 0.0


def test_detect_roi_deterministic(setup):
    model, atlas, samples = setup
    rec = _as_record(samples[0])
    a = anomaly.detect_roi(model, rec, atlas, 3)
    b = anomaly.detect_roi(model, rec, atlas, 3)
    assert a == b
    assert a >= 0.0 and np.isfinite(a)


def test_detect_roi_missing_roi(setup):
    model, atlas, samples = setup
    with pytest.raises(UsageError):
        anomaly.detect_roi(model, _as_record(samples[0]), atlas, 999)


def test_masking_locality_bit_exact(setup):
    """In-ROI perturbation cannot change the ROI's reconstruction."""
    model, atlas, samples = setup
    roi = 5
    verts = atlas.roi_vertices(roi)
    rec = _as_record(samples[0])

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
    rec = _as_record(samples[1])
    s_before = anomaly.detect_roi(model, rec, atlas, roi)
    perturbed = rec.features.copy()
    perturbed[:, outside] += 10.0
    s_after = anomaly.detect_roi(
        model, anomaly.SubjectRecord("p", perturbed, rec.context), atlas, roi
    )
    assert s_after != s_before


def test_detect_all_cardinality(setup):
    model, atlas, samples = setup
    report = anomaly.detect_all(model, _as_record(samples[0]), atlas)
    assert len(report.roi_ids) == len(atlas.roi_ids()) == 14
    assert report.scores.shape == (1, 14)
    assert np.all(report.scores >= 0.0)
    assert np.all(np.isfinite(report.scores))
    assert 0 not in report.roi_ids


def test_detect_all_scores_match_detect_roi_values(setup):
    model, atlas, samples = setup
    rec = _as_record(samples[2])
    report = anomaly.detect_all(model, rec, atlas)
    for roi in (1, 7, 14):
        single = anomaly.detect_roi(model, rec, atlas, roi)
        assert report.score(roi) == pytest.approx(single, rel=1e-10)


def test_detect_all_deterministic(setup):
    model, atlas, samples = setup
    rec = _as_record(samples[3])
    a = anomaly.detect_all(model, rec, atlas)
    b = anomaly.detect_all(model, rec, atlas)
    np.testing.assert_array_equal(a.scores, b.scores)


def test_context_changes_report(setup):
    model, atlas, samples = setup
    rec = _as_record(samples[4])
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
    rec = _as_record(samples[5])
    bumped = rec.features.copy()
    bumped[:, verts] += 5.0 * model.norm_std[:, None]
    report = anomaly.detect_all(
        model, anomaly.SubjectRecord("b", bumped, rec.context), atlas
    )
    top_roi = report.roi_ids[int(np.argmax(report.scores.sum(axis=0)))]
    assert top_roi == roi


def test_cohort_scores_shape_and_rows(setup):
    model, atlas, samples = setup
    records = [_as_record(s) for s in samples[:3]]
    matrix = anomaly.cohort_scores(model, records, atlas)
    assert matrix.scores.shape == (3, 14, 1)
    for i, rec in enumerate(records):
        row = anomaly.detect_all(model, rec, atlas)
        np.testing.assert_array_equal(matrix.scores[i], row.scores.T)
    assert matrix.subject_ids == [r.subject_id for r in records]


def test_cohort_scores_order_independent(setup):
    model, atlas, samples = setup
    records = [_as_record(s) for s in samples[:4]]
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
            model, [_as_record(samples[0]), bad], atlas
        )
    assert matrix.num_subjects == 1
    assert matrix.skipped and matrix.skipped[0][0] == "bad"


def test_cohort_empty_rejected(setup):
    model, atlas, _ = setup
    with pytest.raises(UsageError):
        anomaly.cohort_scores(model, [], atlas)


def test_atlas_level_mismatch(setup):
    model, _, samples = setup
    small_atlas = synth.synthetic_atlas(mesh.icosphere(1), 5)
    with pytest.raises(ShapeError):
        anomaly.detect_all(model, _as_record(samples[0]), small_atlas)


def test_raw_scores_scale_with_norm_std(setup):
    model, atlas, samples = setup
    rec = _as_record(samples[0])
    z_score = anomaly.detect_roi(model, rec, atlas, 2, normalized=True)
    raw_score = anomaly.detect_roi(model, rec, atlas, 2, normalized=False)
    assert raw_score == pytest.approx(z_score * model.norm_std[0], rel=1e-12)


def test_scores_csv_json_round_trip(setup, tmp_path):
    model, atlas, samples = setup
    matrix = anomaly.cohort_scores(model, [_as_record(s) for s in samples[:3]], atlas)
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
