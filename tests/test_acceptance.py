"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  The training/anomaly criteria share one trained
model via session fixtures; everything is seeded, so outcomes are
deterministic.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import oracles
from smmn import anomaly, conv, io, mesh, net, spharm, stats, synth

TRAIN_SEED = 0
COHORT_SEED = 77
INJECTED_ROI = 7
N_ROIS = 34


def _report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


# -- shared heavy fixtures -----------------------------------------------------


def _samples_from_fields(fields, ages, sexes, prefix):
    return [
        net.Sample(
            features=fields[i],
            context=net.ContextVector(float(ages[i]), float(sexes[i])),
            subject_id=f"{prefix}{i:03d}",
        )
        for i in range(len(fields))
    ]


@pytest.fixture(scope="session")
def train_val_sets():
    cfg = synth.SynthConfig(
        order=3, n_subjects=300, n_patients=0, n_train=200, n_val=100, seed=11
    )
    fields, ages, sexes, _, _ = synth.generate_fields(cfg)
    samples = _samples_from_fields(fields, ages, sexes, "train")
    return samples[:200], samples[200:]


def _train_once(train_set, val_set):
    model = net.MMNModel(
        net.ModelConfig(
            input_order=3,
            channels=(16, 32),
            in_channels=1,
            l_max=3,
            channel_names=("thickness",),
            seed=TRAIN_SEED,
        )
    )
    config = net.TrainConfig(
        mask_fraction=0.5,
        lr=1e-3,
        epochs=20,  # within the <= 50 epoch budget
        patience=8,
        seed=TRAIN_SEED,
        batch_size=20,
    )
    result = net.train(model, train_set, val_set, config)
    return model, result


@pytest.fixture(scope="session")
def trained(train_val_sets):
    train_set, val_set = train_val_sets
    start = time.monotonic()
    model, result = _train_once(train_set, val_set)
    elapsed = time.monotonic() - start
    return model, result, elapsed


@pytest.fixture(scope="session")
def cohort(trained):
    """50 controls + 50 patients with a +5 sigma bump in one ROI."""
    model, _, _ = trained
    cfg = synth.SynthConfig(
        order=3,
        n_subjects=100,
        n_patients=50,
        n_rois=N_ROIS,
        anomaly_roi=INJECTED_ROI,
        anomaly_amplitude=5.0,
        seed=COHORT_SEED,
    )
    fields, ages, sexes, groups, _ = synth.generate_fields(cfg)
    atlas = synth.synthetic_atlas(mesh.icosphere(3), N_ROIS)
    records = [
        net.Sample(
            subject_id=f"c{i:03d}",
            features=fields[i],
            context=net.ContextVector(float(ages[i]), float(sexes[i])),
        )
        for i in range(100)
    ]
    matrix = anomaly.cohort_scores(model, records, atlas)
    patient_rows = [i for i in range(100) if groups[i] == "patient"]
    control_rows = [i for i in range(100) if groups[i] == "control"]
    return matrix, atlas, records, fields, control_rows, patient_rows


# -- criterion 1: geometry ------------------------------------------------------


def test_acceptance_1_geometry_suite():
    start = time.monotonic()
    for order in range(7):
        m = mesh.icosphere(order)
        assert m.num_vertices == 10 * 4**order + 2
        assert m.num_vertices - m.num_edges + m.num_facets == 2
        counts = np.bincount(m.facet_edges.reshape(-1), minlength=m.num_edges)
        assert np.all(counts == 2), f"order {order} not a closed 2-manifold"
        centroids = m.vertices[m.facets].mean(axis=1)
        assert np.all(
            np.einsum("ij,ij->i", m.facet_normals, centroids) > 0
        ), f"order {order} winding broken"
        assert np.abs(np.linalg.norm(m.vertices, axis=1) - 1.0).max() < 1e-9
    assert mesh.icosphere(6).num_vertices == 40962
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(1, f"orders 0..6 valid, order 6 has 40962 vertices, {elapsed:.1f}s")


# -- criterion 2: convolution oracle ---------------------------------------------

V2F_ANGLES = [(math.pi / 2, 0.0), (math.pi / 2, math.pi / 2), (0.0, 0.0)]


def _brute_v2f(m, x, bank):
    out = np.zeros((bank.out_channels, m.num_facets))
    for f in range(m.num_facets):
        for j, (theta, phi) in enumerate(V2F_ANGLES):
            out[:, f] += spharm.filter_eval(bank, theta, phi) @ x[:, m.facets[f, j]]
    return out


def _brute_f2v(m, h, bank):
    out = np.zeros((bank.out_channels, m.num_vertices))
    for v in range(m.num_vertices):
        incident = m.vertex_facets(v)
        for f in incident:
            theta, phi = mesh.facet_geometry(m, v, int(f))
            out[:, v] += spharm.filter_eval(bank, theta, phi) @ h[:, f]
        out[:, v] /= len(incident)
    return out


def test_acceptance_2_convolution_oracle():
    rng = np.random.default_rng(2)
    worst = 0.0
    for order in (0, 1):
        m = mesh.icosphere(order)
        bank_vf = spharm.FilterBank.random(3, 2, 3, rng)
        bank_fv = spharm.FilterBank.random(3, 3, 2, rng)
        x = conv.FeatureMap(rng.standard_normal((2, m.num_vertices)), level=order)

        g_fast = conv.vertex2facet(m, x, bank_vf)
        g_slow = _brute_v2f(m, x.values, bank_vf)
        worst = max(worst, np.abs(g_fast.values - g_slow).max())

        v_fast = conv.facet2vertex(m, g_fast, bank_fv)
        v_slow = _brute_f2v(m, g_fast.values, bank_fv)
        worst = max(worst, np.abs(v_fast.values - v_slow).max())

        vv_fast = conv.vertex2vertex(m, x, bank_vf, bank_fv, activation="linear")
        vv_slow = _brute_f2v(m, _brute_v2f(m, x.values, bank_vf), bank_fv)
        worst = max(worst, np.abs(vv_fast.values - vv_slow).max())
    assert worst < 1e-12
    _report(2, f"brute-force deviation {worst:.2e} on orders 0-1")


# -- criterion 3: gradient suite --------------------------------------------------


def test_acceptance_3_gradient_suite():
    # hourglass over two mesh levels (orders 1 and 0) with every
    # learnable parameter class present
    cfg = net.ModelConfig(
        input_order=1, channels=(4,), in_channels=2, l_max=3,
        channel_names=("a", "b"), seed=9,
    )
    model = net.MMNModel(cfg)
    rng = np.random.default_rng(31)
    sample = net.Sample(
        features=rng.standard_normal((2, 42)),
        context=net.ContextVector(64.0, -1.0),
    )
    mask = net.sample_mask(42, 0.5, rng)
    batch = [(sample, mask)]
    _, grads = net.backward(model, batch)

    classes = {"coeff": 0.0, "bias": 0.0, "mask_token": 0.0, "ctx_proj": 0.0}
    # central differences at near-optimal step; the absolute floor covers
    # the FD noise floor eps * |loss| / h on near-zero gradients
    h = 1e-5
    atol = 1e-8
    pick_rng = np.random.default_rng(5)
    for name, arr in model.params.items():
        if name.endswith(("_vf", "_fv")):
            kind = "coeff"
        elif name.endswith("_b"):
            kind = "bias"
        else:
            kind = name
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        picks = pick_rng.choice(flat.size, size=min(10, flat.size), replace=False)
        for i in picks:
            old = flat[i]
            flat[i] = old + h
            up = net.backward(model, batch)[0]
            flat[i] = old - h
            down = net.backward(model, batch)[0]
            flat[i] = old
            fd = (up - down) / (2 * h)
            rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), atol / 1e-4)
            classes[kind] = max(classes[kind], rel)
    assert all(v < 1e-4 for v in classes.values()), classes

    # adjoint identities on the order-1 operators
    m = mesh.icosphere(1)
    cctx = conv.conv_context(m, 3)
    coeffs = rng.standard_normal((3, 2, 16))
    x = rng.standard_normal((2, 2, m.num_vertices))
    y = rng.standard_normal((2, 3, m.num_facets))
    ax = conv.v2f_forward_core(cctx, x, coeffs)
    aty, _ = conv.v2f_backward_core(cctx, coeffs, x, y)
    adj_v2f = abs(np.sum(ax * y) - np.sum(x * aty))
    coeffs2 = rng.standard_normal((2, 3, 16))
    h_map = rng.standard_normal((2, 3, m.num_facets))
    z = rng.standard_normal((2, 2, m.num_vertices))
    bh = conv.f2v_forward_core(cctx, h_map, coeffs2)
    btz, _ = conv.f2v_backward_core(cctx, coeffs2, h_map, z)
    adj_f2v = abs(np.sum(bh * z) - np.sum(h_map * btz))
    assert adj_v2f < 1e-10 and adj_f2v < 1e-10
    _report(
        3,
        "FD rel err "
        + ", ".join(f"{k}={v:.1e}" for k, v in classes.items())
        + f"; adjoints {max(adj_v2f, adj_f2v):.1e}",
    )


# -- criterion 4: training check ---------------------------------------------------


def test_acceptance_4_training(trained, train_val_sets):
    model, result, elapsed = trained
    assert elapsed < 900.0, f"training took {elapsed:.0f}s, budget is 15 min"
    ratio = result.best_val_loss / result.epoch0_val_loss
    assert ratio <= 0.5, (
        f"best val {result.best_val_loss} vs epoch-0 {result.epoch0_val_loss}"
    )

    # bit-reproducibility: a fresh run with the same seed matches exactly
    train_set, val_set = train_val_sets
    model2, result2 = _train_once(train_set, val_set)
    for name in model.params:
        np.testing.assert_array_equal(
            model.params[name], model2.params[name], err_msg=name
        )
    assert result.history == result2.history
    _report(
        4,
        f"best val {result.best_val_loss:.4f} = {100 * ratio:.1f}% of epoch-0 "
        f"{result.epoch0_val_loss:.2f}; {elapsed:.0f}s; rerun bit-identical",
    )


# -- criterion 5: anomaly recovery -------------------------------------------------


def _auroc(pos, neg):
    pos = np.asarray(pos)
    neg = np.asarray(neg)
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def test_acceptance_5_anomaly_recovery(trained, cohort):
    model, _, _ = trained
    matrix, atlas, records, fields, control_rows, patient_rows = cohort
    roi_col = matrix.roi_ids.index(INJECTED_ROI)
    scores = matrix.scores[:, :, 0]

    rank1 = sum(1 for i in patient_rows if int(np.argmax(scores[i])) == roi_col)
    rank1_rate = rank1 / len(patient_rows)
    assert rank1_rate >= 0.9

    auroc = _auroc(scores[patient_rows, roi_col], scores[control_rows, roi_col])
    assert auroc >= 0.9

    # masking locality: an in-ROI perturbation leaves the masked-ROI
    # reconstruction bit-identical and shifts the score by arithmetic only
    rec = records[patient_rows[0]]
    verts = atlas.roi_vertices(INJECTED_ROI)
    xn = model.normalize(rec.features)
    xb = xn.copy()
    xb[:, verts] = model.params["mask_token"][:, None]
    ctxn = model.normalize_context(rec.context)
    xhat0, _ = net.forward_core(model, xb[None], ctxn[None])

    perturbed = dataclasses.replace(rec, subject_id="pert",
                                    features=rec.features.copy())
    perturbed.features[:, verts] += 1.75
    xn1 = model.normalize(perturbed.features)
    xb1 = xn1.copy()
    xb1[:, verts] = model.params["mask_token"][:, None]
    np.testing.assert_array_equal(xb, xb1)
    xhat1, _ = net.forward_core(model, xb1[None], ctxn[None])
    np.testing.assert_array_equal(xhat0, xhat1)

    s_after = anomaly.detect_roi(model, perturbed, atlas, INJECTED_ROI)
    expected = float(np.abs(xhat1[0][:, verts] - xn1[:, verts]).mean(axis=1).sum())
    assert s_after == expected
    _report(
        5,
        f"rank-1 in {rank1}/{len(patient_rows)} patients, AUROC {auroc:.3f}, "
        "locality bit-exact",
    )


# -- criterion 6: statistics suite --------------------------------------------------


def test_acceptance_6_statistics_suite():
    f_stat, _, eta2 = stats.anova_oneway([1, 2, 3], [2, 3, 4])
    assert abs(f_stat - 1.5) < 1e-12
    assert abs(eta2 - 3.0 / 11.0) < 1e-12
    assert abs(stats.f_cdf(1.0, 1, 1) - 0.5) < 1e-10

    q, rej = stats.bh_correct([0.01, 0.04])
    np.testing.assert_allclose(q, [0.02, 0.04], atol=1e-15)
    q4, rej4 = stats.bh_correct([0.01, 0.02, 0.03, 0.04], alpha=0.05)
    assert rej4.all()
    q1, _ = stats.bh_correct([0.37])
    assert q1[0] == 0.37

    # the spec's own example, against exact enumeration of all 20 splits
    p_hand_perm = oracles.permutation_p_mid([1, 2, 3], [2, 3, 4])
    _, p_hand, _ = stats.anova_oneway([1, 2, 3], [2, 3, 4])
    assert abs(p_hand - p_hand_perm) < 0.02

    rng = np.random.default_rng(2)
    worst = abs(p_hand - p_hand_perm)
    for trial in range(20):
        n_a = int(rng.integers(8, 13))
        n_b = int(rng.integers(8, 13))
        a = rng.standard_normal(n_a)
        b = rng.standard_normal(n_b) + rng.uniform(0.0, 1.5)
        _, p, _ = stats.anova_oneway(a, b)
        worst = max(worst, abs(p - oracles.permutation_p_mid(a, b, seed=1000 + trial)))
    assert worst < 0.02
    _report(6, f"hand values exact; permutation-oracle max gap {worst:.4f}")


# -- criterion 7: end-to-end pipeline ------------------------------------------------


def test_acceptance_7_end_to_end(trained, cohort):
    model, _, _ = trained
    matrix, atlas, _, _, control_rows, patient_rows = cohort

    mat_a = dataclasses.replace(
        matrix,
        subject_ids=[matrix.subject_ids[i] for i in control_rows],
        scores=matrix.scores[control_rows],
    )
    mat_b = dataclasses.replace(
        matrix,
        subject_ids=[matrix.subject_ids[i] for i in patient_rows],
        scores=matrix.scores[patient_rows],
    )
    report = stats.effect_report(mat_a, mat_b, alpha=0.05)
    assert report.significant, "injected ROI must reach q < 0.05"
    assert report.significant[0].roi_id == INJECTED_ROI
    top_eta2 = report.significant[0].eta2

    # amplitude-0 control runs: the filtered report stays empty
    empty = 0
    n_reps = 20
    for rep in range(n_reps):
        cfg = synth.SynthConfig(
            order=3,
            n_subjects=32,
            n_patients=16,
            n_rois=N_ROIS,
            anomaly_roi=INJECTED_ROI,
            anomaly_amplitude=0.0,
            seed=1000 + rep,
        )
        fields, ages, sexes, groups, _ = synth.generate_fields(cfg)
        records = [
            net.Sample(
                subject_id=f"n{rep}_{i}",
                features=fields[i],
                context=net.ContextVector(float(ages[i]), float(sexes[i])),
            )
            for i in range(32)
        ]
        null_matrix = anomaly.cohort_scores(model, records, atlas)
        a_rows = [i for i in range(32) if groups[i] == "control"]
        b_rows = [i for i in range(32) if groups[i] == "patient"]
        null_a = dataclasses.replace(
            null_matrix,
            subject_ids=[null_matrix.subject_ids[i] for i in a_rows],
            scores=null_matrix.scores[a_rows],
        )
        null_b = dataclasses.replace(
            null_matrix,
            subject_ids=[null_matrix.subject_ids[i] for i in b_rows],
            scores=null_matrix.scores[b_rows],
        )
        null_report = stats.effect_report(null_a, null_b, alpha=0.05)
        empty += not null_report.significant
    assert empty / n_reps >= 0.95, f"{empty}/{n_reps} null runs were empty"
    _report(
        7,
        f"injected ROI top with eta2 {top_eta2:.3f}; "
        f"{empty}/{n_reps} null runs empty",
    )


# -- criterion 8: format suite --------------------------------------------------------


def test_acceptance_8_format_suite(tmp_path):
    # fixture bytes parse to expected values
    blob = bytes.fromhex(
        "ffffff" + "00000003" + "00000000" + "00000001"
        + "3fc00000" + "c0000000" + "00000000"
    )
    curv_path = tmp_path / "fixture.curv"
    curv_path.write_bytes(blob)
    values, count = io.read_fs_curv(curv_path)
    assert count == 3
    np.testing.assert_array_equal(values, [1.5, -2.0, 0.0])

    # round-trips are bit-exact for every owned format
    m1 = mesh.icosphere(1)
    surf = tmp_path / "m.surf"
    io.write_fs_surface(surf, m1, comment="acceptance")
    io.write_fs_surface(tmp_path / "m2.surf", io.read_fs_surface(surf),
                        comment="acceptance")
    assert surf.read_bytes() == (tmp_path / "m2.surf").read_bytes()

    rng = np.random.default_rng(8)
    vals = rng.standard_normal(42).astype(np.float32).astype(np.float64)
    io.write_fs_curv(tmp_path / "c.curv", vals)
    back, _ = io.read_fs_curv(tmp_path / "c.curv")
    np.testing.assert_array_equal(back, vals)

    feats = rng.standard_normal((2, 42)).astype(np.float32).astype(np.float64)
    io.write_subject_features(tmp_path / "s.smmn", feats, ("thickness", "volume"))
    feats_back, names = io.read_subject_features(tmp_path / "s.smmn")
    np.testing.assert_array_equal(feats_back, feats)
    io.write_subject_features(tmp_path / "s2.smmn", feats_back, names)
    assert (tmp_path / "s.smmn").read_bytes() == (tmp_path / "s2.smmn").read_bytes()

    cfg = net.ModelConfig(input_order=1, channels=(3,), in_channels=1,
                          channel_names=("x",), seed=1)
    model = net.MMNModel(cfg)
    net.save_model(model, tmp_path / "m.ckpt")
    loaded = net.load_model(tmp_path / "m.ckpt")
    net.save_model(loaded, tmp_path / "m2.ckpt")
    assert (tmp_path / "m.ckpt").read_bytes() == (tmp_path / "m2.ckpt").read_bytes()

    # malformed inputs fail with byte offsets
    offsets = []
    for name, data, reader in [
        ("empty.curv", b"", io.read_fs_curv),
        ("magic.curv", b"\x00\xff\xff" + b"\x00" * 12, io.read_fs_curv),
        ("vals.curv", b"\xff\xff\xff" + np.array([2, 0, 7], ">i4").tobytes(),
         io.read_fs_curv),
        ("magic.surf", b"\xff\xff\xff\n\n", io.read_fs_surface),
        ("comment.surf", b"\xff\xff\xfeno terminator", io.read_fs_surface),
        ("short.smmn", b"SMMN\x02\x01\x01\x00", io.read_subject_features),
    ]:
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(io.ParseError) as err:
            reader(path)
        assert err.value.offset is not None
        offsets.append(err.value.offset)
    _report(8, f"fixtures exact, round-trips bit-exact, offsets {offsets}")
