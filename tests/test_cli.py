import json
import os

import numpy as np
import pytest

from smmn import anomaly, cli, io, net


def run(*args):
    return cli.main(list(args))


def test_icosphere_emits_mesh(tmp_path):
    out = tmp_path / "ico2.surf"
    assert run("icosphere", "--order", "2", "--out", str(out)) == 0
    m = io.read_fs_surface(out)
    assert m.num_vertices == 162


def test_unknown_subcommand_exits_1(capsys):
    assert run("frobnicate") == 1


def test_no_subcommand_exits_1():
    assert run() == 1


def test_order_guard_exits_1(tmp_path):
    assert run("icosphere", "--order", "12", "--out", str(tmp_path / "x.surf")) == 1


def test_missing_file_exits_2(tmp_path):
    assert (
        run(
            "detect",
            "--model", str(tmp_path / "missing.smmn"),
            "--manifest", str(tmp_path / "missing.json"),
            "--out", str(tmp_path / "out"),
        )
        == 2
    )


def test_malformed_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a key value line\n")
    assert run("synth", "--config", str(cfg), "--out", str(tmp_path / "ds")) == 2


def test_train_manifest_subject_without_age_exits_2(tmp_path, capsys):
    (tmp_path / "synth.cfg").write_text(
        "order = 1\nn_subjects = 4\nn_train = 2\nn_val = 2\nn_rois = 3\nseed = 1\n"
    )
    assert run("synth", "--config", str(tmp_path / "synth.cfg"),
               "--out", str(tmp_path / "ds")) == 0
    manifest = tmp_path / "ds" / "manifest.json"
    doc = json.loads(manifest.read_text())
    del doc["subjects"][0]["age"]
    manifest.write_text(json.dumps(doc))
    (tmp_path / "train.cfg").write_text("order = 1\nchannels = 2\nepochs = 1\n")
    capsys.readouterr()
    assert run("train", "--manifest", str(manifest), "--config",
               str(tmp_path / "train.cfg"), "--out", str(tmp_path / "run")) == 2
    err = capsys.readouterr().err
    assert "'age'" in err and str(manifest) in err
    assert "Traceback" not in err


def test_detect_checkpoint_with_broken_config_exits_2(tmp_path, capsys):
    ckpt = tmp_path / "model.smmn"
    ckpt.write_bytes(b"SMMN\x01\x01\x07\x00\x00\x00{broken")
    assert run("detect", "--model", str(ckpt),
               "--manifest", str(tmp_path / "missing.json"),
               "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "byte offset 10" in err
    assert "Traceback" not in err


def _exit_2_without_traceback(capsys, *args):
    capsys.readouterr()
    assert run(*args) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


def test_detect_checkpoint_with_zero_norm_std_exits_2(tmp_path, capsys):
    model = net.MMNModel(net.ModelConfig(input_order=1, channels=(2,),
                                         channel_names=("thickness",)))
    model.norm_std = np.array([0.0])
    ckpt = tmp_path / "model.smmn"
    net.save_model(model, ckpt)
    err = _exit_2_without_traceback(
        capsys, "detect", "--model", str(ckpt),
        "--manifest", str(tmp_path / "missing.json"), "--out", str(tmp_path / "out"),
    )
    assert "norm_std" in err and str(ckpt) in err


def test_stats_on_score_table_with_bad_roi_id_exits_2(tmp_path, capsys):
    table = tmp_path / "scores.csv"
    table.write_text(",".join(anomaly.REPORT_COLUMNS) + "\n"
                     "s0,left,thickness,x,roi_x,12,0.5\n")
    err = _exit_2_without_traceback(
        capsys, "stats", "--group-a", str(table), "--group-b", str(table),
        "--out", str(tmp_path / "out"),
    )
    assert "line 2" in err and "byte offset" in err


def test_resample_atlas_with_non_utf8_byte_exits_2(tmp_path, capsys):
    surf = tmp_path / "ico1.surf"
    assert run("icosphere", "--order", "1", "--out", str(surf)) == 0
    atlas = tmp_path / "atlas.csv"
    atlas.write_bytes(b"vertex_index,label_id\n0,1\n1,\xff\n")
    err = _exit_2_without_traceback(
        capsys, "resample", "--surface", str(surf), "--order", "1",
        "--atlas", str(atlas), "--atlas-out", str(tmp_path / "out.csv"),
    )
    assert "byte offset 26" in err


def test_config_with_non_utf8_byte_exits_2(tmp_path, capsys):
    cfg = tmp_path / "synth.cfg"
    cfg.write_bytes(b"order = 1\nseed = \xff\n")
    err = _exit_2_without_traceback(
        capsys, "synth", "--config", str(cfg), "--out", str(tmp_path / "ds")
    )
    assert "byte offset 10" in err


def test_train_on_subject_with_nan_exits_2(tmp_path, capsys):
    (tmp_path / "synth.cfg").write_text(
        "order = 1\nn_subjects = 4\nn_train = 2\nn_val = 2\nn_rois = 3\nseed = 1\n"
    )
    assert run("synth", "--config", str(tmp_path / "synth.cfg"),
               "--out", str(tmp_path / "ds")) == 0
    manifest = io.load_manifest(tmp_path / "ds" / "manifest.json")
    entry = manifest.split("train")[0]
    path = manifest.resolve(entry.files["thickness"])
    values, names = io.read_subject_features(path)
    values[0, 3] = np.nan
    io.write_subject_features(path, values, names)
    (tmp_path / "train.cfg").write_text("order = 1\nchannels = 2\nepochs = 1\n")
    err = _exit_2_without_traceback(
        capsys, "train", "--manifest", str(tmp_path / "ds" / "manifest.json"),
        "--config", str(tmp_path / "train.cfg"), "--out", str(tmp_path / "run"),
    )
    assert repr(entry.subject_id) in err and "'thickness'" in err


def test_config_parsing(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "# comment line\n"
        "order = 2\n"
        "channels = 8, 16  # inline comment\n"
        "lr = 1e-3\n"
        "\n"
    )
    parsed = cli.parse_config(cfg)
    assert parsed == {"order": "2", "channels": "8, 16", "lr": "1e-3"}
    assert cli._cfg_list(parsed, "channels", int, ()) == (8, 16)
    assert cli._cfg(parsed, "lr", float, 0.0) == 1e-3
    assert cli._cfg(parsed, "absent", int, 7) == 7


def test_resample_values_and_atlas(tmp_path):
    src_surf = tmp_path / "src.surf"
    assert run("icosphere", "--order", "1", "--out", str(src_surf)) == 0
    rng = np.random.default_rng(0)
    values = rng.standard_normal(42)
    io.write_fs_curv(tmp_path / "src.curv", values)
    atlas_csv = tmp_path / "src_atlas.csv"
    atlas_csv.write_text(
        "vertex_index,label_id\n" + "".join(f"{v},{v % 3 + 1}\n" for v in range(42))
    )
    code = run(
        "resample",
        "--surface", str(src_surf),
        "--order", "2",
        "--values", str(tmp_path / "src.curv"),
        "--out", str(tmp_path / "dst.curv"),
        "--atlas", str(atlas_csv),
        "--atlas-out", str(tmp_path / "dst_atlas.csv"),
    )
    assert code == 0
    out_values, count = io.read_fs_curv(tmp_path / "dst.curv")
    assert count == 162
    # coincident prefix vertices keep their values (up to f32 storage)
    np.testing.assert_allclose(out_values[:42], values.astype(np.float32), atol=1e-7)
    from smmn import mesh as mesh_mod

    dst_atlas = io.read_atlas_csv(
        tmp_path / "dst_atlas.csv", mesh_mod.icosphere(2)
    )
    np.testing.assert_array_equal(
        dst_atlas.labels[:42], [v % 3 + 1 for v in range(42)]
    )


def test_resample_requires_work(tmp_path):
    src_surf = tmp_path / "src.surf"
    run("icosphere", "--order", "1", "--out", str(src_surf))
    assert run("resample", "--surface", str(src_surf), "--order", "2") == 1


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> train -> detect -> stats, desk-miniature scale."""
    root = tmp_path_factory.mktemp("pipeline")
    (root / "synth.cfg").write_text(
        "order = 2\nn_subjects = 40\nn_train = 24\nn_val = 8\nn_rois = 10\nseed = 3\n"
    )
    (root / "test.cfg").write_text(
        "order = 2\nn_subjects = 24\nn_patients = 12\nn_rois = 10\n"
        "anomaly_roi = 4\nanomaly_amplitude = 6.0\nseed = 9\n"
    )
    (root / "train.cfg").write_text(
        "order = 2\nchannels = 8,12\nL = 3\nepochs = 8\nbatch_size = 8\n"
        "lr = 1e-3\npatience = 8\nseed = 1\n"
    )
    assert run("synth", "--config", str(root / "synth.cfg"),
               "--out", str(root / "trainset")) == 0
    assert run("synth", "--config", str(root / "test.cfg"),
               "--out", str(root / "testset")) == 0
    assert run("train", "--manifest", str(root / "trainset" / "manifest.json"),
               "--config", str(root / "train.cfg"),
               "--out", str(root / "run"), "--quiet") == 0
    assert run("detect", "--model", str(root / "run" / "model.smmn"),
               "--manifest", str(root / "testset" / "manifest.json"),
               "--out", str(root / "scores")) == 0
    # split scores by group for the stats step
    matrix = anomaly.read_scores_csv(root / "scores" / "scores.csv")
    manifest = io.load_manifest(root / "testset" / "manifest.json")
    group_of = {s.subject_id: s.group for s in manifest.subjects}
    import dataclasses

    for name, group in (("ctrl", "control"), ("pat", "patient")):
        keep = [i for i, s in enumerate(matrix.subject_ids) if group_of[s] == group]
        sub = dataclasses.replace(
            matrix,
            subject_ids=[matrix.subject_ids[i] for i in keep],
            scores=matrix.scores[keep],
        )
        anomaly.write_scores_csv(sub, root / f"{name}.csv")
    assert run("stats", "--group-a", str(root / "ctrl.csv"),
               "--group-b", str(root / "pat.csv"),
               "--out", str(root / "stats")) == 0
    assert run("report", "--scores", str(root / "ctrl.csv"),
               "--group-a", str(root / "ctrl.csv"),
               "--group-b", str(root / "pat.csv"),
               "--out", str(root / "report")) == 0
    return root


def test_pipeline_artifacts_exist(pipeline):
    for rel in (
        "run/model.smmn",
        "run/history.csv",
        "run/summary.json",
        "scores/scores.csv",
        "scores/scores.json",
        "stats/stats.csv",
        "stats/significant.csv",
        "stats/eta2.svg",
        "report/ctrl.json",
        "report/eta2.svg",
    ):
        assert (pipeline / rel).exists(), rel


def test_pipeline_training_learned(pipeline):
    summary = json.loads((pipeline / "run" / "summary.json").read_text())
    assert summary["best_val_loss"] < 0.5 * summary["epoch0_val_loss"]


def test_pipeline_scores_have_expected_shape(pipeline):
    matrix = anomaly.read_scores_csv(pipeline / "scores" / "scores.csv")
    assert len(matrix.subject_ids) == 24
    assert len(matrix.roi_ids) == 10
    assert np.all(matrix.scores >= 0.0)


def test_pipeline_finds_injected_roi(pipeline):
    lines = (pipeline / "stats" / "significant.csv").read_text().splitlines()
    assert len(lines) >= 2, "injected ROI must reach significance"
    first = lines[1].split(",")
    assert int(first[2]) == 4  # roi_id column of the top eta2 row


def test_pipeline_seeded_rerun_identical(pipeline, tmp_path):
    assert run("synth", "--config", str(pipeline / "synth.cfg"),
               "--out", str(tmp_path / "again")) == 0
    a = (pipeline / "trainset" / "manifest.json").read_bytes()
    b = (tmp_path / "again" / "manifest.json").read_bytes()
    assert a == b
    for sub in ("sub-00.smmn", "sub-17.smmn"):
        assert (pipeline / "trainset" / sub).read_bytes() == (
            tmp_path / "again" / sub
        ).read_bytes()


def test_detect_seed_flag_reproducible(pipeline, tmp_path):
    # synth with an explicit --seed overrides the config seed
    assert run("synth", "--config", str(pipeline / "synth.cfg"),
               "--out", str(tmp_path / "s5"), "--seed", "5") == 0
    assert run("synth", "--config", str(pipeline / "synth.cfg"),
               "--out", str(tmp_path / "s5b"), "--seed", "5") == 0
    assert (tmp_path / "s5" / "sub-00.smmn").read_bytes() == (
        tmp_path / "s5b" / "sub-00.smmn"
    ).read_bytes()
    assert (tmp_path / "s5" / "sub-00.smmn").read_bytes() != (
        pipeline / "trainset" / "sub-00.smmn"
    ).read_bytes()


def test_help_exits_zero():
    assert run("--help") == 0
