import argparse
import importlib.util
import json
from pathlib import Path
import re
import warnings

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


@pytest.mark.parametrize("radius", ["nan", "inf", "0", "-2", "1e39"])
def test_icosphere_bad_radius_exits_1(tmp_path, capsys, radius):
    # nan, inf, 0 and -2 would write a surface that resample rejects; 1e39
    # overflows the file's float32 coordinates.
    out = tmp_path / "x.surf"
    assert run("icosphere", "--order", "1", "--out", str(out), "--radius", radius) == 1
    assert "--radius" in capsys.readouterr().err
    assert not out.exists()


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


def _grid_lines(n_subjects=3, n_rois=2):
    """Header and rows of a complete one-channel left-hemisphere table."""
    return [",".join(anomaly.REPORT_COLUMNS) + "\n"] + [
        f"s{s},left,thickness,{r},roi_{r},12,{s + r / 10}\n"
        for s in range(n_subjects) for r in range(1, n_rois + 1)
    ]


def _with_extra_field(lines):
    lines[3] = lines[3].rstrip("\n") + ",0.9\n"


def _with_right_hemisphere(lines):
    lines[3] = lines[3].replace("left", "right")


def _with_second_row_for_a_cell(lines):
    lines[3] = lines[1]


def _with_other_roi_name(lines):
    lines[3] = lines[3].replace("roi_1", "roi_one")


def _with_other_roi_size(lines):
    lines[3] = lines[3].replace(",12,", ",13,")


@pytest.mark.parametrize("edit, named", [
    (_with_extra_field, "8 fields"),
    (_with_right_hemisphere, "'right'"),
    (_with_second_row_for_a_cell, "second row"),
    (_with_other_roi_name, "'roi_one'"),
    (_with_other_roi_size, "13 vertices"),
])
def test_stats_on_score_table_with_bad_row_exits_2(tmp_path, capsys, edit, named):
    lines = _grid_lines()
    edit(lines)
    table = tmp_path / "scores.csv"
    table.write_text("".join(lines))
    err = _exit_2_without_traceback(
        capsys, "stats", "--group-a", str(table), "--group-b", str(table),
        "--out", str(tmp_path / "out"),
    )
    assert named in err and "line 4" in err
    assert f"byte offset {len(''.join(lines[:3]))})" in err


def test_stats_on_score_table_with_missing_cell_exits_2(tmp_path, capsys):
    lines = _grid_lines()
    del lines[4]  # subject s1, ROI 2
    table = tmp_path / "scores.csv"
    table.write_text("".join(lines))
    err = _exit_2_without_traceback(
        capsys, "stats", "--group-a", str(table), "--group-b", str(table),
        "--out", str(tmp_path / "out"),
    )
    assert "subject 's1'" in err and "roi_id 2" in err and "byte offset 0)" in err
    assert not (tmp_path / "out").exists()


def test_stats_on_misaligned_score_tables_exits_2(tmp_path, capsys):
    group_a = tmp_path / "a.csv"
    group_b = tmp_path / "b.csv"
    group_a.write_text("".join(_grid_lines(n_rois=2)))
    group_b.write_text("".join(_grid_lines(n_rois=3)))
    err = _exit_2_without_traceback(
        capsys, "stats", "--group-a", str(group_a), "--group-b", str(group_b),
        "--out", str(tmp_path / "out"),
    )
    assert str(group_a) in err and str(group_b) in err and "roi_ids" in err
    assert not (tmp_path / "out").exists()


def _group_manifest(path, groups):
    """A manifest that gives each subject id of ``groups`` its group."""
    subjects = [
        io.SubjectEntry(subject_id=sid, files={"thickness": f"{sid}.smmn"},
                        age=60.0, sex=1.0, group=group)
        for sid, group in groups.items()
    ]
    io.save_manifest(io.DatasetManifest(subjects=subjects,
                                        channel_names=("thickness",)), path)


@pytest.mark.parametrize("groups, named", [
    ({"s0": "control", "s1": "patient"}, "subject 's2' is not in"),
    ({"s0": "control", "s1": "control", "s2": "control"}, "['control']"),
])
def test_stats_groups_from_manifest_not_two_exits_2(tmp_path, capsys, groups, named):
    table = tmp_path / "scores.csv"
    table.write_text("".join(_grid_lines()))
    _group_manifest(tmp_path / "manifest.json", groups)
    err = _exit_2_without_traceback(
        capsys, "stats", "--scores", str(table),
        "--manifest", str(tmp_path / "manifest.json"), "--out", str(tmp_path / "out"),
    )
    assert named in err


def test_stats_group_a_is_first_group_name_in_sorted_order(tmp_path):
    table = tmp_path / "scores.csv"
    table.write_text("".join(_grid_lines(n_subjects=5)))
    _group_manifest(tmp_path / "manifest.json", {
        "s0": "patient", "s1": "control", "s2": "patient", "s3": "control",
        "s4": "control",
    })
    assert run("stats", "--scores", str(table), "--manifest",
               str(tmp_path / "manifest.json"), "--out", str(tmp_path / "out")) == 0
    rows = (tmp_path / "out" / "stats.csv").read_text().splitlines()
    assert [row.split(",")[4:6] for row in rows[1:]] == [["3", "2"], ["3", "2"]]


@pytest.mark.parametrize("alpha", ["nan", "0", "-1", "1", "2", "inf"])
def test_stats_bad_alpha_exits_1(tmp_path, capsys, alpha):
    table = tmp_path / "scores.csv"
    table.write_text("".join(_grid_lines()))
    assert run("stats", "--group-a", str(table), "--group-b", str(table),
               "--out", str(tmp_path / "out"), "--alpha", alpha) == 1
    assert "alpha" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _synth_order_1(tmp_path):
    (tmp_path / "synth.cfg").write_text(
        "order = 1\nn_subjects = 4\nn_train = 2\nn_val = 2\nn_rois = 3\nseed = 1\n"
    )
    assert run("synth", "--config", str(tmp_path / "synth.cfg"),
               "--out", str(tmp_path / "ds")) == 0
    (tmp_path / "train.cfg").write_text("order = 1\nchannels = 2\nepochs = 1\n")
    return tmp_path / "ds" / "manifest.json"


def test_train_manifest_subject_without_channel_file_exits_2(tmp_path, capsys):
    manifest = _synth_order_1(tmp_path)
    doc = json.loads(manifest.read_text())
    doc["subjects"][0]["files"] = {"area": doc["subjects"][0]["files"]["thickness"]}
    manifest.write_text(json.dumps(doc))
    err = _exit_2_without_traceback(
        capsys, "train", "--manifest", str(manifest), "--config",
        str(tmp_path / "train.cfg"), "--out", str(tmp_path / "run"),
    )
    assert str(manifest) in err and "'sub-0'" in err and "'thickness'" in err


def test_train_blow_up_exits_2_without_numpy_warnings(tmp_path, capsys):
    # At lr 1e300 the first step makes the next batch's forward overflow;
    # that must reach the user as the typed error alone.
    manifest = _synth_order_1(tmp_path)
    (tmp_path / "train.cfg").write_text(
        "order = 1\nchannels = 2\nepochs = 1\nlr = 1e300\nbatch_size = 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _exit_2_without_traceback(
            capsys, "train", "--manifest", str(manifest), "--config",
            str(tmp_path / "train.cfg"), "--out", str(tmp_path / "run"),
        )
    assert "train loss is nan" in err and "learning rate 1e+300" in err


def test_train_subject_container_without_channel_exits_2(tmp_path, capsys):
    manifest = _synth_order_1(tmp_path)
    path = tmp_path / "ds" / io.load_manifest(manifest).subjects[0].files["thickness"]
    values, _ = io.read_subject_features(path)
    io.write_subject_features(path, values, ("area",))
    err = _exit_2_without_traceback(
        capsys, "train", "--manifest", str(manifest), "--config",
        str(tmp_path / "train.cfg"), "--out", str(tmp_path / "run"),
    )
    assert str(path) in err and "'thickness'" in err and "byte offset 6)" in err


@pytest.mark.parametrize("args", [
    ("report", "--scores", "scores.csv", "--out", "report"),
    ("resample", "--surface", "s.surf", "--order", "1", "--atlas", "a.csv",
     "--atlas-out", "b.csv", "--hemisphere", "left"),
    ("stats", "--scores", "scores.csv", "--manifest", "manifest.json",
     "--group-a", "a.csv", "--group-b", "b.csv", "--out", "stats"),
    ("stats", "--out", "stats"),
    ("stats", "--scores", "scores.csv", "--out", "stats"),
    ("stats", "--group-a", "a.csv", "--out", "stats"),
])
def test_removed_or_mixed_arguments_exit_1(capsys, args):
    _exit_1_without_traceback(capsys, *args)


def test_readme_commands_match_the_parser():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text().replace("\\\n", " ")
    commands = [line.split("#")[0].split() for line in text.splitlines()
                if line.startswith("smmn ")]
    subparsers = next(action for action in cli._build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)).choices
    assert {words[1] for words in commands} == set(subparsers)
    for words in commands:
        options = subparsers[words[1]]._option_string_actions
        for word in words[2:]:
            if word.startswith("-"):
                assert word in options, (words[1], word)


def test_readme_config_keys_match_the_tables():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("### Config file keys")[1].split("\n## ")[0]
    training, synthesis = (section.split("Training (`train.cfg`):")[1]
                           .split("Synthesis (`synth.cfg`):"))
    keys = lambda text: set(re.findall(r"`([A-Za-z_]\w*)`", text))
    assert keys(training) == set(cli._TRAIN_KEYS) | set(cli._MODEL_KEYS)
    assert keys(synthesis) == set(cli._SYNTH_KEYS)


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


def test_train_manifest_with_non_utf8_byte_exits_2(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    io.save_manifest(io.DatasetManifest(subjects=[], channel_names=("thickness",)),
                     manifest)
    raw = manifest.read_bytes()
    at = raw.index(b"thickness")
    manifest.write_bytes(raw[:at] + b"\xff" + raw[at + 1 :])
    (tmp_path / "train.cfg").write_text("order = 1\nchannels = 2\nepochs = 1\n")
    err = _exit_2_without_traceback(
        capsys, "train", "--manifest", str(manifest), "--config",
        str(tmp_path / "train.cfg"), "--out", str(tmp_path / "run"),
    )
    assert str(manifest) in err and f"byte offset {at}" in err


def test_stats_on_score_table_with_stray_carriage_return_exits_2(tmp_path, capsys):
    header = ",".join(anomaly.REPORT_COLUMNS) + "\n"
    table = tmp_path / "scores.csv"
    table.write_text(header + "s0,left,thickness,3,roi\r_3,12,0.5\n", newline="")
    err = _exit_2_without_traceback(
        capsys, "stats", "--group-a", str(table), "--group-b", str(table),
        "--out", str(tmp_path / "out"),
    )
    assert "line 2" in err and f"byte offset {len(header)}" in err


def test_resample_values_with_nan_exits_2(tmp_path, capsys):
    surf = tmp_path / "ico1.surf"
    assert run("icosphere", "--order", "1", "--out", str(surf)) == 0
    values = np.ones(42)
    values[5] = np.nan
    io.write_fs_curv(tmp_path / "src.curv", values)
    err = _exit_2_without_traceback(
        capsys, "resample", "--surface", str(surf), "--order", "2",
        "--values", str(tmp_path / "src.curv"), "--out", str(tmp_path / "dst.curv"),
    )
    assert "byte offset 35" in err  # 15-byte header + 5 float32 values
    assert not (tmp_path / "dst.curv").exists()


def test_config_with_non_utf8_byte_exits_2(tmp_path, capsys):
    cfg = tmp_path / "synth.cfg"
    cfg.write_bytes(b"order = 1\nseed = \xff\n")
    err = _exit_2_without_traceback(
        capsys, "synth", "--config", str(cfg), "--out", str(tmp_path / "ds")
    )
    assert "byte offset 10" in err


def test_detect_checkpoint_config_model_cannot_build_exits_2(tmp_path, capsys):
    model = net.MMNModel(net.ModelConfig(input_order=1, channels=(2,),
                                         channel_names=("thickness",)))
    ckpt = tmp_path / "model.smmn"
    net.save_model(model, ckpt)
    blob = ckpt.read_bytes()
    end = 10 + int.from_bytes(blob[6:10], "little")
    config = blob[10:end].replace(b'"l_max": 3', b'"l_max": -1')
    ckpt.write_bytes(blob[:6] + len(config).to_bytes(4, "little") + config
                     + blob[end:])
    err = _exit_2_without_traceback(
        capsys, "detect", "--model", str(ckpt),
        "--manifest", str(tmp_path / "missing.json"), "--out", str(tmp_path / "out"),
    )
    assert "l_max" in err and "byte offset 10" in err


def _exit_1_without_traceback(capsys, *args):
    capsys.readouterr()
    assert run(*args) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("line, named", [
    ("L = -1", "l_max"),
    ("channels = 0", "channels"),
    ("channels = 2,x", "channels"),
    ("lr = nan", "lr must"),
    ("lr = -0.001", "lr must"),
    ("lr_min = -1e-6", "lr_min must"),
    ("lr = 1e-4\nlr_min = 1e-3", "lr_min"),
    ("weight_decay = inf", "weight_decay"),
    ("patience = -3", "patience"),
])
def test_train_config_bad_value_exits_1(tmp_path, capsys, line, named):
    (tmp_path / "synth.cfg").write_text(
        "order = 1\nn_subjects = 4\nn_train = 2\nn_val = 2\nn_rois = 3\n"
    )
    assert run("synth", "--config", str(tmp_path / "synth.cfg"),
               "--out", str(tmp_path / "ds")) == 0
    (tmp_path / "train.cfg").write_text(f"order = 1\nepochs = 1\n{line}\n")
    err = _exit_1_without_traceback(
        capsys, "train", "--manifest", str(tmp_path / "ds" / "manifest.json"),
        "--config", str(tmp_path / "train.cfg"), "--out", str(tmp_path / "run"),
    )
    assert named in err


def test_synth_config_bad_list_element_exits_1(tmp_path, capsys):
    (tmp_path / "synth.cfg").write_text("order = 1\nage_slope = a\n")
    err = _exit_1_without_traceback(
        capsys, "synth", "--config", str(tmp_path / "synth.cfg"),
        "--out", str(tmp_path / "ds"),
    )
    assert "'age_slope'" in err


@pytest.mark.parametrize("line, named", [
    ("noise_std = -0.1", "noise_std"),
    ("age_slope = 0.1, 0.2", "age_slope"),
    ("channel_names = a, b\nnoise_std = 0.1, 0.2, 0.3", "noise_std"),
    ("age_min = 80\nage_max = 50", "age_min"),
    ("field_degree = -1", "field_degree"),
    ("channel_names =", "channel_names"),
    ("n_rois = 0", "n_rois"),
    ("n_subjects = 0", "n_subjects"),
    ("n_patients = -2", "n_patients"),
    ("n_train = -2", "n_train"),
    ("n_val = -1", "n_val"),
    ("sex_balance = 3", "sex_balance"),
    ("sex_balance = -0.5", "sex_balance"),
])
def test_synth_config_bad_value_exits_1(tmp_path, capsys, line, named):
    (tmp_path / "synth.cfg").write_text(f"order = 1\nn_subjects = 4\n{line}\n")
    err = _exit_1_without_traceback(
        capsys, "synth", "--config", str(tmp_path / "synth.cfg"),
        "--out", str(tmp_path / "ds"),
    )
    assert named in err


@pytest.mark.parametrize("command, line", [
    ("synth", "n_subject = 4"),
    ("train", "epoch = 1"),
    ("train", "l_max = 1"),
])
def test_unknown_config_key_exits_1(tmp_path, capsys, command, line):
    manifest = _synth_order_1(tmp_path)
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(cfg.read_text() + line + "\n")
    args = {"synth": ("--out", str(tmp_path / "ds2")),
            "train": ("--manifest", str(manifest), "--out", str(tmp_path / "run"))}
    err = _exit_1_without_traceback(capsys, command, "--config", str(cfg),
                                    *args[command])
    assert repr(line.split()[0]) in err and str(cfg) in err


@pytest.mark.parametrize("data_order, model_order", [(1, 2), (2, 1)])
def test_train_model_order_other_than_the_data_exits_2(tmp_path, capsys,
                                                       data_order, model_order):
    (tmp_path / "synth.cfg").write_text(
        f"order = {data_order}\nn_subjects = 4\nn_train = 2\nn_val = 2\n"
        "n_rois = 3\nseed = 1\n"
    )
    assert run("synth", "--config", str(tmp_path / "synth.cfg"),
               "--out", str(tmp_path / "ds")) == 0
    (tmp_path / "train.cfg").write_text(
        f"order = {model_order}\nchannels = 2\nepochs = 1\n")
    err = _exit_2_without_traceback(
        capsys, "train", "--manifest", str(tmp_path / "ds" / "manifest.json"),
        "--config", str(tmp_path / "train.cfg"), "--out", str(tmp_path / "run"),
    )
    vertices = {1: 42, 2: 162}
    assert "'sub-0'" in err
    assert f"(1, {vertices[data_order]})" in err and f"(1, {vertices[model_order]})" in err


def test_stats_manifest_group_outside_its_set_exits_2(tmp_path, capsys):
    # The manifest loader rejects a third group before stats splits the rows.
    table = tmp_path / "scores.csv"
    table.write_text("".join(_grid_lines()))
    _group_manifest(tmp_path / "manifest.json",
                    {"s0": "control", "s1": "patient", "s2": "sibling"})
    err = _exit_2_without_traceback(
        capsys, "stats", "--scores", str(table),
        "--manifest", str(tmp_path / "manifest.json"), "--out", str(tmp_path / "out"),
    )
    assert "subject 's2': 'group' is \"sibling\"" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("split", "trian"), ("group", "patinet"),
                                        ("sex", 7)])
def test_train_manifest_value_outside_its_set_exits_2(tmp_path, capsys, key, value):
    manifest = _synth_order_1(tmp_path)
    doc = json.loads(manifest.read_text())
    doc["subjects"][0][key] = value
    manifest.write_text(json.dumps(doc))
    err = _exit_2_without_traceback(
        capsys, "train", "--manifest", str(manifest), "--config",
        str(tmp_path / "train.cfg"), "--out", str(tmp_path / "run"),
    )
    assert f"subject 'sub-0': '{key}' is " in err and str(manifest) in err
    assert not (tmp_path / "run").exists()


def test_train_loss_that_turns_non_finite_names_the_learning_rate(tmp_path, capsys):
    manifest = _synth_order_1(tmp_path)
    (tmp_path / "train.cfg").write_text(
        "order = 1\nchannels = 2\nepochs = 1\nlr = 1e300\nbatch_size = 1\n")
    with np.errstate(all="ignore"):  # the parameters overflow
        err = _exit_2_without_traceback(
            capsys, "train", "--manifest", str(manifest), "--config",
            str(tmp_path / "train.cfg"), "--out", str(tmp_path / "run"),
        )
    assert "epoch 1 train loss is " in err and "learning rate 1e+300" in err


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
    assert cli._config_values(
        parsed, {"channels": (int,), "lr": float, "absent": int}
    ) == {"channels": (8, 16), "lr": 1e-3}


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
    assert run("stats", "--scores", str(root / "scores" / "scores.csv"),
               "--manifest", str(root / "testset" / "manifest.json"),
               "--out", str(root / "stats")) == 0
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
    ):
        assert (pipeline / rel).exists(), rel


def test_stats_groups_from_manifest_match_the_bench_split(pipeline, tmp_path):
    """--scores/--manifest writes what --group-a/--group-b writes on the
    benchmark's own split of the same table."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    manifest = io.load_manifest(pipeline / "testset" / "manifest.json")
    workloads.split_by_group(pipeline / "scores" / "scores.csv",
                             {s.subject_id: s.group for s in manifest.subjects},
                             tmp_path / "controls.csv", tmp_path / "patients.csv")
    assert run("stats", "--group-a", str(tmp_path / "controls.csv"),
               "--group-b", str(tmp_path / "patients.csv"),
               "--out", str(tmp_path / "stats")) == 0
    for name in ("stats.csv", "significant.csv", "eta2.svg"):
        assert (tmp_path / "stats" / name).read_bytes() == (
            pipeline / "stats" / name).read_bytes(), name


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
