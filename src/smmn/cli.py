"""Command-line surface: mesh emission, resampling, synthesis, training,
detection, statistics, and report emission.

Exit codes: 0 on success, 1 on usage/configuration errors, 2 on data or
parse errors.  Config files are flat ``key = value`` text; see README
for the documented keys.
"""

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import anomaly, io, net, stats, synth
from .errors import (
    ConfigurationError,
    DomainError,
    InvariantError,
    ParseError,
    ShapeError,
    UsageError,
)
from .mesh import icosphere, resample_barycentric, resample_labels
from .net import ContextVector


def parse_config(path):
    """Flat key-value config: one `key = value` per line, # comments."""
    try:
        lines = io.text_lines(path)
    except OSError as exc:
        raise ParseError(f"cannot read config: {exc}", path=str(path)) from None
    out = {}
    for lineno, (offset, line) in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ParseError(
                f"line {lineno}: expected `key = value`, got {text!r}",
                offset=offset, path=str(path),
            )
        key, value = text.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _cfg(config, key, cast, default):
    if key not in config:
        return default
    raw = config[key]
    try:
        if cast is bool:
            return raw.lower() in ("1", "true", "yes", "on")
        return cast(raw)
    except ValueError:
        raise UsageError(f"config key {key!r} has malformed value {raw!r}") from None


def _cfg_list(config, key, cast, default):
    if key not in config:
        return default
    return tuple(cast(part.strip()) for part in config[key].split(",") if part.strip())


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser():
    parser = _Parser(prog="smmn", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("icosphere", help="emit an icosphere surface file")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--radius", type=float, default=1.0)
    p.set_defaults(func=_cmd_icosphere)

    p = sub.add_parser("resample", help="resample features/labels to an icosphere")
    p.add_argument("--surface", required=True, help="source sphere surface file")
    p.add_argument("--order", type=int, required=True, help="target icosphere order")
    p.add_argument("--values", help="per-vertex scalar file to resample")
    p.add_argument("--out", help="output scalar file")
    p.add_argument("--atlas", help="source atlas CSV to resample")
    p.add_argument("--atlas-out", help="output atlas CSV")
    p.add_argument("--hemisphere", default="left", choices=("left", "right"))
    p.set_defaults(func=_cmd_resample)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train the masked mesh network")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("detect", help="score a cohort with ROI masking")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--atlas", help="override the manifest atlas path")
    p.add_argument("--split", default="test", help="manifest split or 'all'")
    p.add_argument("--raw", action="store_true",
                   help="score in raw feature units instead of z-space")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("stats", help="group comparison of two score tables")
    p.add_argument("--group-a", required=True, help="scores CSV of group A")
    p.add_argument("--group-b", required=True, help="scores CSV of group B")
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("report", help="re-emit results as JSON / SVG")
    p.add_argument("--scores", action="append", default=[],
                   help="scores CSV to mirror as JSON (repeatable)")
    p.add_argument("--group-a", help="scores CSV for the effect-size chart")
    p.add_argument("--group-b")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)
    return parser


def _cmd_icosphere(args):
    mesh = icosphere(args.order)
    io.write_fs_surface(args.out, mesh, radius=args.radius)
    print(f"wrote order-{args.order} icosphere "
          f"({mesh.num_vertices} vertices) to {args.out}")
    return 0


def _cmd_resample(args):
    src = io.read_fs_surface(args.surface)
    dst = icosphere(args.order)
    did = False
    if args.values:
        if not args.out:
            raise UsageError("--values requires --out")
        values, count = io.read_fs_curv(args.values)
        if count != src.num_vertices:
            raise ShapeError(
                f"scalar file has {count} values, surface has {src.num_vertices}"
            )
        io.write_fs_curv(args.out, resample_barycentric(src, values, dst),
                         n_facets=dst.num_facets)
        print(f"wrote {dst.num_vertices} resampled values to {args.out}")
        did = True
    if args.atlas:
        if not args.atlas_out:
            raise UsageError("--atlas requires --atlas-out")
        labels = io.read_atlas_csv(args.atlas, src, hemisphere=args.hemisphere)
        io.write_atlas_csv(args.atlas_out, resample_labels(src, labels, dst))
        print(f"wrote resampled atlas to {args.atlas_out}")
        did = True
    if not did:
        raise UsageError("nothing to do: pass --values and/or --atlas")
    return 0


def _synth_config(config, seed_override):
    cfg = synth.SynthConfig(
        order=_cfg(config, "order", int, 3),
        n_subjects=_cfg(config, "n_subjects", int, 100),
        n_patients=_cfg(config, "n_patients", int, 0),
        n_train=_cfg(config, "n_train", int, 0),
        n_val=_cfg(config, "n_val", int, 0),
        age_range=(
            _cfg(config, "age_min", float, 45.0),
            _cfg(config, "age_max", float, 85.0),
        ),
        sex_balance=_cfg(config, "sex_balance", float, 0.5),
        field_degree=_cfg(config, "field_degree", int, 2),
        field_scale=_cfg(config, "field_scale", float, 1.0),
        age_slope=_cfg_list(config, "age_slope", float, (-0.03,)),
        noise_std=_cfg_list(config, "noise_std", float, (0.25,)),
        channel_names=_cfg_list(config, "channel_names", str, ("thickness",)),
        n_rois=_cfg(config, "n_rois", int, 34),
        anomaly_roi=_cfg(config, "anomaly_roi", int, 1),
        anomaly_amplitude=_cfg(config, "anomaly_amplitude", float, 0.0),
        affected_fraction=_cfg(config, "affected_fraction", float, 1.0),
        seed=_cfg(config, "seed", int, 0),
    )
    if seed_override is not None:
        cfg.seed = seed_override
    return cfg


def _cmd_synth(args):
    config = parse_config(args.config)
    cfg = _synth_config(config, args.seed)
    manifest_path = synth.generate_dataset(cfg, args.out)
    print(f"wrote {cfg.n_subjects} subjects to {args.out} "
          f"(manifest: {manifest_path})")
    return 0


def _manifest_samples(manifest, entries):
    samples = []
    for entry in entries:
        features = io.load_subject_features(manifest, entry)
        samples.append(
            net.Sample(
                features=features,
                context=ContextVector(age=entry.age, sex=entry.sex),
                subject_id=entry.subject_id,
            )
        )
    return samples


def _cmd_train(args):
    config = parse_config(args.config)
    manifest = io.qc_filter(io.load_manifest(args.manifest))
    train_entries = manifest.split("train")
    val_entries = manifest.split("val")
    if not train_entries or not val_entries:
        raise UsageError("manifest needs non-empty train and val splits")
    seed = args.seed if args.seed is not None else _cfg(config, "seed", int, 0)
    model_cfg = net.ModelConfig(
        input_order=_cfg(config, "order", int, 3),
        channels=_cfg_list(config, "channels", int, (16, 32)),
        in_channels=len(manifest.channel_names),
        l_max=_cfg(config, "L", int, _cfg(config, "l_max", int, 3)),
        channel_names=manifest.channel_names,
        seed=seed,
    )
    train_cfg = net.TrainConfig(
        mask_fraction=_cfg(config, "mask_fraction", float, 0.5),
        lr=_cfg(config, "lr", float, 1e-3),
        lr_min=_cfg(config, "lr_min", float, 1e-6),
        epochs=_cfg(config, "epochs", int, 50),
        weight_decay=_cfg(config, "weight_decay", float, 1e-4),
        patience=_cfg(config, "patience", int, 10),
        seed=seed,
        batch_size=_cfg(config, "batch_size", int, 16),
    )
    model = net.MMNModel(model_cfg)
    result = net.train(
        model,
        _manifest_samples(manifest, train_entries),
        _manifest_samples(manifest, val_entries),
        train_cfg,
        verbose=not args.quiet,
    )
    os.makedirs(args.out, exist_ok=True)
    ckpt = os.path.join(args.out, "model.smmn")
    net.save_model(model, ckpt)
    with open(os.path.join(args.out, "history.csv"), "w", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(["epoch", "lr", "train_loss", "val_loss"])
        for row in result.history:
            writer.writerow(
                [row["epoch"], repr(row["lr"]), repr(row["train_loss"]),
                 repr(row["val_loss"])]
            )
    with open(os.path.join(args.out, "summary.json"), "w") as fp:
        json.dump(
            {
                "best_epoch": result.best_epoch,
                "best_val_loss": result.best_val_loss,
                "epoch0_val_loss": result.epoch0_val_loss,
                "epochs_run": len(result.history) - 1,
                "checkpoint": "model.smmn",
            },
            fp,
            indent=1,
        )
        fp.write("\n")
    print(f"best val loss {result.best_val_loss:.6f} at epoch "
          f"{result.best_epoch}; checkpoint: {ckpt}")
    return 0


def _cmd_detect(args):
    model = net.load_model(args.model)
    manifest = io.load_manifest(args.manifest)
    atlas_path = args.atlas or (
        manifest.resolve(manifest.atlas) if manifest.atlas else None
    )
    if atlas_path is None:
        raise UsageError("no atlas: pass --atlas or record one in the manifest")
    table = {}
    if manifest.label_table:
        table = io.read_label_table(manifest.resolve(manifest.label_table))
    atlas = io.read_atlas_csv(
        atlas_path, model.hierarchy.mesh(model.config.input_order), label_table=table
    )
    entries = (
        manifest.subjects if args.split == "all" else manifest.split(args.split)
    )
    if not entries:
        raise UsageError(f"manifest split {args.split!r} is empty")
    subjects = [
        anomaly.SubjectRecord(
            subject_id=entry.subject_id,
            features=io.load_subject_features(manifest, entry),
            context=ContextVector(age=entry.age, sex=entry.sex),
            hemisphere=atlas.hemisphere,
        )
        for entry in entries
    ]
    matrix = anomaly.cohort_scores(model, subjects, atlas,
                                   normalized=not args.raw)
    os.makedirs(args.out, exist_ok=True)
    anomaly.write_scores_csv(matrix, os.path.join(args.out, "scores.csv"))
    anomaly.write_scores_json(matrix, os.path.join(args.out, "scores.json"))
    print(f"scored {matrix.num_subjects} subjects x {len(matrix.roi_ids)} ROIs "
          f"-> {args.out}/scores.csv")
    return 0


def _group_report(args):
    """Effect report of the --group-a / --group-b score tables."""
    return stats.effect_report(anomaly.read_scores_csv(args.group_a),
                               anomaly.read_scores_csv(args.group_b),
                               alpha=args.alpha)


def _cmd_stats(args):
    report = _group_report(args)
    os.makedirs(args.out, exist_ok=True)
    stats.write_stats_csv(report, os.path.join(args.out, "stats.csv"))
    filtered = stats.EffectReport(
        rows=report.significant, significant=report.significant, alpha=args.alpha
    )
    stats.write_stats_csv(filtered, os.path.join(args.out, "significant.csv"))
    stats.write_eta2_svg(report, os.path.join(args.out, "eta2.svg"))
    print(f"{len(report.significant)} of {len(report.rows)} tests significant "
          f"at q < {args.alpha:g} -> {args.out}/stats.csv")
    return 0


def _cmd_report(args):
    os.makedirs(args.out, exist_ok=True)
    wrote = []
    for path in args.scores:
        matrix = anomaly.read_scores_csv(path)
        base = os.path.splitext(os.path.basename(path))[0]
        out = os.path.join(args.out, base + ".json")
        anomaly.write_scores_json(matrix, out)
        wrote.append(out)
    if args.group_a or args.group_b:
        if not (args.group_a and args.group_b):
            raise UsageError("--group-a and --group-b must be given together")
        out = os.path.join(args.out, "eta2.svg")
        stats.write_eta2_svg(_group_report(args), out)
        wrote.append(out)
    if not wrote:
        raise UsageError("nothing to emit: pass --scores or --group-a/--group-b")
    print("wrote " + ", ".join(wrote))
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_help(sys.stderr)
            return 1
        return args.func(args)
    except SystemExit as exc:  # argparse --help
        return exc.code or 0
    except (UsageError, ConfigurationError) as exc:
        print(f"smmn: {exc}", file=sys.stderr)
        return 1
    except (ParseError, InvariantError, DomainError, ShapeError, OSError) as exc:
        print(f"smmn: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
