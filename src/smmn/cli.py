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
    cur = io.Cursor(path)
    out = {}
    for lineno, (offset, line) in enumerate(cur.lines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise cur.error(f"line {lineno}: expected `key = value`, got {text!r}",
                            offset)
        key, value = text.split("=", 1)
        out[key.strip()] = value.strip()
    return out


# The documented keys of each config file and how each value is cast; a
# one-element tuple ``(cast,)`` reads a comma-separated list.  Defaults
# live in the dataclasses the values are passed to.
_SYNTH_KEYS = {
    "order": int, "n_subjects": int, "n_patients": int, "n_train": int,
    "n_val": int, "age_min": float, "age_max": float, "sex_balance": float,
    "field_degree": int, "field_scale": float, "age_slope": (float,),
    "noise_std": (float,), "channel_names": (str,), "n_rois": int,
    "anomaly_roi": int, "anomaly_amplitude": float, "affected_fraction": float,
    "seed": int,
}
_TRAIN_KEYS = {
    "mask_fraction": float, "lr": float, "lr_min": float, "epochs": int,
    "weight_decay": float, "patience": int, "batch_size": int, "seed": int,
}
_MODEL_KEYS = {"order": int, "channels": (int,), "l_max": int, "L": int}


def _config_values(config, casts):
    """The keys of ``casts`` that ``config`` sets, with their values cast.

    A value that does not cast is a UsageError naming the key.
    """
    out = {}
    for key, cast in casts.items():
        if key not in config:
            continue
        raw = config[key]
        try:
            if isinstance(cast, tuple):
                parts = (part.strip() for part in raw.split(","))
                out[key] = tuple(cast[0](part) for part in parts if part)
            else:
                out[key] = cast(raw)
        except ValueError:
            raise UsageError(
                f"config key {key!r} has malformed value {raw!r}"
            ) from None
    return out


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
    values = _config_values(config, _SYNTH_KEYS)
    age_min, age_max = synth.SynthConfig.age_range
    values["age_range"] = (values.pop("age_min", age_min),
                           values.pop("age_max", age_max))
    if seed_override is not None:
        values["seed"] = seed_override
    return synth.SynthConfig(**values)


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
    train_values = _config_values(config, _TRAIN_KEYS)
    if args.seed is not None:
        train_values["seed"] = args.seed
    train_cfg = net.TrainConfig(**train_values)
    model_values = _config_values(config, _MODEL_KEYS)
    # Renamed after l_max is read, so L overrides it.
    for key, name in (("order", "input_order"), ("L", "l_max")):
        if key in model_values:
            model_values[name] = model_values.pop(key)
    model_cfg = net.ModelConfig(
        in_channels=len(manifest.channel_names),
        channel_names=manifest.channel_names,
        seed=train_cfg.seed,
        **model_values,
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
