"""The benchmark's workloads: inputs, timed rounds and correctness checks.

Each workload makes its inputs with ``smmn.synth`` from the run's seed,
then runs whole rounds of one CLI pipeline through ``smmn.cli.main`` in
this process.  A round returns how many operations it attempted and how
many failed; the checks after the timed rounds compare the outputs with
computations made apart from the program (scipy, finite differences,
adjoint identities) and with the anomaly-recovery bars.
"""

import contextlib
import csv
import hashlib
import io as _stdio
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from smmn import cli, conv, io, mesh, net, synth

L_MAX = 3
CHANNELS = "16,32"
N_ROIS = 34
INJECTED_ROI = 7
ANOMALY_SIGMA = 5.0
ALPHA = 0.05

# Sizes of each workload.  "full" is what the benchmark measures; "toy"
# runs the same code on tiny inputs for the self-test, where the quality
# bars of a trained model (val-loss ratio, rank-1, AUROC) do not apply.
SIZES = {
    "full": {
        "train-o3": dict(order=3, channels=CHANNELS, n_train=200, n_val=100,
                         batch=20, epochs=1),
        "train-o6": dict(order=6, channels=CHANNELS, n_train=2, n_val=1,
                         batch=2, epochs=1),
        "detect-o3": dict(order=3, n_controls=20, n_patients=20),
        # The acceptance configuration; the detect-o3 model.
        "checkpoint": dict(order=3, channels=CHANNELS, n_train=200, n_val=100,
                           batch=20, epochs=20, patience=8, seed=11),
    },
    "toy": {
        "train-o3": dict(order=3, channels="4,8", n_train=8, n_val=4,
                         batch=4, epochs=1),
        "train-o6": dict(order=4, channels="4,8", n_train=2, n_val=1,
                         batch=2, epochs=1),
        "detect-o3": dict(order=3, n_controls=4, n_patients=4),
        "checkpoint": dict(order=3, channels="4,8", n_train=8, n_val=4,
                           batch=4, epochs=1, patience=1, seed=11),
    },
}


@dataclass
class Round:
    """One timed pass of a workload's pipeline."""

    subjects: int  # subjects trained on or scored
    attempted: int  # operations: train steps or cohort subjects
    failed: int
    wall: float
    out: Path
    artifact: Path  # the output whose bytes must repeat
    codes: tuple  # CLI exit codes


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def source_digest(src_dir):
    """Digest of the program's sources: keys the checkpoint cache and the
    reproducibility ledger, so that runs of different code never mix."""
    digest = hashlib.sha256()
    for path in sorted(src_dir.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src_dir)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def write_cfg(path, entries):
    with open(path, "w") as fp:
        for key, value in entries.items():
            fp.write(f"{key} = {value}\n")


def run_cli(argv, log_path):
    """``smmn.cli.main(argv)`` with its output kept in a log file."""
    buf = _stdio.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main([str(a) for a in argv])
    with open(log_path, "a") as fp:
        fp.write(buf.getvalue())
    return code


def empty_caches():
    """Drop the process-global icosphere cache.  Each mesh owns its
    ConvContext cache, so this empties both, and the set-up starts cold."""
    cache = getattr(mesh, "_icosphere_cache", None)
    if not isinstance(cache, dict):
        raise RuntimeError("smmn.mesh has no _icosphere_cache to empty; "
                           "set-up would be timed with warm caches")
    cache.clear()


def fill_caches(order):
    hierarchy = mesh.build_hierarchy(order)
    for k in range(order + 1):
        conv.conv_context(hierarchy.mesh(k), L_MAX)


def synth_dataset(out_dir, **fields):
    cfg = synth.SynthConfig(n_rois=N_ROIS, **fields)
    return Path(synth.generate_dataset(cfg, str(out_dir)))


class Checks:
    """Named pass/fail results; a failure also goes to stderr."""

    def __init__(self):
        self.results = []

    def add(self, name, ok, detail=""):
        self.results.append((name, bool(ok), detail))
        if not ok:
            print(f"bench: check failed: {name}: {detail}", file=sys.stderr)

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.results)


# ---------------------------------------------------------------------------
# Checkpoint cache (the detect-o3 model), built once per source digest.


def ensure_checkpoint(work, src_dir, digest, size):
    """Train the acceptance-configuration model with the smmn CLI, once per
    source digest, in a child process, outside every timed region."""
    spec = SIZES[size]["checkpoint"]
    final = work / "checkpoint" / f"{size}-{digest[:16]}"
    if (final / "run" / "model.smmn").is_file():
        return final
    tmp = final.with_name(final.name + ".partial")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    write_cfg(tmp / "synth.cfg", {
        "order": spec["order"], "n_subjects": spec["n_train"] + spec["n_val"],
        "n_train": spec["n_train"], "n_val": spec["n_val"], "n_rois": N_ROIS,
        "seed": spec["seed"],
    })
    write_cfg(tmp / "train.cfg", {
        "order": spec["order"], "channels": spec["channels"], "L": L_MAX,
        "epochs": spec["epochs"], "patience": spec["patience"],
        "batch_size": spec["batch"], "seed": 0,
    })
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_dir)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    print(f"bench: building the {size} checkpoint in {final}", file=sys.stderr)
    start = time.perf_counter()
    with open(tmp / "build.log", "w") as log:
        for argv in (
            ["synth", "--config", "synth.cfg", "--out", "data"],
            ["train", "--manifest", "data/manifest.json", "--config", "train.cfg",
             "--out", "run"],
        ):
            subprocess.run([sys.executable, "-m", "smmn.cli", *argv], cwd=tmp,
                           env=env, stdout=log, stderr=subprocess.STDOUT,
                           check=True, timeout=850)
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)
    print(f"bench: checkpoint built in {time.perf_counter() - start:.1f} s",
          file=sys.stderr)
    return final


# ---------------------------------------------------------------------------
# Workloads.


class TrainWorkload:
    """``smmn train`` for a fixed number of epochs; an operation is a step."""

    def __init__(self, name, size, work, seed, checkpoint):
        self.name = name
        self.checkpoint = checkpoint
        self.spec = SIZES[size][name]
        self.full = size == "full"
        self.work = work
        self.seed = seed
        self.order = self.spec["order"]

    def setup(self):
        s = self.spec
        empty_caches()
        self.manifest = synth_dataset(
            self.work / "data", order=self.order,
            n_subjects=s["n_train"] + s["n_val"], n_train=s["n_train"],
            n_val=s["n_val"], seed=self.seed,
        )
        self.config = self.work / "train.cfg"
        write_cfg(self.config, {
            "order": self.order, "channels": s["channels"], "L": L_MAX,
            "batch_size": s["batch"], "epochs": s["epochs"],
            # patience >= epochs: early stopping never cuts a round short
            "patience": s["epochs"], "seed": self.seed,
        })
        fill_caches(self.order)

    @property
    def steps_per_epoch(self):
        return math.ceil(self.spec["n_train"] / self.spec["batch"])

    def round(self, index):
        out = self.work / f"round{index}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        start = time.perf_counter()
        code = run_cli(["train", "--manifest", self.manifest, "--config",
                        self.config, "--out", out, "--quiet"], out / "cli.log")
        wall = time.perf_counter() - start
        attempted = self.spec["epochs"] * self.steps_per_epoch
        failed = attempted
        if code == 0:
            # an epoch with a non-finite mean train loss had a failed step;
            # its steps all count as failed, as do epochs that never ran
            finite = [math.isfinite(float(row["train_loss"]))
                      for row in read_csv(out / "history.csv")[1:]]
            failed = attempted - self.steps_per_epoch * sum(finite)
        return Round(subjects=self.spec["n_train"] * self.spec["epochs"],
                     attempted=attempted, failed=failed, wall=wall, out=out,
                     artifact=out / "model.smmn", codes=(code,))

    def check(self, rounds, checks):
        last = rounds[-1]
        if last.codes != (0,):
            return
        summary = json.loads((last.out / "summary.json").read_text())
        best, first = summary["best_val_loss"], summary["epoch0_val_loss"]
        checks.add("val loss finite", math.isfinite(best) and math.isfinite(first),
                   f"best {best}, epoch-0 {first}")
        model = net.load_model(last.artifact)
        if self.name == "train-o3":
            checks.add("the round lowers the val loss", best < first,
                       f"{best:.6g} vs epoch-0 {first:.6g}")
            if self.full:
                # The acceptance bar is for the acceptance run: 20 epochs at
                # this shape, which made the cached detect-o3 checkpoint.
                ref = json.loads((self.checkpoint / "run" / "summary.json").read_text())
                ratio = ref["best_val_loss"] / ref["epoch0_val_loss"]
                checks.add("acceptance run: best val <= 0.5 x epoch-0 val",
                           ratio <= 0.5, f"ratio {ratio:.4f}")
            check_directional_derivative(model, self.manifest, self.spec["batch"],
                                         self.seed, checks)
        check_adjoints(model, self.order, self.spec["batch"], self.seed, checks)


class DetectWorkload:
    """``smmn detect`` then ``smmn stats``; an operation is a subject."""

    def __init__(self, name, size, work, seed, checkpoint):
        self.name = name
        self.spec = SIZES[size][name]
        self.full = size == "full"
        self.work = work
        self.seed = seed
        self.order = SIZES[size]["checkpoint"]["order"]
        self.model_path = checkpoint / "run" / "model.smmn"

    def setup(self):
        s = self.spec
        empty_caches()
        self.manifest = synth_dataset(
            self.work / "cohort", order=self.order,
            n_subjects=s["n_controls"] + s["n_patients"],
            n_patients=s["n_patients"], anomaly_roi=INJECTED_ROI,
            anomaly_amplitude=ANOMALY_SIGMA, seed=self.seed,
        )
        doc = json.loads(self.manifest.read_text())
        self.groups = {e["id"]: e.get("group") or "control" for e in doc["subjects"]}
        fill_caches(self.order)

    def round(self, index):
        out = self.work / f"round{index}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        scores = out / "scores"
        start = time.perf_counter()
        code_detect = run_cli(["detect", "--model", self.model_path, "--manifest",
                               self.manifest, "--out", scores], out / "cli.log")
        code_stats = 2
        if code_detect == 0:
            split_by_group(scores / "scores.csv", self.groups,
                           out / "controls.csv", out / "patients.csv")
            code_stats = run_cli(["stats", "--group-a", out / "controls.csv",
                                  "--group-b", out / "patients.csv", "--out",
                                  out / "stats"], out / "cli.log")
        wall = time.perf_counter() - start
        attempted = len(self.groups)
        failed = attempted
        if code_detect == 0 and code_stats == 0:
            doc = json.loads((scores / "scores.json").read_text())
            failed = len(doc["skipped"])
        return Round(subjects=attempted, attempted=attempted, failed=failed,
                     wall=wall, out=out, artifact=scores / "scores.csv",
                     codes=(code_detect, code_stats))

    def check(self, rounds, checks):
        last = rounds[-1]
        if last.codes != (0, 0):
            return
        check_stats_against_scipy(last.out, checks)
        check_recovery(last.out, self.groups, self.full, checks)
        check_masking_locality(net.load_model(self.model_path), self.manifest,
                               self.groups, checks)


def record_reproducibility(ledger_path, key, rounds, checks):
    """Same-seed outputs repeat byte for byte: across the rounds of this run,
    and against earlier runs with the same ledger key."""
    hashes = {sha256(r.artifact) for r in rounds if r.artifact.exists()}
    if len(rounds) > 1:
        checks.add("rounds give byte-identical outputs", len(hashes) == 1,
                   f"{len(hashes)} distinct digests over {len(rounds)} rounds")
    if len(hashes) != 1:
        return
    (digest,) = hashes
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    earlier = ledger.setdefault(key, digest)
    checks.add("same-seed runs give byte-identical outputs", earlier == digest,
               f"{digest[:12]} vs earlier {earlier[:12]}")
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")


def make(name, size, work, seed, checkpoint):
    kind = DetectWorkload if name == "detect-o3" else TrainWorkload
    return kind(name, size, work, seed, checkpoint)


# ---------------------------------------------------------------------------
# Helpers and checks.


def read_csv(path):
    with open(path, newline="") as fp:
        return list(csv.DictReader(fp))


def split_by_group(scores_csv, groups, controls_csv, patients_csv):
    """Split ``scores.csv`` by the manifest's ``group`` column."""
    with open(scores_csv, newline="") as fp:
        reader = csv.reader(fp)
        header = next(reader)
        rows = list(reader)
    col = header.index("subject_id")
    for path, group in ((controls_csv, "control"), (patients_csv, "patient")):
        with open(path, "w", newline="") as fp:
            writer = csv.writer(fp)
            writer.writerow(header)
            writer.writerows(row for row in rows if groups[row[col]] == group)


def _score_columns(path):
    """{(channel, roi_id): [score per subject in file order]}."""
    cols = {}
    for row in read_csv(path):
        cols.setdefault((row["channel"], int(row["roi_id"])), []).append(
            float(row["score"]))
    return cols


def check_stats_against_scipy(out, checks):
    """stats.csv p-values equal scipy's one-way ANOVA and q-values equal
    scipy's Benjamini-Hochberg, on the same score columns."""
    from scipy.stats import f_oneway, false_discovery_control

    col_a = _score_columns(out / "controls.csv")
    col_b = _score_columns(out / "patients.csv")
    rows = read_csv(out / "stats" / "stats.csv")
    worst_p = worst_q = worst_f = 0.0
    for channel in dict.fromkeys(row["channel"] for row in rows):
        family = [row for row in rows if row["channel"] == channel]
        ref = [f_oneway(col_a[(channel, int(r["roi_id"]))],
                        col_b[(channel, int(r["roi_id"]))]) for r in family]
        p_ref = np.array([res.pvalue for res in ref])
        q_ref = false_discovery_control(p_ref)
        for row, res, q in zip(family, ref, q_ref):
            worst_p = max(worst_p, abs(float(row["p"]) - res.pvalue))
            worst_q = max(worst_q, abs(float(row["q"]) - q))
            worst_f = max(worst_f, abs(float(row["f_stat"]) - res.statistic)
                          / max(1.0, abs(res.statistic)))
    checks.add("stats.csv p = scipy f_oneway", worst_p <= 1e-9, f"max |dp| {worst_p:.2e}")
    checks.add("stats.csv q = scipy false_discovery_control", worst_q <= 1e-8,
               f"max |dq| {worst_q:.2e}")
    checks.add("stats.csv F = scipy f_oneway", worst_f <= 1e-9,
               f"max rel dF {worst_f:.2e}")


def check_recovery(out, groups, full, checks):
    """The injected ROI is rank-1 in >= 0.9 of patients, has AUROC >= 0.9
    and tops significant.csv."""
    from scipy.stats import mannwhitneyu

    per_subject = {}
    for row in read_csv(out / "scores" / "scores.csv"):
        per_subject.setdefault(row["subject_id"], {})[int(row["roi_id"])] = float(
            row["score"])
    patients = [s for s in per_subject if groups[s] == "patient"]
    controls = [s for s in per_subject if groups[s] == "control"]
    rank1 = sum(max(per_subject[s], key=per_subject[s].get) == INJECTED_ROI
                for s in patients) / len(patients)
    pos = [per_subject[s][INJECTED_ROI] for s in patients]
    neg = [per_subject[s][INJECTED_ROI] for s in controls]
    auroc = mannwhitneyu(pos, neg).statistic / (len(pos) * len(neg))
    significant = read_csv(out / "stats" / "significant.csv")
    top = int(significant[0]["roi_id"]) if significant else None
    if full:
        checks.add("injected ROI rank-1 rate >= 0.9", rank1 >= 0.9, f"{rank1:.3f}")
        checks.add("injected ROI AUROC >= 0.9", auroc >= 0.9, f"{auroc:.3f}")
        checks.add("injected ROI tops significant.csv", top == INJECTED_ROI,
                   f"top {top}")
    stats_rows = read_csv(out / "stats" / "stats.csv")
    expected = sorted((r for r in stats_rows if float(r["q"]) < ALPHA),
                      key=lambda r: -float(r["eta2"]))
    checks.add("significant.csv = stats.csv rows with q < alpha by eta2",
               [r["roi_id"] for r in significant] == [r["roi_id"] for r in expected],
               f"{len(significant)} vs {len(expected)} rows")


def _entry_sample(manifest, entry, model):
    features = io.load_subject_features(manifest, entry)
    ctx = net.ContextVector(age=entry.age, sex=entry.sex)
    return features, model.normalize_context(ctx)


def check_masking_locality(model, manifest_path, groups, checks):
    """Perturbing a masked ROI's inputs leaves its reconstruction
    bit-identical."""
    manifest = io.load_manifest(manifest_path)
    entry = next(e for e in manifest.subjects if groups[e.subject_id] == "patient")
    atlas = io.read_atlas_csv(manifest.resolve(manifest.atlas),
                              model.hierarchy.mesh(model.config.input_order))
    verts = atlas.roi_vertices(INJECTED_ROI)
    features, ctxn = _entry_sample(manifest, entry, model)
    perturbed = features.copy()
    perturbed[:, verts] += 1.75
    recon = []
    for values in (features, perturbed):
        xb, _ = net.masked_batch(model, model.normalize(values)[None], [verts])
        recon.append(net.forward_core(model, xb, ctxn[None])[0])
    checks.add("masked-ROI reconstruction ignores the ROI's inputs",
               np.array_equal(recon[0], recon[1]),
               f"max diff {np.abs(recon[0] - recon[1]).max():.2e}")


def check_directional_derivative(model, manifest_path, batch, seed, checks):
    """Central finite difference of the masked loss along a random unit
    direction matches backward_core, at the workload's batch shape."""
    manifest = io.load_manifest(manifest_path)
    entries = manifest.split("train")[:batch]
    pairs = [_entry_sample(manifest, e, model) for e in entries]
    feats = np.stack([model.normalize(f) for f, _ in pairs])
    ctxn = np.stack([c for _, c in pairs])
    rng = np.random.default_rng([seed, 1])
    masks = [net.sample_mask(model.num_input_vertices, 0.5, rng) for _ in pairs]

    def loss_and_tape(record):
        xb, mask_matrix = net.masked_batch(model, feats, masks)
        xhat, tape = net.forward_core(model, xb, ctxn, record=record)
        loss, dxhat = net.batch_loss_and_grad(xhat, feats, masks)
        return loss, tape, dxhat, mask_matrix

    _, tape, dxhat, mask_matrix = loss_and_tape(True)
    grads = net.backward_core(model, tape, dxhat, mask_matrix)
    del tape
    base = model.copy_params()
    direction = {k: rng.standard_normal(v.shape) for k, v in base.items()}
    norm = math.sqrt(sum(float((d * d).sum()) for d in direction.values()))
    analytic = sum(float((grads[k] * direction[k]).sum()) for k in base) / norm
    step = 1e-6
    losses = []
    for sign in (1.0, -1.0):
        model.load_params({k: base[k] + sign * step / norm * direction[k]
                           for k in base})
        losses.append(loss_and_tape(False)[0])
    model.load_params(base)
    fd = (losses[0] - losses[1]) / (2 * step)
    rel = abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-12)
    checks.add("finite-difference directional derivative = backward_core",
               rel <= 1e-4, f"fd {fd:.9g}, backward {analytic:.9g}, rel {rel:.1e}")


def check_adjoints(model, order, batch, seed, checks):
    """<A x, y> = <x, A^T y> for v2f, f2v, pool and unpool at level l0."""
    rng = np.random.default_rng([seed, 2])
    cctx = conv.conv_context(model.hierarchy.mesh(order), L_MAX)
    clustering = model.hierarchy.clustering(order)
    width = model.config.channels[0]
    k = (L_MAX + 1) ** 2
    v, f, vc = cctx.num_vertices, cctx.num_facets, clustering.num_coarse

    def rel(lhs, rhs, ax, y):
        return abs(lhs - rhs) / (np.linalg.norm(ax) * np.linalg.norm(y))

    coeffs = rng.standard_normal((width, width, k))
    x = rng.standard_normal((batch, width, v))
    y = rng.standard_normal((batch, width, f))
    ax = conv.v2f_forward_core(cctx, x, coeffs)
    aty, _ = conv.v2f_backward_core(cctx, coeffs, x, y)
    results = {"v2f": rel(np.vdot(ax, y), np.vdot(x, aty), ax, y)}
    del ax, aty

    h = rng.standard_normal((batch, width, f))
    z = rng.standard_normal((batch, width, v))
    bh = conv.f2v_forward_core(cctx, h, coeffs)
    btz, _ = conv.f2v_backward_core(cctx, coeffs, h, z)
    results["f2v"] = rel(np.vdot(bh, z), np.vdot(h, btz), bh, z)
    del bh, btz

    pooled, argmax = conv.pool_max_core(x, clustering, return_argmax=True)
    yc = rng.standard_normal(pooled.shape)
    back = conv.pool_max_backward_core(yc, argmax, v)
    results["pool"] = rel(np.vdot(pooled, yc), np.vdot(x, back), pooled, yc)

    xc = rng.standard_normal((batch, width, vc))
    up = conv.unpool_core(xc, clustering)
    results["unpool"] = rel(np.vdot(up, z), np.vdot(xc, conv.unpool_backward_core(
        z, clustering)), up, z)
    for op, err in results.items():
        checks.add(f"adjoint identity {op} at l0", err <= 1e-12, f"rel {err:.1e}")
