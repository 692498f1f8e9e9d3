"""ROI-masked anomaly scoring against a trained masked mesh network.

For each atlas ROI the detector replaces exactly that ROI's vertices
with the learned mask token, reconstructs from the remaining vertices
plus the subject's phenotype context, and scores the ROI by the mean
(over its vertices) channel-summed l1 residual between original and
reconstructed features.  Scores live in normalized (z-scored) feature
space by default so channels with different units are comparable.

Masking one ROI at a time makes the score a conditional measure given
the subject's unmasked anatomy and phenotype, which is what makes the
detector subject-adaptive without retraining.  Everything here is
deterministic: repeated runs give bit-identical reports.
"""

from dataclasses import dataclass, field
import csv
import json
import math
import warnings

import numpy as np

from .errors import ShapeError, UsageError
from .io import Cursor
from .net import ContextVector, forward_core, masked_batch


@dataclass
class SubjectRecord:
    """A subject to score: raw features, phenotype, hemisphere tag."""

    subject_id: str
    features: np.ndarray  # (C, V) raw feature values
    context: ContextVector
    hemisphere: str = "left"

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ShapeError("subject features must be (channels, vertices)")


@dataclass
class AnomalyReport:
    """Per-ROI, per-channel anomaly scores for one subject."""

    subject_id: str
    hemisphere: str
    channel_names: tuple
    roi_ids: list
    roi_names: dict
    scores: np.ndarray  # (channels, rois), non-negative
    roi_sizes: np.ndarray  # (rois,) masked-vertex counts

    def score(self, roi_id, channel=None):
        col = self.roi_ids.index(roi_id)
        if channel is None:
            return float(self.scores[:, col].sum())
        return float(self.scores[channel, col])


def _check_subject(model, subject, atlas):
    cfg = model.config
    if subject.features.shape[0] != cfg.in_channels:
        raise ShapeError(
            f"subject {subject.subject_id!r} has {subject.features.shape[0]} "
            f"channels, model expects {cfg.in_channels}"
        )
    if subject.features.shape[1] != model.num_input_vertices:
        raise ShapeError(
            f"subject {subject.subject_id!r} has {subject.features.shape[1]} "
            f"vertices, model expects {model.num_input_vertices}"
        )
    if atlas.num_vertices != model.num_input_vertices:
        raise ShapeError(
            f"atlas covers {atlas.num_vertices} vertices, model expects "
            f"{model.num_input_vertices}"
        )


def roi_residual_scores(residual, roi_vertices):
    """Per-channel mean absolute residual over a vertex set."""
    return np.abs(residual[:, roi_vertices]).mean(axis=1)


def _detect(model, subject, atlas, roi_ids, normalized):
    """Report for the given ROIs: one masked forward pass per ROI, batched.

    Row r of the batch is the normalized subject with exactly ROI r's
    vertices replaced by the mask token.
    """
    _check_subject(model, subject, atlas)
    verts_per_roi = [atlas.roi_vertices(rid) for rid in roi_ids]
    for rid, verts in zip(roi_ids, verts_per_roi):
        if len(verts) == 0:
            raise UsageError(f"ROI {rid} has no vertices in this atlas")
    xn = model.normalize(subject.features)
    batch = np.broadcast_to(xn, (len(roi_ids),) + xn.shape)
    xb, _ = masked_batch(model, batch, verts_per_roi)
    ctxn = np.repeat(model.normalize_context(subject.context)[None], len(roi_ids), 0)
    xhat, _ = forward_core(model, xb, ctxn, record=False)
    scores = np.empty((model.config.in_channels, len(roi_ids)))
    for row, verts in enumerate(verts_per_roi):
        resid = xhat[row] - xn
        if not normalized:
            resid = resid * model.norm_std[:, None]
        scores[:, row] = roi_residual_scores(resid, verts)
    return AnomalyReport(
        subject_id=subject.subject_id,
        hemisphere=subject.hemisphere,
        channel_names=model.config.channel_names,
        roi_ids=[int(r) for r in roi_ids],
        roi_names={int(r): atlas.names[int(r)] for r in roi_ids},
        scores=scores,
        roi_sizes=np.array([len(v) for v in verts_per_roi]),
    )


def detect_roi(model, subject, atlas, roi_id, normalized=True):
    """Channel-summed anomaly score of one ROI.

    Masks exactly the ROI's vertices with the learned token, runs one
    forward pass with the subject's context, and averages the
    channel-summed l1 residual over the ROI.  ``normalized=False``
    reports the residual in raw feature units instead of z-scores.
    """
    return _detect(model, subject, atlas, [roi_id], normalized).score(roi_id)


def detect_all(model, subject, atlas, normalized=True):
    """Anomaly scores for every labeled ROI (label 0 excluded).

    One forward pass is evaluated per ROI; the passes are batched
    internally for speed, which leaves each ROI's reconstruction
    identical to a standalone masked forward with the same batch.
    """
    roi_ids = atlas.roi_ids()
    if not roi_ids:
        raise UsageError("atlas has no labeled ROIs")
    return _detect(model, subject, atlas, roi_ids, normalized)


@dataclass
class ScoreMatrix:
    """Stacked anomaly scores: (subjects, rois, channels)."""

    subject_ids: list
    hemisphere: str
    channel_names: tuple
    roi_ids: list
    roi_names: dict
    scores: np.ndarray
    roi_sizes: np.ndarray
    skipped: list = field(default_factory=list)

    @property
    def num_subjects(self):
        return len(self.subject_ids)


def cohort_scores(model, subjects, atlas, normalized=True):
    """Score a cohort subject by subject, in the given stable order.

    Subjects whose shape does not match the model are skipped with a
    warning and listed in ``skipped``; the others are still scored.
    """
    if len(subjects) == 0:
        raise UsageError("cohort is empty")
    reports = []
    skipped = []
    for subject in subjects:
        try:
            reports.append(detect_all(model, subject, atlas, normalized=normalized))
        except ShapeError as exc:
            warnings.warn(f"skipping subject {subject.subject_id!r}: {exc}",
                          stacklevel=2)
            skipped.append((subject.subject_id, str(exc)))
    if not reports:
        raise UsageError("no subject in the cohort matches the model")
    first = reports[0]
    scores = np.stack([r.scores.T for r in reports])  # (S, R, C)
    return ScoreMatrix(
        subject_ids=[r.subject_id for r in reports],
        hemisphere=first.hemisphere,
        channel_names=first.channel_names,
        roi_ids=first.roi_ids,
        roi_names=first.roi_names,
        scores=scores,
        roi_sizes=first.roi_sizes,
        skipped=skipped,
    )


REPORT_COLUMNS = (
    "subject_id",
    "hemisphere",
    "channel",
    "roi_id",
    "roi_name",
    "n_vertices",
    "score",
)


def _report_rows(matrix):
    for s, sid in enumerate(matrix.subject_ids):
        for c, channel in enumerate(matrix.channel_names):
            for r, rid in enumerate(matrix.roi_ids):
                yield {
                    "subject_id": sid,
                    "hemisphere": matrix.hemisphere,
                    "channel": channel,
                    "roi_id": rid,
                    "roi_name": matrix.roi_names[rid],
                    "n_vertices": int(matrix.roi_sizes[r]),
                    "score": repr(float(matrix.scores[s, r, c])),
                }


def write_scores_csv(matrix, path):
    """Emit the fixed-column anomaly score table."""
    with open(path, "w", newline="") as fp:
        writer = csv.DictWriter(fp, fieldnames=REPORT_COLUMNS)
        writer.writeheader()
        for row in _report_rows(matrix):
            writer.writerow(row)


def write_scores_json(matrix, path):
    """JSON mirror of the score table."""
    rows = []
    for row in _report_rows(matrix):
        row = dict(row)
        row["score"] = float(row["score"])
        rows.append(row)
    doc = {
        "hemisphere": matrix.hemisphere,
        "channels": list(matrix.channel_names),
        "skipped": [list(s) for s in matrix.skipped],
        "scores": rows,
    }
    with open(path, "w") as fp:
        json.dump(doc, fp, indent=1)
        fp.write("\n")


def read_scores_csv(path):
    """Rebuild a :class:`ScoreMatrix` from :func:`write_scores_csv` output.

    A row the csv module rejects, or a bad value in one, is a ParseError
    at the byte offset of the line it was read from.
    """
    cur = Cursor(path)
    lines = cur.lines()
    reader = csv.DictReader([line for _, line in lines])
    rows = []
    try:
        if reader.fieldnames is None or tuple(reader.fieldnames) != REPORT_COLUMNS:
            raise cur.error(f"unexpected score table header {reader.fieldnames}", 0)
        for row in reader:
            try:
                row["roi_id"] = int(row["roi_id"])
                row["n_vertices"] = int(row["n_vertices"])
                row["score"] = float(row["score"])
                if not math.isfinite(row["score"]):
                    raise ValueError("non-finite score")
            except (TypeError, ValueError):
                raise cur.error(
                    f"line {reader.line_num}: bad roi_id, n_vertices or score",
                    lines[reader.line_num - 1][0],
                ) from None
            rows.append(row)
    except csv.Error as exc:
        # DictReader.line_num is set only once a row parses; its reader's
        # counts the line that failed.
        line_num = reader.reader.line_num
        raise cur.error(f"line {line_num}: {exc}", lines[line_num - 1][0]) from None
    if not rows:
        raise cur.error("score table has no rows", 0)
    subject_ids = list(dict.fromkeys(r["subject_id"] for r in rows))
    channels = tuple(dict.fromkeys(r["channel"] for r in rows))
    roi_ids = list(dict.fromkeys(r["roi_id"] for r in rows))
    roi_names = {r["roi_id"]: r["roi_name"] for r in rows}
    roi_sizes = {r["roi_id"]: r["n_vertices"] for r in rows}
    hemisphere = rows[0]["hemisphere"]
    scores = np.zeros((len(subject_ids), len(roi_ids), len(channels)))
    s_idx = {s: i for i, s in enumerate(subject_ids)}
    c_idx = {c: i for i, c in enumerate(channels)}
    r_idx = {r: i for i, r in enumerate(roi_ids)}
    for row in rows:
        scores[
            s_idx[row["subject_id"]], r_idx[row["roi_id"]], c_idx[row["channel"]]
        ] = row["score"]
    return ScoreMatrix(
        subject_ids=subject_ids,
        hemisphere=hemisphere,
        channel_names=channels,
        roi_ids=roi_ids,
        roi_names=roi_names,
        scores=scores,
        roi_sizes=np.array([roi_sizes[r] for r in roi_ids]),
    )
