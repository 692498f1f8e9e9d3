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

The R masked copies of a subject differ only near their ROIs, and each
score reads only its ROI, so detection walks the plan once for all R
rows and computes few of them.  The encoder runs on the unmasked
subject (B = 1); each encoder block then recomputes, per ROI, only its
support, the (vertex, ROI) rows that ROI's mask can reach, and copies
the unmasked rows elsewhere.  Pools, the bottleneck and unpools run on
all R rows.  Each decoder block computes only its demand, the rows that
ROI's score reads through the blocks after it, and leaves the others
NaN, so a read outside the demand makes the score non-finite and stops
detection.  :func:`roi_tables` builds the supports and demands, once per
cohort.  Scores equal those of one standalone masked forward pass per
ROI up to float64 rounding, and exactly for a single ROI
(:func:`detect_roi`).

A subject is the record training takes: detection reads only its
``subject_id``, ``features`` and ``context``, so a :class:`~smmn.net.Sample`
scores as is.  Its features pass :meth:`~smmn.net.MMNModel.check_features`,
and every score table is labeled with the atlas's hemisphere.  Non-finite
features or scores are a :class:`~smmn.errors.DomainError` naming the
subject.

Scores are not confined to an anomalous ROI.  Each masked ROI is
reconstructed from the unmasked rest of the surface, and while any other
ROI is masked that rest includes the anomalous one, so the anomaly leaks
into its neighbours' reconstructions and they score high too.  On the
README's order-3 run (ROI 7 raised by 5 sigma in 50 of 100 subjects)
ROI 7 tops the group table at eta squared 0.98, yet 18 of the 34 ROIs are
significant: ROI 7, all seven ROIs that border it, and ten more.
"""

from dataclasses import dataclass, field, replace
import csv
import json
import math
import warnings

import numpy as np

from .conv import block_forward, pool_max_core, unpool_core
from .errors import DomainError, ShapeError, UsageError
from .io import Cursor
from .net import ContextVector, bottleneck_forward, masked_batch


@dataclass
class SubjectRecord:
    """A subject to score: raw (C, V) features and phenotype.

    Detection reads only these three fields, so a :class:`~smmn.net.Sample`
    scores as is.
    """

    subject_id: str
    features: np.ndarray
    context: ContextVector


@dataclass
class ScoreMatrix:
    """Anomaly scores of one subject or a cohort, one row per subject."""

    subject_ids: list
    hemisphere: str
    channel_names: tuple
    roi_ids: list
    roi_names: dict
    scores: np.ndarray  # (subjects, rois, channels), non-negative
    roi_sizes: np.ndarray  # (rois,) masked-vertex counts
    skipped: list = field(default_factory=list)

    @property
    def num_subjects(self):
        return len(self.subject_ids)


def roi_residual_scores(residual, roi_vertices):
    """Per-channel mean absolute residual over a vertex set."""
    return np.abs(residual[:, roi_vertices]).mean(axis=1)


@dataclass
class RoiTables:
    """What detection needs of one model and atlas, whatever the subject.

    ``vertices[r]`` are the vertices of ROI ``roi_ids[r]``.  ``rows`` maps
    each conv block's name to the (facet, vertex)
    :class:`~smmn.conv.RowSelection` pair that the block computes: its
    support in the encoder, its demand in the decoder.
    """

    roi_ids: list
    vertices: list
    rows: dict


def roi_tables(model, atlas, roi_ids):
    """The :class:`RoiTables` of the given ROIs.

    Every table is an (N, R) boolean mask, one column per ROI, and each
    starts from the ROI's own vertices.  A block's facets are those with
    a corner in its mask, and the vertices with an incident facet among
    them are one ring wider.  The encoder walks the plan forward: a
    block computes its facets and that wider ring, which is the next
    block's mask.  The decoder walks it backward from the output: a
    block computes its facets and its mask, and the wider ring is the
    demand on its input.  A pool or an unpool marks a coarse vertex when
    any of its cluster's fine vertices is marked.  Each step is a gather
    through a neighbour table.
    """
    if atlas.num_vertices != model.num_input_vertices:
        raise ShapeError(f"atlas covers {atlas.num_vertices} vertices, model "
                         f"expects {model.num_input_vertices}")
    if not roi_ids:
        raise UsageError("atlas has no labeled ROIs")
    vertices = [atlas.roi_vertices(rid) for rid in roi_ids]
    for rid, verts in zip(roi_ids, vertices):
        if len(verts) == 0:
            raise UsageError(f"ROI {rid} has no vertices in this atlas")
    roi_mask = atlas.labels[:, None] == np.asarray(roi_ids)[None, :]  # (V, R)
    plan = model.config.plan()
    mid = plan.index(("bottleneck",))
    rows = {}
    for encoder, steps in ((True, plan[:mid]), (False, plan[:mid:-1])):
        mask = roi_mask
        for step in steps:
            if step[0] == "block":
                ctx = model.context_of(step[2])
                facets = mask[ctx.corners].any(axis=0)  # (F, R)
                reach = facets[ctx.slot_facets].any(axis=0)  # (V, R)
                rows[step[1]] = ctx.select(facets, reach if encoder else mask)
                mask = reach
            else:
                table = model.hierarchy.clustering(step[1]).table
                # A last False row is what the -1 pads of the table read.
                mask = np.pad(mask, ((0, 1), (0, 0)))[table].any(axis=1)
    return RoiTables([int(r) for r in roi_ids], vertices, rows)


def _reconstruct(model, xn, ctxn, tables):
    """Row r of the (R, C_in, V) reconstruction of the normalized subject
    ``xn`` with ROI r masked: the sparse walk of the module docstring,
    NaN wherever ROI r's score does not read it."""
    p = model.params
    base = xn[None]
    h, _ = masked_batch(model, np.broadcast_to(xn, (len(tables.roi_ids),) + xn.shape),
                        tables.vertices)
    ctxn = np.repeat(ctxn[None], len(tables.roi_ids), axis=0)
    encoding = True
    for step in model.config.plan():
        if step[0] == "block":
            _, name, order, _, _, activate = step
            ctx = model.context_of(order)
            weights = (p[f"{name}_vf"], p[f"{name}_fv"], p[f"{name}_b"], activate)
            saved = None
            if encoding:
                base, saved = block_forward(ctx, base, *weights)
            h, _ = block_forward(ctx, h, *weights, rows=tables.rows[name], base=saved)
        elif step[0] == "pool":
            clustering = model.hierarchy.clustering(step[1])
            base, _ = pool_max_core(base, clustering)
            h, _ = pool_max_core(h, clustering)
        elif step[0] == "unpool":
            h = unpool_core(h, model.hierarchy.clustering(step[1]))
        else:
            encoding = False
            h, _ = bottleneck_forward(model, h, ctxn)
    return h


def _detect(model, subject, atlas, tables, normalized):
    """One-subject :class:`ScoreMatrix` of the ROIs of ``tables``.

    Non-finite features, or a non-finite score, are a DomainError naming
    the subject.
    """
    who = f"subject {subject.subject_id!r}"
    model.check_features(subject.features, who)
    if not np.all(np.isfinite(subject.features)):
        raise DomainError(f"{who} has non-finite features")
    xn = model.normalize(subject.features)
    xhat = _reconstruct(model, xn, model.normalize_context(subject.context), tables)
    scores = np.empty((len(tables.roi_ids), model.config.in_channels))
    for row, verts in enumerate(tables.vertices):
        resid = xhat[row] - xn
        if not normalized:
            resid = resid * model.norm_std[:, None]
        scores[row] = roi_residual_scores(resid, verts)
    if not np.all(np.isfinite(scores)):
        raise DomainError(f"{who} has non-finite anomaly scores")
    return ScoreMatrix(
        subject_ids=[subject.subject_id],
        hemisphere=atlas.hemisphere,
        channel_names=model.config.channel_names,
        roi_ids=tables.roi_ids,
        roi_names={r: atlas.names[r] for r in tables.roi_ids},
        scores=scores[None],
        roi_sizes=np.array([len(v) for v in tables.vertices]),
    )


def detect_roi(model, subject, atlas, roi_id, normalized=True):
    """Channel-summed anomaly score of one ROI.

    Masks exactly the ROI's vertices with the learned token, reconstructs
    them with the subject's context through the walk of
    :func:`detect_all` at R = 1, and averages the channel-summed l1
    residual over the ROI.  ``normalized=False`` reports the residual in
    raw feature units instead of z-scores.
    """
    matrix = _detect(model, subject, atlas, roi_tables(model, atlas, [roi_id]),
                     normalized)
    return float(matrix.scores[0, 0].sum())


def detect_all(model, subject, atlas, normalized=True, tables=None):
    """One-subject :class:`ScoreMatrix` of every labeled ROI (label 0
    excluded).

    Each ROI is scored on the subject with that ROI masked.  The encoder
    runs once on the unmasked subject and then recomputes, per ROI, only
    the rows the mask can change; the decoder computes only the rows the
    ROI's score reads (see :func:`roi_tables`).  Each score equals that of
    a standalone masked forward pass up to float64 rounding.  ``tables``
    are this model's and atlas's :func:`roi_tables` of every labeled
    ROI; they are built when not given.
    """
    if tables is None:
        tables = roi_tables(model, atlas, atlas.roi_ids())
    return _detect(model, subject, atlas, tables, normalized)


def cohort_scores(model, subjects, atlas, normalized=True):
    """Score a cohort subject by subject, in the given stable order.

    The :func:`roi_tables` are built once for the cohort, so an atlas
    that does not fit the model raises before any subject is scored.
    Subjects whose shape does not match the model are skipped with a
    warning and listed in ``skipped``; the others are still scored.  A
    subject with non-finite features or scores stops the cohort with a
    DomainError.
    """
    if len(subjects) == 0:
        raise UsageError("cohort is empty")
    tables = roi_tables(model, atlas, atlas.roi_ids())
    rows = []
    skipped = []
    for subject in subjects:
        try:
            rows.append(detect_all(model, subject, atlas, normalized=normalized,
                                   tables=tables))
        except ShapeError as exc:
            warnings.warn(f"skipping subject {subject.subject_id!r}: {exc}",
                          stacklevel=2)
            skipped.append((subject.subject_id, str(exc)))
    if not rows:
        raise UsageError("no subject in the cohort matches the model")
    return replace(
        rows[0],
        subject_ids=[sid for row in rows for sid in row.subject_ids],
        scores=np.concatenate([row.scores for row in rows]),
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

    The table must be the full subject x channel x ROI grid of one
    hemisphere.  A row the csv module rejects, a row of the wrong width,
    a bad value, a second hemisphere, a repeated (subject, channel,
    roi_id) cell, or a roi_name or n_vertices that differs from the
    first row of its roi_id is a ParseError at the byte offset of its
    line; a missing cell is one at offset 0.
    """
    cur = Cursor(path)
    lines = cur.lines()
    reader = csv.reader([line for _, line in lines])
    hemisphere = None
    rois = {}  # roi_id -> (roi_name, n_vertices, line) of its first row
    cells = {}  # (subject_id, channel, roi_id) -> score
    try:
        header = next(reader, None)
        if header is None or tuple(header) != REPORT_COLUMNS:
            raise cur.error(f"unexpected score table header {header}", 0)
        for fields in reader:
            line = reader.line_num
            offset = lines[line - 1][0]
            if len(fields) != len(REPORT_COLUMNS):
                raise cur.error(f"line {line}: {len(fields)} fields, expected "
                                f"{len(REPORT_COLUMNS)}", offset)
            sid, hemi, channel, roi_id, roi_name, n_vertices, score = fields
            try:
                roi_id, n_vertices, score = int(roi_id), int(n_vertices), float(score)
                if not math.isfinite(score):
                    raise ValueError("non-finite score")
            except ValueError:
                raise cur.error(f"line {line}: bad roi_id, n_vertices or score",
                                offset) from None
            if hemisphere is None:
                hemisphere = hemi
            elif hemi != hemisphere:
                raise cur.error(f"line {line}: hemisphere {hemi!r} in a "
                                f"{hemisphere!r} table", offset)
            first = rois.setdefault(roi_id, (roi_name, n_vertices, line))
            if first[:2] != (roi_name, n_vertices):
                raise cur.error(
                    f"line {line}: roi_id {roi_id} is {roi_name!r} with "
                    f"{n_vertices} vertices, but {first[0]!r} with {first[1]} "
                    f"on line {first[2]}", offset)
            if (sid, channel, roi_id) in cells:
                raise cur.error(f"line {line}: second row for subject {sid!r}, "
                                f"channel {channel!r}, roi_id {roi_id}", offset)
            cells[sid, channel, roi_id] = score
    except csv.Error as exc:
        line = reader.line_num
        raise cur.error(f"line {line}: {exc}", lines[line - 1][0]) from None
    if not cells:
        raise cur.error("score table has no rows", 0)
    subject_ids = list(dict.fromkeys(sid for sid, _, _ in cells))
    channels = tuple(dict.fromkeys(channel for _, channel, _ in cells))
    roi_ids = list(rois)
    scores = np.empty((len(subject_ids), len(roi_ids), len(channels)))
    for s, sid in enumerate(subject_ids):
        for c, channel in enumerate(channels):
            for r, rid in enumerate(roi_ids):
                if (sid, channel, rid) not in cells:
                    raise cur.error(f"no row for subject {sid!r}, channel "
                                    f"{channel!r}, roi_id {rid}", 0)
                scores[s, r, c] = cells[sid, channel, rid]
    return ScoreMatrix(
        subject_ids=subject_ids,
        hemisphere=hemisphere,
        channel_names=channels,
        roi_ids=roi_ids,
        roi_names={rid: rois[rid][0] for rid in roi_ids},
        scores=scores,
        roi_sizes=np.array([rois[rid][1] for rid in roi_ids]),
    )
