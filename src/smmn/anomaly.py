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
score reads only its ROI, so detection runs the network's one forward
walk, :func:`~smmn.net.forward_core`, once for all R copies on compact
rows.  Each step computes only its selected (vertex, ROI) rows and keeps
them as a (C, P) table, not as an (R, C, N) one.  In the encoder these
are its support, the rows that ROI's mask can reach, and every encoder
step also computes the unmasked subject's rows (the base, B = 1), which
every other row equals and reads.  A pool computes the coarse rows with
a selected member; the bottleneck reads and writes every row of the
coarsest level.  Each decoder step computes only its demand, the rows
that ROI's score reads through the steps after it, and a read outside
the demand reaches a NaN row, so it makes the score non-finite and stops
detection.  :func:`roi_tables` builds the supports, the demands and each
step's gather indices, once per cohort.  Scores equal those of one
standalone masked forward pass per ROI up to float64 rounding, and
exactly for a single ROI (:func:`detect_roi`), whatever the order and
the channel widths (see :mod:`smmn.conv`).

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

from . import conv
from .errors import DomainError, ShapeError, UsageError
from .io import Cursor
from .net import ContextVector, forward_core


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

    ``vertices[r]`` are the vertices of ROI ``roi_ids[r]``.  ``rows``
    holds, in plan order, the :class:`~smmn.conv.RowSelection` that each
    step computes, a (facet, vertex) pair for a conv block (its support
    in the encoder, its demand in the decoder): the ``rows`` of
    :func:`~smmn.net.forward_core`.  ``scored[r]`` are the rows of the
    walk's output that ROI r's score reads, one per vertex of
    ``vertices[r]``.
    """

    roi_ids: list
    vertices: list
    rows: list
    scored: list


def roi_tables(model, atlas, roi_ids):
    """The :class:`RoiTables` of the given ROIs.

    Every mask is an (N, R) boolean table, one column per ROI, and each
    starts from the ROI's own vertices.  A block's facets are those with
    a corner in its mask, and the vertices with an incident facet among
    them are one ring wider.  The encoder walks the plan forward: a
    block computes its facets and that wider ring, which is the next
    block's mask.  The decoder walks it backward from the output: a
    block computes its facets and its mask, and the wider ring is the
    demand on its input.  A pool or an unpool marks a coarse vertex when
    any of its cluster's fine vertices is marked, through the cluster
    member matrix; the bottleneck reads and writes every row.

    Each step's selection then reads the rows the step before computed,
    through its :meth:`~smmn.conv.RowSelection.positions`: an encoder
    entry outside them reads the subject's unmasked row, which every
    encoder step also computes, and a decoder entry the NaN row after
    them (see :func:`~smmn.net.forward_core`).
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
    masks = {mid: np.ones((model.config.bottleneck_vertices, len(roi_ids)), bool)}
    for encoder, steps in ((True, range(mid)), (False, range(len(plan) - 1, mid, -1))):
        mask = roi_mask
        for i in steps:
            step = plan[i]
            if step[0] == "block":
                ctx = model.context_of(step[2])
                facets = mask[ctx.corners].any(axis=0)  # (F, R)
                reach = facets[ctx.slot_facets].any(axis=0)  # (V, R)
                masks[i] = facets, reach if encoder else mask
                mask = reach
            else:
                coarse = model.hierarchy.clustering(step[1]).member_matrix @ mask > 0
                masks[i], mask = coarse if encoder else mask, coarse
    rows = []
    out = conv.RowSelection(roi_mask, None, True)  # the ROI-masked input
    for i, step in enumerate(plan):
        reads = out.positions()
        if step[0] == "block":
            rows.append(model.context_of(step[2]).select(*masks[i], reads, i < mid))
        elif step[0] == "bottleneck":
            rows.append(conv.gathering(masks[i], np.arange(len(masks[i])), reads))
        else:
            clustering = model.hierarchy.clustering(step[1])
            pool = step[0] == "pool"
            rows.append(conv.gathering(
                masks[i], clustering.table if pool else clustering.parent, reads, pool))
        out = rows[-1][1] if step[0] == "block" else rows[-1]
    reads = out.positions()
    scored = [reads[verts, r] for r, verts in enumerate(vertices)]
    return RoiTables([int(r) for r in roi_ids], vertices, rows, scored)


def _reconstruct(model, xn, ctxn, tables):
    """The (C_in, P + 1) rows that the scores of the normalized subject
    ``xn`` read, rows ``tables.scored[r]`` being ROI r's reconstruction
    with ROI r masked: the sparse walk of the module docstring, one
    :func:`~smmn.net.forward_core` on the selections of ``tables``, its
    input the mask token at every ROI vertex, then the subject's rows,
    and its context ``ctxn`` for each ROI."""
    token = np.broadcast_to(model.params["mask_token"],
                            (sum(map(len, tables.vertices)), len(xn)))
    h = np.concatenate([token, xn.T]).T  # the ROI-masked rows, then the subject's
    ctx = np.broadcast_to(ctxn, (len(tables.roi_ids), len(ctxn)))
    return forward_core(model, h, ctx, rows=tables.rows)[0]


def detect_roi(model, subject, atlas, roi_id, normalized=True):
    """Channel-summed anomaly score of one ROI.

    Masks exactly the ROI's vertices with the learned token, reconstructs
    them with the subject's context through the walk of
    :func:`detect_all` at R = 1, and averages the channel-summed l1
    residual over the ROI.  ``normalized=False`` reports the residual in
    raw feature units instead of z-scores.
    """
    matrix = detect_all(model, subject, atlas, normalized,
                        roi_tables(model, atlas, [roi_id]))
    return float(matrix.scores[0, 0].sum())


def detect_all(model, subject, atlas, normalized=True, tables=None):
    """One-subject :class:`ScoreMatrix` of the ROIs of ``tables``, this
    model's and atlas's :func:`roi_tables`; by default every labeled ROI
    (label 0 excluded).

    Each ROI is scored on the subject with that ROI masked.  The encoder
    runs once on the unmasked subject and then recomputes, per ROI, only
    the rows the mask can change; the decoder computes only the rows the
    ROI's score reads (see :func:`roi_tables`).  Each score equals that of
    a standalone masked forward pass up to float64 rounding.  Non-finite
    features, or a non-finite score, are a DomainError naming the subject.
    """
    if tables is None:
        tables = roi_tables(model, atlas, atlas.roi_ids())
    who = f"subject {subject.subject_id!r}"
    model.check_features(subject.features, who)
    if not np.all(np.isfinite(subject.features)):
        raise DomainError(f"{who} has non-finite features")
    xn = model.normalize(subject.features)
    xhat = _reconstruct(model, xn, model.normalize_context(subject.context), tables).T
    scores = np.empty((len(tables.roi_ids), model.config.in_channels))
    for row, (verts, reads) in enumerate(zip(tables.vertices, tables.scored)):
        resid = xhat.take(reads, axis=0).T - xn[:, verts]
        if not normalized:
            resid = resid * model.norm_std[:, None]
        scores[row] = roi_residual_scores(resid, slice(None))
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
