"""Two-group ANOVA, eta-squared effect sizes, and BH multiple testing.

Anomaly scores of patients and controls, one score table per group of
one hemisphere, are compared per (ROI, channel) with a one-way ANOVA
(k = 2 groups).  P-values are the F distribution's upper tail from
``scipy.special.fdtrc``; the Benjamini-Hochberg step-up procedure
(numpy, see :func:`bh_correct`) corrects each feature channel's family
of tests, and the final report keeps the rejected rows (corrected q
below the significance level), sorted by eta squared.
"""

from dataclasses import dataclass
import csv
import math
from xml.sax.saxutils import escape

import numpy as np
import scipy.special

from .errors import DomainError, ShapeError, UsageError


def f_cdf(x, d1, d2):
    """CDF of the F distribution with (d1, d2) degrees of freedom (scipy)."""
    if d1 < 1 or d2 < 1:
        raise DomainError(f"degrees of freedom must be >= 1, got ({d1}, {d2})")
    if not x >= 0.0:
        raise DomainError(f"F statistic must be non-negative, got {x}")
    return float(scipy.special.fdtr(d1, d2, x))


def anova_oneway(group_a, group_b):
    """Two-group one-way ANOVA: returns (F, p, eta squared).

    Degenerate conventions: zero within-group variance with distinct
    means gives (inf, 0, 1); completely constant data gives (0, 1, 0).
    """
    a = np.asarray(group_a, dtype=np.float64)
    b = np.asarray(group_b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise UsageError("each group needs at least 2 observations")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise UsageError("groups contain non-finite values")
    n = a.size + b.size
    grand = (a.sum() + b.sum()) / n
    ss_between = a.size * (a.mean() - grand) ** 2 + b.size * (b.mean() - grand) ** 2
    ss_within = ((a - a.mean()) ** 2).sum() + ((b - b.mean()) ** 2).sum()
    ss_total = ss_between + ss_within
    df_between = 1
    df_within = n - 2
    if ss_total <= 0.0:
        return 0.0, 1.0, 0.0
    if ss_within <= 0.0:
        return math.inf, 0.0, 1.0
    f_stat = (ss_between / df_between) / (ss_within / df_within)
    p = scipy.special.fdtrc(df_between, df_within, f_stat)
    eta2 = ss_between / ss_total
    return float(f_stat), float(p), float(eta2)


def bh_correct(pvalues, alpha=0.05):
    """Benjamini-Hochberg step-up q-values and rejection flags.

    q_(i) = min over j >= i of m p_(j) / j, clamped to 1, returned in the
    original order; rejects where q < alpha.  The q-values are those of
    ``scipy.stats.false_discovery_control``, which is not called because
    importing ``scipy.stats`` costs ``smmn stats`` 0.8 s and 32 MiB.
    """
    p = np.asarray(pvalues, dtype=np.float64)
    if p.size == 0:
        return np.array([]), np.array([], dtype=bool)
    if np.any((p < 0.0) | (p > 1.0)) or not np.all(np.isfinite(p)):
        raise UsageError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    scaled = p[order] * m / np.arange(1, m + 1)
    q_sorted = np.minimum.accumulate(scaled[::-1])[::-1]
    q_sorted = np.minimum(q_sorted, 1.0)
    q = np.empty_like(q_sorted)
    q[order] = q_sorted
    return q, q < alpha


@dataclass
class GroupStats:
    """One ANOVA row of the group-difference report."""

    hemisphere: str
    channel: str
    roi_id: int
    roi_name: str
    n_a: int
    n_b: int
    f_stat: float
    p: float
    q: float
    eta2: float
    rejected: bool
    tested: bool = True


@dataclass
class EffectReport:
    """Full ANOVA table plus the q-filtered, eta-sorted significant view."""

    rows: list
    significant: list
    alpha: float


def effect_report(scores_a, scores_b, alpha=0.05):
    """Group comparison of two anomaly-score cohorts.

    ``scores_a`` / ``scores_b`` are the :class:`~smmn.anomaly.ScoreMatrix`
    of group A and of group B, aligned on ROIs, channels and hemisphere;
    a pair that differs in any of them is a ShapeError.  BH correction
    runs per feature channel across all ROIs; rows with q < alpha survive
    into ``significant``, sorted by descending eta squared.  Groups too
    small to test are marked untested and excluded from the BH family.
    ``alpha`` must lie strictly between 0 and 1 (UsageError otherwise).
    """
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    for what in ("roi_ids", "channel_names", "hemisphere"):
        in_a, in_b = getattr(scores_a, what), getattr(scores_b, what)
        if in_a != in_b:
            raise ShapeError(f"the groups differ in {what}: {in_a} in A, "
                             f"{in_b} in B")
    rows = []
    for c, channel in enumerate(scores_a.channel_names):
        for r, rid in enumerate(scores_a.roi_ids):
            col_a = scores_a.scores[:, r, c]
            col_b = scores_b.scores[:, r, c]
            tested = col_a.size >= 2 and col_b.size >= 2
            if tested:
                f_stat, p, eta2 = anova_oneway(col_a, col_b)
            else:
                f_stat = p = eta2 = math.nan
            rows.append(
                GroupStats(
                    hemisphere=scores_a.hemisphere,
                    channel=channel,
                    roi_id=rid,
                    roi_name=scores_a.roi_names[rid],
                    n_a=col_a.size,
                    n_b=col_b.size,
                    f_stat=f_stat,
                    p=p,
                    q=math.nan,
                    eta2=eta2,
                    rejected=False,
                    tested=tested,
                )
            )
    for channel in dict.fromkeys(row.channel for row in rows):
        family = [row for row in rows if row.channel == channel and row.tested]
        if not family:
            continue
        q, reject = bh_correct([row.p for row in family], alpha=alpha)
        for row, qv, rej in zip(family, q, reject):
            row.q = float(qv)
            row.rejected = bool(rej)
    significant = sorted(
        (row for row in rows if row.rejected),
        key=lambda row: -row.eta2,
    )
    return EffectReport(rows=rows, significant=significant, alpha=alpha)


STATS_COLUMNS = (
    "hemisphere",
    "channel",
    "roi_id",
    "roi_name",
    "n_a",
    "n_b",
    "f_stat",
    "p",
    "q",
    "eta2",
    "rejected",
)


def write_stats_csv(report, path):
    """Emit the fixed-column group statistics table."""
    with open(path, "w", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(STATS_COLUMNS)
        for row in report.rows:
            writer.writerow(
                [
                    row.hemisphere,
                    row.channel,
                    row.roi_id,
                    row.roi_name,
                    row.n_a,
                    row.n_b,
                    repr(row.f_stat),
                    repr(row.p),
                    repr(row.q),
                    repr(row.eta2),
                    int(row.rejected),
                ]
            )


def write_eta2_svg(report, path, width=640, bar_height=18):
    """Bar chart of eta squared for the significant rows, as plain SVG."""
    rows = report.significant
    pad, label_w = 8, 240
    height = pad * 2 + max(1, len(rows)) * (bar_height + 4) + 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="sans-serif" font-size="12">',
        f'<text x="{pad}" y="{pad + 10}">eta squared of significant ROIs '
        f"(q &lt; {report.alpha:g})</text>",
    ]
    span = width - label_w - 3 * pad
    y = pad + 20
    if not rows:
        parts.append(f'<text x="{pad}" y="{y + 12}">none</text>')
    for row in rows:
        frac = 0.0 if not math.isfinite(row.eta2) else max(0.0, min(1.0, row.eta2))
        bar = frac * span
        label = escape(f"{row.hemisphere} {row.channel} {row.roi_name}")
        parts.append(f'<text x="{pad}" y="{y + bar_height - 5}">{label}</text>')
        parts.append(
            f'<rect x="{label_w}" y="{y}" width="{bar:.1f}" '
            f'height="{bar_height}" fill="#4878b0"/>'
        )
        parts.append(
            f'<text x="{label_w + bar + 4:.1f}" y="{y + bar_height - 5}">'
            f"{row.eta2:.3f}</text>"
        )
        y += bar_height + 4
    parts.append("</svg>")
    with open(path, "w") as fp:
        fp.write("\n".join(parts))
        fp.write("\n")
