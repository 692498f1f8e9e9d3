import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, strategies as st

import oracles
from smmn import stats
from smmn.anomaly import ScoreMatrix
from smmn.errors import DomainError, ShapeError, UsageError


def test_anova_hand_example():
    f_stat, p, eta2 = stats.anova_oneway([1, 2, 3], [2, 3, 4])
    assert abs(f_stat - 1.5) < 1e-12
    assert abs(eta2 - 3.0 / 11.0) < 1e-12
    # SS_b = 1.5, SS_w = 4, SS_t = 5.5 by hand
    assert 0.0 < p < 1.0


def test_anova_identical_groups():
    f_stat, p, eta2 = stats.anova_oneway([2.0, 2.0, 2.0], [2.0, 2.0, 2.0])
    assert (f_stat, p, eta2) == (0.0, 1.0, 0.0)


def test_anova_equal_groups_elementwise():
    a = [1.0, 5.0, 2.0]
    f_stat, p, eta2 = stats.anova_oneway(a, list(a))
    assert f_stat == 0.0 and eta2 == 0.0 and p == 1.0


def test_anova_zero_within_variance():
    f_stat, p, eta2 = stats.anova_oneway([1.0, 1.0], [2.0, 2.0])
    assert math.isinf(f_stat) and p == 0.0 and eta2 == 1.0


def test_anova_group_size_guard():
    with pytest.raises(UsageError):
        stats.anova_oneway([1.0], [2.0, 3.0])


def test_anova_matches_scipy():
    rng = np.random.default_rng(0)
    for _ in range(25):
        a = rng.standard_normal(rng.integers(2, 12))
        b = rng.standard_normal(rng.integers(2, 12)) + rng.uniform(-1, 1)
        f_mine, p_mine, _ = stats.anova_oneway(a, b)
        f_ref, p_ref = scipy.stats.f_oneway(a, b)
        assert f_mine == pytest.approx(f_ref, rel=1e-10)
        assert p_mine == pytest.approx(p_ref, rel=1e-8, abs=1e-12)


def test_p_value_against_permutation_oracle_hand_example():
    # exact enumeration of all 20 splits of the pooled hand-example data
    p_perm = oracles.permutation_p_mid([1, 2, 3], [2, 3, 4])
    _, p, _ = stats.anova_oneway([1, 2, 3], [2, 3, 4])
    assert abs(p - p_perm) < 0.02


def test_p_values_against_permutation_oracle_random():
    rng = np.random.default_rng(2)
    worst = 0.0
    for trial in range(20):
        n_a = int(rng.integers(8, 13))
        n_b = int(rng.integers(8, 13))
        a = rng.standard_normal(n_a)
        b = rng.standard_normal(n_b) + rng.uniform(0, 1.5)
        _, p, _ = stats.anova_oneway(a, b)
        p_perm = oracles.permutation_p_mid(a, b, seed=1000 + trial)
        worst = max(worst, abs(p - p_perm))
    assert worst < 0.02


def test_eta2_identity_with_f():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.standard_normal(6)
        b = rng.standard_normal(8) + 0.5
        f_stat, _, eta2 = stats.anova_oneway(a, b)
        df_b, df_w = 1, len(a) + len(b) - 2
        implied = f_stat * df_b / (f_stat * df_b + df_w)
        assert abs(eta2 - implied) < 1e-12


def test_anova_shift_and_scale_invariance():
    rng = np.random.default_rng(2)
    a = rng.standard_normal(7)
    b = rng.standard_normal(5) + 0.8
    f0, _, e0 = stats.anova_oneway(a, b)
    f1, _, e1 = stats.anova_oneway(a + 13.7, b + 13.7)
    assert f1 == pytest.approx(f0, abs=1e-9, rel=1e-9)
    f2, _, e2 = stats.anova_oneway(a * 4.25, b * 4.25)
    assert f2 == pytest.approx(f0, abs=1e-9, rel=1e-9)
    assert e1 == pytest.approx(e0, abs=1e-9)
    assert e2 == pytest.approx(e0, abs=1e-9)


# -- F distribution ---------------------------------------------------------


def test_f_cdf_one_one_one():
    # closed form for (1, 1): (2/pi) arctan(sqrt(x))
    assert abs(stats.f_cdf(1.0, 1, 1) - 0.5) < 1e-10


def test_f_cdf_11_grid_matches_closed_form():
    for x in np.linspace(0.01, 50.0, 60):
        closed = 2.0 / math.pi * math.atan(math.sqrt(x))
        assert abs(stats.f_cdf(x, 1, 1) - closed) < 1e-10


def test_f_cdf_limits():
    assert stats.f_cdf(0.0, 3, 7) == 0.0
    assert stats.f_cdf(1e8, 3, 7) > 1.0 - 1e-12
    assert stats.f_cdf(math.inf, 3, 7) == 1.0


def test_f_cdf_monotone():
    xs = np.linspace(0.0, 30.0, 200)
    vals = [stats.f_cdf(x, 4, 11) for x in xs]
    assert np.all(np.diff(vals) >= 0.0)


def test_f_cdf_matches_scipy_special():
    rng = np.random.default_rng(3)
    for _ in range(200):
        d1 = int(rng.integers(1, 50))
        d2 = int(rng.integers(1, 50))
        x = float(rng.exponential(3.0))
        ref = scipy.special.betainc(d1 / 2, d2 / 2, d1 * x / (d1 * x + d2))
        assert abs(stats.f_cdf(x, d1, d2) - ref) < 1e-10


def test_f_cdf_domain_errors():
    with pytest.raises(DomainError):
        stats.f_cdf(1.0, 0, 5)
    with pytest.raises(DomainError):
        stats.f_cdf(-0.5, 2, 5)


# -- Benjamini-Hochberg -------------------------------------------------------


def test_bh_single_p_is_itself():
    q, reject = stats.bh_correct([0.3])
    assert q[0] == 0.3
    assert not reject[0]


def test_bh_two_values_hand():
    q, reject = stats.bh_correct([0.01, 0.04])
    np.testing.assert_allclose(q, [0.02, 0.04])
    assert reject.all()


def test_bh_four_values_all_rejected():
    # step-up thresholds i*alpha/m = 0.0125, 0.025, 0.0375, 0.05
    q, reject = stats.bh_correct([0.01, 0.02, 0.03, 0.04], alpha=0.05)
    assert reject.all()


def test_bh_original_order_preserved():
    p = [0.04, 0.01, 0.9, 0.02]
    q, _ = stats.bh_correct(p)
    q_sorted, _ = stats.bh_correct(sorted(p))
    np.testing.assert_allclose(sorted(q), q_sorted)


def test_bh_matches_scipy():
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = rng.uniform(size=int(rng.integers(1, 40)))
        q, _ = stats.bh_correct(p)
        ref = scipy.stats.false_discovery_control(p, method="bh")
        np.testing.assert_allclose(q, ref, atol=1e-12)


def test_bh_rejections_match_classic_step_up():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = int(rng.integers(1, 30))
        p = rng.uniform(size=m)
        alpha = 0.05
        _, reject = stats.bh_correct(p, alpha=alpha)
        # classic step-up: largest i with p_(i) < i alpha / m
        order = np.argsort(p)
        classic = np.zeros(m, dtype=bool)
        thresh = (np.arange(1, m + 1) * alpha) / m
        passing = np.flatnonzero(p[order] < thresh)
        if len(passing):
            classic[order[: passing.max() + 1]] = True
        np.testing.assert_array_equal(reject, classic)


def test_bh_q_equal_to_alpha_is_not_rejected():
    q, reject = stats.bh_correct([0.05], alpha=0.05)
    assert q[0] == 0.05
    assert not reject[0]
    q, reject = stats.bh_correct([0.025, 0.05], alpha=0.05)
    np.testing.assert_array_equal(q, [0.05, 0.05])
    assert not reject.any()


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
def test_bh_q_monotone_in_sorted_order(pvals):
    q, _ = stats.bh_correct(pvals)
    assert np.all((q >= 0.0) & (q <= 1.0))
    order = np.argsort(pvals, kind="stable")
    assert np.all(np.diff(q[order]) >= -1e-15)


def test_bh_rejects_bad_pvalues():
    with pytest.raises(UsageError):
        stats.bh_correct([0.5, 1.2])


# -- effect report ------------------------------------------------------------


def _matrix(scores, hemisphere="left", subject_prefix="s"):
    scores = np.asarray(scores, dtype=float)
    n_subj, n_roi, n_ch = scores.shape
    return ScoreMatrix(
        subject_ids=[f"{subject_prefix}{i}" for i in range(n_subj)],
        hemisphere=hemisphere,
        channel_names=tuple(f"ch{c}" for c in range(n_ch)),
        roi_ids=list(range(1, n_roi + 1)),
        roi_names={r: f"roi_{r}" for r in range(1, n_roi + 1)},
        scores=scores,
        roi_sizes=np.full(n_roi, 10),
    )


def test_effect_report_identical_groups_empty():
    rng = np.random.default_rng(6)
    base = rng.uniform(0.5, 1.0, size=(8, 5, 1))
    report = stats.effect_report(_matrix(base), _matrix(base.copy()))
    assert report.significant == []
    assert len(report.rows) == 5


def test_effect_report_row_count():
    rng = np.random.default_rng(7)
    a = _matrix(rng.uniform(size=(6, 4, 2)))
    b = _matrix(rng.uniform(size=(5, 4, 2)))
    report = stats.effect_report(a, b)
    assert len(report.rows) == 4 * 2  # ROIs x channels x hemispheres


def test_effect_report_detects_shifted_roi():
    rng = np.random.default_rng(8)
    a = rng.normal(1.0, 0.05, size=(20, 6, 1))
    b = rng.normal(1.0, 0.05, size=(20, 6, 1))
    b[:, 2, 0] += 1.0  # large shift in ROI id 3
    report = stats.effect_report(_matrix(a), _matrix(b))
    assert report.significant
    assert report.significant[0].roi_id == 3
    assert report.significant[0].eta2 == max(r.eta2 for r in report.significant)
    etas = [r.eta2 for r in report.significant]
    assert etas == sorted(etas, reverse=True)


def test_eta2_svg_escapes_roi_and_channel_names(tmp_path):
    # Label-table ROI names and manifest channel names are free text; the
    # chart must stay well-formed XML and show them as written.
    rng = np.random.default_rng(9)
    a = rng.normal(1.0, 0.05, size=(20, 3, 1))
    b = rng.normal(1.0, 0.05, size=(20, 3, 1))
    b[:, 1, 0] += 1.0
    ma, mb = _matrix(a), _matrix(b)
    for m in (ma, mb):
        m.roi_names[2] = "Banks of STS & <insula>"
        m.channel_names = ("thick<ness>",)
    report = stats.effect_report(ma, mb)
    assert [r.roi_id for r in report.significant] == [2]
    stats.write_eta2_svg(report, tmp_path / "eta2.svg")
    texts = [t.text for t in ET.parse(tmp_path / "eta2.svg").getroot()
             if t.tag.endswith("text")]
    assert "left thick<ness> Banks of STS & <insula>" in texts


def test_effect_report_q_equal_to_alpha_neither_rejected_nor_significant(monkeypatch):
    monkeypatch.setattr(stats, "anova_oneway", lambda a, b: (4.0, 0.05, 0.2))
    rng = np.random.default_rng(13)
    report = stats.effect_report(_matrix(rng.uniform(size=(4, 1, 1))),
                                 _matrix(rng.uniform(size=(4, 1, 1))), alpha=0.05)
    assert report.rows[0].q == 0.05
    assert not report.rows[0].rejected
    assert report.significant == []


@pytest.mark.parametrize("alpha", [math.nan, 0.0, -1.0, 1.0, 2.0, math.inf])
def test_effect_report_rejects_alpha_outside_0_1(alpha):
    rng = np.random.default_rng(14)
    a, b = (_matrix(rng.uniform(size=(4, 2, 1))) for _ in range(2))
    with pytest.raises(UsageError, match="alpha"):
        stats.effect_report(a, b, alpha=alpha)


def test_effect_report_small_group_marked_untested():
    rng = np.random.default_rng(9)
    a = _matrix(rng.uniform(size=(1, 3, 1)))
    b = _matrix(rng.uniform(size=(6, 3, 1)))
    report = stats.effect_report(a, b)
    assert all(not row.tested for row in report.rows)
    assert report.significant == []


def test_effect_report_bh_family_is_per_channel():
    rng = np.random.default_rng(10)
    a = rng.normal(0.0, 0.01, size=(15, 3, 2))
    b = rng.normal(0.0, 0.01, size=(15, 3, 2))
    b[:, 0, 0] += 1.0
    report = stats.effect_report(_matrix(a), _matrix(b))
    by_channel = {}
    for row in report.rows:
        by_channel.setdefault(row.channel, []).append(row)
    for channel, rows in by_channel.items():
        qs, _ = stats.bh_correct([r.p for r in rows])
        np.testing.assert_allclose([r.q for r in rows], qs, atol=1e-15)


def test_effect_report_alignment_guard():
    rng = np.random.default_rng(11)
    a = _matrix(rng.uniform(size=(4, 3, 1)))
    b = _matrix(rng.uniform(size=(4, 4, 1)))
    with pytest.raises(ShapeError, match="roi_ids"):
        stats.effect_report(a, b)
    c = _matrix(rng.uniform(size=(4, 3, 1)), hemisphere="right")
    with pytest.raises(ShapeError, match="hemisphere"):
        stats.effect_report(a, c)


def test_stats_csv_emission(tmp_path):
    rng = np.random.default_rng(12)
    a = _matrix(rng.normal(1.0, 0.1, size=(10, 3, 1)))
    b_scores = rng.normal(1.0, 0.1, size=(10, 3, 1))
    b_scores[:, 1, 0] += 2.0
    b = _matrix(b_scores)
    report = stats.effect_report(a, b)
    out = tmp_path / "stats.csv"
    stats.write_stats_csv(report, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "hemisphere,channel,roi_id,roi_name,n_a,n_b,f_stat,p,q,eta2,rejected"
    assert len(lines) == 1 + len(report.rows)
    svg = tmp_path / "eta2.svg"
    stats.write_eta2_svg(report, svg)
    content = svg.read_text()
    assert content.startswith("<svg") and content.rstrip().endswith("</svg>")
    assert "roi_2" in content
