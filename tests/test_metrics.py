"""Frame accuracy, edit score, segmental F1, group reports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltseg import metrics as mx
from ltseg import seqdata as sd
from ltseg.errors import ConfigError


def runs(labels):
    """Per-segment labels of a frame labeling."""
    return sd.segmentation_from_frames(labels)[2]


def f1(pred, truth, num_classes, thr):
    """(global F1, per-class F1) of one video pair at one threshold."""
    return mx.evaluate([pred], [truth], num_classes, thresholds=(thr,)).f1_at[thr]


# -- frame accuracy ----------------------------------------------------------


def test_frame_accuracy_perfect():
    truth = np.array([0, 1, 2, 1, 0])
    assert mx.frame_accuracy(truth, truth) == (100.0, 100.0)


def test_frame_accuracy_majority_predictor():
    truth = np.array([0] * 90 + [1] * 10)
    pred = np.zeros(100, np.int64)
    global_acc, per_class = mx.frame_accuracy(pred, truth)
    assert global_acc == pytest.approx(90.0)
    assert per_class == pytest.approx(50.0)


def test_frame_accuracy_matches_tally_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 200))
        L = int(rng.integers(2, 6))
        truth = rng.integers(0, L, n)
        pred = rng.integers(0, L, n)
        global_acc, per_class = mx.frame_accuracy(pred, truth, L)
        correct = sum(1 for p, t in zip(pred, truth) if p == t)
        assert global_acc == pytest.approx(100.0 * correct / n)
        recalls = []
        for c in range(L):
            total = sum(1 for t in truth if t == c)
            if total:
                good = sum(1 for p, t in zip(pred, truth) if t == c and p == c)
                recalls.append(good / total)
        assert per_class == pytest.approx(100.0 * np.mean(recalls))


def test_frame_accuracy_balanced_symmetric():
    truth = np.array([0, 0, 1, 1])
    pred = np.array([0, 1, 1, 0])
    global_acc, per_class = mx.frame_accuracy(pred, truth)
    assert global_acc == per_class == 50.0


def test_frame_accuracy_length_mismatch():
    with pytest.raises(ConfigError):
        mx.frame_accuracy([0, 1], [0, 1, 1])


# -- edit score --------------------------------------------------------------


def _levenshtein_oracle(a, b):
    # classic two-row dynamic program, written independently of the kernel
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, y in enumerate(b, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y))
        prev = cur
    return prev[-1]


def test_edit_score_examples():
    assert mx.edit_score([1, 2, 3], [1, 2, 3]) == 100.0
    assert mx.edit_score([0, 1, 0], [0, 1]) == pytest.approx(100 * (1 - 1 / 3))
    assert mx.edit_score([0, 1, 0], [2, 3, 2]) == 0.0
    assert mx.edit_score([], []) == 100.0
    assert mx.edit_score([1, 2], []) == 0.0


def test_edit_score_matches_dp_oracle():
    rng = np.random.default_rng(11)
    for _ in range(300):
        a = rng.integers(0, 5, rng.integers(0, 15)).tolist()
        b = rng.integers(0, 5, rng.integers(0, 15)).tolist()
        got = mx.edit_score(a, b)
        longer = max(len(a), len(b))
        want = 100.0 if not longer else 100.0 * (1 - _levenshtein_oracle(a, b) / longer)
        assert got == pytest.approx(want)


def test_edit_score_symmetry_and_duration_invariance():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = rng.integers(0, 4, rng.integers(1, 10)).tolist()
        b = rng.integers(0, 4, rng.integers(1, 10)).tolist()
        assert mx.edit_score(a, b) == mx.edit_score(b, a)
    # stretching segment durations must not move the score
    want = mx.edit_score(runs([0, 0, 1, 2, 2, 0]), runs([0, 1, 1, 2, 0, 0]))
    stretched_pred = runs([0] * 7 + [1] * 2 + [2] * 9 + [0] * 3)
    stretched_truth = runs([0] * 2 + [1] * 11 + [2] * 5 + [0] * 4)
    assert mx.edit_score(stretched_pred, stretched_truth) == want


@settings(database=None, derandomize=True, deadline=None)
@given(
    st.lists(st.integers(0, 4), max_size=25),
    st.lists(st.integers(0, 4), max_size=25),
)
def test_edit_score_symmetric_and_in_range(a, b):
    score = mx.edit_score(a, b)
    assert score == mx.edit_score(b, a)
    assert 0.0 <= score <= 100.0


# -- segmental F1 ------------------------------------------------------------


def _counts_oracle(pred, truth, num_classes, thr):
    """Per-class [tp, fp, fn] rows by the same matching rule, written with
    frame sets instead of interval arithmetic."""
    gt = [
        {"frames": set(range(s, e + 1)), "label": label, "used": False}
        for s, e, label in zip(*sd.segmentation_from_frames(truth))
    ]
    counts = np.zeros((3, num_classes), dtype=np.int64)
    for s, e, label in zip(*sd.segmentation_from_frames(pred)):
        frames = set(range(s, e + 1))
        best, best_iou = None, 0.0
        for entry in gt:
            if entry["used"] or entry["label"] != label:
                continue
            iou = len(frames & entry["frames"]) / len(frames | entry["frames"])
            if iou > best_iou:
                best, best_iou = entry, iou
        if best is not None and best_iou >= thr:
            counts[0, label] += 1
            best["used"] = True
        else:
            counts[1, label] += 1
    for entry in gt:
        counts[2, entry["label"]] += not entry["used"]
    return counts


def _match(pred, truth, num_classes, thr):
    counts = np.zeros((3, num_classes), dtype=np.int64)
    mx._match_counts(
        sd.segmentation_from_frames(pred), sd.segmentation_from_frames(truth),
        thr, counts,
    )
    return counts


def test_f1_perfect():
    truth = np.array([0, 0, 1, 1, 2])
    for thr in (0.1, 0.25, 0.5, 0.99):
        assert f1(truth, truth, 3, thr) == (100.0, 100.0)


def test_f1_half_overlap_thresholds():
    truth = np.array([0] * 100)
    pred = np.array([0] * 50 + [1] * 50)
    # P(0..49, label 0) has IoU 0.5 with the single truth segment
    for thr in (0.10, 0.25, 0.50):
        global_f1, _ = f1(pred, truth, 2, thr)
        # one TP (label 0) and one FP (label 1): F1 = 2/(2+1)
        assert global_f1 == pytest.approx(100 * 2 / 3)
    global_f1, _ = f1(pred, truth, 2, 0.6)
    assert global_f1 == 0.0


def test_match_counts_rows():
    # predicted run 0 matches the first truth 0 run (IoU 2/3), so the
    # second is a miss; predicted run 1 reaches IoU 2/5 with the truth 1
    # run, short of 0.5; class 2 is not in the truth at all
    pred = np.array([0, 0, 2, 2, 1, 1, 1, 1])
    truth = np.array([0, 0, 0, 1, 1, 1, 0, 0])
    counts = _match(pred, truth, 3, 0.5)
    assert counts.tolist() == [[1, 0, 0], [0, 1, 1], [1, 1, 0]]
    assert np.array_equal(counts, _counts_oracle(pred, truth, 3, 0.5))


def test_f1_matches_frame_set_oracle():
    rng = np.random.default_rng(23)
    for _ in range(400):
        n = int(rng.integers(1, 20))
        pred = rng.integers(0, 3, n)
        truth = rng.integers(0, 3, n)
        thr = float(rng.choice([0.1, 0.25, 0.5, 0.75]))
        want = _counts_oracle(pred, truth, 3, thr)
        assert np.array_equal(_match(pred, truth, 3, thr), want)
        tp, fp, fn = want.sum(axis=1)
        got_global, _ = f1(pred, truth, 3, thr)
        assert got_global == pytest.approx(100.0 * 2 * tp / (2 * tp + fp + fn))


def test_f1_monotone_in_threshold():
    rng = np.random.default_rng(29)
    thresholds = (0.05, 0.1, 0.25, 0.5, 0.75, 0.9)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        pred = rng.integers(0, 4, n)
        truth = rng.integers(0, 4, n)
        f1_at = mx.evaluate([pred], [truth], 4, thresholds=thresholds).f1_at
        scores = [f1_at[thr][0] for thr in thresholds]
        assert all(a >= b for a, b in zip(scores, scores[1:]))


@st.composite
def scored_pairs(draw):
    """Equal-length prediction and truth labelings and two thresholds."""
    n = draw(st.integers(1, 30))
    frames = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    low, high = sorted(
        draw(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2))
    )
    return np.array(draw(frames)), np.array(draw(frames)), low, high


@settings(database=None, derandomize=True, deadline=None)
@given(scored_pairs())
def test_f1_does_not_rise_with_threshold(case):
    pred, truth, low, high = case
    f1_at = mx.evaluate([pred], [truth], 4, thresholds=(low, high)).f1_at
    assert f1_at[high][0] <= f1_at[low][0]  # global
    assert f1_at[high][1] <= f1_at[low][1]  # per class


def test_f1_takes_best_unmatched_segment():
    # truth runs: 0 [0-4], 1 [5], 0 [6], 1 [7-8]; predicted 0 [3-6] reaches
    # IoU 2/7 with the truth 0 [0-4] that predicted 0 [0-1] already took,
    # and IoU 1/4 with the unmatched truth 0 [6], which it takes. A rule
    # that picks the best of all same-label segments would count it an fp.
    truth = np.array([0, 0, 0, 0, 0, 1, 0, 1, 1])
    pred = np.array([0, 0, 1, 0, 0, 0, 0, 1, 1])
    counts = _match(pred, truth, 2, 0.25)
    assert counts.tolist() == [[2, 1], [0, 1], [0, 1]]  # tp, fp, fn rows
    assert np.array_equal(counts, _counts_oracle(pred, truth, 2, 0.25))


def test_f1_threshold_range():
    truth = np.array([0, 1])
    for thr in (0.0, 1.0):
        with pytest.raises(ConfigError, match="IoU threshold"):
            f1(truth, truth, 2, thr)


# -- evaluate / reports ------------------------------------------------------


def _hand_worked_instance():
    truth = [np.array([0] * 4 + [1] * 4 + [2] * 4 + [3] * 4)]
    pred = [np.array([0, 0, 0, 0, 1, 1, 2, 2, 2, 2, 1, 1, 3, 3, 3, 0])]
    return pred, truth


def test_evaluate_hand_worked():
    pred, truth = _hand_worked_instance()
    report = mx.evaluate(pred, truth, num_classes=4, head={0, 1})
    assert report.global_acc == pytest.approx(100 * 11 / 16)
    assert report.per_class_acc == pytest.approx(100 * (1 + 0.5 + 0.5 + 0.75) / 4)
    # pred segment labels 0,1,2,1,3,0 vs truth 0,1,2,3: distance 2 of 6
    assert report.edit_score == pytest.approx(100 * (1 - 2 / 6))
    global_f1, per_class_f1 = report.f1_at[0.25]
    assert global_f1 == pytest.approx(80.0)  # TP=4 FP=2 FN=0
    assert per_class_f1 == pytest.approx((200 / 3 + 200 / 3 + 100 + 100) / 4)
    head = report.group["head"]
    tail = report.group["tail"]
    assert head.per_class_acc == pytest.approx(75.0)
    assert tail.per_class_acc == pytest.approx(62.5)
    assert head.per_class_f1_25 == pytest.approx(200 / 3)
    assert tail.per_class_f1_25 == pytest.approx(100.0)
    assert not head.empty and not tail.empty
    assert report.counts.tolist() == [4, 4, 4, 4]
    # the groups read F1@0.25 even when it is not a reported threshold
    other = mx.evaluate(pred, truth, num_classes=4, thresholds=(0.5,), head={0, 1})
    assert list(other.f1_at) == [0.5]
    assert other.group["head"].per_class_f1_25 == head.per_class_f1_25
    assert other.group["tail"].per_class_f1_25 == tail.per_class_f1_25


def test_evaluate_refuses_pairs_of_unequal_length():
    # equal totals (4 frames each side) must not hide a short pair
    with pytest.raises(ConfigError, match="pair 0: 3 predicted vs 2 truth"):
        mx.evaluate([[0, 0, 1], [1]], [[0, 0], [1, 1]], 2)
    with pytest.raises(ConfigError, match="pair 1: 1 predicted vs 2 truth"):
        mx.evaluate([[0, 0], [1]], [[0, 0], [1, 1]], 2)


def test_evaluate_perfect_both_groups():
    truth = [np.array([0, 0, 1, 1, 2]), np.array([2, 2, 0, 1, 1])]
    report = mx.evaluate(truth, truth, num_classes=3, head={0})
    assert report.group["head"].per_class_acc == 100.0
    assert report.group["tail"].per_class_acc == 100.0
    assert report.group["head"].per_class_f1_25 == 100.0
    assert report.group["tail"].per_class_f1_25 == 100.0


def test_evaluate_all_head_flags_tail_empty():
    truth = [np.array([0, 0, 1])]
    report = mx.evaluate(truth, truth, num_classes=2, head={0, 1})
    assert report.group["tail"].empty
    assert not report.group["head"].empty


def test_evaluate_pools_f1_over_videos():
    # video 1 perfect, video 2 fully wrong label
    truth = [np.array([0, 0, 0]), np.array([1, 1, 1])]
    pred = [np.array([0, 0, 0]), np.array([0, 0, 0])]
    pooled = mx.evaluate(pred, truth, num_classes=2)
    # pooled at 0.25: TP=1 (video 1), FP=1, FN=1 -> 50
    assert pooled.f1_at[0.25][0] == pytest.approx(50.0)


def test_evaluate_scores_in_range():
    rng = np.random.default_rng(41)
    for _ in range(20):
        truth = [rng.integers(0, 3, rng.integers(2, 30)) for _ in range(3)]
        pred = [rng.integers(0, 3, t.size) for t in truth]
        report = mx.evaluate(pred, truth, num_classes=3, head={0})
        values = [report.global_acc, report.per_class_acc, report.edit_score]
        values += [v for pair in report.f1_at.values() for v in pair]
        assert all(0.0 <= v <= 100.0 for v in values)


def test_report_exports():
    pred, truth = _hand_worked_instance()
    report = mx.evaluate(pred, truth, num_classes=4, head={0, 1})
    data = mx.report_to_dict(report)
    assert data["global_acc"] == round(100 * 11 / 16, 2)
    assert data["f1_at"]["0.25"]["global"] == 80.0
    assert data["group"]["tail"]["per_class_f1_25"] == 100.0
    rows = mx.report_to_csv_rows(report)
    names = [r[0] for r in rows]
    assert "f1_global@0.25" in names and "head_per_class_acc" in names
    for _, value in rows:
        assert value == "NA" or "." in value  # two-decimal formatting

    empty_tail = mx.evaluate(truth, truth, num_classes=4, head={0, 1, 2, 3})
    rows = dict(mx.report_to_csv_rows(empty_tail))
    assert rows["tail_per_class_acc"] == "NA"


@st.composite
def relabeled_cases(draw):
    """A small evaluation set, a head set and a permutation of class ids."""
    L = draw(st.integers(2, 6))
    label_lists = st.lists(st.integers(0, L - 1), min_size=1, max_size=30)
    truths = [np.array(t) for t in draw(st.lists(label_lists, min_size=1, max_size=3))]
    preds = [
        np.array(draw(st.lists(st.integers(0, L - 1), min_size=t.size, max_size=t.size)))
        for t in truths
    ]
    head = draw(st.sets(st.integers(0, L - 1)))
    perm = np.array(draw(st.permutations(range(L))))
    return L, preds, truths, head, perm


def _scores(report):
    values = [report.global_acc, report.per_class_acc, report.edit_score]
    values += [v for _, pair in sorted(report.f1_at.items()) for v in pair]
    for name in ("head", "tail"):
        sub = report.group[name]
        values += [sub.per_class_acc, sub.per_class_f1_25, float(sub.empty)]
    return values


@settings(database=None, derandomize=True, deadline=None)
@given(relabeled_cases())
def test_evaluate_invariant_under_relabeling(case):
    L, preds, truths, head, perm = case
    base = mx.evaluate(preds, truths, L, head=head)
    moved = mx.evaluate(
        [perm[p] for p in preds],
        [perm[t] for t in truths],
        L,
        head={int(perm[c]) for c in head},
    )
    # per-class means sum in another order, so only the last bits may move
    assert _scores(moved) == pytest.approx(_scores(base), abs=1e-9, rel=0)
    assert np.array_equal(moved.counts[perm], base.counts)
