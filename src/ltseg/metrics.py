"""Segmentation metrics: frame accuracy, edit score, segmental F1,
head/tail group summaries.

All scores are percentages. Per-class aggregates average only over
classes that actually occur in the ground truth of the evaluation set.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConfigError
from .seqdata import Segmentation, segmentation_from_frames

DEFAULT_IOU_THRESHOLDS = (0.10, 0.25, 0.50)


def frame_accuracy(pred, truth, num_classes=None):
    """Global accuracy and mean per-class recall, both in percent.

    Inputs are flat frame-label vectors covering the evaluation set.
    """
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape:
        raise ConfigError(
            f"{pred.shape[0]} predicted frames vs {truth.shape[0]} truth frames"
        )
    if pred.size == 0:
        raise ConfigError("no frames to score")
    if num_classes is None:
        num_classes = int(max(pred.max(), truth.max())) + 1
    global_acc = 100.0 * float((pred == truth).mean())
    support = np.bincount(truth, minlength=num_classes)
    hits = np.bincount(truth[pred == truth], minlength=num_classes)
    present = support > 0
    recalls = hits[present] / support[present]
    return global_acc, 100.0 * float(recalls.mean())


def edit_score(pred_segments, truth_segments):
    """100 * (1 - edit distance / longer length) over segment labels.

    Durations are ignored; two empty sequences score 100.
    """
    p = np.asarray(pred_segments, dtype=np.int64)
    g = np.asarray(truth_segments, dtype=np.int64)
    longer = max(p.size, g.size)
    if longer == 0:
        return 100.0
    return 100.0 * (1.0 - _kernels.levenshtein(p, g) / longer)


def _segment_iou(a, b):
    inter = min(a[1], b[1]) - max(a[0], b[0]) + 1
    if inter <= 0:
        return 0.0
    union = (a[1] - a[0] + 1) + (b[1] - b[0] + 1) - inter
    return inter / union


def _match_counts(pred_seg: Segmentation, truth_seg: Segmentation, threshold):
    """Greedy matching; returns {label: [tp, fp, fn]}.

    Each predicted segment, in temporal order, takes the unmatched
    ground-truth segment of its label with the highest IoU; it scores a
    true positive only if that IoU clears the threshold, and only then
    is the ground-truth segment consumed.
    """
    counts = {}

    def cell(label):
        return counts.setdefault(label, [0, 0, 0])

    unmatched = {}
    for idx, (s, e, label) in enumerate(truth_seg.segments):
        unmatched.setdefault(label, []).append((s, e, idx))
    for s, e, label in pred_seg.segments:
        candidates = unmatched.get(label, ())
        best = -1
        best_iou = 0.0
        for pos, (gs, ge, _) in enumerate(candidates):
            iou = _segment_iou((s, e), (gs, ge))
            if iou > best_iou:
                best, best_iou = pos, iou
        if best >= 0 and best_iou >= threshold:
            cell(label)[0] += 1
            candidates.pop(best)
        else:
            cell(label)[1] += 1
    for label, remaining in unmatched.items():
        cell(label)[2] += len(remaining)
    return counts


def _merge_counts(into, other):
    for label, (tp, fp, fn) in other.items():
        cell = into.setdefault(label, [0, 0, 0])
        cell[0] += tp
        cell[1] += fp
        cell[2] += fn
    return into


def _f1(tp, fp, fn):
    denom = 2 * tp + fp + fn
    return 100.0 * (2 * tp / denom) if denom else 0.0


def _scores_from_counts(counts, truth_labels):
    tp = sum(c[0] for c in counts.values())
    fp = sum(c[1] for c in counts.values())
    fn = sum(c[2] for c in counts.values())
    per = [_f1(*counts.get(label, (0, 0, 0))) for label in sorted(truth_labels)]
    per_class = float(np.mean(per)) if per else 0.0
    return _f1(tp, fp, fn), per_class


def segmental_f1(pred_seg, truth_seg, iou_threshold):
    """(global F1, per-class F1) in percent for one video pair."""
    if not 0 < iou_threshold < 1:
        raise ConfigError(f"IoU threshold must be in (0, 1), got {iou_threshold}")
    counts = _match_counts(pred_seg, truth_seg, iou_threshold)
    truth_labels = {label for _, _, label in truth_seg.segments}
    return _scores_from_counts(counts, truth_labels)


@dataclass(frozen=True, eq=False)
class GroupReport:
    classes: tuple
    per_class_acc: float
    per_class_f1_25: float
    empty: bool


@dataclass(frozen=True, eq=False)
class MetricsReport:
    global_acc: float
    per_class_acc: float
    edit_score: float
    f1_at: dict  # threshold -> (global F1, per-class F1)
    group: dict  # 'head'/'tail' -> GroupReport, or None
    counts: np.ndarray  # per-class ground-truth frame support


def evaluate(
    predictions,
    truths,
    num_classes,
    thresholds=DEFAULT_IOU_THRESHOLDS,
    head=None,
):
    """Score a list of predicted label vectors against ground truth.

    Edit score is the mean over videos. F1 counts pool over the whole
    set.
    """
    if len(predictions) != len(truths) or not truths:
        raise ConfigError(
            f"{len(predictions)} prediction vectors vs {len(truths)} truth vectors"
        )
    pred_segs = [segmentation_from_frames(p) for p in predictions]
    truth_segs = [segmentation_from_frames(t) for t in truths]
    flat_pred = np.concatenate([np.asarray(p) for p in predictions])
    flat_truth = np.concatenate([np.asarray(t) for t in truths])
    global_acc, per_class_acc = frame_accuracy(flat_pred, flat_truth, num_classes)
    edit = float(
        np.mean(
            [
                edit_score(p.labels(), t.labels())
                for p, t in zip(pred_segs, truth_segs)
            ]
        )
    )
    support = np.bincount(flat_truth, minlength=num_classes)
    truth_labels = set(np.flatnonzero(support).tolist())
    # the head/tail groups read F1@0.25 whatever the reported thresholds
    counts_at = {}
    for thr in dict.fromkeys((*thresholds, 0.25)):
        pooled = counts_at[thr] = {}
        for p, t in zip(pred_segs, truth_segs):
            _merge_counts(pooled, _match_counts(p, t, thr))
    f1_at = {
        thr: _scores_from_counts(counts_at[thr], truth_labels) for thr in thresholds
    }
    group = None
    if head is not None:
        group = {}
        pooled_25 = counts_at[0.25]
        hits = np.bincount(flat_truth[flat_pred == flat_truth], minlength=num_classes)
        for name, members in (
            ("head", set(head)),
            ("tail", set(range(num_classes)) - set(head)),
        ):
            scored = sorted(members & truth_labels)
            if not scored:
                group[name] = GroupReport(
                    classes=tuple(sorted(members)), per_class_acc=0.0,
                    per_class_f1_25=0.0, empty=True,
                )
                continue
            recalls = [hits[c] / support[c] for c in scored]
            f1s = [_f1(*pooled_25.get(c, (0, 0, 0))) for c in scored]
            group[name] = GroupReport(
                classes=tuple(sorted(members)),
                per_class_acc=100.0 * float(np.mean(recalls)),
                per_class_f1_25=float(np.mean(f1s)),
                empty=False,
            )
    return MetricsReport(
        global_acc=global_acc,
        per_class_acc=per_class_acc,
        edit_score=edit,
        f1_at=f1_at,
        group=group,
        counts=support,
    )


def report_to_dict(report: MetricsReport):
    """JSON-ready structure; scores carry two decimals."""
    out = {
        "global_acc": round(report.global_acc, 2),
        "per_class_acc": round(report.per_class_acc, 2),
        "edit_score": round(report.edit_score, 2),
        "f1_at": {
            f"{thr:.2f}": {
                "global": round(pair[0], 2),
                "per_class": round(pair[1], 2),
            }
            for thr, pair in sorted(report.f1_at.items())
        },
        "counts": report.counts.tolist(),
    }
    if report.group is not None:
        out["group"] = {
            name: {
                "classes": list(sub.classes),
                "per_class_acc": round(sub.per_class_acc, 2),
                "per_class_f1_25": round(sub.per_class_f1_25, 2),
                "empty": sub.empty,
            }
            for name, sub in report.group.items()
        }
    return out


def report_to_csv_rows(report: MetricsReport):
    """(metric, value) rows with two-decimal values, for table assembly."""
    rows = [
        ("global_acc", f"{report.global_acc:.2f}"),
        ("per_class_acc", f"{report.per_class_acc:.2f}"),
        ("edit_score", f"{report.edit_score:.2f}"),
    ]
    for thr, (global_f1, per_class_f1) in sorted(report.f1_at.items()):
        rows.append((f"f1_global@{thr:.2f}", f"{global_f1:.2f}"))
        rows.append((f"f1_per_class@{thr:.2f}", f"{per_class_f1:.2f}"))
    if report.group is not None:
        for name in ("head", "tail"):
            sub = report.group[name]
            if sub.empty:
                rows.append((f"{name}_per_class_acc", "NA"))
                rows.append((f"{name}_per_class_f1@0.25", "NA"))
            else:
                rows.append((f"{name}_per_class_acc", f"{sub.per_class_acc:.2f}"))
                rows.append(
                    (f"{name}_per_class_f1@0.25", f"{sub.per_class_f1_25:.2f}")
                )
    return rows
