"""Segmentation metrics: frame accuracy, edit score, segmental F1,
head/tail group summaries.

All scores are percentages. Per-class aggregates average only over
classes that occur in the ground truth of the evaluation set, the rule
of ``costsens.learning_state``, which scores per-class frame accuracy.
Segmental F1 matches segments from ``segmentation_from_frames`` and
counts tp, fp and fn per class into one int64 [3, L] array.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .costsens import learning_state
from .errors import ConfigError, EmptySequenceError
from .seqdata import segmentation_from_frames

DEFAULT_IOU_THRESHOLDS = (0.10, 0.25, 0.50)


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


def _match_counts(pred, truth, threshold, counts):
    """Greedy matching of one video pair, added into ``counts``: an int64
    [3, L] array whose rows count tp, fp and fn per class.

    ``pred`` and ``truth`` are ``segmentation_from_frames`` triples. Each
    predicted segment, in temporal order, takes the unmatched
    ground-truth segment of its label with the highest IoU; it scores a
    true positive only if that IoU clears the threshold, and only then
    is the ground-truth segment consumed.
    """
    unmatched = {}
    for s, e, label in zip(*(a.tolist() for a in truth)):
        unmatched.setdefault(label, []).append((s, e))
    hit = []
    for s, e, label in zip(*(a.tolist() for a in pred)):
        candidates = unmatched.get(label, ())
        best = -1
        best_iou = 0.0
        for pos, gt in enumerate(candidates):
            iou = _segment_iou((s, e), gt)
            if iou > best_iou:
                best, best_iou = pos, iou
        hit.append(best >= 0 and best_iou >= threshold)
        if hit[-1]:
            candidates.pop(best)
    hit = np.array(hit, dtype=bool)
    L = counts.shape[1]
    tp = np.bincount(pred[2][hit], minlength=L)
    counts[0] += tp
    counts[1] += np.bincount(pred[2][~hit], minlength=L)
    # every true positive consumed one ground-truth segment of its class
    counts[2] += np.bincount(truth[2], minlength=L) - tp


def _f1(tp, fp, fn):
    """F1 in percent, elementwise over count arrays; 0 where there is
    nothing to count."""
    denom = 2 * tp + fp + fn
    return 100.0 * np.divide(2 * tp, denom, out=np.zeros(denom.shape), where=denom > 0)


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
    predictions = [np.asarray(p) for p in predictions]
    truths = [np.asarray(t) for t in truths]
    for index, (p, t) in enumerate(zip(predictions, truths)):
        if len(p) != len(t):
            raise ConfigError(f"pair {index}: {len(p)} predicted vs {len(t)} truth frames")
        # an empty list is float64, so emptiness is checked before dtype
        if not t.size:
            raise EmptySequenceError(f"pair {index} has no frames")
        for name, labels in (("predicted", p), ("truth", t)):
            if labels.dtype.kind not in "iu":
                raise ConfigError(f"pair {index}: {name} labels of dtype "
                                  f"{labels.dtype} are not integers")
    for thr in thresholds:
        if not 0 < thr < 1:
            raise ConfigError(f"IoU threshold must be in (0, 1), got {thr}")
    flat_pred = np.concatenate(predictions)
    flat_truth = np.concatenate(truths)
    labels = np.concatenate((flat_pred, flat_truth))
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ConfigError(f"labels must lie in [0, {num_classes})")
    support = np.bincount(flat_truth, minlength=num_classes)
    hits = np.bincount(flat_truth[flat_pred == flat_truth], minlength=num_classes)
    acc, per_class_acc = learning_state(hits, support)
    present = support > 0
    pred_segs = [segmentation_from_frames(p) for p in predictions]
    truth_segs = [segmentation_from_frames(t) for t in truths]
    edit = float(
        np.mean([edit_score(p[2], t[2]) for p, t in zip(pred_segs, truth_segs)])
    )
    # the head/tail groups read F1@0.25 whatever the reported thresholds
    counts_at = {}
    for thr in dict.fromkeys((*thresholds, 0.25)):
        counts = counts_at[thr] = np.zeros((3, num_classes), dtype=np.int64)
        for p, t in zip(pred_segs, truth_segs):
            _match_counts(p, t, thr, counts)
    f1 = {thr: _f1(*counts) for thr, counts in counts_at.items()}  # per class
    f1_at = {
        thr: (
            float(_f1(*counts_at[thr].sum(axis=1))),
            float(np.mean(f1[thr][present])),
        )
        for thr in thresholds
    }
    group = None
    if head is not None:
        group = {}
        for name, members in (
            ("head", set(head)),
            ("tail", set(range(num_classes)) - set(head)),
        ):
            scored = sorted(members & set(np.flatnonzero(present).tolist()))
            group[name] = GroupReport(
                classes=tuple(sorted(members)),
                per_class_acc=100.0 * float(np.mean(acc[scored])) if scored else 0.0,
                per_class_f1_25=float(np.mean(f1[0.25][scored])) if scored else 0.0,
                empty=not scored,
            )
    return MetricsReport(
        global_acc=100.0 * float(hits.sum() / support.sum()),
        per_class_acc=100.0 * per_class_acc,
        edit_score=edit,
        f1_at=f1_at,
        group=group,
        counts=support,
    )


def f1_key(threshold):
    """An IoU threshold's key in ``report_to_dict``'s ``f1_at``."""
    return f"{threshold:.2f}"


def report_to_dict(report: MetricsReport):
    """JSON-ready structure; scores carry two decimals."""
    out = {
        "global_acc": round(report.global_acc, 2),
        "per_class_acc": round(report.per_class_acc, 2),
        "edit_score": round(report.edit_score, 2),
        "f1_at": {
            f1_key(thr): {
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
    """(metric, value) rows of the values ``report_to_dict`` holds, for
    table assembly; an empty head/tail group's rows read NA."""
    data = report_to_dict(report)
    rows = [(key, data[key]) for key in ("global_acc", "per_class_acc", "edit_score")]
    for key, f1 in data["f1_at"].items():
        rows += [(f"f1_global@{key}", f1["global"]),
                 (f"f1_per_class@{key}", f1["per_class"])]
    for name, sub in data.get("group", {}).items():  # head, then tail
        for metric, key in (("per_class_acc", "per_class_acc"),
                            ("per_class_f1@0.25", "per_class_f1_25")):
            rows.append((f"{name}_{metric}", None if sub["empty"] else sub[key]))
    return [(metric, "NA" if value is None else f"{value:.2f}") for metric, value in rows]
