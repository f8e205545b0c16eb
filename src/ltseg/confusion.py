"""Transition-aware confusion statistics for a frame classifier.

The central object is a count tensor indexed (truth, prediction,
previous action): how often the classifier answered j on frames of class
i that followed class k. Everything downstream (class accuracy,
per-transition accuracy, their mean) is a ratio of these counts.

Training builds the tensor in ``classifier.store_confusion``, one
``_kernels.count_confusion_into`` call over every training frame.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class ConfusionTensor:
    """Frame counts by (truth i, prediction j, previous action k).

    ``counts`` is int64 [L, L, L+1]; column L of the last axis is the
    'start' state. ``total_frames`` is the number of frames counted.
    """

    counts: np.ndarray
    total_frames: int

    @property
    def num_classes(self):
        return self.counts.shape[0]

    def transition_counts(self):
        """Marginal over predictions; equals the dataset's (truth, prev)
        frame counts when the whole dataset was counted."""
        return self.counts.sum(axis=1)


@dataclass(frozen=True, eq=False)
class LearningState:
    """How well each class and each observed transition is learned.

    Zero-support entries carry False in the companion defined-masks and
    0.0 in the value arrays; they are excluded from every average, never
    NaN.
    """

    class_acc: np.ndarray
    class_acc_defined: np.ndarray
    trans_acc: np.ndarray
    trans_acc_defined: np.ndarray
    mean_trans_acc: float


def learning_state(confusion: ConfusionTensor, stats) -> LearningState:
    """Derive class and transition accuracies from a confusion tensor.

    ``stats`` supplies the set of transitions that exist in the dataset;
    a transition (or class) with no counted frames is flagged undefined.
    The mean transition accuracy is the unweighted average over defined
    valid transitions.
    """
    counts = confusion.counts
    L = confusion.num_classes
    diag = counts[np.arange(L), np.arange(L), :].astype(np.float64)  # [L, L+1]
    trans_support = confusion.transition_counts()
    class_support = trans_support.sum(axis=1)

    class_defined = class_support > 0
    class_acc = np.zeros(L)
    np.divide(diag.sum(axis=1), class_support, out=class_acc, where=class_defined)

    trans_defined = (trans_support > 0) & stats.valid_mask
    trans_acc = np.zeros((L, L + 1))
    np.divide(
        diag, trans_support.astype(np.float64), out=trans_acc, where=trans_defined
    )
    mean = float(trans_acc[trans_defined].mean()) if trans_defined.any() else 0.0
    return LearningState(
        class_acc=class_acc,
        class_acc_defined=class_defined,
        trans_acc=trans_acc,
        trans_acc_defined=trans_defined,
        mean_trans_acc=mean,
    )
