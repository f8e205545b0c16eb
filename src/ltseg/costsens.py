"""Constraint multipliers and the re-weighted cross-entropy they induce.

Training maximizes the sum of per-class accuracies subject to every
observed transition staying within a tolerance of the mean transition
accuracy. The saddle-point form of that problem turns into a per-frame
gain: each (true class, previous action) pair gets the weight
(1 + lambda) / prior, tempered by an exponent tau, and the classifier
minimizes gain-weighted cross-entropy while the multipliers run
projected gradient descent.

The multipliers respond to the learning state: the accuracy of each
(class, previous action) pair on the training set. Training builds it
once per epoch with ``learning_state`` from the pair counts of correctly
predicted frames (``classifier.store_hits``), and the multiplier step,
the Lagrangian and the telemetry all read that one state.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError

DEFAULT_EPSILON = 0.9
DEFAULT_STEP_SIZE = 0.01
DEFAULT_TAU = 0.3


@dataclass(frozen=True, eq=False)
class MultiplierState:
    """One multiplier per (class, previous action), kept non-negative and
    supported only on transitions the dataset contains.

    ``detached_mean_trans_acc`` is the constraint reference point: a
    snapshot of the mean transition accuracy, refreshed once per epoch
    and never differentiated through.
    """

    lam: np.ndarray
    step_size: float
    epsilon: float
    detached_mean_trans_acc: float = 0.0

    @classmethod
    def zeros(cls, stats, step_size=DEFAULT_STEP_SIZE, epsilon=DEFAULT_EPSILON):
        """All-zero multipliers: the first epoch trains with pure
        inverse-prior weighting until violations are measured."""
        if step_size <= 0:
            raise ConfigError(f"multiplier step size must be > 0, got {step_size}")
        if not 0 < epsilon <= 1:
            raise ConfigError(f"tolerance must be in (0, 1], got {epsilon}")
        L = stats.num_classes
        return cls(
            lam=np.zeros((L, L + 1)), step_size=float(step_size),
            epsilon=float(epsilon),
        )

    def validate(self, valid_mask):
        if (self.lam < 0).any():
            raise ConfigError("negative multiplier")
        if self.lam[~valid_mask].any():
            raise ConfigError("multiplier on an unobserved transition")
        return self


@dataclass(frozen=True, eq=False)
class LearningState:
    """How well each observed transition is learned.

    Zero-support entries carry False in ``trans_acc_defined`` and 0.0 in
    ``trans_acc``; they are excluded from the mean, never NaN.
    """

    trans_acc: np.ndarray
    trans_acc_defined: np.ndarray
    mean_trans_acc: float


def learning_state(hits, stats) -> LearningState:
    """Per-transition accuracy from ``hits``, the int64 ``[L, L+1]``
    count of correctly predicted frames per (class, previous action).

    The support of each transition is ``stats.counts``: the pass that
    counted ``hits`` predicted every frame of the dataset. The mean
    transition accuracy is the unweighted average over observed
    transitions.
    """
    defined = stats.valid_mask
    trans_acc = np.zeros(hits.shape)
    np.divide(hits, stats.counts, out=trans_acc, where=defined)
    mean = float(trans_acc[defined].mean()) if defined.any() else 0.0
    return LearningState(
        trans_acc=trans_acc, trans_acc_defined=defined, mean_trans_acc=mean
    )


def compute_gain(stats, mult: MultiplierState, tau):
    """Tempered loss weights ``[L, L+1]``: ``((1 + lambda) / prior) ** tau``
    on observed transitions of classes with frames. Rows of zero-prior
    classes hold ``0 ** tau``; no training frame can index them."""
    if tau < 0:
        raise ConfigError(f"temper exponent must be >= 0, got {tau}")
    prior = stats.prior
    mult.validate(stats.valid_mask)
    gain = np.zeros_like(mult.lam)
    numer = 1.0 + stats.valid_mask * mult.lam
    np.divide(numer, prior[:, None], out=gain, where=(prior > 0)[:, None])
    # 0**0 == 1, so tau=0 yields exactly 1 everywhere, zero-prior rows included
    return gain ** float(tau)


def frame_weights(tempered, frame_labels, prev_action):
    """Per-frame ``tempered[label, prev]``: the softmax_xent_grad weights."""
    return tempered[frame_labels, prev_action]


def lagrangian_value(hits, stats, mult: MultiplierState):
    """Saddle-point objective at the current classifier and multipliers.

    Relative accuracy terms use the frozen mean snapshot carried by
    ``mult``; the per-constraint factor T/prior balances the constraint
    magnitudes against the accuracy objective.
    """
    diag = hits / stats.total
    prior = stats.prior
    trans = stats.transition
    active = prior > 0
    acc_sum = float((diag.sum(axis=1)[active] / prior[active]).sum())
    valid = stats.valid_mask
    tacc = np.zeros_like(diag)
    np.divide(diag, trans, out=tacc, where=valid)
    slack = tacc - mult.epsilon * mult.detached_mean_trans_acc
    scale = np.zeros_like(diag)
    np.divide(trans, prior[:, None], out=scale, where=active[:, None])
    return acc_sum + float((mult.lam * slack * scale)[valid].sum())


def update_multipliers(mult: MultiplierState, state: LearningState, stats):
    """One projected gradient step on the multipliers.

    Refreshes the detached mean first, then for every observed transition
    moves lambda against the constraint slack and clamps at zero.
    """
    mean = state.mean_trans_acc
    prior = stats.prior
    active = prior > 0
    scale = np.zeros_like(mult.lam)
    np.divide(stats.transition, prior[:, None], out=scale, where=active[:, None])
    grad = (state.trans_acc - mult.epsilon * mean) * scale
    step = np.where(state.trans_acc_defined, mult.step_size * grad, 0.0)
    lam = np.maximum(0.0, mult.lam - step)
    lam[~stats.valid_mask] = 0.0
    return replace(mult, lam=lam, detached_mean_trans_acc=mean)


def count_violations(state: LearningState, mult: MultiplierState):
    """Observed transitions currently below the tolerance line."""
    below = state.trans_acc < mult.epsilon * mult.detached_mean_trans_acc
    return int((below & state.trans_acc_defined).sum())


def telemetry_record(epoch, hits, state: LearningState, stats, before, after):
    """Per-epoch telemetry: the objective the multiplier step descended
    (pre-update multipliers, refreshed mean) plus post-update summaries."""
    probe = replace(
        before, detached_mean_trans_acc=after.detached_mean_trans_acc
    )
    valid = stats.valid_mask
    lam = after.lam[valid]
    return {
        "epoch": int(epoch),
        "lagrangian": lagrangian_value(hits, stats, probe),
        "mean_trans_acc": after.detached_mean_trans_acc,
        "lambda_min": float(lam.min()) if lam.size else 0.0,
        "lambda_mean": float(lam.mean()) if lam.size else 0.0,
        "lambda_max": float(lam.max()) if lam.size else 0.0,
        "violations": count_violations(state, after),
    }
