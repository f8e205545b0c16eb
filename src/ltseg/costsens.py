"""Constraint multipliers and the re-weighted cross-entropy they induce.

Training maximizes the sum of per-class accuracies subject to every
observed transition staying within a tolerance of the mean transition
accuracy. The saddle-point form of that problem turns into a per-frame
gain: each (true class, previous action) pair gets the weight
(1 + lambda) / prior, tempered by an exponent tau, and the classifier
minimizes gain-weighted cross-entropy while the multipliers run
projected gradient descent.

The multipliers respond to the learning state: the accuracy of each
(class, previous action) pair on the training set, built once per epoch
by ``learning_state`` from the correct-frame counts that
``classifier.train`` takes from its SGD pass, each frame as predicted
just before its batch's step. ``_constraint_gradient`` turns that state
into the Lagrangian's gradient in the multipliers; the multiplier step,
the Lagrangian and the violation count all read it.
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
    supported only on transitions the dataset contains."""

    lam: np.ndarray
    step_size: float
    epsilon: float

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
    """How well each transition is learned: 0.0 on the transitions that
    ``stats.valid_mask`` marks unobserved, which the mean leaves out."""

    trans_acc: np.ndarray
    mean_trans_acc: float


def learning_state(hits, stats) -> LearningState:
    """Per-transition accuracy from ``hits``, the int64 ``[L, L+1]``
    count of correctly predicted frames per (class, previous action).

    The support of each transition is ``stats.counts``: ``train``
    counts ``hits`` over one epoch's SGD pass, which predicts every frame
    of the dataset exactly once, with the parameters in force just
    before the step of the frame's batch. The mean transition accuracy
    is the unweighted average over observed transitions.
    """
    observed = stats.valid_mask
    trans_acc = np.zeros(hits.shape)
    np.divide(hits, stats.counts, out=trans_acc, where=observed)
    mean = float(trans_acc[observed].mean()) if observed.any() else 0.0
    return LearningState(trans_acc=trans_acc, mean_trans_acc=mean)


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


def _constraint_gradient(state: LearningState, stats, epsilon):
    """T/prior and the Lagrangian's gradient in the multipliers,
    ``g = (trans_acc - epsilon * mean) * T/prior``. Both are 0 where
    T = 0, so ``g < 0`` marks exactly the observed transitions below the
    tolerance line."""
    prior = stats.prior
    scale = np.zeros(state.trans_acc.shape)
    np.divide(stats.transition, prior[:, None], out=scale, where=(prior > 0)[:, None])
    return scale, (state.trans_acc - epsilon * state.mean_trans_acc) * scale


def lagrangian_value(state: LearningState, stats, mult: MultiplierState):
    """Saddle-point objective ``sum(T/prior * trans_acc) + sum(lambda * g)``:
    the sum of per-class accuracies plus the weighted constraint terms,
    with the tolerance line at the state's own (detached) mean."""
    scale, g = _constraint_gradient(state, stats, mult.epsilon)
    return float((scale * state.trans_acc).sum() + (mult.lam * g).sum())


def update_multipliers(mult: MultiplierState, state: LearningState, stats):
    """One projected gradient step on the multipliers: every lambda moves
    against its constraint gradient, clamps at zero, and stays zero on
    unobserved transitions."""
    _, g = _constraint_gradient(state, stats, mult.epsilon)
    lam = np.maximum(0.0, mult.lam - mult.step_size * g)
    lam[~stats.valid_mask] = 0.0
    return replace(mult, lam=lam)


def telemetry_record(epoch, state: LearningState, stats, before, after):
    """Per-epoch telemetry: the objective the multiplier step descended
    (pre-update multipliers), the violated constraints, and summaries of
    the post-update multipliers."""
    _, g = _constraint_gradient(state, stats, before.epsilon)
    lam = after.lam[stats.valid_mask]
    return {
        "epoch": int(epoch),
        "lagrangian": lagrangian_value(state, stats, before),
        "mean_trans_acc": state.mean_trans_acc,
        "lambda_min": float(lam.min()) if lam.size else 0.0,
        "lambda_mean": float(lam.mean()) if lam.size else 0.0,
        "lambda_max": float(lam.max()) if lam.size else 0.0,
        "violations": int((g < 0).sum()),
    }
