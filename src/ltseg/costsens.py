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
just before its batch's step. ``multiplier_step`` turns that state into
the Lagrangian's gradient in the multipliers once per epoch, and takes
the step, the Lagrangian and the violation count from it. At gamma = 0
zero multipliers stay zero, so every loss mode runs the same step.

The multipliers ``lam`` are one float64 ``[L, L+1]`` array, one per
(class, previous action): non-negative, and zero on the transitions
that ``stats.valid_mask`` marks unobserved. ``classifier.train`` starts
them at zero. The step size gamma, the tolerance epsilon and the
exponent tau are range-checked once, in ``TrainConfig.validate``.
"""

import numpy as np

DEFAULT_EPSILON = 0.9
DEFAULT_STEP_SIZE = 0.01
DEFAULT_TAU = 0.3


def learning_state(hits, stats):
    """``(trans_acc, mean)``: the accuracy of each (class, previous
    action) from ``hits``, its int64 ``[L, L+1]`` count of correct
    frames, and the unweighted mean over the observed transitions.
    ``trans_acc`` is 0.0 on the unobserved ones (``stats.valid_mask``).

    The support of each transition is ``stats.counts``: ``train``
    counts ``hits`` over one epoch's SGD pass, which predicts every frame
    of the dataset exactly once, with the parameters in force just
    before the step of the frame's batch.
    """
    observed = stats.valid_mask
    trans_acc = np.zeros(hits.shape)
    np.divide(hits, stats.counts, out=trans_acc, where=observed)
    mean = float(trans_acc[observed].mean()) if observed.any() else 0.0
    return trans_acc, mean


def compute_gain(stats, lam, tau):
    """Tempered loss weights ``[L, L+1]``: ``((1 + lambda) / prior) ** tau``
    on observed transitions of classes with frames. Rows of zero-prior
    classes hold ``0 ** tau``; no training frame can index them."""
    prior = stats.prior
    gain = np.zeros_like(lam)
    numer = 1.0 + stats.valid_mask * lam
    np.divide(numer, prior[:, None], out=gain, where=(prior > 0)[:, None])
    # 0**0 == 1, so tau=0 yields exactly 1 everywhere, zero-prior rows included
    return gain ** float(tau)


def multiplier_step(lam, hits, stats, gamma, epsilon):
    """One epoch's multiplier side, ``(updated, record)``, from the
    learning state of ``hits``.

    The Lagrangian's gradient in the multipliers is
    ``g = (trans_acc - epsilon * mean) * T/prior``, 0 where T = 0, so
    ``g < 0`` marks exactly the observed transitions below the tolerance
    line. ``updated = max(0, lam - gamma * g)``, zero off the support, so
    gamma = 0 keeps a zero ``lam`` zero. ``record`` holds the objective
    ``sum(T/prior * trans_acc) + sum(lam * g)`` at the pre-step ``lam``
    (the sum of per-class accuracies plus the weighted constraint
    terms), the mean transition accuracy, the min, mean and max of
    ``updated`` on the support, and the count of ``g < 0``.
    """
    trans_acc, mean = learning_state(hits, stats)
    prior = stats.prior
    scale = np.zeros(trans_acc.shape)
    np.divide(stats.transition, prior[:, None], out=scale, where=(prior > 0)[:, None])
    g = (trans_acc - epsilon * mean) * scale
    updated = np.maximum(0.0, lam - gamma * g)
    updated[~stats.valid_mask] = 0.0
    kept = updated[stats.valid_mask]
    record = {
        "lagrangian": float((scale * trans_acc).sum() + (lam * g).sum()),
        "mean_trans_acc": mean,
        "lambda_min": float(kept.min()) if kept.size else 0.0,
        "lambda_mean": float(kept.mean()) if kept.size else 0.0,
        "lambda_max": float(kept.max()) if kept.size else 0.0,
        "violations": int((g < 0).sum()),
    }
    return updated, record
