"""Numeric hot loops: window stacking, weighted softmax cross-entropy,
confusion tallying and edit distance, all in numpy."""

import numpy as np

PROB_FLOOR = 1e-12


def window_stack(features, radius):
    """Stack a temporal context window around every frame.

    ``features`` is [D, T]; the result is [T, D*(2*radius+1)] float64 with
    window offsets ordered -radius..+radius and edge frames replicated.
    """
    feats = np.ascontiguousarray(features, dtype=np.float64)
    dim, num_frames = feats.shape
    if radius == 0:
        return feats.T.copy()
    offsets = np.arange(-radius, radius + 1)
    cols = np.clip(np.arange(num_frames)[:, None] + offsets[None, :], 0, num_frames - 1)
    gathered = feats[:, cols]  # [D, T, W]
    return np.ascontiguousarray(
        gathered.transpose(1, 2, 0).reshape(num_frames, dim * (2 * radius + 1))
    )


def softmax_xent_grad(logits, labels, weights):
    """Weighted softmax cross-entropy over a batch of frames.

    Returns ``(loss_sum, dlogits)`` where per frame t
    ``loss_t = weights[t] * -log(max(p[labels[t]], PROB_FLOOR))`` and
    ``dlogits[t] = weights[t] * (softmax(logits[t]) - onehot(labels[t]))``.
    Softmax is computed with row-max subtraction.
    """
    logits = np.ascontiguousarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    rows = np.arange(logits.shape[0])
    p_true = probs[rows, labels]
    loss_sum = float(np.dot(weights, -np.log(np.maximum(p_true, PROB_FLOOR))))
    grad = probs * weights[:, None]
    grad[rows, labels] -= weights
    return loss_sum, grad


def count_confusion_into(counts, truth, pred, prev):
    """Tally (truth, prediction, previous-action) triples into ``counts``.

    ``counts`` is int64 [L, L, L+1] and is incremented in place, so partial
    tallies from different sequences merge by plain addition.
    """
    num_classes = counts.shape[0]
    truth = np.asarray(truth, dtype=np.int64)
    pred = np.asarray(pred, dtype=np.int64)
    prev = np.asarray(prev, dtype=np.int64)
    flat = (truth * num_classes + pred) * (num_classes + 1) + prev
    counts += np.bincount(flat, minlength=counts.size).reshape(counts.shape)
    return counts


def levenshtein(a, b):
    """Unit-cost edit distance between two integer sequences."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.size == 0:
        return int(b.size)
    if b.size == 0:
        return int(a.size)
    pos = np.arange(b.size + 1, dtype=np.int64)
    prev_row = pos.copy()
    cur = np.empty(b.size + 1, dtype=np.int64)
    for i in range(a.size):
        cur[0] = i + 1
        cur[1:] = np.minimum(prev_row[1:] + 1, prev_row[:-1] + (b != a[i]))
        # propagate insertions left-to-right: cur[j] = min_k<=j cur[k] + (j-k)
        cur = np.minimum.accumulate(cur - pos) + pos
        prev_row, cur = cur, prev_row
    return int(prev_row[-1])
