"""Numeric hot loops: windowed views of padded frames, weighted softmax
cross-entropy and edit distance, all in numpy."""

import numpy as np

PROB_FLOOR = 1e-12


def window_store(padded, radius):
    """Windowed views of sequences laid out frame-major and padded.

    ``padded`` yields ``(frames, pad)`` pairs, ``frames`` ``[T + 2*pad, D]``
    with ``pad`` replicated edge frames on each side of the sequence's
    ``T``. Returns one read-only view per sequence, ``[T, D*(2*radius+1)]``:
    row ``t`` is the window around frame ``t``, offsets -radius..+radius
    with the feature index minor. Where ``pad`` covers ``radius`` the view
    is strided over C-contiguous ``frames`` themselves, no copy; a smaller
    pad is first re-padded into a copy. Either way the view keeps the
    frames' dtype (float32 stays float32). Training and eval both window
    through here.
    """
    views = []
    for frames, pad in padded:
        frames = np.ascontiguousarray(frames)
        if pad < radius:
            grow = radius - pad
            frames, pad = np.pad(frames, ((grow, grow), (0, 0)), mode="edge"), radius
        dim = frames.shape[1]
        views.append(np.lib.stride_tricks.as_strided(
            frames[pad - radius :],
            shape=(frames.shape[0] - 2 * pad, dim * (2 * radius + 1)),
            strides=(dim * frames.itemsize, frames.itemsize),
            writeable=False,
        ))
    return views


def softmax_xent_grad(logits, labels, weights, out=None):
    """Weighted softmax cross-entropy over a batch of frames, class-major.

    ``logits`` is [L, n], one column per frame. Returns
    ``(loss_sum, dlogits, hit)`` where per frame t
    ``loss_t = weights[t] * -log(max(p[labels[t], t], PROB_FLOOR))``,
    ``dlogits[:, t] = weights[t] * (softmax(logits[:, t]) - onehot(labels[t]))``
    and ``hit[t] = argmax(logits[:, t]) == labels[t]`` (ties to the
    smallest id), read off the column max where the sum shows it unique.
    Softmax is computed with column-max subtraction; the reductions run
    across the L rows. ``dlogits`` is written into ``out``, a float64
    [L, n] array other than ``logits``, when one is given, and is a new
    array otherwise.
    """
    # C order, so the column sums run in one order whatever the input layout
    logits = np.ascontiguousarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    n = logits.shape[1]
    at_label = labels * n + np.arange(n)  # flat C-order index of [y_t, t]
    col_max = logits.max(axis=0)
    probs = np.subtract(logits, col_max, out=out)
    np.exp(probs, out=probs)
    total = probs.sum(axis=0)
    probs /= total
    hit = logits.take(at_label) == col_max
    tied = ~(total < 2.0)  # a tie adds exp(0) == 1.0 twice; NaN falls back too
    if tied.any():
        hit[tied] = np.argmax(logits[:, tied], axis=0) == labels[tied]
    p_true = probs.take(at_label)
    loss_sum = float(np.dot(weights, -np.log(np.maximum(p_true, PROB_FLOOR))))
    probs *= weights
    probs.put(at_label, probs.take(at_label) - weights)
    return loss_sum, probs, hit


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
