"""Numeric hot loops: the windowed feature store, weighted softmax
cross-entropy and edit distance, all in numpy."""

import numpy as np

PROB_FLOOR = 1e-12


def window_store(feature_list, radius):
    """Windowed views over every sequence of ``feature_list``, one buffer.

    Each ``[D, T]`` feature matrix is copied once, frame-major and at
    the inputs' ``np.result_type`` (float32 stays float32), into one
    ``[N + 2*radius*S, D]`` buffer, padded with ``radius`` replicated
    edge frames on both sides of every sequence. Returns one read-only
    view per sequence, ``[T, D*(2*radius+1)]``, each a slice of one
    ``as_strided`` view of that buffer: row ``t`` is the window around
    the sequence's frame ``t``, offsets -radius..+radius with the
    feature index minor. Training and eval both window through here.
    """
    dim = feature_list[0].shape[0]
    total = sum(f.shape[1] + 2 * radius for f in feature_list)
    store = np.empty((total, dim), np.result_type(*{f.dtype for f in feature_list}))
    spans = []
    row = 0
    for feats in feature_list:
        frames = feats.shape[1]
        store[row : row + radius] = feats[:, 0]
        store[row + radius : row + radius + frames] = feats.T
        store[row + radius + frames : row + 2 * radius + frames] = feats[:, -1]
        spans.append((row, row + frames))
        row += frames + 2 * radius
    windows = np.lib.stride_tricks.as_strided(
        store,
        shape=(total - 2 * radius, dim * (2 * radius + 1)),
        strides=(dim * store.itemsize, store.itemsize),
        writeable=False,
    )
    return [windows[lo:hi] for lo, hi in spans]


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
    at_label = (labels, np.arange(logits.shape[1]))  # [y_t, t]
    col_max = logits.max(axis=0)
    probs = np.subtract(logits, col_max, out=out)
    np.exp(probs, out=probs)
    total = probs.sum(axis=0)
    probs /= total
    hit = logits[at_label] == col_max
    tied = ~(total < 2.0)  # a tie adds exp(0) == 1.0 twice; NaN falls back too
    if tied.any():
        hit[tied] = np.argmax(logits[:, tied], axis=0) == labels[tied]
    p_true = probs[at_label]
    loss_sum = float(np.dot(weights, -np.log(np.maximum(p_true, PROB_FLOOR))))
    probs *= weights
    probs[at_label] -= weights
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
