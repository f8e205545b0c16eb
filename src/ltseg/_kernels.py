"""Numeric hot loops: window stacking, weighted softmax cross-entropy
and edit distance, all in numpy."""

import numpy as np

PROB_FLOOR = 1e-12


def window_store(feature_list, radius):
    """Windowed view over every sequence of ``feature_list`` at once.

    Each ``[D, T]`` feature matrix is copied once, frame-major and at
    the inputs' ``np.result_type`` (float32 stays float32), into one
    ``[N + 2*radius*S, D]`` store, padded with ``radius`` replicated
    edge frames on both sides of every sequence.
    The result is a read-only ``as_strided`` view of shape
    ``[N + 2*radius*S - 2*radius, D*(2*radius+1)]``: row ``r`` is the
    window around store row ``r + radius``, laid out like
    ``window_stack``'s rows. Frame ``t`` of sequence ``s`` is row
    ``t + sum(T_k + 2*radius for k < s)``; the ``2*radius`` rows between
    two sequences straddle both and belong to neither.
    """
    dim = feature_list[0].shape[0]
    total = sum(f.shape[1] + 2 * radius for f in feature_list)
    store = np.empty((total, dim), np.result_type(*{f.dtype for f in feature_list}))
    row = 0
    for feats in feature_list:
        frames = feats.shape[1]
        store[row : row + radius] = feats[:, 0]
        store[row + radius : row + radius + frames] = feats.T
        store[row + radius + frames : row + 2 * radius + frames] = feats[:, -1]
        row += frames + 2 * radius
    return np.lib.stride_tricks.as_strided(
        store,
        shape=(total - 2 * radius, dim * (2 * radius + 1)),
        strides=(dim * store.itemsize, store.itemsize),
        writeable=False,
    )


def window_stack(features, radius):
    """Stack a temporal context window around every frame.

    ``features`` is [D, T]; the result is [T, D*(2*radius+1)] float64 with
    window offsets ordered -radius..+radius and edge frames replicated:
    the one-sequence ``window_store``, widened exactly to float64.
    """
    return window_store([np.asarray(features)], radius).astype(np.float64)


def softmax_xent_grad(logits, labels, weights):
    """Weighted softmax cross-entropy over a batch of frames, class-major.

    ``logits`` is [L, n], one column per frame. Returns
    ``(loss_sum, dlogits, hit)`` where per frame t
    ``loss_t = weights[t] * -log(max(p[labels[t], t], PROB_FLOOR))``,
    ``dlogits[:, t] = weights[t] * (softmax(logits[:, t]) - onehot(labels[t]))``
    and ``hit[t] = argmax(logits[:, t]) == labels[t]`` (ties to the
    smallest id), read off the column max where the sum shows it unique.
    Softmax is computed with column-max subtraction; the reductions run
    across the L rows.
    """
    logits = np.ascontiguousarray(logits, dtype=np.float64)  # so ravel() views
    labels = np.asarray(labels, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    col_max = logits.max(axis=0)
    probs = logits - col_max
    np.exp(probs, out=probs)
    total = probs.sum(axis=0)
    probs /= total
    at_label = labels * logits.shape[1] + np.arange(logits.shape[1])  # flat [y_t, t]
    hit = logits.ravel()[at_label] == col_max
    tied = ~(total < 2.0)  # a tie adds exp(0) == 1.0 twice; NaN falls back too
    if tied.any():
        hit[tied] = np.argmax(logits[:, tied], axis=0) == labels[tied]
    p_true = probs.ravel()[at_label]
    loss_sum = float(np.dot(weights, -np.log(np.maximum(p_true, PROB_FLOOR))))
    probs *= weights
    probs.ravel()[at_label] -= weights
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
