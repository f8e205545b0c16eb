"""Numeric hot loops: windowed views of padded frames, weighted softmax
cross-entropy and edit distance, all in numpy."""

import numpy as np

PROB_FLOOR = 1e-12


def window_store(padded, radius):
    """One read-only window view per ``(frames, pad)`` pair, for training
    and eval: ``frames`` ``[T + 2*pad, D]`` hold ``pad`` replicated edge
    frames on each side, and row ``t`` of the ``[T, D*(2*radius+1)]``
    view is the window around frame ``t``, offsets -radius..+radius,
    feature index minor. Where ``pad`` covers ``radius`` the view is an
    ``ndarray`` over the bytes of C-contiguous ``frames``, no copy; a
    smaller pad is re-padded into a copy first. It keeps their dtype."""
    views = []
    for frames, pad in padded:
        frames = np.ascontiguousarray(frames)
        if pad < radius:
            grow = radius - pad
            frames, pad = np.pad(frames, ((grow, grow), (0, 0)), mode="edge"), radius
        dim, size = frames.shape[1], frames.itemsize
        view = np.ndarray(
            (frames.shape[0] - 2 * pad, dim * (2 * radius + 1)), frames.dtype,
            buffer=frames, offset=(pad - radius) * dim * size,
            strides=(dim * size, size),
        )
        view.flags.writeable = False
        views.append(view)
    return views


class XentScratch:
    """``softmax_xent_grad``'s work arrays for up to ``frames`` frames of
    ``classes`` classes, made once: the bool marks, flat so each call's
    ``[L, n]`` prefix is C-contiguous, and per-frame vectors, of which a
    call takes the first ``n`` entries. ``column`` holds one value per
    column in turn: its max, its sum, then the label's probability."""

    def __init__(self, classes, frames):
        self.marks = np.empty(classes * frames, dtype=bool)
        self.frame = np.arange(frames)
        self.at_label = np.empty(frames, dtype=np.int64)
        self.column = np.empty(frames)
        self.hit = np.empty(frames, dtype=bool)
        self.tied = np.empty(frames, dtype=bool)


def softmax_xent_grad(logits, labels, weights, out=None, scratch=None):
    """Weighted softmax cross-entropy over a batch of frames, class-major.

    ``logits`` is [L, n], one column per frame. Returns
    ``(loss_sum, dlogits, hit)`` where per frame t
    ``loss_t = weights[t] * -log(max(p[labels[t], t], PROB_FLOOR))``,
    ``dlogits[:, t] = weights[t] * (softmax(logits[:, t]) - onehot(labels[t]))``
    and ``hit[t] = argmax(logits[:, t]) == labels[t]`` (ties to the
    smallest id). Softmax is computed with column-max subtraction; the
    reductions run across the L rows. ``dlogits`` is written into
    ``out``, a float64 C-contiguous [L, n] array that is ``logits``
    itself or does not overlap it, when one is given, and is a new array
    otherwise. ``scratch`` is an ``XentScratch`` for at least L classes
    and n frames (a new one when not given), and ``hit`` lives in it.

    The hits are read before ``exp``, off ``d = logits - col_max``: for
    finite x and m, ``x - m == 0`` holds exactly when ``x == m`` (which
    ``exp(d) == 1.0`` would not tell: it holds for d in (-2**-54, 0)), so
    the label hits iff ``d == 0`` marks it. Each mark adds exactly 1.0 to
    the column's sum, so a sum below 2.0 means one mark; when any column
    ties, as at the zero-initialised first step, every column takes its
    first mark, the smallest tied id, found row by row. A column holding
    NaN or +inf has no mark, so its hit can differ from the argmax's; its
    loss is NaN, which ``train`` raises on before it reads any hit.
    """
    # C order, so the column sums run in one order whatever the input layout
    logits = np.ascontiguousarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    classes, n = logits.shape
    if scratch is None:
        scratch = XentScratch(classes, n)
    # flat C-order index of [y_t, t]
    at_label = np.multiply(labels, n, out=scratch.at_label[:n])
    at_label += scratch.frame[:n]
    column = scratch.column[:n]
    probs = np.subtract(logits, logits.max(axis=0, out=column), out=out)
    marks = np.equal(probs, 0.0, out=scratch.marks[: classes * n].reshape(classes, n))
    hit = marks.take(at_label, out=scratch.hit[:n])
    np.exp(probs, out=probs)
    total = probs.sum(axis=0, out=column)
    probs /= total
    tied = np.less(total, 2.0, out=scratch.tied[:n])
    np.logical_not(tied, out=tied)  # two marks add 2.0; NaN falls back too
    p_true = probs.take(at_label, out=column)
    np.log(np.maximum(p_true, PROB_FLOOR, out=p_true), out=p_true)
    loss_sum = float(np.dot(weights, np.negative(p_true, out=p_true)))
    probs *= weights
    np.subtract(probs.take(at_label, out=column), weights, out=column)
    probs.put(at_label, column)
    if tied.any():  # each column's first mark, row by row into the free at_label
        at_label.fill(0)  # a column with no mark reads 0, as argmax's does
        for row in range(classes - 1, -1, -1):
            np.copyto(at_label, row, where=marks[row])
        np.equal(at_label, labels, out=hit)
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
