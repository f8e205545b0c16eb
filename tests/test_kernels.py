"""Each kernel is checked against a plain-Python oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltseg import _kernels
from ltseg import seqdata as sd


# -- window_store ------------------------------------------------------------


def window_oracle(features, radius):
    # replication padding, offset-major layout, feature index minor
    dim, frames = features.shape
    out = np.empty((frames, (2 * radius + 1) * dim), np.float64)
    for t in range(frames):
        cols = []
        for offset in range(-radius, radius + 1):
            idx = min(max(t + offset, 0), frames - 1)
            cols.append(features[:, idx])
        out[t] = np.concatenate(cols)
    return out


def unpadded(features):
    """``features`` [D, T] as ``window_store`` takes them with no padding:
    frame-major, a transposed view and not C-contiguous."""
    return features.T, 0


@pytest.mark.parametrize("radius", [0, 1, 2, 5])
def test_window_store_oracle(radius):
    # window_store's stacked windows of unpadded frames: each sequence
    # alone, then all four lengths in one call
    rng = np.random.default_rng(radius)
    seqs = [rng.normal(size=(3, frames)).astype(np.float32) for frames in (1, 2, 7, 30)]
    for features in seqs:
        (got,) = _kernels.window_store([unpadded(features)], radius)
        # the view keeps float32, and the oracle widens it exactly
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, window_oracle(features, radius))
    views = _kernels.window_store(map(unpadded, seqs), radius)
    for got, features in zip(views, seqs, strict=True):
        np.testing.assert_array_equal(got, window_oracle(features, radius))


@pytest.mark.parametrize("radius", [0, 1, 2])
def test_window_store_keeps_float64_precision(radius):
    # 1 + 2**-40 rounds to 1.0 in float32: a view cast to float32
    # whatever its input would lose every fine part below
    rng = np.random.default_rng(10 + radius)
    fine = 1.0 + 2.0**-40 * rng.integers(1, 1000, size=(3, 7))
    assert not np.array_equal(fine.astype(np.float32), fine)
    (got,) = _kernels.window_store([unpadded(fine)], radius)
    assert got.dtype == np.float64
    assert got.tobytes() == window_oracle(fine, radius).tobytes()
    # float32 and float64 sequences in one call: each keeps its precision
    coarse = rng.normal(size=(3, 4)).astype(np.float32)
    seqs = [coarse, fine, coarse[:, :1]]
    views = _kernels.window_store(map(unpadded, seqs), radius)
    assert len(views) == len(seqs)
    for view, features in zip(views, seqs):
        assert view.dtype == features.dtype
        want = window_oracle(features, radius).astype(features.dtype)
        assert view.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("pad", [0, 1, 3])
def test_window_views_share_the_padded_frames(dtype, pad):
    # frames laid out as LabeledSequence holds them: frame-major, with
    # `pad` copies of the edge frame on each side. Up to the pad each
    # view is strided over its own sequence's frames; above it, over a
    # re-padded copy. At every radius the view is the oracle's windows,
    # at the frames' dtype (normal draws do not fit float32)
    rng = np.random.default_rng(20 + pad)
    seqs = [rng.normal(size=(3, frames)).astype(dtype) for frames in (1, 2, 9)]
    layouts = [
        np.ascontiguousarray(np.concatenate([f[:, :1]] * pad + [f] + [f[:, -1:]] * pad,
                                            axis=1).T)
        for f in seqs
    ]
    for radius in range(pad + 3):
        views = _kernels.window_store([(frames, pad) for frames in layouts], radius)
        for view, features, frames in zip(views, seqs, layouts, strict=True):
            assert view.dtype == dtype and not view.flags.writeable
            np.testing.assert_array_equal(view, window_oracle(features, radius))
            own = frames[pad : frames.shape[0] - pad].T  # the features, [D, T]
            assert np.array_equal(own, features)
            assert np.shares_memory(view, own) == (radius <= pad)


@pytest.mark.parametrize("pad", [0, 1, 3])
def test_window_views_of_a_dataset_share_its_buffer(pad):
    # one view per sequence of a flat dataset: read-only, the oracle's
    # windows, over the dataset's own buffer whenever the pad covers the
    # radius, and each view a small object over those bytes
    ds = sd.generate_synthetic(
        sd.SynthConfig(num_classes=3, feature_dim=2, num_sequences=200,
                       mean_segments=2.0, duration_mean=3.0, rng_seed=pad),
        pad=pad,
    )
    pairs = [(seq.frames, seq.pad) for seq in ds.sequences]
    for radius in range(pad + 2):
        views = _kernels.window_store(pairs, radius)
        for view, seq in zip(views, ds.sequences, strict=True):
            assert not view.flags.writeable
            np.testing.assert_array_equal(view, window_oracle(seq.features, radius))
            assert np.shares_memory(view, ds.frames) == (radius <= pad)
    tracemalloc.start()
    try:
        views = _kernels.window_store(pairs, pad)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size / len(views) < 400, size / len(views)


# -- softmax_xent_grad -------------------------------------------------------


def xent_oracle(logits, labels, weights):
    # one frame (row of ``logits``) at a time, max-subtracted softmax
    loss_sum = 0.0
    grad = np.empty_like(logits)
    for t, (row, label, weight) in enumerate(zip(logits, labels, weights)):
        top = max(row)
        exps = [math.exp(z - top) for z in row]
        total = sum(exps)
        probs = [e / total for e in exps]
        loss_sum += weight * -math.log(max(probs[label], _kernels.PROB_FLOOR))
        grad[t] = [weight * (p - (k == label)) for k, p in enumerate(probs)]
    return loss_sum, grad


def xent_both_ways(logits, labels, weights):
    """``softmax_xent_grad`` without a caller's buffer, with one, and in
    place (``out`` a copy of ``logits``, passed as both): each buffered
    call returns that buffer, overwritten whole, and all three calls
    agree byte for byte in loss, gradient and hit."""
    want = _kernels.softmax_xent_grad(logits, labels, weights)
    out = np.full(np.shape(logits), np.nan)
    inplace = np.array(logits, dtype=np.float64, order="C")
    for got, buffer in (
        (_kernels.softmax_xent_grad(logits, labels, weights, out=out), out),
        (_kernels.softmax_xent_grad(inplace, labels, weights, out=inplace), inplace),
    ):
        loss, grad, hit = got
        assert grad is buffer
        assert np.float64(loss).tobytes() == np.float64(want[0]).tobytes()
        assert grad.tobytes() == want[1].tobytes()
        assert hit.tobytes() == want[2].tobytes()
    return want


def test_softmax_xent_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        frames = int(rng.integers(1, 40))
        classes = int(rng.integers(2, 9))
        logits = rng.normal(scale=4.0, size=(frames, classes))
        labels = rng.integers(0, classes, frames)
        weights = rng.uniform(0.1, 3.0, frames)
        # the kernel is class-major: one column per frame
        loss, grad, _ = xent_both_ways(logits.T, labels, weights)
        assert grad.shape == (classes, frames)
        want_loss, want_grad = xent_oracle(logits, labels, weights)
        assert loss == pytest.approx(want_loss, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(grad.T, want_grad, rtol=1e-12, atol=1e-14)


def test_softmax_xent_nan_propagates():
    logits = np.array([[0.5, np.nan], [1.0, 0.0]]).T
    labels = np.array([0, 1])
    weights = np.ones(2)
    loss, grad, _ = xent_both_ways(logits, labels, weights)
    # the probability floor must not hide a NaN posterior
    assert not np.isfinite(loss)


def test_softmax_xent_extreme_logits_no_overflow():
    logits = np.array([[1000.0, -1000.0], [-1000.0, 1000.0]]).T
    labels = np.array([1, 1])
    weights = np.ones(2)
    loss, grad, _ = xent_both_ways(logits, labels, weights)
    assert np.isfinite(loss) and loss > 0
    assert np.isfinite(grad).all()


# few distinct values, so columns tie often; 1.0 and the next float up
# differ by less than exp resolves, so exp(1.0 - top) rounds to 1.0 too
_TIE_VALUES = st.sampled_from([-3.0, -0.5, 0.0, 1.0, np.nextafter(1.0, 2.0), 2.0])


@st.composite
def tied_logits(draw):
    """Class-major logits [L, n] and labels with forced exact ties: whole
    columns equal, a duplicated row, and the label tied at the column max
    with a smaller or a larger class id."""
    classes = draw(st.integers(1, 5))
    frames = draw(st.integers(1, 6))
    scale = draw(st.sampled_from([1.0, 1e-3, 40.0]))
    cells = st.lists(_TIE_VALUES, min_size=frames, max_size=frames)
    logits = scale * np.array(draw(st.lists(cells, min_size=classes, max_size=classes)))
    labels = np.array(draw(st.lists(st.integers(0, classes - 1), min_size=frames,
                                    max_size=frames)))
    if classes > 1 and draw(st.booleans()):
        src, dst = draw(st.lists(st.integers(0, classes - 1), min_size=2, max_size=2,
                                 unique=True))
        logits[dst] = logits[src]
    for t, y in enumerate(labels.tolist()):
        top = logits[:, t].max()
        tie = draw(st.sampled_from(["none", "column", "smaller", "larger"]))
        if tie == "column":
            logits[:, t] = top
        elif tie == "smaller" and y > 0:
            logits[[draw(st.integers(0, y - 1)), y], t] = top
        elif tie == "larger" and y < classes - 1:
            logits[[y, draw(st.integers(y + 1, classes - 1))], t] = top
    return logits, labels


@settings(database=None, derandomize=True, deadline=None, max_examples=300)
@given(case=tied_logits())
def test_softmax_xent_hit_is_argmax(case):
    # the hit read off the column max equals the argmax's, ties included
    logits, labels = case
    _, _, hit = xent_both_ways(logits, labels, np.ones(labels.size))
    assert hit.dtype == bool
    np.testing.assert_array_equal(hit, np.argmax(logits, axis=0) == labels)


def test_softmax_xent_hit_tells_near_ties_apart():
    # below 0.5 in magnitude a logit one float under its column's max sits
    # within 2**-54 of it, so exp(d) rounds to 1.0 for both, yet only the
    # max has d == 0: the label one float under the max does not hit
    tops = np.array([1e-3, 0.3, -1e-3])
    under = np.nextafter(tops, -np.inf)
    logits = np.vstack([np.concatenate([tops, under]), np.concatenate([under, tops])])
    logits = np.hstack([logits, logits])
    labels = np.repeat([0, 1], 2 * tops.size)
    _, _, hit = xent_both_ways(logits, labels, np.ones(labels.size))
    np.testing.assert_array_equal(hit, np.argmax(logits, axis=0) == labels)
    assert hit.sum() == 2 * tops.size


def test_softmax_xent_hit_at_zero_logits():
    # zero weights give all-equal logits: only class 0 wins the argmax
    labels = np.array([0, 1, 2, 0, 3])
    _, _, hit = _kernels.softmax_xent_grad(np.zeros((4, 5)), labels, np.ones(5))
    np.testing.assert_array_equal(hit, labels == 0)


# -- levenshtein -------------------------------------------------------------


def lev_oracle(a, b):
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, y in enumerate(b, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y))
        prev = cur
    return prev[-1]


def test_levenshtein_oracle():
    rng = np.random.default_rng(13)
    for _ in range(200):
        a = rng.integers(0, 4, rng.integers(0, 12)).astype(np.int64)
        b = rng.integers(0, 4, rng.integers(0, 12)).astype(np.int64)
        assert _kernels.levenshtein(a, b) == lev_oracle(a.tolist(), b.tolist())
