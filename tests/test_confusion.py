"""Confusion tensor counting and derived learning state."""

import zlib

import numpy as np
import pytest

from ltseg import confusion as cf
from ltseg import seqdata as sd
from ltseg.errors import ConfigError


class FakePredictor:
    """Duck-typed classifier: a fixed function of the true labels."""

    def __init__(self, num_classes, feature_dim, fn):
        self.num_classes = num_classes
        self.feature_dim = feature_dim
        self._fn = fn

    def predict_sequence(self, seq):
        return self._fn(seq)


def _dataset(num_classes=3, num_sequences=12, seed=0, feature_dim=4):
    return sd.generate_synthetic(
        sd.SynthConfig(
            num_classes=num_classes,
            feature_dim=feature_dim,
            num_sequences=num_sequences,
            mean_segments=5.0,
            duration_mean=6.0,
            rng_seed=seed,
        )
    )


def _perfect(ds):
    return FakePredictor(ds.num_classes, ds.feature_dim, lambda s: s.frame_labels)


def _seeded_random(ds, seed):
    def fn(seq):
        # crc of the id keeps predictions per-sequence deterministic
        local = np.random.default_rng((seed, zlib.crc32(seq.seq_id.encode())))
        return local.integers(0, ds.num_classes, seq.num_frames)

    return FakePredictor(ds.num_classes, ds.feature_dim, fn)


def test_perfect_classifier_diagonal_support():
    ds = _dataset()
    tensor = cf.compute_confusion(_perfect(ds), ds)
    assert tensor.total_frames == ds.total_frames
    off = tensor.counts.copy()
    L = ds.num_classes
    off[np.arange(L), np.arange(L), :] = 0
    assert off.sum() == 0
    state = cf.learning_state(tensor, sd.compute_transition_stats(ds))
    assert np.all(state.class_acc[state.class_acc_defined] == 1.0)
    assert np.all(state.trans_acc[state.trans_acc_defined] == 1.0)
    assert state.mean_trans_acc == 1.0


def test_constant_classifier():
    ds = _dataset()
    always0 = FakePredictor(
        ds.num_classes, ds.feature_dim, lambda s: np.zeros(s.num_frames, np.int64)
    )
    tensor = cf.compute_confusion(always0, ds)
    stats = sd.compute_transition_stats(ds)
    assert np.array_equal(tensor.counts.sum(axis=1), tensor.counts[:, 0, :])
    assert np.array_equal(tensor.counts[:, 0, :], stats.counts)
    state = cf.learning_state(tensor, stats)
    assert state.class_acc[0] == 1.0
    assert np.all(state.class_acc[1:][state.class_acc_defined[1:]] == 0.0)


def test_counts_match_per_frame_oracle():
    ds = _dataset(num_classes=3, num_sequences=6, seed=5)
    clf = _seeded_random(ds, seed=77)
    tensor = cf.compute_confusion(clf, ds)
    # oracle: count every frame triple one by one
    L = ds.num_classes
    expect = np.zeros((L, L, L + 1), dtype=np.int64)
    n_frames = 0
    for seq in ds.sequences:
        pred = clf.predict_sequence(seq)
        for t in range(seq.num_frames):
            expect[seq.frame_labels[t], pred[t], seq.prev_action[t]] += 1
            n_frames += 1
    assert np.array_equal(tensor.counts, expect)
    assert tensor.total_frames == n_frames


def test_marginals():
    ds = _dataset(num_classes=4, num_sequences=10, seed=3)
    stats = sd.compute_transition_stats(ds)
    tensor = cf.compute_confusion(_seeded_random(ds, 1), ds)
    assert np.array_equal(tensor.transition_counts(), stats.counts)
    m = tensor.counts.sum(axis=2)  # [truth, prediction]
    assert np.array_equal(m.sum(axis=1), ds.class_frame_counts)
    assert m.trace() == tensor.counts[
        np.arange(4), np.arange(4), :
    ].sum()


def test_sequence_order_invariance():
    ds = _dataset(num_classes=3, num_sequences=8, seed=9)
    clf = _seeded_random(ds, 4)
    a = cf.compute_confusion(clf, ds)
    shuffled = sd.Dataset.build(ds.sequences[::-1], ds.num_classes, ds.class_names)
    b = cf.compute_confusion(clf, shuffled)
    assert np.array_equal(a.counts, b.counts)


def test_dimension_mismatch_rejected():
    ds = _dataset()
    with pytest.raises(ConfigError):
        cf.compute_confusion(
            FakePredictor(ds.num_classes + 1, ds.feature_dim, lambda s: None), ds
        )
    with pytest.raises(ConfigError):
        cf.compute_confusion(
            FakePredictor(ds.num_classes, ds.feature_dim + 2, lambda s: None), ds
        )


def test_learning_state_four_frame_example():
    # two 2-frame sequences: [B, A] and [A, B] (A=0, B=1, start=2);
    # classifier is right exactly on the frames that follow 'start'
    feats = np.zeros((1, 2), np.float32)
    seqs = [
        sd.LabeledSequence.from_frames(feats, [1, 0], 2, seq_id="p"),
        sd.LabeledSequence.from_frames(feats, [0, 1], 2, seq_id="q"),
    ]
    ds = sd.Dataset.build(seqs, 2)
    stats = sd.compute_transition_stats(ds)

    def fn(seq):
        pred = seq.frame_labels.copy()
        wrong = seq.prev_action != 2
        pred[wrong] = 1 - pred[wrong]
        return pred

    tensor = cf.compute_confusion(FakePredictor(2, 1, fn), ds)
    state = cf.learning_state(tensor, stats)
    assert state.trans_acc[1, 2] == 1.0
    assert state.trans_acc[0, 2] == 1.0
    assert state.trans_acc[1, 0] == 0.0
    assert state.trans_acc[0, 1] == 0.0
    assert state.mean_trans_acc == pytest.approx(0.5)
    assert state.class_acc[0] == pytest.approx(0.5)
    assert state.class_acc[1] == pytest.approx(0.5)


def test_class_acc_decomposes_over_transitions():
    ds = _dataset(num_classes=5, num_sequences=15, seed=21)
    stats = sd.compute_transition_stats(ds)
    state = cf.learning_state(
        cf.compute_confusion(_seeded_random(ds, 8), ds), stats
    )
    recomposed = (state.trans_acc * stats.transition).sum(axis=1) / stats.prior
    defined = state.class_acc_defined
    assert np.allclose(state.class_acc[defined], recomposed[defined], atol=1e-9)


def test_undefined_entries_flagged_not_nan():
    # class 2 exists in the inventory but never occurs
    feats = np.zeros((1, 3), np.float32)
    ds = sd.Dataset.build(
        [sd.LabeledSequence.from_frames(feats, [0, 1, 0], 3)], 3
    )
    state = cf.learning_state(
        cf.compute_confusion(_perfect(ds), ds), sd.compute_transition_stats(ds)
    )
    assert not state.class_acc_defined[2]
    assert np.isfinite(state.class_acc).all()
    assert np.isfinite(state.trans_acc).all()
    assert state.class_acc[2] == 0.0
