"""Confusion tensor counting and derived learning state."""

import zlib

import numpy as np
import pytest

from ltseg import _kernels
from ltseg import classifier as clf
from ltseg import confusion as cf
from ltseg import decode as dec
from ltseg import seqdata as sd


def _tensor(ds, predict):
    """Tensor of fixed per-sequence predictions ``predict(seq)``."""
    L = ds.num_classes
    counts = np.zeros((L, L, L + 1), dtype=np.int64)
    for seq in ds.sequences:
        _kernels.count_confusion_into(
            counts, seq.frame_labels, predict(seq), seq.prev_action
        )
    return cf.ConfusionTensor(counts=counts, total_frames=ds.total_frames)


def _random_params(ds, seed, radius=1):
    rng = np.random.default_rng(seed)
    params = clf.ClassifierParams.zeros(ds.num_classes, ds.feature_dim, radius)
    params.weights[:] = rng.standard_normal(params.weights.shape)
    params.bias[:] = rng.standard_normal(ds.num_classes)
    return params


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


def _perfect(seq):
    return seq.frame_labels


def _seeded_random(ds, seed):
    def predict(seq):
        # crc of the id keeps predictions per-sequence deterministic
        local = np.random.default_rng((seed, zlib.crc32(seq.seq_id.encode())))
        return local.integers(0, ds.num_classes, seq.num_frames)

    return predict


def test_perfect_classifier_diagonal_support():
    ds = _dataset()
    tensor = _tensor(ds, _perfect)
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
    tensor = _tensor(ds, lambda s: np.zeros(s.num_frames, np.int64))
    stats = sd.compute_transition_stats(ds)
    assert np.array_equal(tensor.counts.sum(axis=1), tensor.counts[:, 0, :])
    assert np.array_equal(tensor.counts[:, 0, :], stats.counts)
    state = cf.learning_state(tensor, stats)
    assert state.class_acc[0] == 1.0
    assert np.all(state.class_acc[1:][state.class_acc_defined[1:]] == 0.0)


def test_counts_match_per_frame_oracle():
    ds = _dataset(num_classes=3, num_sequences=6, seed=5)
    params = _random_params(ds, seed=77)
    tensor = clf.store_confusion(params, clf.FrameStore.build(ds, 1))
    # oracle: count every frame triple one by one
    L = ds.num_classes
    expect = np.zeros((L, L, L + 1), dtype=np.int64)
    n_frames = 0
    for seq in ds.sequences:
        pred = dec.decode_sequence(params, seq, "argmax")
        for t in range(seq.num_frames):
            expect[seq.frame_labels[t], pred[t], seq.prev_action[t]] += 1
            n_frames += 1
    assert np.array_equal(tensor.counts, expect)
    assert tensor.total_frames == n_frames


def test_marginals():
    ds = _dataset(num_classes=4, num_sequences=10, seed=3)
    stats = sd.compute_transition_stats(ds)
    tensor = _tensor(ds, _seeded_random(ds, 1))
    assert np.array_equal(tensor.transition_counts(), stats.counts)
    m = tensor.counts.sum(axis=2)  # [truth, prediction]
    assert np.array_equal(m.sum(axis=1), ds.class_frame_counts)
    assert m.trace() == tensor.counts[
        np.arange(4), np.arange(4), :
    ].sum()


def test_sequence_order_invariance():
    ds = _dataset(num_classes=3, num_sequences=8, seed=9)
    params = _random_params(ds, seed=4)
    a = clf.store_confusion(params, clf.FrameStore.build(ds, 1))
    shuffled = sd.Dataset.build(ds.sequences[::-1], ds.num_classes, ds.class_names)
    b = clf.store_confusion(params, clf.FrameStore.build(shuffled, 1))
    assert np.array_equal(a.counts, b.counts)


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

    def predict(seq):
        pred = seq.frame_labels.copy()
        wrong = seq.prev_action != 2
        pred[wrong] = 1 - pred[wrong]
        return pred

    tensor = _tensor(ds, predict)
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
    state = cf.learning_state(_tensor(ds, _seeded_random(ds, 8)), stats)
    recomposed = (state.trans_acc * stats.transition).sum(axis=1) / stats.prior
    defined = state.class_acc_defined
    assert np.allclose(state.class_acc[defined], recomposed[defined], atol=1e-9)


def test_undefined_entries_flagged_not_nan():
    # class 2 exists in the inventory but never occurs
    feats = np.zeros((1, 3), np.float32)
    ds = sd.Dataset.build(
        [sd.LabeledSequence.from_frames(feats, [0, 1, 0], 3)], 3
    )
    state = cf.learning_state(_tensor(ds, _perfect), sd.compute_transition_stats(ds))
    assert not state.class_acc_defined[2]
    assert np.isfinite(state.class_acc).all()
    assert np.isfinite(state.trans_acc).all()
    assert state.class_acc[2] == 0.0
