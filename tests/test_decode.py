"""NCM prototypes, boundary detection, segment-mode decoding."""

import numpy as np
import pytest

from ltseg import decode as dc
from ltseg import seqdata as sd
from ltseg.errors import ConfigError, EmptySequenceError


def _identity_extractor(seq):
    return seq.features.T.astype(np.float64)


def _dataset(features, labels, num_classes):
    """A one-sequence dataset of features [D, T]."""
    return sd.Dataset.of([("", labels, np.asarray(features, np.float32).T)], num_classes)


def test_class_means_trivial_points():
    feats = np.array([[0, 0, 1, 1, 0], [0, 0, 1, 1, 0]], np.float32)
    ds = _dataset(feats, [0, 0, 1, 1, 0], 2)
    cm = dc.compute_class_means(ds, _identity_extractor)
    assert np.array_equal(cm.means, [[0.0, 0.0], [1.0, 1.0]])
    assert cm.support.tolist() == [3, 2]
    assert cm.usable.all()


def test_class_means_single_frame_class():
    feats = np.array([[2.5, 0.0], [1.5, 0.0]], np.float32)
    ds = _dataset(feats, [1, 0], 2)
    cm = dc.compute_class_means(ds, _identity_extractor)
    assert np.array_equal(cm.means[1], [2.5, 1.5])


def test_class_means_match_two_pass_oracle():
    ds = sd.generate_synthetic(
        sd.SynthConfig(num_classes=5, feature_dim=3, num_sequences=15, rng_seed=4)
    )
    extract = dc.windowed_extractor(1)
    cm = dc.compute_class_means(ds, extract)
    # oracle: gather every frame first, then average per class
    reps = np.concatenate([extract(s) for s in ds.sequences])
    labels = np.concatenate([s.frame_labels for s in ds.sequences])
    for c in range(5):
        mine = reps[labels == c]
        assert cm.support[c] == mine.shape[0]
        if mine.shape[0]:
            assert np.allclose(cm.means[c], mine.mean(axis=0), atol=1e-9)


def test_class_means_zero_support_flagged():
    feats = np.zeros((2, 3), np.float32)
    ds = _dataset(feats, [0, 2, 0], 3)
    cm = dc.compute_class_means(ds, _identity_extractor)
    assert not cm.usable[1]
    assert np.all(cm.means[1] == 0.0)
    assert np.isfinite(cm.means).all()


def test_ncm_exact_hits_and_ties():
    means = dc.ClassMeans(
        means=np.array([[0.0, 0], [4.0, 0], [2.0, 0], [9.0, 9], [2.0, 0], [2.0, 0]]),
        support=np.array([1, 1, 1, 1, 1, 1]),
    )
    reps = np.array([[4.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
    got = dc.ncm_predict(means, reps)
    assert got[0] == 1  # exact hit
    assert got[1] == 2  # equidistant to classes 2, 4, 5: smallest wins
    assert got[2] == 0  # equidistant to 0 and 2


def test_ncm_skips_unusable_classes():
    means = dc.ClassMeans(
        means=np.array([[0.0], [100.0], [1.0]]),
        support=np.array([0, 3, 2]),
    )
    got = dc.ncm_predict(means, np.array([[0.1]]))
    assert got[0] == 2  # class 0 would be closer but has no support
    with pytest.raises(ConfigError):
        dc.ncm_predict(
            dc.ClassMeans(means=np.zeros((2, 1)), support=np.zeros(2, np.int64)),
            np.array([[0.0]]),
        )


def test_ncm_matches_brute_force():
    rng = np.random.default_rng(8)
    means = dc.ClassMeans(
        means=rng.standard_normal((5, 4)), support=np.array([3, 0, 2, 5, 1])
    )
    reps = rng.standard_normal((60, 4))
    got = dc.ncm_predict(means, reps)
    for t in range(60):
        best, best_d = None, np.inf
        for c in range(5):
            if means.support[c] == 0:
                continue
            d = float(((reps[t] - means.means[c]) ** 2).sum())
            if d < best_d:
                best, best_d = c, d
        assert got[t] == best


def test_ncm_invariant_under_orthogonal_maps():
    rng = np.random.default_rng(15)
    means = np.asarray(rng.standard_normal((4, 6)))
    reps = rng.standard_normal((40, 6))
    support = np.array([2, 3, 1, 4])
    base = dc.ncm_predict(dc.ClassMeans(means=means, support=support), reps)
    for _ in range(20):
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        rotated = dc.ncm_predict(
            dc.ClassMeans(means=means @ q.T, support=support), reps @ q.T
        )
        assert np.array_equal(base, rotated)


def test_segment_boundaries():
    # S-NCM reads the classifier's runs from the run-length encoding:
    # with one vote value per run, the output has exactly those runs
    assert dc.sncm_decode([3, 3, 3, 3], [2, 1, 2, 1]).tolist() == [1, 1, 1, 1]
    assert dc.sncm_decode([0, 0, 1, 1, 2], [4, 4, 5, 5, 6]).tolist() == [
        4, 4, 5, 5, 6,
    ]
    assert dc.sncm_decode([0, 1, 0, 1], [3, 2, 1, 0]).tolist() == [3, 2, 1, 0]
    with pytest.raises(EmptySequenceError):
        dc.sncm_decode([], [])


def test_sncm_agreement_fixed_point():
    y = np.array([0, 0, 1, 1, 1, 0])
    assert np.array_equal(dc.sncm_decode(y, y), y)


def test_sncm_hand_example():
    y_hat = [0, 0, 0, 1, 1]
    v_hat = [0, 2, 2, 1, 0]
    # first run: votes {0:1, 2:2} -> 2; second: tie {1, 0} -> 0
    assert dc.sncm_decode(y_hat, v_hat).tolist() == [2, 2, 2, 0, 0]


def test_sncm_never_adds_runs():
    rng = np.random.default_rng(27)
    for _ in range(300):
        n = int(rng.integers(1, 30))
        y_hat = rng.integers(0, 4, n)
        v_hat = rng.integers(0, 4, n)
        out = dc.sncm_decode(y_hat, v_hat)
        runs = lambda a: 1 + int((np.diff(a) != 0).sum())
        assert runs(out) <= runs(y_hat)
        # constant labeling inside every classifier run
        starts, ends, _ = sd.segmentation_from_frames(y_hat)
        for s, e in zip(starts, ends):
            assert len(set(out[s : e + 1].tolist())) == 1


def test_sncm_respects_constant_votes():
    y_hat = np.array([0, 0, 2, 2, 2, 1])
    v_hat = np.array([3, 3, 0, 0, 0, 2])
    assert np.array_equal(dc.sncm_decode(y_hat, v_hat), v_hat)


def test_sncm_idempotent():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        y_hat = rng.integers(0, 5, n)
        v_hat = rng.integers(0, 5, n)
        once = dc.sncm_decode(y_hat, v_hat)
        again = dc.sncm_decode(once, v_hat)
        assert np.array_equal(once, again)


def test_sncm_length_mismatch():
    with pytest.raises(ConfigError):
        dc.sncm_decode([0, 1], [0, 1, 1])


def test_decode_sequence_modes():
    from ltseg import classifier as clf

    ds = sd.generate_synthetic(
        sd.SynthConfig(num_classes=3, feature_dim=4, num_sequences=10,
                       noise_scale=0.8, rng_seed=6)
    )
    params, _ = clf.train(
        ds, clf.TrainConfig(epochs=5, learning_rate=0.3, batch_size=4,
                            context_radius=1, loss_mode="plain_ce"),
    )
    means = dc.compute_class_means(ds, dc.windowed_extractor(1))
    seq = ds.sequences[0]
    arg = dc.decode_sequence(params, seq, "argmax")
    ncm = dc.decode_sequence(params, seq, "ncm", means)
    sncm = dc.decode_sequence(params, seq, "sncm", means)
    phi = dc.windowed_extractor(1)(seq)
    assert np.array_equal(arg, np.argmax(phi @ params.weights.T + params.bias, axis=1))
    assert np.array_equal(
        ncm, dc.ncm_predict(means, dc.windowed_extractor(1)(seq))
    )
    assert np.array_equal(sncm, dc.sncm_decode(arg, ncm))
    with pytest.raises(ConfigError):
        dc.decode_sequence(params, seq, "viterbi")
    with pytest.raises(ConfigError):
        dc.decode_sequence(params, seq, "sncm")  # means required


def test_decode_runs_every_decoder_on_the_same_windows():
    from ltseg import classifier as clf

    ds = sd.generate_synthetic(
        sd.SynthConfig(num_classes=4, feature_dim=3, num_sequences=6,
                       noise_scale=1.0, rng_seed=8)
    )
    params, _ = clf.train(
        ds, clf.TrainConfig(epochs=2, batch_size=3, context_radius=2,
                            loss_mode="plain_ce"),
    )
    means = params.train_means
    for seq in ds.sequences:
        phi = dc.windowed_extractor(2)(seq)
        got = dc.decode(params, means, phi)
        assert tuple(got) == dc.DECODE_MODES
        assert np.array_equal(got["argmax"], params.predict_windows(phi))
        assert np.array_equal(got["ncm"], dc.ncm_predict(means, phi))
        assert np.array_equal(got["sncm"], dc.sncm_decode(got["argmax"], got["ncm"]))
        for mode in dc.DECODE_MODES:
            once = dc.decode_sequence(params, seq, mode, means=means)
            assert np.array_equal(once, got[mode])
