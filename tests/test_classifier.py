"""Linear frame classifier, training loop, checkpoints."""

import json
import math
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltseg import _kernels
from ltseg import classifier as clf
from ltseg import costsens as cs
from ltseg import decode as dec
from ltseg import seqdata as sd
from ltseg.errors import ConfigError, ParseError, RangeError, TrainingDivergedError


def _record(features, labels):
    """A ``Dataset.of`` record of features [D, T], as float32."""
    return "", labels, np.asarray(features, np.float32).T


def _seq(features, labels, num_classes, pad=0):
    return sd.Dataset.of([_record(features, labels)], num_classes, pad=pad).sequences[0]


def _separable_dataset(seed=12):
    return sd.generate_synthetic(
        sd.SynthConfig(
            num_classes=2, feature_dim=4, num_sequences=30, mean_segments=4.0,
            duration_mean=8.0, mean_scale=3.0, noise_scale=0.3, class_skew=0.0,
            rng_seed=seed,
        )
    )


def _probs(params, seq):
    """Posteriors [L, T] from the classifier's class-major logits."""
    phi = dec.windowed_extractor(params.context_radius)(seq)
    logits = clf._class_major_logits(params, phi)
    z = np.exp(logits - logits.max(axis=0))
    return z / z.sum(axis=0)


def _frame_window(seq, radius, t):
    """Oracle: frame t's clipped window, float64, one frame alone."""
    idx = np.clip(np.arange(t - radius, t + radius + 1), 0, seq.num_frames - 1)
    return seq.features[:, idx].T.astype(np.float64).ravel()


def _window_oracle(seq, radius):
    """Oracle: every frame's window, one frame at a time, [T, D*(2w+1)]."""
    return np.array([_frame_window(seq, radius, t) for t in range(seq.num_frames)])


def _frame_logits(params, seq, t):
    """Oracle: frame t's logits from its clipped window, one frame alone."""
    return params.weights @ _frame_window(seq, params.context_radius, t) + params.bias


def test_forward_zero_params_uniform():
    seq = _seq(np.arange(6).reshape(2, 3), [0, 1, 2], 3)
    params = clf.ClassifierParams.zeros(3, 2, context_radius=1)
    assert _probs(params, seq) == pytest.approx(np.full((3, 3), 1 / 3))


def test_forward_hand_evaluated_softmax():
    seq = _seq([[0.5], [-1.0]], [0], 2)
    params = clf.ClassifierParams.zeros(2, 2, context_radius=0)
    params.weights[:] = [[1.0, 2.0], [3.0, 4.0]]
    params.bias[:] = [0.1, -0.2]
    got = _probs(params, seq)[:, 0]
    # oracle: four multiplies and a softmax by hand
    z0 = 1.0 * 0.5 + 2.0 * -1.0 + 0.1
    z1 = 3.0 * 0.5 + 4.0 * -1.0 - 0.2
    denom = math.exp(z0) + math.exp(z1)
    assert got == pytest.approx([math.exp(z0) / denom, math.exp(z1) / denom], rel=1e-12)
    assert got.sum() == pytest.approx(1.0, abs=1e-9)


def test_forward_shift_invariance():
    rng = np.random.default_rng(4)
    seq = _seq(rng.standard_normal((3, 5)), [0, 1, 2, 1, 0], 3)
    params = clf.ClassifierParams.zeros(3, 3, context_radius=1)
    params.weights[:] = rng.standard_normal(params.weights.shape)
    base = _probs(params, seq)
    params.bias += 7.3  # same constant on every logit
    assert _probs(params, seq) == pytest.approx(base, rel=1e-12)


def test_predict_sequence_contracts():
    rng = np.random.default_rng(11)
    seq = _seq(rng.standard_normal((2, 12)), rng.integers(0, 3, 12), 3)

    uniform = clf.ClassifierParams.zeros(3, 2, context_radius=0)
    assert np.all(dec.decode_sequence(uniform, seq, "argmax") == 0)  # ties to 0

    params = clf.ClassifierParams.zeros(3, 2, context_radius=1)
    params.weights[:] = rng.standard_normal(params.weights.shape)
    params.bias[:] = rng.standard_normal(3)
    pred = dec.decode_sequence(params, seq, "argmax")
    for t in range(12):
        assert pred[t] == int(np.argmax(_frame_logits(params, seq, t)))


def test_predict_perfect_margin():
    seq = _seq([[1.0, 1.0, -1.0, -1.0, 1.0]], [0, 0, 1, 1, 0], 2)
    params = clf.ClassifierParams.zeros(2, 1, context_radius=0)
    params.weights[:] = [[5.0], [-5.0]]
    assert np.array_equal(dec.decode_sequence(params, seq, "argmax"), seq.frame_labels)


def test_single_step_descends():
    seq = _seq([[0.9], [-0.4]], [1], 2)
    params = clf.ClassifierParams.zeros(2, 2, context_radius=0)
    rng = np.random.default_rng(3)
    params.weights[:] = rng.standard_normal(params.weights.shape)
    phi = dec.windowed_extractor(0)(seq)
    ones = np.ones(1)
    before, grad_w, grad_b, _ = clf.batch_gradient(params, phi, seq.frame_labels,
                                                   ones)
    params.weights -= 1e-4 * grad_w
    params.bias -= 1e-4 * grad_b
    after, _, _, _ = clf.batch_gradient(params, phi, seq.frame_labels, ones)
    assert after < before


def test_training_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    ds = sd.Dataset.of([_record(rng.standard_normal((2, 3)), [0, 2, 1])], 3)
    seq = ds.sequences[0]
    counts = sd.compute_transition_stats(ds)
    lam = np.where(counts > 0, rng.uniform(0, 1, (3, 4)), 0.0)
    gain = cs.compute_gain(counts, lam, tau=0.6)
    params = clf.ClassifierParams.zeros(3, 2, context_radius=1)
    params.weights[:] = rng.standard_normal(params.weights.shape)
    params.bias[:] = rng.standard_normal(3)

    def total_loss(p):
        # oracle: one frame at a time, weight tempered[y, u] read directly
        out = 0.0
        for t in range(3):
            z = _frame_logits(p, seq, t)
            log_p = z - z.max() - math.log(np.exp(z - z.max()).sum())
            y, u = int(seq.frame_labels[t]), int(seq.prev_action[t])
            out += gain[y, u] * -log_p[y]
        return out / 3

    # the step train runs: the views widened into a float64 buffer, the
    # logits and in place their gradient written into one [L, n] buffer
    phi = np.concatenate(_kernels.window_store([(seq.frames, seq.pad)], 1),
                         out=np.empty((3, 6)))
    w = gain[seq.frame_labels, seq.prev_action]
    _, grad_w, grad_b, _ = clf.batch_gradient(
        params, phi, seq.frame_labels, w, np.empty((3, 3)), _kernels.XentScratch(3, 3)
    )
    grad_w /= 3
    grad_b /= 3

    h = 1e-5
    for arr, grad in ((params.weights, grad_w), (params.bias, grad_b)):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            keep = arr[ix]
            arr[ix] = keep + h
            up = total_loss(params)
            arr[ix] = keep - h
            down = total_loss(params)
            arr[ix] = keep
            fd = (up - down) / (2 * h)
            assert grad[ix] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_plain_ce_learns_separable_data():
    ds = _separable_dataset()
    params, telemetry = clf.train(
        ds,
        clf.TrainConfig(
            epochs=50, learning_rate=0.5, batch_size=4, context_radius=0,
            loss_mode="plain_ce", rng_seed=0,
        ),
    )
    correct = total = 0
    for seq in ds.sequences:
        pred = dec.decode_sequence(params, seq, "argmax")
        correct += (pred == seq.frame_labels).sum()
        total += seq.num_frames
    assert correct / total >= 0.95
    assert len(telemetry) == 50
    assert telemetry[-1]["lambda_max"] == 0.0  # gamma = 0 holds lambda at 0
    assert telemetry[-1]["loss"] < telemetry[0]["loss"]


def test_tau_zero_matches_plain_ce_trajectory():
    ds = _separable_dataset(seed=5)
    common = dict(epochs=8, learning_rate=0.3, batch_size=4, context_radius=1,
                  rng_seed=9)
    p_plain, _ = clf.train(ds, clf.TrainConfig(loss_mode="plain_ce", **common))
    p_cs, _ = clf.train(
        ds, clf.TrainConfig(loss_mode="cost_sensitive", tau=0.0, **common)
    )
    assert np.array_equal(p_plain.weights, p_cs.weights)
    assert np.array_equal(p_plain.bias, p_cs.bias)


def test_seeded_runs_identical():
    ds = _separable_dataset(seed=2)
    cfg = clf.TrainConfig(epochs=6, learning_rate=0.3, batch_size=4,
                          loss_mode="cost_sensitive", rng_seed=31)
    p1, t1 = clf.train(ds, cfg)
    p2, t2 = clf.train(ds, cfg)
    assert np.array_equal(p1.weights, p2.weights)
    assert t1 == t2


# -- frame store and the batched epoch ---------------------------------------


def _mixed_length_dataset(num_classes=4, feature_dim=3, seed=0, pad=0):
    # T = 1, sequences shorter than the largest radius, and longer ones
    rng = np.random.default_rng(seed)
    records = [
        _record(rng.standard_normal((feature_dim, t)), rng.integers(0, num_classes, t))
        for t in (1, 3, 12, 1, 2, 40, 7)
    ]
    return sd.Dataset.of(records, num_classes, pad=pad)


@pytest.mark.parametrize("radius", [0, 1, 2, 5])
def test_train_views_window_each_sequence_in_place(radius, monkeypatch):
    # train's windows, on a dataset laid out at the training radius:
    # window_store's one view per sequence, each strided over that
    # sequence's own padded frames
    ds = _mixed_length_dataset(seed=radius, pad=radius)
    taken = []
    window_store = _kernels.window_store

    def recorded(padded, w):
        taken.append(window_store(padded, w))
        return taken[-1]

    monkeypatch.setattr(_kernels, "window_store", recorded)
    clf.train(ds, clf.TrainConfig(epochs=0, context_radius=radius))
    monkeypatch.undo()
    (views,) = taken
    assert len(views) == len(ds.sequences)
    # the buffer behind each view is the dataset's one float32 buffer as
    # it is, D * (N + 2wS) values; each batch widens to float64
    for view, seq in zip(views, ds.sequences):
        assert view.shape == (seq.num_frames, ds.feature_dim * (2 * radius + 1))
        assert not view.flags.writeable
        want = _window_oracle(seq, radius)
        np.testing.assert_array_equal(view, want)
        # eval's windows: the one-sequence view, widened exactly to float64
        assert dec.windowed_extractor(radius)(seq).tobytes() == want.tobytes()
        assert np.shares_memory(view, seq.features)
        buffer = view
        while getattr(buffer, "base", None) is not None:
            buffer = buffer.base
        assert buffer is ds.frames and buffer.dtype == np.float32
        assert buffer.size == ds.feature_dim * (ds.total_frames + 2 * radius * len(views))
    batch = [5, 0, 3]
    rows = sum(ds.sequences[s].num_frames for s in batch)
    phi = np.concatenate([views[s] for s in batch],
                         out=np.empty((rows, views[0].shape[1])))
    assert phi.dtype == np.float64
    np.testing.assert_array_equal(
        phi,
        np.concatenate([_window_oracle(ds.sequences[s], radius) for s in batch]),
    )


class _PastTheBound(Exception):
    pass


def test_radius_bound_counts_only_what_the_radius_adds(monkeypatch):
    # a stand-in dataset of 2**20 + 1 loaded frames of 2048 values, more
    # than 2**31 entries: they are in memory already, so no radius is
    # refused for them. train stops right after its bound, at the
    # transition counts, so nothing is allocated
    def stop(dataset):
        raise _PastTheBound

    monkeypatch.setattr(clf, "compute_transition_stats", stop)

    def dataset(num_classes, num_sequences):
        return types.SimpleNamespace(
            num_classes=num_classes, feature_dim=2048, total_frames=2**20 + 1,
            sequences=[None] * num_sequences,
        )

    def train(ds, radius):
        clf.train(ds, clf.TrainConfig(context_radius=radius))

    assert dataset(48, 4).total_frames * 2048 >= sd.DRAW_LIMIT
    # the weights, 48 * 2048 * (2w + 1), reach 2**31 at w = 10923; the
    # padding, 2w * 1000 * 2048, at w = 525
    for ds, radius in ((dataset(48, 4), 0), (dataset(48, 4), 1),
                       (dataset(48, 4), 10_922), (dataset(2, 1000), 524)):
        with pytest.raises(_PastTheBound):
            train(ds, radius)
    for ds, radius in ((dataset(48, 4), 10_923), (dataset(2, 1000), 525),
                       (dataset(2, 1), 10**12)):
        with pytest.raises(ConfigError, match=f"context_radius {radius} "):
            train(ds, radius)


@pytest.mark.parametrize("radius", [0, 1, 2])
def test_train_means_equal_compute_class_means(radius):
    # the means train takes from its frame store are the reference's,
    # bit for bit: 1-frame sequences, and class 3 has no frame at all
    rng = np.random.default_rng(40 + radius)
    records = [
        _record(rng.standard_normal((3, t)), rng.integers(0, 3, t))
        for t in (1, 3, 12, 1, 2, 40, 7)
    ]
    ds = sd.Dataset.of(records, 4)
    params, _ = clf.train(ds, clf.TrainConfig(epochs=1, batch_size=3,
                                              context_radius=radius))
    want = dec.compute_class_means(ds, dec.windowed_extractor(radius))
    got = params.train_means
    assert got.means.tobytes() == want.means.tobytes()
    assert got.support.tobytes() == want.support.tobytes()
    assert got.support[3] == 0 and not got.means[3].any()
    assert got.means.shape == (4, 3 * (2 * radius + 1))


def _reference_train(dataset, config):
    """The training loop one sequence at a time: row-major logits, a
    per-frame-row softmax, per-sequence gradient sums and a full (truth,
    prediction, previous action) confusion tensor counted per sequence
    from the logits in force before its batch's step, with the learning
    state read off its diagonal and its marginal over predictions. Only
    cost_sensitive steps the multipliers; the other modes hold them at
    zero with a zero step."""
    trans_counts = sd.compute_transition_stats(dataset)
    lam = np.zeros((dataset.num_classes, dataset.num_classes + 1))
    params = clf.ClassifierParams.zeros(
        dataset.num_classes, dataset.feature_dim, config.context_radius
    )
    rng = np.random.default_rng(config.rng_seed)
    n_seq = len(dataset.sequences)
    L = dataset.num_classes
    gamma = config.gamma if config.loss_mode == "cost_sensitive" else 0.0
    telemetry = []
    for epoch in range(config.epochs):
        gain = None
        if config.loss_mode != "plain_ce":
            gain = cs.compute_gain(trans_counts, lam, config.tau)
        order = rng.permutation(n_seq)
        epoch_loss = 0.0
        counts = np.zeros((L, L, L + 1), np.int64)
        for lo in range(0, n_seq, config.batch_size):
            grad_w = np.zeros_like(params.weights)
            grad_b = np.zeros_like(params.bias)
            batch_frames = 0
            for idx in order[lo : lo + config.batch_size]:
                seq = dataset.sequences[idx]
                phi = dec.windowed_extractor(config.context_radius)(seq)
                logits = phi @ params.weights.T + params.bias
                np.add.at(counts, (seq.frame_labels, np.argmax(logits, axis=1),
                                   seq.prev_action), 1)
                frame_w = np.ones(seq.num_frames)
                if gain is not None:
                    frame_w = gain[seq.frame_labels, seq.prev_action]
                probs = np.exp(logits - logits.max(axis=1, keepdims=True))
                probs /= probs.sum(axis=1, keepdims=True)
                rows = np.arange(seq.num_frames)
                p_true = np.maximum(probs[rows, seq.frame_labels],
                                    _kernels.PROB_FLOOR)
                epoch_loss += float(np.dot(frame_w, -np.log(p_true)))
                dlogits = probs * frame_w[:, None]
                dlogits[rows, seq.frame_labels] -= frame_w
                grad_w += dlogits.T @ phi
                grad_b += dlogits.sum(axis=0)
                batch_frames += seq.num_frames
            params.weights -= config.learning_rate / batch_frames * grad_w
            params.bias -= config.learning_rate / batch_frames * grad_b
        hits = counts[np.arange(L), np.arange(L)]
        support = counts.sum(axis=1)
        defined = support > 0
        trans_acc = np.zeros((L, L + 1))
        np.divide(hits.astype(np.float64), support.astype(np.float64),
                  out=trans_acc, where=defined)
        state_acc, state_mean = cs.learning_state(hits, trans_counts)
        assert np.array_equal(state_acc, trans_acc)
        assert state_mean == float(trans_acc[defined].mean())
        lam, record = cs.multiplier_step(
            lam, hits, trans_counts, gamma, config.epsilon
        )
        record.update(epoch=epoch, loss=epoch_loss / dataset.total_frames)
        telemetry.append(record)
    return params, telemetry


@pytest.mark.parametrize("loss_mode", clf.LOSS_MODES)
def test_train_matches_per_sequence_reference(loss_mode):
    ds = sd.generate_synthetic(
        sd.SynthConfig(num_classes=4, feature_dim=3, num_sequences=23,
                       mean_scale=1.0, noise_scale=1.2, class_skew=1.5,
                       rng_seed=7)
    )
    cfg = clf.TrainConfig(epochs=2, learning_rate=0.4, batch_size=5,
                          context_radius=2, tau=1.0, gamma=0.5,
                          loss_mode=loss_mode, rng_seed=3)
    _assert_train_matches_reference(ds, cfg)


def _assert_train_matches_reference(ds, cfg):
    params, telemetry = clf.train(ds, cfg)
    want_params, want_telemetry = _reference_train(ds, cfg)
    np.testing.assert_allclose(params.weights, want_params.weights, rtol=0, atol=1e-12)
    np.testing.assert_allclose(params.bias, want_params.bias, rtol=0, atol=1e-12)
    assert len(telemetry) == len(want_telemetry) == cfg.epochs
    for got, want in zip(telemetry, want_telemetry):
        # the loss sums the same terms in another order; the rest comes
        # from identical hit counts and must match exactly
        assert got.pop("loss") == pytest.approx(want.pop("loss"), rel=1e-12)
        assert got == want


@pytest.mark.parametrize("batch_size", [7, 50])
@pytest.mark.parametrize("loss_mode", clf.LOSS_MODES)
def test_one_batch_of_every_sequence_matches_reference(loss_mode, batch_size):
    # batch_size >= the 7 sequences: every step is the one largest batch,
    # which fills train's step buffers exactly, 1-frame sequences at
    # radius 2 included
    ds = _mixed_length_dataset(seed=8)
    cfg = clf.TrainConfig(epochs=3, learning_rate=0.4, batch_size=batch_size,
                          context_radius=2, tau=1.0, gamma=0.5,
                          loss_mode=loss_mode, rng_seed=3)
    _assert_train_matches_reference(ds, cfg)


def test_train_draws_its_batch_plan_from_one_generator(monkeypatch):
    # one generator, which draws each epoch's permutation once and
    # nothing else; the trained numbers are those of an unwatched run
    ds = _mixed_length_dataset(seed=8)
    cfg = clf.TrainConfig(epochs=4, batch_size=3, context_radius=1, rng_seed=5)
    want_params, want_telemetry = clf.train(ds, cfg)
    real, made = np.random.default_rng, []

    class Watched:
        def __init__(self, seed):
            self.rng, self.draws = real(seed), []
            made.append(self)

        def __getattr__(self, name):
            self.draws.append(name)
            return getattr(self.rng, name)

    monkeypatch.setattr(np.random, "default_rng", Watched)
    params, telemetry = clf.train(ds, cfg)
    monkeypatch.undo()
    assert [gen.draws for gen in made] == [["permutation"] * cfg.epochs]
    assert params.weights.tobytes() == want_params.weights.tobytes()
    assert params.bias.tobytes() == want_params.bias.tobytes()
    assert telemetry == want_telemetry


def test_train_refuses_a_batch_plan_past_draw_limit(monkeypatch):
    # the plan holds epochs * num_sequences permutation entries; past the
    # bound train refuses before it makes a generator
    ds = _mixed_length_dataset(seed=8)
    S = len(ds.sequences)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: pytest.fail("drew"))
    with pytest.raises(ConfigError, match=f"epochs {-(-sd.DRAW_LIMIT // S)} "
                                          f"\\* num_sequences {S}"):
        clf.train(ds, clf.TrainConfig(epochs=-(-sd.DRAW_LIMIT // S)))


def _first_step_costs(monkeypatch, ds, cfg):
    """tracemalloc's peak above the memory in use, inside the first
    step's softmax (every column ties at the zero-initialised weights)
    and inside the same call on that batch's logits untied (each row
    offset by its class id)."""
    costs = []
    real = _kernels.softmax_xent_grad

    def cost(logits, labels, weights, out, scratch):
        current, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = real(logits, labels, weights, out=out, scratch=scratch)
        return result, tracemalloc.get_traced_memory()[1] - current

    def probed(logits, labels, weights, out=None, scratch=None):
        if costs:
            return real(logits, labels, weights, out=out, scratch=scratch)
        untied = logits + np.arange(logits.shape[0])[:, None]
        costs.append(cost(untied, labels, weights, untied, scratch)[1])
        result, tied = cost(logits, labels, weights, out, scratch)
        costs.insert(0, tied)
        return result

    monkeypatch.setattr(_kernels, "softmax_xent_grad", probed)
    tracemalloc.start()
    try:
        clf.train(ds, cfg)
    finally:
        tracemalloc.stop()
    return costs


def test_train_memory_is_windows_plus_step_buffers(monkeypatch):
    # a dataset laid out at the training radius: train windows it in
    # place, so its peak holds the step buffers, the flat cells and no
    # copy of the features. At feature_dim 2 and ~200-frame sequences
    # the padded float32 frames cost 8 bytes a frame, as much as one
    # int64 array a frame, so a copy of them or any per-frame array over
    # the training set besides the cells breaks the bound. The windows of
    # the name are views now; they cost only their share of the slack
    cfg = clf.TrainConfig(epochs=2, batch_size=4, context_radius=1)
    ds = sd.generate_synthetic(
        sd.SynthConfig(num_classes=3, feature_dim=2, num_sequences=200,
                       mean_segments=5.0, duration_mean=40.0, rng_seed=0),
        pad=cfg.context_radius,
    )
    S, D, L = len(ds.sequences), ds.feature_dim, ds.num_classes
    w = cfg.context_radius
    lengths = np.array([seq.num_frames for seq in ds.sequences])
    # the largest batch the epochs form, from a twin of train's generator;
    # the batch_size longest sequences are never one batch here
    twin = np.random.default_rng(cfg.rng_seed)
    n = max(
        lengths[twin.permutation(S)][lo : lo + cfg.batch_size].sum()
        for _ in range(cfg.epochs)
        for lo in range(0, S, cfg.batch_size)
    )
    n_max = lengths[np.argsort(lengths)[-cfg.batch_size :]].sum()
    assert n < n_max
    # one float64 [n, D(2w+1)] batch, one float64 [L, n] buffer for the
    # logits and in place their gradient, and one bool [L, n] of marks
    step = 8 * n * D * (2 * w + 1) + 8 * L * n + L * n
    # the flat (class, previous action) cells, one int64 a training frame
    cells = 8 * ds.total_frames
    # a window view, a cells view and list slots per sequence; the step's
    # per-frame vectors (labels, cells, weights, misses, softmax column
    # reductions and first marks) and numpy's transient buffers, at the
    # largest batch; the rest
    slack = 256 * S + 128 * n + 16 * 1024
    tracemalloc.start()
    try:
        clf.train(ds, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < step + cells + slack, (peak, step, cells, slack)
    # the first step, where every column ties, allocates about what the
    # same step untied does: at L = 48 and ~4,000 frames a copy of the
    # tied marks alone would be L n = ~190 KB, above numpy's own buffers
    many = sd.generate_synthetic(
        sd.SynthConfig(num_classes=48, feature_dim=2, num_sequences=8,
                       mean_segments=5.0, duration_mean=200.0, rng_seed=0)
    )
    tied, untied = _first_step_costs(monkeypatch, many, cfg)
    assert tied <= untied + 16 * 1024, (tied, untied)


@pytest.mark.parametrize("loss_mode", clf.LOSS_MODES)
def test_one_learning_state_per_epoch_in_every_mode(monkeypatch, loss_mode):
    # one hit table and one learning state per epoch, whatever the mode:
    # every mode's telemetry records the learning state
    states = []
    real_state = cs.learning_state

    def counting_state(hits, stats):
        states.append(hits.shape)
        return real_state(hits, stats)

    monkeypatch.setattr(cs, "learning_state", counting_state)
    ds = _separable_dataset(seed=3)
    _, telemetry = clf.train(
        ds, clf.TrainConfig(epochs=4, batch_size=4, loss_mode=loss_mode)
    )
    L = ds.num_classes
    assert states == [(L, L + 1)] * 4
    assert all("mean_trans_acc" in record for record in telemetry)


def test_first_epoch_gain_uses_initial_multipliers():
    # epoch 0 must be driven by the epoch -1 multipliers (all zero), so
    # cost_sensitive and inverse_prior agree there and split afterwards
    ds = sd.generate_synthetic(
        sd.SynthConfig(num_classes=4, feature_dim=3, num_sequences=25,
                       mean_scale=1.0, noise_scale=1.2, class_skew=1.5,
                       rng_seed=7)
    )
    common = dict(epochs=6, learning_rate=0.4, batch_size=4, tau=1.0, rng_seed=1)
    _, tel_ip = clf.train(ds, clf.TrainConfig(loss_mode="inverse_prior", **common))
    _, tel_cs = clf.train(ds, clf.TrainConfig(loss_mode="cost_sensitive", **common))
    assert tel_cs[0]["loss"] == tel_ip[0]["loss"]
    assert any(a["loss"] != b["loss"] for a, b in zip(tel_cs[1:], tel_ip[1:]))


def test_divergence_guard_names_epoch():
    feats = np.array([[1, -1, 1, -1, 1, -1]], np.float32) * 10.0
    ds = sd.Dataset.of([_record(feats, [0, 1, 0, 1, 0, 1])], 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(TrainingDivergedError) as err:
            clf.train(
                ds,
                clf.TrainConfig(epochs=5, learning_rate=1e308, batch_size=1,
                                context_radius=0, loss_mode="plain_ce"),
            )
    assert err.value.epoch == 1
    assert "epoch 1" in str(err.value)


def test_train_config_validation():
    for bad in (
        clf.TrainConfig(epochs=-1),
        clf.TrainConfig(learning_rate=0.0),
        clf.TrainConfig(batch_size=0),
        clf.TrainConfig(tau=-0.1),
        clf.TrainConfig(epsilon=1.5),
        clf.TrainConfig(gamma=0.0),
        clf.TrainConfig(loss_mode="hinge"),
    ):
        with pytest.raises(ConfigError):
            bad.validate()
    clf.TrainConfig(epochs=0).validate()  # no-op run is legal


def _checkpointable(num_classes, feature_dim, context_radius=0, seed=6):
    """Random parameters with random training class means attached."""
    rng = np.random.default_rng(seed)
    params = clf.ClassifierParams.zeros(num_classes, feature_dim, context_radius)
    params.weights[:] = rng.standard_normal(params.weights.shape)
    params.bias[:] = rng.standard_normal(num_classes)
    params.train_means = dec.ClassMeans(
        means=rng.standard_normal(params.weights.shape),
        support=rng.integers(0, 50, num_classes),
    )
    return params


def test_checkpoint_round_trip(tmp_path):
    params = _checkpointable(3, 4, context_radius=2)
    path = tmp_path / "model.ckpt"
    clf.save_checkpoint(params, path, epoch=17)
    loaded, epoch = clf.load_checkpoint(path)
    assert epoch == 17
    assert loaded.context_radius == 2
    assert loaded.num_classes == 3 and loaded.feature_dim == 4
    # weights and bias are float32, so they survive exactly at that
    # precision; the class means are float64 and survive exactly
    assert np.array_equal(loaded.weights, params.weights.astype(np.float32))
    assert np.array_equal(loaded.bias, params.bias.astype(np.float32))
    assert np.array_equal(loaded.train_means.means, params.train_means.means)
    assert np.array_equal(loaded.train_means.support, params.train_means.support)
    assert loaded.train_means.support.dtype == np.int64


def test_checkpoint_needs_class_means(tmp_path):
    with pytest.raises(ConfigError, match="class means"):
        clf.save_checkpoint(clf.ClassifierParams.zeros(2, 2), tmp_path / "m", 0)


def test_checkpoint_rejects_corruption(tmp_path):
    params = _checkpointable(2, 2)
    path = tmp_path / "model.ckpt"
    clf.save_checkpoint(params, path, epoch=0)
    raw = path.read_bytes()
    payload = len(raw) - raw.index(b"\n") - 1
    for name, cut in (("trunc", 8), ("short", 3)):
        (tmp_path / f"{name}.ckpt").write_bytes(raw[:-cut])
        with pytest.raises(ParseError) as err:
            clf.load_checkpoint(tmp_path / f"{name}.ckpt")
        assert f"{name}.ckpt: payload holds {payload - cut} bytes" in str(err.value)
        assert f"header implies {payload}" in str(err.value)
    (tmp_path / "garbled.ckpt").write_bytes(b"not json\n" + raw)
    with pytest.raises(ParseError):
        clf.load_checkpoint(tmp_path / "garbled.ckpt")


def _rewrite_header(tmp_path, path, **fields):
    header, payload = path.read_bytes().split(b"\n", 1)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(
        json.dumps({**json.loads(header), **fields}).encode("ascii")
        + b"\n" + payload
    )
    return bad


@pytest.mark.parametrize(
    "field, value",
    [("epoch", -5), ("num_classes", 0), ("feature_dim", -2), ("context_radius", -1)],
)
def test_checkpoint_header_out_of_range(tmp_path, field, value):
    path = tmp_path / "model.ckpt"
    clf.save_checkpoint(_checkpointable(2, 2), path, epoch=2)
    bad = _rewrite_header(tmp_path, path, **{field: value})
    with pytest.raises(RangeError) as err:
        clf.load_checkpoint(bad)
    assert str(bad) in str(err.value) and f"{field} {value}" in str(err.value)


def test_checkpoint_rejects_non_finite_and_negative_payload(tmp_path):
    params = _checkpointable(2, 2)
    params.train_means.means[1, 0] = np.nan
    path = tmp_path / "nan.ckpt"
    clf.save_checkpoint(params, path, epoch=0)
    with pytest.raises(RangeError, match="nan.ckpt: non-finite"):
        clf.load_checkpoint(path)
    params = _checkpointable(2, 2)
    params.train_means.support[0] = -1
    path = tmp_path / "neg.ckpt"
    clf.save_checkpoint(params, path, epoch=0)
    with pytest.raises(RangeError, match="neg.ckpt: negative class support"):
        clf.load_checkpoint(path)


_CHECKPOINT_DAMAGE = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.just("overwrite"), st.integers(0, 10**6), st.integers(0, 255)),
    st.tuples(st.sampled_from(["delete", "directory"]), st.just(0)),
)


@settings(database=None, derandomize=True, deadline=None, max_examples=200)
@given(damage=_CHECKPOINT_DAMAGE)
def test_damaged_checkpoint_loads_or_fails_typed(tmp_path_factory, damage):
    # any truncation or single-byte overwrite of a valid checkpoint, or
    # its deletion or replacement by a directory, either still loads or
    # raises a typed error that names the file
    kind, offset, *byte = damage
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    clf.save_checkpoint(_checkpointable(2, 3, context_radius=1), path, epoch=4)
    raw = bytearray(path.read_bytes())
    if kind == "truncate":
        raw = raw[: offset % len(raw)]
    elif kind == "overwrite":
        raw[offset % len(raw)] = byte[0]
    path.unlink()
    if kind == "directory":
        path.mkdir()
    elif kind != "delete":
        path.write_bytes(bytes(raw))
    try:
        clf.load_checkpoint(path)
    except (ParseError, RangeError) as exc:
        assert str(path) in str(exc)


@pytest.mark.parametrize(
    "field", ["num_classes", "feature_dim", "context_radius", "epoch"]
)
@pytest.mark.parametrize("value", ["x", None, 3.7, True])
def test_checkpoint_header_fields_must_be_integers(tmp_path, field, value):
    params = _checkpointable(2, 2, context_radius=1)
    path = tmp_path / "model.ckpt"
    clf.save_checkpoint(params, path, epoch=2)
    bad = _rewrite_header(tmp_path, path, **{field: value})
    with pytest.raises(ParseError) as err:
        clf.load_checkpoint(bad)
    assert str(bad) in str(err.value) and field in str(err.value)


def test_checkpoint_header_must_be_object(tmp_path):
    path = tmp_path / "number.ckpt"
    path.write_bytes(b"7\n" + b"\0" * 24)
    with pytest.raises(ParseError, match="number.ckpt"):
        clf.load_checkpoint(path)
