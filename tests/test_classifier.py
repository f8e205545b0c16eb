"""Linear frame classifier, training loop, decision rule, checkpoints."""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ltseg import _kernels
from ltseg import classifier as clf
from ltseg import confusion as cf
from ltseg import costsens as cs
from ltseg import seqdata as sd
from ltseg.errors import ConfigError, ParseError, RangeError, TrainingDivergedError


def _seq(features, labels, num_classes):
    return sd.LabeledSequence.from_frames(
        np.asarray(features, np.float32), labels, num_classes=num_classes
    )


def _separable_dataset(seed=12):
    return sd.generate_synthetic(
        sd.SynthConfig(
            num_classes=2, feature_dim=4, num_sequences=30, mean_segments=4.0,
            duration_mean=8.0, mean_scale=3.0, noise_scale=0.3, class_skew=0.0,
            rng_seed=seed,
        )
    )


def test_forward_zero_params_uniform():
    seq = _seq(np.arange(6).reshape(2, 3), [0, 1, 2], 3)
    params = clf.ClassifierParams.zeros(3, 2, context_radius=1)
    for t in range(3):
        assert clf.forward(params, seq, t) == pytest.approx([1 / 3] * 3)


def test_forward_hand_evaluated_softmax():
    seq = _seq([[0.5], [-1.0]], [0], 2)
    params = clf.ClassifierParams.zeros(2, 2, context_radius=0)
    params.weights[:] = [[1.0, 2.0], [3.0, 4.0]]
    params.bias[:] = [0.1, -0.2]
    got = clf.forward(params, seq, 0)
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
    base = clf.forward(params, seq, 2)
    params.bias += 7.3  # same constant on every logit
    assert clf.forward(params, seq, 2) == pytest.approx(base, rel=1e-12)


def test_forward_range_error():
    seq = _seq(np.zeros((1, 4)), [0, 0, 1, 1], 2)
    params = clf.ClassifierParams.zeros(2, 1)
    with pytest.raises(RangeError):
        clf.forward(params, seq, 4)
    with pytest.raises(RangeError):
        clf.forward(params, seq, -1)


def test_predict_sequence_contracts():
    rng = np.random.default_rng(11)
    seq = _seq(rng.standard_normal((2, 12)), rng.integers(0, 3, 12), 3)

    uniform = clf.ClassifierParams.zeros(3, 2, context_radius=0)
    assert np.all(uniform.predict_sequence(seq) == 0)  # ties to smallest id

    params = clf.ClassifierParams.zeros(3, 2, context_radius=1)
    params.weights[:] = rng.standard_normal(params.weights.shape)
    params.bias[:] = rng.standard_normal(3)
    pred = params.predict_sequence(seq)
    for t in range(12):
        probs = clf.forward(params, seq, t)
        assert pred[t] == int(np.argmax(probs))


def test_predict_perfect_margin():
    seq = _seq([[1.0, 1.0, -1.0, -1.0, 1.0]], [0, 0, 1, 1, 0], 2)
    params = clf.ClassifierParams.zeros(2, 1, context_radius=0)
    params.weights[:] = [[5.0], [-5.0]]
    assert np.array_equal(params.predict_sequence(seq), seq.frame_labels)


def test_single_step_descends():
    seq = _seq([[0.9], [-0.4]], [1], 2)
    params = clf.ClassifierParams.zeros(2, 2, context_radius=0)
    rng = np.random.default_rng(3)
    params.weights[:] = rng.standard_normal(params.weights.shape)

    def frame_loss():
        return -math.log(clf.forward(params, seq, 0)[1])

    before = frame_loss()
    phi = seq.features[:, 0].astype(np.float64)
    p = clf.forward(params, seq, 0)
    dlog = p.copy()
    dlog[1] -= 1.0
    params.weights -= 1e-4 * np.outer(dlog, phi)
    params.bias -= 1e-4 * dlog
    assert frame_loss() < before


def test_training_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    seq = _seq(rng.standard_normal((2, 3)), [0, 2, 1], 3)
    ds = sd.Dataset.build([seq], 3)
    stats = sd.compute_transition_stats(ds)
    lam = np.where(stats.valid_mask, rng.uniform(0, 1, (3, 4)), 0.0)
    mult = replace(cs.MultiplierState.zeros(stats), lam=lam)
    gain = cs.compute_gain(stats, mult, tau=0.6)
    params = clf.ClassifierParams.zeros(3, 2, context_radius=1)
    params.weights[:] = rng.standard_normal(params.weights.shape)
    params.bias[:] = rng.standard_normal(3)

    def total_loss(p):
        out = 0.0
        for t in range(3):
            probs = clf.forward(p, seq, t)
            out += cs.weighted_ce_loss(
                probs, int(seq.frame_labels[t]), int(seq.prev_action[t]), gain
            )
        return out / 3

    from ltseg import _kernels as K

    phi = K.window_stack(seq.features, 1)
    logits = params.weights @ phi.T + params.bias[:, None]
    w = cs.frame_weights(gain, seq.frame_labels, seq.prev_action)
    _, dlog = K.softmax_xent_grad(logits, seq.frame_labels, w)
    grad_w = dlog @ phi / 3
    grad_b = dlog.sum(axis=1) / 3

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
        correct += (params.predict_sequence(seq) == seq.frame_labels).sum()
        total += seq.num_frames
    assert correct / total >= 0.95
    assert len(telemetry) == 50
    assert set(telemetry[0]) == {"epoch", "loss"}  # no multiplier fields
    assert telemetry[-1]["loss"] < telemetry[0]["loss"]


def test_tau_zero_matches_plain_ce_trajectory():
    ds = _separable_dataset(seed=5)
    common = dict(epochs=8, learning_rate=0.3, batch_size=4, context_radius=1,
                  rng_seed=9)
    p_plain, _ = clf.train(ds, clf.TrainConfig(loss_mode="plain_ce", **common))
    p_cs, tel = clf.train(
        ds, clf.TrainConfig(loss_mode="cost_sensitive", tau=0.0, **common)
    )
    assert np.array_equal(p_plain.weights, p_cs.weights)
    assert np.array_equal(p_plain.bias, p_cs.bias)
    assert "lambda_max" in tel[0]


def test_seeded_runs_identical():
    ds = _separable_dataset(seed=2)
    cfg = clf.TrainConfig(epochs=6, learning_rate=0.3, batch_size=4,
                          loss_mode="cost_sensitive", rng_seed=31)
    p1, t1 = clf.train(ds, cfg)
    p2, t2 = clf.train(ds, cfg)
    assert np.array_equal(p1.weights, p2.weights)
    assert t1 == t2


# -- frame store and the batched epoch ---------------------------------------


def _mixed_length_dataset(num_classes=4, feature_dim=3, seed=0):
    # T = 1, sequences shorter than the largest radius, and longer ones
    rng = np.random.default_rng(seed)
    seqs = [
        _seq(
            rng.standard_normal((feature_dim, t)),
            rng.integers(0, num_classes, t),
            num_classes,
        )
        for t in (1, 3, 12, 1, 2, 40, 7)
    ]
    return sd.Dataset.build(seqs, num_classes)


@pytest.mark.parametrize("radius", [0, 1, 2, 5])
def test_frame_store_rows_equal_window_stack(radius):
    ds = _mixed_length_dataset(seed=radius)
    store = clf.FrameStore.build(ds, radius)
    n_seq = len(ds.sequences)
    assert store.windows.shape == (
        ds.total_frames + 2 * radius * (n_seq - 1),
        ds.feature_dim * (2 * radius + 1),
    )
    assert not store.windows.flags.writeable
    for s, seq in enumerate(ds.sequences):
        frames = store.frames_of([s])
        np.testing.assert_array_equal(
            store.gather(frames), _kernels.window_stack(seq.features, radius)
        )
        np.testing.assert_array_equal(store.labels[frames], seq.frame_labels)
        np.testing.assert_array_equal(store.prev_action[frames], seq.prev_action)
    batch = [5, 0, 3]
    np.testing.assert_array_equal(
        store.gather(store.frames_of(batch)),
        np.concatenate(
            [_kernels.window_stack(ds.sequences[s].features, radius) for s in batch]
        ),
    )


def test_store_confusion_equals_compute_confusion(monkeypatch):
    # a chunk size that divides no sequence boundary exercises the chunking
    monkeypatch.setattr(clf, "CONFUSION_CHUNK_ROWS", 5)
    rng = np.random.default_rng(17)
    ds = sd.generate_synthetic(
        sd.SynthConfig(num_classes=5, feature_dim=3, num_sequences=12,
                       noise_scale=1.5, rng_seed=4)
    )
    params = clf.ClassifierParams.zeros(5, 3, context_radius=2)
    params.weights[:] = rng.standard_normal(params.weights.shape)
    params.bias[:] = rng.standard_normal(5)
    got = clf.store_confusion(params, clf.FrameStore.build(ds, 2))
    want = cf.compute_confusion(params, ds)
    np.testing.assert_array_equal(got.counts, want.counts)
    assert got.total_frames == want.total_frames == ds.total_frames


def _reference_train(dataset, config):
    """The training loop one sequence at a time: row-major logits, a
    per-frame-row softmax, per-sequence gradient sums and a confusion
    pass through ``compute_confusion``."""
    stats = sd.compute_transition_stats(dataset)
    mult = cs.MultiplierState.zeros(stats, step_size=config.gamma,
                                    epsilon=config.epsilon)
    params = clf.ClassifierParams.zeros(
        dataset.num_classes, dataset.feature_dim, config.context_radius
    )
    rng = np.random.default_rng(config.rng_seed)
    n_seq = len(dataset.sequences)
    telemetry = []
    for epoch in range(config.epochs):
        gain = None
        if config.loss_mode != "plain_ce":
            gain = cs.compute_gain(stats, mult, config.tau)
        order = rng.permutation(n_seq)
        epoch_loss = 0.0
        for lo in range(0, n_seq, config.batch_size):
            grad_w = np.zeros_like(params.weights)
            grad_b = np.zeros_like(params.bias)
            batch_frames = 0
            for idx in order[lo : lo + config.batch_size]:
                seq = dataset.sequences[idx]
                phi = _kernels.window_stack(seq.features, config.context_radius)
                logits = phi @ params.weights.T + params.bias
                frame_w = np.ones(seq.num_frames)
                if gain is not None:
                    frame_w = cs.frame_weights(gain, seq.frame_labels,
                                               seq.prev_action)
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
        tensor = cf.compute_confusion(params, dataset)
        record = {"epoch": epoch, "loss": epoch_loss / dataset.total_frames}
        if config.loss_mode == "cost_sensitive":
            updated = cs.update_multipliers(mult, tensor, stats)
            record = cs.telemetry_record(epoch, tensor, stats, mult, updated)
            record["loss"] = epoch_loss / dataset.total_frames
            mult = updated
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
    params, telemetry = clf.train(ds, cfg)
    want_params, want_telemetry = _reference_train(ds, cfg)
    np.testing.assert_allclose(params.weights, want_params.weights, rtol=0, atol=1e-12)
    np.testing.assert_allclose(params.bias, want_params.bias, rtol=0, atol=1e-12)
    assert len(telemetry) == len(want_telemetry) == 2
    for got, want in zip(telemetry, want_telemetry):
        # the loss sums the same terms in another order; the rest comes
        # from identical confusion counts and must match exactly
        assert got.pop("loss") == pytest.approx(want.pop("loss"), rel=1e-12)
        assert got == want


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
    ds = sd.Dataset.build(
        [sd.LabeledSequence.from_frames(feats, [0, 1, 0, 1, 0, 1], 2)], 2
    )
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


def test_bayes_decision_examples():
    stats = sd.TransitionStats(counts=np.ones((2, 3), np.int64), total=6)
    uniform = cs.compute_gain(stats, cs.MultiplierState.zeros(stats), tau=1.0)
    assert clf.bayes_optimal_decision(np.array([0.3, 0.7]), uniform, 0) == 1
    assert clf.bayes_optimal_decision(np.array([0.7, 0.3]), uniform, 2) == 0

    skewed = replace(uniform, gain=np.array([[1.0] * 3, [2.0] * 3]))
    assert clf.bayes_optimal_decision(np.array([0.6, 0.4]), skewed, 1) == 1


def test_bayes_decision_matches_enumeration():
    rng = np.random.default_rng(13)
    L = 4
    stats = sd.TransitionStats(counts=np.ones((L, L + 1), np.int64), total=L * (L + 1))
    for _ in range(300):
        p = rng.dirichlet(np.ones(L))
        diag = rng.uniform(0.1, 5.0, (L, L + 1))
        weights = replace(
            cs.compute_gain(stats, cs.MultiplierState.zeros(stats), tau=1.0),
            gain=diag,
        )
        u = int(rng.integers(0, L + 1))
        got = clf.bayes_optimal_decision(p, weights, u)
        # oracle: expected gain of every candidate answer, diagonal tensor
        payoff = [p[j] * diag[j, u] for j in range(L)]
        best = max(range(L), key=lambda j: (payoff[j], -j))
        assert got == best

        full = rng.uniform(0.0, 2.0, (L, L))
        got_full = clf.bayes_optimal_decision(p, full, u)
        payoff_full = [sum(p[i] * full[i, j] for i in range(L)) for j in range(L)]
        best_full = max(range(L), key=lambda j: (payoff_full[j], -j))
        assert got_full == best_full


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    params = clf.ClassifierParams.zeros(3, 4, context_radius=2)
    params.weights[:] = rng.standard_normal(params.weights.shape)
    params.bias[:] = rng.standard_normal(3)
    path = tmp_path / "model.ckpt"
    clf.save_checkpoint(params, path, epoch=17)
    loaded, epoch = clf.load_checkpoint(path)
    assert epoch == 17
    assert loaded.context_radius == 2
    assert loaded.num_classes == 3 and loaded.feature_dim == 4
    # payload is float32, so parameters survive exactly at that precision
    assert np.array_equal(loaded.weights, params.weights.astype(np.float32))
    assert np.array_equal(loaded.bias, params.bias.astype(np.float32))


def test_checkpoint_rejects_corruption(tmp_path):
    params = clf.ClassifierParams.zeros(2, 2)
    path = tmp_path / "model.ckpt"
    clf.save_checkpoint(params, path, epoch=0)
    raw = path.read_bytes()
    (tmp_path / "trunc.ckpt").write_bytes(raw[:-8])
    with pytest.raises(ParseError):
        clf.load_checkpoint(tmp_path / "trunc.ckpt")
    (tmp_path / "garbled.ckpt").write_bytes(b"not json\n" + raw)
    with pytest.raises(ParseError):
        clf.load_checkpoint(tmp_path / "garbled.ckpt")


@pytest.mark.parametrize(
    "field", ["num_classes", "feature_dim", "context_radius", "epoch"]
)
@pytest.mark.parametrize("value", ["x", None, 3.7, True])
def test_checkpoint_header_fields_must_be_integers(tmp_path, field, value):
    params = clf.ClassifierParams.zeros(2, 2, context_radius=1)
    path = tmp_path / "model.ckpt"
    clf.save_checkpoint(params, path, epoch=2)
    header, payload = path.read_bytes().split(b"\n", 1)
    fields = json.loads(header)
    fields[field] = value
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(json.dumps(fields).encode("ascii") + b"\n" + payload)
    with pytest.raises(ParseError) as err:
        clf.load_checkpoint(bad)
    assert str(bad) in str(err.value) and field in str(err.value)


def test_checkpoint_header_must_be_object(tmp_path):
    path = tmp_path / "number.ckpt"
    path.write_bytes(b"7\n" + b"\0" * 24)
    with pytest.raises(ParseError, match="number.ckpt"):
        clf.load_checkpoint(path)
