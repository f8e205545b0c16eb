"""Learning state, gain weights, weighted cross-entropy, Lagrangian,
multiplier updates."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltseg import _kernels
from ltseg import classifier as clf
from ltseg import costsens as cs
from ltseg import decode as dec
from ltseg import seqdata as sd
from ltseg.errors import ConfigError


def _stats_from_counts(counts):
    counts = np.asarray(counts, dtype=np.int64)
    return sd.TransitionStats(counts=counts, total=int(counts.sum()))


def _uniform_stats(num_classes, prev=3):
    # every (class, prev) cell observed once: uniform prior, all valid
    return _stats_from_counts(np.ones((num_classes, prev), np.int64))


def test_gain_zero_multipliers_is_inverse_prior():
    stats = _uniform_stats(2, prev=3)
    mult = cs.MultiplierState.zeros(stats)
    assert np.all(cs.compute_gain(stats, mult, tau=1.0) == 2.0)


def test_gain_direct_evaluation():
    stats = _uniform_stats(4, prev=5)
    lam = np.zeros((4, 5))
    lam[1, 2] = 0.5
    mult = replace(cs.MultiplierState.zeros(stats), lam=lam)
    gain = cs.compute_gain(stats, mult, tau=1.0)
    assert gain[1, 2] == pytest.approx((1 + 0.5) / 0.25)
    assert gain[0, 0] == pytest.approx(4.0)
    half = cs.compute_gain(stats, mult, tau=0.5)
    assert half[1, 2] == pytest.approx(6 ** 0.5)
    assert half[1, 2] == pytest.approx(2.449, abs=5e-4)


def test_gain_tau_zero_is_all_ones():
    ds = sd.generate_synthetic(sd.SynthConfig(num_classes=5, num_sequences=10, rng_seed=0))
    stats = sd.compute_transition_stats(ds)
    lam = np.where(stats.valid_mask, 0.7, 0.0)
    mult = replace(cs.MultiplierState.zeros(stats), lam=lam)
    assert np.all(cs.compute_gain(stats, mult, tau=0.0) == 1.0)


def test_gain_inactive_classes_flagged():
    counts = np.zeros((3, 4), np.int64)
    counts[0, 3] = 2
    counts[1, 0] = 2
    stats = _stats_from_counts(counts)  # class 2 never occurs
    gain = cs.compute_gain(stats, cs.MultiplierState.zeros(stats), tau=1.0)
    assert np.all(gain[2] == 0.0)
    assert np.all(gain[:2][stats.valid_mask[:2]] == 2.0)


def test_multiplier_state_validation():
    stats = _uniform_stats(2)
    with pytest.raises(ConfigError):
        cs.MultiplierState.zeros(stats, step_size=0.0)
    with pytest.raises(ConfigError):
        cs.MultiplierState.zeros(stats, epsilon=0.0)
    with pytest.raises(ConfigError):
        cs.MultiplierState.zeros(stats, epsilon=1.5)
    bad = replace(cs.MultiplierState.zeros(stats), lam=np.full((2, 3), -0.1))
    with pytest.raises(ConfigError):
        bad.validate(stats.valid_mask)


def _unit_weights(num_classes, prev_states=None):
    return np.ones((num_classes, prev_states or num_classes + 1))


def _frame_grad(logits, y, u, weights):
    """One frame's training loss and logit gradient: the kernel with the
    frame's weight from ``frame_weights``."""
    w = cs.frame_weights(weights, np.array([y]), np.array([u]))
    loss, grad = _kernels.softmax_xent_grad(
        np.asarray(logits, dtype=np.float64)[:, None], np.array([y]), w
    )
    return loss, grad[:, 0]


def _frame_loss(probs, y, u, weights):
    """The training loss of one frame whose posteriors are ``probs``."""
    with np.errstate(divide="ignore"):
        return _frame_grad(np.log(probs), y, u, weights)[0]


def test_weighted_ce_loss_examples():
    w1 = _unit_weights(4)
    probs = np.array([1.0, 0.0, 0.0, 0.0])
    assert _frame_loss(probs, 0, 0, w1) == 0.0
    uniform = np.full(4, 0.25)
    assert _frame_loss(uniform, 2, 1, w1) == pytest.approx(math.log(4))

    w2 = np.full_like(w1, 2.449)
    probs = np.array([0.3, 0.3, 0.2, 0.2])
    got = _frame_loss(probs, 0, 3, w2)
    assert got == pytest.approx(2.449 * -math.log(0.3), rel=1e-12)
    assert got == pytest.approx(2.948, abs=2e-3)

    # the weight is tempered[class, previous action], not the transpose
    w3 = np.arange(20.0).reshape(4, 5) + 1.0
    assert _frame_loss(uniform, 1, 3, w3) == pytest.approx(9.0 * math.log(4))


def test_weighted_ce_loss_monotone_in_p():
    w = _unit_weights(3)
    losses = [
        _frame_loss(np.array([p, (1 - p) / 2, (1 - p) / 2]), 0, 0, w)
        for p in (0.1, 0.3, 0.5, 0.9, 0.999)
    ]
    assert all(a > b for a, b in zip(losses, losses[1:]))


def test_grad_symmetry_and_scaling():
    w = _unit_weights(2, prev_states=3)
    _, grad = _frame_grad(np.array([1.7, 1.7]), 0, 0, w)
    assert grad == pytest.approx([-0.5, 0.5])
    w0 = np.zeros_like(w)
    assert np.all(_frame_grad(np.array([3.0, -1.0]), 0, 0, w0)[1] == 0.0)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(2024)
    L = 5
    stats = _uniform_stats(L, prev=L + 1)
    mult = replace(
        cs.MultiplierState.zeros(stats),
        lam=rng.uniform(0, 2, (L, L + 1)),
    )
    weights = cs.compute_gain(stats, mult, tau=0.7)
    h = 1e-5
    worst = 0.0
    for _ in range(1000):
        logits = rng.uniform(-4, 4, L)
        y = int(rng.integers(0, L))
        u = int(rng.integers(0, L + 1))
        _, grad = _frame_grad(logits, y, u, weights)

        def loss_at(v):
            # oracle: softmax and -w * log p by hand
            p = np.exp(v - v.max())
            p /= p.sum()
            return weights[y, u] * -math.log(p[y])

        for j in range(L):
            bump = np.zeros(L)
            bump[j] = h
            fd = (loss_at(logits + bump) - loss_at(logits - bump)) / (2 * h)
            denom = max(abs(fd), 1e-8)
            worst = max(worst, abs(grad[j] - fd) / denom)
    assert worst < 1e-6


def test_tau_zero_reduces_to_plain_ce():
    rng = np.random.default_rng(5)
    L = 6
    stats = _uniform_stats(L, prev=L + 1)
    mult = replace(
        cs.MultiplierState.zeros(stats), lam=rng.uniform(0, 3, (L, L + 1))
    )
    weights = cs.compute_gain(stats, mult, tau=0.0)
    for _ in range(100):
        p = rng.dirichlet(np.ones(L))
        y = int(rng.integers(0, L))
        u = int(rng.integers(0, L + 1))
        got = _frame_loss(p, y, u, weights)
        assert abs(got - (-math.log(max(p[y], 1e-12)))) <= 1e-12


def test_uniform_prior_zero_lambda_scales_plain_ce():
    L = 4
    stats = _uniform_stats(L, prev=L + 1)
    weights = cs.compute_gain(stats, cs.MultiplierState.zeros(stats), tau=1.0)
    rng = np.random.default_rng(8)
    for _ in range(50):
        p = rng.dirichlet(np.ones(L))
        logits = rng.uniform(-2, 2, L)
        y = int(rng.integers(0, L))
        assert _frame_loss(p, y, 0, weights) == pytest.approx(
            L * -math.log(p[y]), rel=1e-12
        )
        _, grad = _frame_grad(logits, y, 0, weights)
        q = np.exp(logits - logits.max())
        q /= q.sum()
        q[y] -= 1.0
        assert np.allclose(grad, L * q, rtol=1e-12, atol=1e-15)


def _hits_of(ds, predict):
    """Correct frames per (class, previous action) of fixed per-sequence
    predictions ``predict(seq)``, counted one frame at a time."""
    L = ds.num_classes
    hits = np.zeros((L, L + 1), np.int64)
    for seq in ds.sequences:
        for y, p, u in zip(seq.frame_labels, predict(seq), seq.prev_action):
            hits[y, u] += y == p
    return hits


def _class_acc_sum(hits, stats):
    """Sum of per-class accuracies over the classes that have frames."""
    support = stats.counts.sum(axis=1)
    present = support > 0
    return (hits.sum(axis=1)[present] / support[present]).sum()


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


def test_perfect_classifier_diagonal_support():
    ds = _dataset()
    stats = sd.compute_transition_stats(ds)
    hits = _hits_of(ds, _perfect)
    assert np.array_equal(hits, stats.counts)
    state = cs.learning_state(hits, stats)
    assert np.all(state.trans_acc[stats.valid_mask] == 1.0)
    assert state.mean_trans_acc == 1.0


def test_constant_classifier():
    ds = _dataset()
    stats = sd.compute_transition_stats(ds)
    hits = _hits_of(ds, lambda s: np.zeros(s.num_frames, np.int64))
    assert np.array_equal(hits[0], stats.counts[0])
    assert not hits[1:].any()
    state = cs.learning_state(hits, stats)
    assert np.all(state.trans_acc[0][stats.valid_mask[0]] == 1.0)
    assert np.all(state.trans_acc[1:] == 0.0)


def test_counts_match_per_frame_oracle(monkeypatch):
    # the hits train hands to learning_state, from one epoch of one batch
    # that starts at fixed parameters, against per-sequence argmax decoding
    ds = _dataset(num_classes=3, num_sequences=6, seed=5)
    params = _random_params(ds, seed=77)
    expect = _hits_of(ds, lambda seq: dec.decode_sequence(params, seq, "argmax"))
    handed = []
    real_state = cs.learning_state

    def capture_state(hits, stats):
        handed.append(hits)
        return real_state(hits, stats)

    monkeypatch.setattr(cs, "learning_state", capture_state)
    monkeypatch.setattr(clf.ClassifierParams, "zeros", lambda *a, **k: params)
    clf.train(ds, clf.TrainConfig(epochs=1, batch_size=6, context_radius=1))
    assert len(handed) == 1
    assert np.array_equal(handed[0], expect)


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

    state = cs.learning_state(_hits_of(ds, predict), stats)
    assert state.trans_acc[1, 2] == 1.0
    assert state.trans_acc[0, 2] == 1.0
    assert state.trans_acc[1, 0] == 0.0
    assert state.trans_acc[0, 1] == 0.0
    assert state.mean_trans_acc == pytest.approx(0.5)


def test_undefined_entries_flagged_not_nan():
    # class 2 exists in the inventory but never occurs
    feats = np.zeros((1, 3), np.float32)
    ds = sd.Dataset.build(
        [sd.LabeledSequence.from_frames(feats, [0, 1, 0], 3)], 3
    )
    stats = sd.compute_transition_stats(ds)
    state = cs.learning_state(_hits_of(ds, _perfect), stats)
    assert not stats.valid_mask[2].any()
    assert np.isfinite(state.trans_acc).all()
    assert np.all(state.trans_acc[2] == 0.0)


def test_lagrangian_zero_lambda_is_accuracy_sum():
    ds = sd.generate_synthetic(sd.SynthConfig(num_classes=6, num_sequences=25, rng_seed=4))
    stats = sd.compute_transition_stats(ds)

    def half(seq):
        pred = seq.frame_labels.copy()
        pred[::2] = (pred[::2] + 1) % ds.num_classes
        return pred

    hits = _hits_of(ds, half)
    mult = cs.MultiplierState.zeros(stats)
    expect = _class_acc_sum(hits, stats)
    state = cs.learning_state(hits, stats)
    assert cs.lagrangian_value(state, stats, mult) == pytest.approx(expect, abs=1e-9)


def test_lagrangian_perfect_classifier_closed_form():
    ds = sd.generate_synthetic(sd.SynthConfig(num_classes=4, num_sequences=15, rng_seed=9))
    stats = sd.compute_transition_stats(ds)
    hits = stats.counts.copy()
    rng = np.random.default_rng(3)
    lam = np.where(stats.valid_mask, rng.uniform(0, 1, stats.valid_mask.shape), 0.0)
    mult = replace(cs.MultiplierState.zeros(stats, epsilon=0.9), lam=lam)
    state = cs.learning_state(hits, stats)
    assert state.mean_trans_acc == 1.0
    active = int((stats.prior > 0).sum())
    scale = stats.transition / stats.prior[:, None]
    expect = active + 0.1 * (lam * scale)[stats.valid_mask].sum()
    assert cs.lagrangian_value(state, stats, mult) == pytest.approx(expect, rel=1e-12)


def test_lagrangian_term_by_term_oracle():
    # 3 classes, hand-built (truth, prediction, previous action) counts;
    # oracle sums every term explicitly
    trans_counts = np.array(
        [[0, 2, 0, 6], [4, 0, 0, 2], [0, 4, 0, 0]], dtype=np.int64
    )
    stats = _stats_from_counts(trans_counts)
    counts = np.zeros((3, 3, 4), np.int64)
    counts[0, 0, 1] = 1
    counts[0, 2, 1] = 1
    counts[0, 0, 3] = 5
    counts[0, 1, 3] = 1
    counts[1, 1, 0] = 2
    counts[1, 0, 0] = 2
    counts[1, 1, 3] = 1
    counts[1, 2, 3] = 1
    counts[2, 2, 1] = 3
    counts[2, 0, 1] = 1
    assert np.array_equal(counts.sum(axis=1), trans_counts)
    hits = counts[np.arange(3), np.arange(3)]

    rng = np.random.default_rng(17)
    lam = np.where(stats.valid_mask, rng.uniform(0.1, 1.5, (3, 4)), 0.0)
    mult = replace(cs.MultiplierState.zeros(stats, epsilon=0.9), lam=lam)

    total_frames = counts.sum()
    # the tolerance line sits at 0.9 times the mean over observed
    # transitions of the right answers per transition frame
    observed = [(i, k) for i in range(3) for k in range(4) if trans_counts[i, k]]
    mean = sum(counts[i, i, k] / trans_counts[i, k] for i, k in observed)
    mean /= len(observed)
    expect = 0.0
    for i in range(3):
        pi = trans_counts[i].sum() / total_frames
        for k in range(4):
            c_iik = counts[i, i, k] / total_frames
            if pi > 0:
                expect += c_iik / pi
            t_ik = trans_counts[i, k] / total_frames
            if t_ik > 0:
                tacc = c_iik / t_ik
                expect += lam[i, k] * (tacc - 0.9 * mean) * (t_ik / pi)
    state = cs.learning_state(hits, stats)
    assert state.mean_trans_acc == pytest.approx(mean, rel=1e-12)
    assert cs.lagrangian_value(state, stats, mult) == pytest.approx(expect, rel=1e-12)


def _two_transition_setup():
    # (0 <- start): 3 of 4 right; (1 <- 0): 1 of 4 right
    # mean = 1/2, so with eps = 0.5 the second sits exactly on the line
    trans_counts = np.array([[0, 0, 4], [4, 0, 0]], dtype=np.int64)
    stats = _stats_from_counts(trans_counts)
    hits = np.array([[0, 0, 3], [1, 0, 0]], dtype=np.int64)
    return stats, hits, cs.learning_state(hits, stats)


def test_update_boundary_transition_unchanged():
    stats, _, state = _two_transition_setup()
    lam = np.zeros((2, 3))
    lam[0, 2] = 0.2
    lam[1, 0] = 0.2
    mult = replace(cs.MultiplierState.zeros(stats, epsilon=0.5), lam=lam)
    after = cs.update_multipliers(mult, state, stats)
    assert state.mean_trans_acc == pytest.approx(0.5)
    assert after.lam[1, 0] == 0.2  # exactly on the tolerance line
    assert after.lam[0, 2] < 0.2  # satisfied constraint decays


def test_update_violated_constraint_raises_lambda():
    stats, _, state = _two_transition_setup()
    mult = cs.MultiplierState.zeros(stats, epsilon=0.9, step_size=0.01)
    after = cs.update_multipliers(mult, state, stats)
    # g = (1/4 - 0.9/2) * (T/pi) = -0.2 * 1 -> lambda = 0.002
    assert after.lam[1, 0] == pytest.approx(0.01 * 0.2, rel=1e-12)
    assert after.lam[1, 0] > 0


def test_update_projection_clamps_to_zero():
    stats, _, state = _two_transition_setup()
    lam = np.zeros((2, 3))
    lam[0, 2] = 0.001
    mult = replace(
        cs.MultiplierState.zeros(stats, epsilon=0.5, step_size=0.05), lam=lam
    )
    # g = (3/4 - 1/4) * 1 = 1/2; step = 0.025 > 0.001
    after = cs.update_multipliers(mult, state, stats)
    assert after.lam[0, 2] == 0.0


def test_update_support_and_nonnegativity():
    ds = sd.generate_synthetic(sd.SynthConfig(num_classes=5, num_sequences=20, rng_seed=6))
    stats = sd.compute_transition_stats(ds)

    def noisy(seq):
        local = np.random.default_rng(seq.num_frames)
        return local.integers(0, ds.num_classes, seq.num_frames)

    state = cs.learning_state(_hits_of(ds, noisy), stats)
    mult = cs.MultiplierState.zeros(stats)
    for _ in range(30):
        mult = cs.update_multipliers(mult, state, stats)
        assert (mult.lam >= 0).all()
        assert not mult.lam[~stats.valid_mask].any()


def test_monotone_constraint_response():
    stats, _, state = _two_transition_setup()
    mult = cs.MultiplierState.zeros(stats, epsilon=0.9, step_size=0.01)
    lam = np.zeros((2, 3))
    lam[0, 2] = 0.05  # satisfied constraint, positive start
    mult = replace(mult, lam=lam)
    under, over = [], []
    for _ in range(20):
        mult = cs.update_multipliers(mult, state, stats)
        under.append(mult.lam[1, 0])
        over.append(mult.lam[0, 2])
    assert all(b > a for a, b in zip([0.0] + under[:-1], under))
    assert all(b <= a for a, b in zip([0.05] + over[:-1], over))
    assert over[-1] == 0.0
    hit = over.index(0.0)
    assert all(v == 0.0 for v in over[hit:])


def test_telemetry_record_fields():
    stats, hits, state = _two_transition_setup()
    before = cs.MultiplierState.zeros(stats, epsilon=0.9)
    after = cs.update_multipliers(before, state, stats)
    rec = cs.telemetry_record(3, state, stats, before, after)
    assert rec["epoch"] == 3
    assert rec["mean_trans_acc"] == pytest.approx(0.5)
    assert rec["violations"] == 1  # only (1 <- 0) sits below 0.9 * mean
    assert rec["lambda_max"] >= rec["lambda_mean"] >= rec["lambda_min"] >= 0
    # pre-update lambdas are all zero, so the objective is the Acc sum
    assert rec["lagrangian"] == pytest.approx(_class_acc_sum(hits, stats))


def test_violations_are_observed_transitions_below_the_line():
    # class 4 never occurs and most (class, prev) pairs are unobserved:
    # the count must match an explicit oracle on observed transitions only
    ds = _dataset(num_classes=5, num_sequences=6, seed=2)
    stats = sd.compute_transition_stats(ds)
    assert ds.class_frame_counts[4] == 0 and stats.valid_mask.sum() < 15

    def noisy(seq):
        local = np.random.default_rng(seq.num_frames)
        return np.where(local.random(seq.num_frames) < 0.6, seq.frame_labels, 0)

    hits = _hits_of(ds, noisy)
    state = cs.learning_state(hits, stats)
    before = cs.MultiplierState.zeros(stats, epsilon=0.95)
    after = cs.update_multipliers(before, state, stats)
    rec = cs.telemetry_record(0, state, stats, before, after)
    want = 0
    for i, k in zip(*np.nonzero(stats.counts)):
        want += hits[i, k] / stats.counts[i, k] < 0.95 * state.mean_trans_acc
    assert 0 < rec["violations"] == want


@st.composite
def multiplier_runs(draw):
    """Transition counts with at least one frame, E realizable hit tables
    (``hits <= counts``), a step size and a tolerance."""
    L = draw(st.integers(2, 5))
    cells = st.lists(st.integers(0, 40), min_size=L * (L + 1), max_size=L * (L + 1))
    counts = np.array(draw(cells), np.int64).reshape(L, L + 1)
    counts[draw(st.integers(0, L - 1)), draw(st.integers(0, L))] += 1
    epochs = draw(st.integers(1, 12))
    fractions = st.lists(
        st.floats(0, 1), min_size=counts.size, max_size=counts.size
    )
    tables = [
        np.floor(np.array(draw(fractions)).reshape(counts.shape) * counts)
        .astype(np.int64)
        for _ in range(epochs)
    ]
    gamma = draw(st.floats(1e-3, 10))
    epsilon = draw(st.floats(1e-3, 1))
    return _stats_from_counts(counts), tables, gamma, epsilon


@settings(database=None, derandomize=True, deadline=None)
@given(multiplier_runs())
def test_multipliers_bounded_by_steps(run):
    # g >= -epsilon * mean * T/prior = -epsilon * mean * P(k|i), so steps
    # from zero leave lambda[i, k] at most gamma * epsilon * P(k|i) times
    # the sum of the means, and so at most E * gamma * epsilon * P(k|i)
    stats, tables, gamma, epsilon = run
    mult = cs.MultiplierState.zeros(stats, step_size=gamma, epsilon=epsilon)
    mean_sum = 0.0
    for hits in tables:
        assert (hits <= stats.counts).all()
        state = cs.learning_state(hits, stats)
        mult = cs.update_multipliers(mult, state, stats)
        mean_sum += state.mean_trans_acc
    support = stats.counts.sum(axis=1, keepdims=True)
    p_next = np.zeros(stats.counts.shape)
    np.divide(stats.counts, support, out=p_next, where=support > 0)
    assert (mult.lam <= gamma * epsilon * p_next * mean_sum * (1 + 1e-12)).all()
    assert mean_sum <= len(tables)
