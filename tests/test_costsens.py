"""Learning state, gain weights, weighted cross-entropy, and the
multiplier step: Lagrangian, update and telemetry record."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltseg import _kernels
from ltseg import classifier as clf
from ltseg import costsens as cs
from ltseg import decode as dec
from ltseg import seqdata as sd


def _uniform_counts(num_classes, prev=3):
    # every (class, prev) cell observed once: uniform prior, all valid
    return np.ones((num_classes, prev), np.int64)


def _prior(counts):
    """The class prior of transition counts: the share of all frames."""
    return counts.sum(axis=1) / counts.sum()


def test_gain_zero_multipliers_is_inverse_prior():
    counts = _uniform_counts(2, prev=3)
    assert np.all(cs.compute_gain(counts, np.zeros((2, 3)), tau=1.0) == 2.0)


def test_gain_direct_evaluation():
    counts = _uniform_counts(4, prev=5)
    lam = np.zeros((4, 5))
    lam[1, 2] = 0.5
    gain = cs.compute_gain(counts, lam, tau=1.0)
    assert gain[1, 2] == pytest.approx((1 + 0.5) / 0.25)
    assert gain[0, 0] == pytest.approx(4.0)
    half = cs.compute_gain(counts, lam, tau=0.5)
    assert half[1, 2] == pytest.approx(6 ** 0.5)
    assert half[1, 2] == pytest.approx(2.449, abs=5e-4)


def test_gain_tau_zero_is_all_ones():
    ds = sd.generate_synthetic(sd.SynthConfig(num_classes=5, num_sequences=10, rng_seed=0))
    counts = sd.compute_transition_stats(ds)
    lam = np.where(counts > 0, 0.7, 0.0)
    assert np.all(cs.compute_gain(counts, lam, tau=0.0) == 1.0)


def test_gain_inactive_classes_flagged():
    counts = np.zeros((3, 4), np.int64)
    counts[0, 3] = 2
    counts[1, 0] = 2  # class 2 never occurs
    gain = cs.compute_gain(counts, np.zeros((3, 4)), tau=1.0)
    assert np.all(gain[2] == 0.0)
    assert np.all(gain[:2][counts[:2] > 0] == 2.0)


def _unit_weights(num_classes, prev_states=None):
    return np.ones((num_classes, prev_states or num_classes + 1))


def _frame_grad(logits, y, u, weights):
    """One frame's training loss and logit gradient: the kernel with the
    frame's weight read off the gain array, ``weights[y, u]``."""
    w = weights[[y], [u]]
    loss, grad, _ = _kernels.softmax_xent_grad(
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
    counts = _uniform_counts(L, prev=L + 1)
    weights = cs.compute_gain(counts, rng.uniform(0, 2, (L, L + 1)), tau=0.7)
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
    counts = _uniform_counts(L, prev=L + 1)
    weights = cs.compute_gain(counts, rng.uniform(0, 3, (L, L + 1)), tau=0.0)
    for _ in range(100):
        p = rng.dirichlet(np.ones(L))
        y = int(rng.integers(0, L))
        u = int(rng.integers(0, L + 1))
        got = _frame_loss(p, y, u, weights)
        assert abs(got - (-math.log(max(p[y], 1e-12)))) <= 1e-12


def test_uniform_prior_zero_lambda_scales_plain_ce():
    L = 4
    counts = _uniform_counts(L, prev=L + 1)
    weights = cs.compute_gain(counts, np.zeros((L, L + 1)), tau=1.0)
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


def _class_acc_sum(hits, counts):
    """Sum of per-class accuracies over the classes that have frames."""
    support = counts.sum(axis=1)
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
    counts = sd.compute_transition_stats(ds)
    hits = _hits_of(ds, _perfect)
    assert np.array_equal(hits, counts)
    trans_acc, mean = cs.learning_state(hits, counts)
    assert np.all(trans_acc[counts > 0] == 1.0)
    assert mean == 1.0


def test_constant_classifier():
    ds = _dataset()
    counts = sd.compute_transition_stats(ds)
    hits = _hits_of(ds, lambda s: np.zeros(s.num_frames, np.int64))
    assert np.array_equal(hits[0], counts[0])
    assert not hits[1:].any()
    trans_acc, _ = cs.learning_state(hits, counts)
    assert np.all(trans_acc[0][counts[0] > 0] == 1.0)
    assert np.all(trans_acc[1:] == 0.0)


def test_counts_match_per_frame_oracle(monkeypatch):
    # the hits train hands to learning_state, from one epoch of one batch
    # that starts at fixed parameters, against per-sequence argmax decoding
    ds = _dataset(num_classes=3, num_sequences=6, seed=5)
    params = _random_params(ds, seed=77)
    expect = _hits_of(ds, lambda seq: dec.decode_sequence(params, seq, "argmax"))
    handed = []
    real_state = cs.learning_state

    def capture_state(hits, counts):
        handed.append(hits)
        return real_state(hits, counts)

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
    counts = sd.compute_transition_stats(ds)

    def predict(seq):
        pred = seq.frame_labels.copy()
        wrong = seq.prev_action != 2
        pred[wrong] = 1 - pred[wrong]
        return pred

    trans_acc, mean = cs.learning_state(_hits_of(ds, predict), counts)
    assert trans_acc[1, 2] == 1.0
    assert trans_acc[0, 2] == 1.0
    assert trans_acc[1, 0] == 0.0
    assert trans_acc[0, 1] == 0.0
    assert mean == pytest.approx(0.5)


def test_undefined_entries_flagged_not_nan():
    # class 2 exists in the inventory but never occurs
    feats = np.zeros((1, 3), np.float32)
    ds = sd.Dataset.build(
        [sd.LabeledSequence.from_frames(feats, [0, 1, 0], 3)], 3
    )
    counts = sd.compute_transition_stats(ds)
    trans_acc, _ = cs.learning_state(_hits_of(ds, _perfect), counts)
    assert not counts[2].any()
    assert np.isfinite(trans_acc).all()
    assert np.all(trans_acc[2] == 0.0)


def _step(lam, hits, counts, gamma, epsilon):
    """The multipliers after one ``multiplier_step``."""
    return cs.multiplier_step(lam, hits, counts, gamma, epsilon)[0]


def _record(lam, hits, counts, epsilon, gamma=0.01):
    """The telemetry record of one ``multiplier_step``; its Lagrangian
    and learning state do not depend on the step size."""
    return cs.multiplier_step(lam, hits, counts, gamma, epsilon)[1]


def test_lagrangian_zero_lambda_is_accuracy_sum():
    ds = sd.generate_synthetic(sd.SynthConfig(num_classes=6, num_sequences=25, rng_seed=4))
    counts = sd.compute_transition_stats(ds)

    def half(seq):
        pred = seq.frame_labels.copy()
        pred[::2] = (pred[::2] + 1) % ds.num_classes
        return pred

    hits = _hits_of(ds, half)
    lam = np.zeros(hits.shape)
    expect = _class_acc_sum(hits, counts)
    assert _record(lam, hits, counts, 0.9)["lagrangian"] == pytest.approx(
        expect, abs=1e-9
    )


def test_lagrangian_perfect_classifier_closed_form():
    ds = sd.generate_synthetic(sd.SynthConfig(num_classes=4, num_sequences=15, rng_seed=9))
    counts = sd.compute_transition_stats(ds)
    hits = counts.copy()
    rng = np.random.default_rng(3)
    lam = np.where(counts > 0, rng.uniform(0, 1, counts.shape), 0.0)
    record = _record(lam, hits, counts, 0.9)
    assert record["mean_trans_acc"] == 1.0
    prior = _prior(counts)
    active = int((prior > 0).sum())
    scale = counts / counts.sum() / prior[:, None]
    expect = active + 0.1 * (lam * scale)[counts > 0].sum()
    assert record["lagrangian"] == pytest.approx(expect, rel=1e-12)


def test_lagrangian_term_by_term_oracle():
    # 3 classes, hand-built (truth, prediction, previous action) counts;
    # oracle sums every term explicitly
    trans_counts = np.array(
        [[0, 2, 0, 6], [4, 0, 0, 2], [0, 4, 0, 0]], dtype=np.int64
    )
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
    lam = np.where(trans_counts > 0, rng.uniform(0.1, 1.5, (3, 4)), 0.0)

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
    record = _record(lam, hits, trans_counts, 0.9)
    assert record["mean_trans_acc"] == pytest.approx(mean, rel=1e-12)
    assert record["lagrangian"] == pytest.approx(expect, rel=1e-12)


def _two_transition_setup():
    # (0 <- start): 3 of 4 right; (1 <- 0): 1 of 4 right
    # mean = 1/2, so with eps = 0.5 the second sits exactly on the line
    trans_counts = np.array([[0, 0, 4], [4, 0, 0]], dtype=np.int64)
    hits = np.array([[0, 0, 3], [1, 0, 0]], dtype=np.int64)
    return trans_counts, hits


def test_update_boundary_transition_unchanged():
    counts, hits = _two_transition_setup()
    lam = np.zeros((2, 3))
    lam[0, 2] = 0.2
    lam[1, 0] = 0.2
    after, record = cs.multiplier_step(lam, hits, counts, gamma=0.01, epsilon=0.5)
    assert record["mean_trans_acc"] == pytest.approx(0.5)
    assert after[1, 0] == 0.2  # exactly on the tolerance line
    assert after[0, 2] < 0.2  # satisfied constraint decays


def test_update_violated_constraint_raises_lambda():
    counts, hits = _two_transition_setup()
    after = _step(np.zeros((2, 3)), hits, counts, gamma=0.01, epsilon=0.9)
    # g = (1/4 - 0.9/2) * (T/pi) = -0.2 * 1 -> lambda = 0.002
    assert after[1, 0] == pytest.approx(0.01 * 0.2, rel=1e-12)
    assert after[1, 0] > 0


def test_update_projection_clamps_to_zero():
    counts, hits = _two_transition_setup()
    lam = np.zeros((2, 3))
    lam[0, 2] = 0.001
    # g = (3/4 - 1/4) * 1 = 1/2; step = 0.025 > 0.001
    after = _step(lam, hits, counts, gamma=0.05, epsilon=0.5)
    assert after[0, 2] == 0.0


def test_off_support_multipliers_are_masked():
    # a lambda that is nonzero on the transitions never observed: the
    # gain there is the inverse prior's, and the step returns 0 there
    counts, hits = _two_transition_setup()
    lam = np.full((2, 3), 0.4)
    off = counts == 0
    prior = _prior(counts)
    assert off.any() and (prior > 0).all()
    inverse_prior = np.broadcast_to((1.0 / prior[:, None]) ** 0.6, lam.shape)
    gain = cs.compute_gain(counts, lam, tau=0.6)
    np.testing.assert_array_equal(gain[off], inverse_prior[off])
    assert (gain[~off] > inverse_prior[~off]).all()
    after = _step(lam, hits, counts, gamma=0.01, epsilon=0.5)
    assert not after[off].any()
    assert (after[~off] > 0).all()


def test_update_support_and_nonnegativity():
    ds = sd.generate_synthetic(sd.SynthConfig(num_classes=5, num_sequences=20, rng_seed=6))
    counts = sd.compute_transition_stats(ds)

    def noisy(seq):
        local = np.random.default_rng(seq.num_frames)
        return local.integers(0, ds.num_classes, seq.num_frames)

    hits = _hits_of(ds, noisy)
    lam = np.zeros(counts.shape)
    for _ in range(30):
        lam = _step(lam, hits, counts, gamma=0.01, epsilon=0.9)
        assert (lam >= 0).all()
        assert not lam[counts == 0].any()


def test_monotone_constraint_response():
    counts, hits = _two_transition_setup()
    lam = np.zeros((2, 3))
    lam[0, 2] = 0.05  # satisfied constraint, positive start
    under, over = [], []
    for _ in range(20):
        lam = _step(lam, hits, counts, gamma=0.01, epsilon=0.9)
        under.append(lam[1, 0])
        over.append(lam[0, 2])
    assert all(b > a for a, b in zip([0.0] + under[:-1], under))
    assert all(b <= a for a, b in zip([0.05] + over[:-1], over))
    assert over[-1] == 0.0
    hit = over.index(0.0)
    assert all(v == 0.0 for v in over[hit:])


def test_telemetry_record_fields():
    counts, hits = _two_transition_setup()
    before = np.zeros((2, 3))
    after, rec = cs.multiplier_step(before, hits, counts, gamma=0.01, epsilon=0.9)
    assert set(rec) == {
        "lagrangian", "mean_trans_acc", "lambda_min", "lambda_mean",
        "lambda_max", "violations",
    }
    assert rec["lambda_max"] == after.max() > 0
    assert rec["mean_trans_acc"] == pytest.approx(0.5)
    assert rec["violations"] == 1  # only (1 <- 0) sits below 0.9 * mean
    assert rec["lambda_max"] >= rec["lambda_mean"] >= rec["lambda_min"] >= 0
    # pre-update lambdas are all zero, so the objective is the Acc sum
    assert rec["lagrangian"] == pytest.approx(_class_acc_sum(hits, counts))


def _mostly_right(seq):
    """The true label on about 60 % of the frames, class 0 elsewhere."""
    local = np.random.default_rng(seq.num_frames)
    return np.where(local.random(seq.num_frames) < 0.6, seq.frame_labels, 0)


def test_violations_are_observed_transitions_below_the_line():
    # class 4 never occurs and most (class, prev) pairs are unobserved:
    # the count must match an explicit oracle on observed transitions only
    ds = _dataset(num_classes=5, num_sequences=6, seed=2)
    counts = sd.compute_transition_stats(ds)
    assert ds.class_frame_counts[4] == 0 and np.count_nonzero(counts) < 15
    hits = _hits_of(ds, _mostly_right)
    rec = _record(np.zeros(counts.shape), hits, counts, epsilon=0.95)
    want = 0
    for i, k in zip(*np.nonzero(counts)):
        want += hits[i, k] / counts[i, k] < 0.95 * rec["mean_trans_acc"]
    assert 0 < rec["violations"] == want


def test_zero_step_keeps_zero_multipliers_and_the_record():
    # inverse_prior and plain_ce train at gamma = 0: a zero lambda stays
    # bitwise zero (no -0.0), and the record's learning state, Lagrangian
    # and violations are those that gamma > 0 reports from the same hits
    ds = _dataset(num_classes=5, num_sequences=6, seed=2)
    counts = sd.compute_transition_stats(ds)
    hits = _hits_of(ds, _mostly_right)
    lam = np.zeros(counts.shape)
    held, rec_zero = cs.multiplier_step(lam, hits, counts, gamma=0.0, epsilon=0.95)
    stepped, rec = cs.multiplier_step(lam, hits, counts, gamma=0.5, epsilon=0.95)
    assert held.tobytes() == lam.tobytes()
    assert stepped.any() and rec_zero["violations"] > 0
    for key in ("lagrangian", "mean_trans_acc", "violations"):
        assert rec_zero[key] == rec[key]
    for key in ("lambda_min", "lambda_mean", "lambda_max"):
        assert rec_zero[key] == 0.0


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
    return counts, tables, gamma, epsilon


@settings(database=None, derandomize=True, deadline=None)
@given(multiplier_runs())
def test_multipliers_bounded_by_steps(run):
    # g >= -epsilon * mean * T/prior = -epsilon * mean * P(k|i), so steps
    # from zero leave lambda[i, k] at most gamma * epsilon * P(k|i) times
    # the sum of the means, and so at most E * gamma * epsilon * P(k|i);
    # every step also keeps lambda >= 0 and zero off the support
    counts, tables, gamma, epsilon = run
    lam = np.zeros(counts.shape)
    mean_sum = 0.0
    for hits in tables:
        assert (hits <= counts).all()
        lam, record = cs.multiplier_step(lam, hits, counts, gamma, epsilon)
        assert (lam >= 0).all()
        assert not lam[counts == 0].any()
        mean_sum += record["mean_trans_acc"]
    support = counts.sum(axis=1, keepdims=True)
    p_next = np.zeros(counts.shape)
    np.divide(counts, support, out=p_next, where=support > 0)
    assert (lam <= gamma * epsilon * p_next * mean_sum * (1 + 1e-12)).all()
    assert mean_sum <= len(tables)
