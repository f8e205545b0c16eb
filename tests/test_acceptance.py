"""Acceptance gate: one test per shipped criterion, run with -v for the
per-criterion pass/fail lines.

Each criterion pins its own tolerances and runtime budget. The
directional experiments (criteria 8 and 9) share one seeded run and
assert the sign pattern, not benchmark-scale numbers.
"""

import io
import json
import os
import time
import warnings

import numpy as np
import pytest

from ltseg import _kernels
from ltseg import classifier as clf
from ltseg import cli
from ltseg import costsens as cs
from ltseg import decode as dec
from ltseg import metrics as mx
from ltseg import seqdata as sd


def random_gains(rng, num_classes):
    """Two independent positive ``[L, L+1]`` gain arrays."""
    shape = (num_classes, num_classes + 1)
    return rng.uniform(0.2, 3.0, shape), rng.uniform(0.2, 3.0, shape)


def window_oracle(features, radius, t):
    """Frame t's window: replicated edges, offsets -radius..+radius."""
    idx = np.clip(np.arange(t - radius, t + radius + 1), 0, features.shape[1] - 1)
    return features[:, idx].T.astype(np.float64).ravel()


def argmax_oracle(params, seq):
    """Per-frame argmax of row-major logits over oracle windows."""
    phi = np.array(
        [
            window_oracle(seq.features, params.context_radius, t)
            for t in range(seq.num_frames)
        ]
    )
    return np.argmax(phi @ params.weights.T + params.bias, axis=1)


# -- 1. gradient correctness -------------------------------------------------


def test_criterion_01_weighted_ce_gradient():
    # the training path's own loss and gradient: softmax_xent_grad on
    # class-major logits [L, n], each frame weighted by tempered[y, u]
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        num_classes = int(rng.integers(2, 8))
        frames = int(rng.integers(1, 5))
        logits = rng.normal(scale=3.0, size=(num_classes, frames))
        labels = rng.integers(num_classes, size=frames)
        prev = rng.integers(num_classes + 1, size=frames)
        _, tempered = random_gains(rng, num_classes)
        weights = tempered[labels, prev]
        _, grad, _ = _kernels.softmax_xent_grad(logits, labels, weights)
        step = 1e-5
        fd = np.empty_like(logits)
        for idx in np.ndindex(*logits.shape):
            bump = np.zeros_like(logits)
            bump[idx] = step
            hi = _kernels.softmax_xent_grad(logits + bump, labels, weights)[0]
            lo = _kernels.softmax_xent_grad(logits - bump, labels, weights)[0]
            fd[idx] = (hi - lo) / (2 * step)
        # error relative to the gradient's own scale, unit floor below
        # it (central differences bottom out at cancellation noise)
        scale = max(np.abs(grad).max(), 1.0)
        worst = max(worst, np.abs(fd - grad).max() / scale)
    assert worst < 1e-6

    # full pipeline on a 3-frame sequence, through the step train runs:
    # window views -> float64 batch buffer -> class-major logits and
    # in place their gradient in one [L, n] buffer -> weighted CE ->
    # parameter grads
    rng = np.random.default_rng(202)
    features = rng.normal(size=(2, 3)).astype(np.float32)
    seq = sd.Dataset.of([("fd", [0, 2, 1], features.T)], 3).sequences[0]
    phi = np.concatenate(
        _kernels.window_store([(seq.frames, seq.pad)], 1), out=np.empty((3, 6))
    )
    buffers = np.empty((3, 3)), _kernels.XentScratch(3, 3)
    _, tempered = random_gains(rng, 3)
    weights = tempered[seq.frame_labels, seq.prev_action]
    params = clf.ClassifierParams(
        weights=rng.normal(scale=0.5, size=(3, 6)),
        bias=rng.normal(scale=0.1, size=3),
        context_radius=1,
    )

    def pipeline_loss(p):
        return clf.batch_gradient(p, phi, seq.frame_labels, weights, *buffers)[0]

    _, grad_w, grad_b, _ = clf.batch_gradient(
        params, phi, seq.frame_labels, weights, *buffers
    )
    step = 1e-6
    worst = 0.0
    scale = max(np.abs(grad_w).max(), np.abs(grad_b).max(), 1.0)
    for arr, grad in ((params.weights, grad_w), (params.bias, grad_b)):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = arr[idx]
            arr[idx] = keep + step
            hi = pipeline_loss(params)
            arr[idx] = keep - step
            lo = pipeline_loss(params)
            arr[idx] = keep
            fd = (hi - lo) / (2 * step)
            worst = max(worst, abs(fd - grad[idx]) / scale)
    assert worst < 1e-5
    assert time.perf_counter() - start < 10.0


# -- 2. learning-state count oracle ------------------------------------------


def test_criterion_02_confusion_oracle(monkeypatch):
    # the table train hands to learning_state: one epoch of one batch
    # that starts from the trial's random parameters, so every frame is
    # predicted by them before the step
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    handed = []
    real_state = cs.learning_state

    def capture_state(hits, counts):
        handed.append((hits, counts))
        return real_state(hits, counts)

    monkeypatch.setattr(cs, "learning_state", capture_state)
    for trial in range(50):
        num_classes = int(rng.integers(2, 6))
        feature_dim = int(rng.integers(2, 5))
        records = []
        for s in range(int(rng.integers(1, 6))):
            frames = int(rng.integers(1, 101))
            labels = rng.integers(0, num_classes, frames)
            feats = rng.normal(size=(feature_dim, frames)).astype(np.float32)
            records.append((f"t{trial}s{s}", labels, feats.T))
        dataset = sd.Dataset.of(records, num_classes)
        params = clf.ClassifierParams(
            weights=rng.normal(size=(num_classes, feature_dim * 3)),
            bias=rng.normal(size=num_classes),
            context_radius=1,
        )
        # oracle: the full (truth, prediction, previous action) tensor
        tensor = np.zeros(
            (num_classes, num_classes, num_classes + 1), np.int64
        )
        for seq in dataset.sequences:
            pred = argmax_oracle(params, seq)
            for t in range(seq.num_frames):
                tensor[seq.frame_labels[t], pred[t], seq.prev_action[t]] += 1
        monkeypatch.setattr(
            clf.ClassifierParams, "zeros", lambda *args, **kwargs: params
        )
        handed.clear()
        clf.train(
            dataset,
            clf.TrainConfig(epochs=1, batch_size=len(records), context_radius=1,
                            rng_seed=trial),
        )
        assert len(handed) == 1
        got, support = handed[0]
        classes = np.arange(num_classes)
        assert np.array_equal(got, tensor[classes, classes])
        # the learning state's support: every frame was predicted once
        assert np.array_equal(tensor.sum(axis=1), support)
    assert time.perf_counter() - start < 10.0


# -- 3. reductions -----------------------------------------------------------


def test_criterion_03_reductions():
    synth = sd.SynthConfig(
        num_classes=4,
        feature_dim=6,
        num_sequences=6,
        duration_mean=8.0,
        noise_scale=0.6,
        rng_seed=3,
    )
    dataset = sd.generate_synthetic(synth)
    base = dict(epochs=4, learning_rate=0.3, rng_seed=1)
    _, tempered = clf.train(
        dataset, clf.TrainConfig(loss_mode="cost_sensitive", tau=0.0, **base)
    )
    _, plain = clf.train(dataset, clf.TrainConfig(loss_mode="plain_ce", **base))
    assert len(tempered) == len(plain) == 4
    for a, b in zip(tempered, plain):
        assert abs(a["loss"] - b["loss"]) <= 1e-12

    rng = np.random.default_rng(33)
    num_classes = 5
    counts = rng.integers(0, 30, (num_classes, num_classes, num_classes + 1))
    classes = np.arange(num_classes)
    hits = counts[classes, classes]
    lam = np.zeros(hits.shape)
    _, record = cs.multiplier_step(
        lam, hits, counts.sum(axis=1), gamma=0.01, epsilon=0.9
    )
    value = record["lagrangian"]
    # the sum of per-class accuracies over classes that have frames
    support = counts.sum(axis=(1, 2))
    present = support > 0
    want = (hits.sum(axis=1)[present] / support[present]).sum()
    assert value == pytest.approx(want, abs=1e-9)


# -- 4. multiplier dynamics --------------------------------------------------


def test_criterion_04_multiplier_dynamics():
    start = time.perf_counter()
    num_classes, prev = 3, 4
    support = np.zeros((num_classes, prev), np.int64)
    hits = np.zeros((num_classes, prev), np.int64)
    support[0, 1], hits[0, 1] = 40, 4  # Tacc 0.1, under-learned
    support[1, 0], hits[1, 0] = 40, 36  # Tacc 0.9, satisfied
    support[2, 2], hits[2, 2] = 20, 10  # Tacc 0.5, near the mean
    lam = np.zeros((num_classes, prev))
    lam[1, 0] = 0.04  # must decay back to zero

    valid = support > 0
    low_path, high_path = [], []
    for _ in range(20):  # the same hits every step: a frozen classifier
        lam, _ = cs.multiplier_step(lam, hits, support, gamma=0.01, epsilon=0.9)
        assert (lam >= 0).all()
        assert not lam[~valid].any()
        low_path.append(lam[0, 1])
        high_path.append(lam[1, 0])
    # violated transition: strictly increasing at every one of the 20 steps
    assert all(b > a for a, b in zip([0.0] + low_path, low_path))
    # satisfied transition: reaches zero within 20 updates and stays
    hit = high_path.index(0.0)
    assert all(v == 0.0 for v in high_path[hit:])
    assert all(b < a for a, b in zip([0.04] + high_path[: hit + 1], high_path[: hit + 1]))
    assert time.perf_counter() - start < 5.0


# -- 5. Bayes-optimal calibration --------------------------------------------


def bayes_optimal_decision(posteriors, gain, u):
    """The answer with the highest expected gain under a diagonal gain
    (only correct answers pay off, weighted per class and previous
    action); ties go to the smallest class id."""
    scores = [p * gain[j, u] for j, p in enumerate(posteriors)]
    return max(range(len(scores)), key=lambda j: (scores[j], -j))


def test_criterion_05_bayes_calibration():
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    for _ in range(10_000):
        num_classes = int(rng.integers(2, 7))
        posterior = rng.dirichlet(np.ones(num_classes))
        gain, _ = random_gains(rng, num_classes)
        u = int(rng.integers(num_classes + 1))
        got = bayes_optimal_decision(posterior, gain, u)
        scores = posterior * gain[:, u]
        assert got == int(np.argmax(scores))

    # trained-with-weighted-CE boundary lands on the analytic weighted rule
    rng = np.random.default_rng(0)
    mu = np.array([-1.0, 1.0])
    records = []
    for s in range(20):
        labels = (rng.random(200) < 0.2).astype(np.int64)
        feats = (mu[labels] + rng.normal(size=200)).astype(np.float32)[:, None]
        records.append((f"g{s:02d}", labels, feats))
    dataset = sd.Dataset.of(records, 2)
    config = clf.TrainConfig(
        epochs=30,
        learning_rate=0.5,
        batch_size=4,
        context_radius=0,
        tau=1.0,
        rng_seed=0,
        loss_mode="inverse_prior",
    )
    params, _ = clf.train(dataset, config)
    grid = np.linspace(-4.0, 4.0, 401)
    grid_seq = sd.Dataset.of(
        [("grid", np.zeros(401, np.int64), grid.astype(np.float32)[:, None])], 2
    ).sequences[0]
    predicted = dec.decode_sequence(params, grid_seq, "argmax")
    # the Bayes rule on the true posteriors with inverse-prior gains: the
    # weights cancel the priors, so the boundary sits at x = 0
    counts = np.array([[8, 0, 0], [2, 0, 0]])
    gain = cs.compute_gain(counts, np.zeros((2, 3)), tau=1.0)
    prior = counts.sum(axis=1) / counts.sum()
    joint = prior * np.exp(-0.5 * (grid[:, None] - mu) ** 2)
    posterior = joint / joint.sum(axis=1, keepdims=True)
    analytic = np.array([bayes_optimal_decision(p, gain, 0) for p in posterior])
    assert np.array_equal(analytic, (grid > 0.0).astype(np.int64))
    assert (predicted == analytic).mean() >= 0.95
    assert time.perf_counter() - start < 60.0


# -- 6. metric oracles -------------------------------------------------------


def _lev_oracle(a, b):
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, y in enumerate(b, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y))
        prev = cur
    return prev[-1]


def _f1_counts_oracle(pred_seg, truth_seg, thr):
    gt = [
        {"frames": set(range(s, e + 1)), "label": label, "used": False}
        for s, e, label in zip(*truth_seg)
    ]
    tp = fp = 0
    for s, e, label in zip(*pred_seg):
        frames = set(range(s, e + 1))
        best, best_iou = None, 0.0
        for entry in gt:
            if entry["used"] or entry["label"] != label:
                continue
            iou = len(frames & entry["frames"]) / len(frames | entry["frames"])
            if iou > best_iou:
                best, best_iou = entry, iou
        if best is not None and best_iou >= thr:
            tp += 1
            best["used"] = True
        else:
            fp += 1
    fn = sum(1 for entry in gt if not entry["used"])
    denom = 2 * tp + fp + fn
    # same expression shape as the library so exact equality is fair
    return 100.0 * (2 * tp / denom) if denom else 0.0


def test_criterion_06_metric_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(66)
    for _ in range(200):
        a = rng.integers(0, 5, rng.integers(0, 14)).tolist()
        b = rng.integers(0, 5, rng.integers(0, 14)).tolist()
        longer = max(len(a), len(b))
        want = 100.0 if not longer else 100.0 * (1 - _lev_oracle(a, b) / longer)
        assert mx.edit_score(a, b) == want

    checked = 0
    while checked < 300:
        n = int(rng.integers(3, 19))
        pred = rng.integers(0, 3, n)
        truth = rng.integers(0, 3, n)
        pred_seg = sd.segmentation_from_frames(pred)
        truth_seg = sd.segmentation_from_frames(truth)
        if pred_seg[0].size > 6 or truth_seg[0].size > 6:
            continue
        checked += 1
        thr = float(rng.choice([0.1, 0.25, 0.5, 0.75]))
        got = mx.evaluate([pred], [truth], 3, thresholds=(thr,)).f1_at[thr][0]
        assert got == _f1_counts_oracle(pred_seg, truth_seg, thr)

    for _ in range(50):
        n = int(rng.integers(1, 60))
        truth = rng.integers(0, 4, n)
        pred = rng.integers(0, 4, n)
        _, per_class = mx.frame_accuracy(pred, truth, 4)
        recalls = []
        for c in range(4):
            support = int((truth == c).sum())
            if support:
                recalls.append(int(((truth == c) & (pred == c)).sum()) / support)
        assert per_class == pytest.approx(100.0 * np.mean(recalls), abs=1e-12)
    assert time.perf_counter() - start < 30.0


# -- 7. S-NCM properties -----------------------------------------------------


def test_criterion_07_sncm_over_segmentation():
    synth = sd.SynthConfig(
        num_classes=6,
        feature_dim=8,
        num_sequences=30,
        mean_scale=1.0,
        noise_scale=1.3,
        rng_seed=0,
    )
    dataset = sd.generate_synthetic(synth)
    config = clf.TrainConfig(
        epochs=10, learning_rate=0.3, loss_mode="plain_ce", rng_seed=0
    )
    params, _ = clf.train(dataset, config)
    means = dec.compute_class_means(
        dataset, dec.windowed_extractor(params.context_radius)
    )
    true_count = ncm_count = argmax_count = sncm_count = 0
    ncm_edits, sncm_edits = [], []
    for seq in dataset.sequences:
        ncm = dec.decode_sequence(params, seq, "ncm", means=means)
        argmax = dec.decode_sequence(params, seq, "argmax")
        sncm = dec.decode_sequence(params, seq, "sncm", means=means)
        _, _, truth_runs = sd.segmentation_from_frames(seq.frame_labels)
        _, _, ncm_runs = sd.segmentation_from_frames(ncm)
        _, _, sncm_runs = sd.segmentation_from_frames(sncm)
        true_count += truth_runs.size
        ncm_count += ncm_runs.size
        argmax_count += sd.segmentation_from_frames(argmax)[2].size
        sncm_count += sncm_runs.size
        ncm_edits.append(mx.edit_score(ncm_runs, truth_runs))
        sncm_edits.append(mx.edit_score(sncm_runs, truth_runs))
    # the scenario must actually over-segment before the claim means anything
    assert ncm_count >= 2 * true_count
    assert sncm_count <= argmax_count
    assert np.mean(sncm_edits) > np.mean(ncm_edits)

    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        classifier_labels = rng.integers(0, 4, n)
        votes = rng.integers(0, 4, n)
        once = dec.sncm_decode(classifier_labels, votes)
        again = dec.sncm_decode(once, votes)
        assert np.array_equal(once, again)


# -- 8 & 9. directional reproduction ----------------------------------------


@pytest.fixture(scope="module")
def longtail_deltas():
    start = time.perf_counter()
    rows = []
    for seed in (0, 1, 2):
        synth = sd.SynthConfig(
            num_classes=12,
            feature_dim=16,
            num_sequences=260,
            class_skew=1.5,
            mean_scale=0.3,
            noise_scale=0.4,
            transition_skew=2.0,
            rng_seed=seed,
        )
        full = sd.generate_synthetic(synth)
        records = [(s.seq_id, s.frame_labels, s.frames) for s in full.sequences]
        train_ds = sd.Dataset.of(records[:200], 12, full.class_names)
        test_ds = sd.Dataset.of(records[200:], 12, full.class_names)
        threshold = int(train_ds.class_frame_counts.sum() / 12)
        head, _ = sd.head_tail_split(train_ds.class_frame_counts, threshold)
        reports = {}
        for mode in ("cost_sensitive", "plain_ce"):
            config = clf.TrainConfig(
                epochs=30,
                learning_rate=0.3,
                tau=0.3,
                epsilon=0.9,
                gamma=0.01,
                rng_seed=seed,
                loss_mode=mode,
            )
            params, _ = clf.train(train_ds, config)
            preds = [
                dec.decode_sequence(params, s, "argmax") for s in test_ds.sequences
            ]
            truths = [s.frame_labels for s in test_ds.sequences]
            reports[mode] = mx.evaluate(preds, truths, 12, head=head)
        cs_rep, ce_rep = reports["cost_sensitive"], reports["plain_ce"]
        rows.append(
            {
                "per_class_acc": cs_rep.per_class_acc - ce_rep.per_class_acc,
                "per_class_f1": cs_rep.f1_at[0.25][1] - ce_rep.f1_at[0.25][1],
                "global_acc": cs_rep.global_acc - ce_rep.global_acc,
                "head_acc": cs_rep.group["head"].per_class_acc
                - ce_rep.group["head"].per_class_acc,
                "tail_acc": cs_rep.group["tail"].per_class_acc
                - ce_rep.group["tail"].per_class_acc,
            }
        )
    elapsed = time.perf_counter() - start
    mean = {key: float(np.mean([r[key] for r in rows])) for key in rows[0]}
    return mean, elapsed


def test_criterion_08_longtail_direction(longtail_deltas):
    mean, elapsed = longtail_deltas
    assert mean["per_class_acc"] >= 2.0
    assert mean["per_class_f1"] >= 2.0
    assert mean["global_acc"] >= -1.0
    assert elapsed < 600.0


def test_criterion_09_group_direction(longtail_deltas):
    mean, _ = longtail_deltas
    assert mean["tail_acc"] > 0.0
    assert mean["head_acc"] >= -1.5


# -- 10. determinism ---------------------------------------------------------


def test_criterion_10_command_determinism(tmp_path):
    config_path = tmp_path / "cfg.json"
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "dataset": {
                    "synthetic": {
                        "num_classes": 4,
                        "feature_dim": 5,
                        "num_sequences": 6,
                        "duration_mean": 7.0,
                        "noise_scale": 0.4,
                    }
                },
                "train": {"epochs": 3, "learning_rate": 0.3},
                "head_threshold": 30,
                "out": str(tmp_path / "runs"),
                "seed": 9,
            },
            fh,
        )
    config = cli.load_config(str(config_path))

    def file_bytes(run_dir, names):
        out = {}
        for name in names:
            with open(os.path.join(run_dir, name), "rb") as fh:
                out[name] = fh.read()
        return out

    gen_a = cli.cmd_gen(config, stream=io.StringIO())
    gen_b = cli.cmd_gen(config, stream=io.StringIO())
    names = ["class_counts.csv", "dataset/manifest.json", "dataset/classes.txt"]
    assert file_bytes(gen_a, names) == file_bytes(gen_b, names)

    train_a, code_a = cli.cmd_train(config)
    train_b, code_b = cli.cmd_train(config)
    assert code_a == code_b == 0
    names = ["telemetry.jsonl", "checkpoint.bin"]
    assert file_bytes(train_a, names) == file_bytes(train_b, names)

    checkpoint = os.path.join(train_a, "checkpoint.bin")
    eval_a = cli.cmd_eval(config, checkpoint)
    eval_b = cli.cmd_eval(config, checkpoint)
    names = [
        f"report{suffix}.{ext}"
        for suffix in ("", "_ncm", "_argmax")
        for ext in ("json", "csv")
    ]
    assert file_bytes(eval_a, names) == file_bytes(eval_b, names)

    out_a, out_b = io.StringIO(), io.StringIO()
    report = os.path.join(eval_a, "report.json")
    baseline = os.path.join(eval_a, "report_ncm.json")
    cli.cmd_report([baseline, report], stream=out_a)
    cli.cmd_report([baseline, report], stream=out_b)
    assert out_a.getvalue() == out_b.getvalue()
