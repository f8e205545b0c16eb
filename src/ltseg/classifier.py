"""Windowed linear frame classifier and its alternating training loop.

The backbone is deliberately small: softmax over an affine map of the
frame's feature window. The interesting part is the loop around it,
which alternates one epoch of gain-weighted gradient descent with a full
confusion pass and a projected multiplier step, so the loss weights for
epoch e always reflect the violations measured after epoch e-1.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import _kernels
from . import costsens
from .confusion import compute_confusion
from .costsens import GainWeights, MultiplierState
from .errors import ConfigError, ParseError, RangeError, TrainingDivergedError
from .seqdata import compute_transition_stats

LOSS_MODES = ("plain_ce", "inverse_prior", "cost_sensitive")


@dataclass(eq=False)
class ClassifierParams:
    """Affine map [L x D*(2w+1)] plus bias, with w frames of replicated
    context on each side."""

    weights: np.ndarray
    bias: np.ndarray
    context_radius: int

    @classmethod
    def zeros(cls, num_classes, feature_dim, context_radius=0):
        if num_classes <= 0 or feature_dim <= 0 or context_radius < 0:
            raise ConfigError(
                f"bad classifier shape: L={num_classes}, D={feature_dim}, "
                f"w={context_radius}"
            )
        width = 2 * context_radius + 1
        return cls(
            weights=np.zeros((num_classes, feature_dim * width)),
            bias=np.zeros(num_classes),
            context_radius=int(context_radius),
        )

    @property
    def num_classes(self):
        return self.weights.shape[0]

    @property
    def feature_dim(self):
        return self.weights.shape[1] // (2 * self.context_radius + 1)

    def logits_sequence(self, sequence):
        phi = _kernels.window_stack(sequence.features, self.context_radius)
        return phi @ self.weights.T + self.bias

    def forward_sequence(self, sequence):
        """Per-frame probabilities, [T x L]."""
        logits = self.logits_sequence(sequence)
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        return p

    def predict_sequence(self, sequence):
        """Per-frame argmax labels; ties go to the smallest class id."""
        return np.argmax(self.logits_sequence(sequence), axis=1).astype(np.int64)


def forward(params: ClassifierParams, sequence, t):
    """Probability simplex for one frame."""
    num_frames = sequence.num_frames
    if not 0 <= t < num_frames:
        raise RangeError(f"frame {t} outside [0, {num_frames})")
    w = params.context_radius
    idx = np.clip(np.arange(t - w, t + w + 1), 0, num_frames - 1)
    phi = sequence.features[:, idx].T.astype(np.float64).ravel()
    logits = params.weights @ phi + params.bias
    p = np.exp(logits - logits.max())
    return p / p.sum()


def predict_sequence(params: ClassifierParams, sequence):
    return params.predict_sequence(sequence)


def bayes_optimal_decision(posteriors, gain, u):
    """Decision with the highest expected gain.

    ``gain`` is either GainWeights (diagonal gain: only correct answers
    pay off, weighted per class) or a full [L x L] matrix slice for the
    given previous action. Ties go to the smallest class id.
    """
    p = np.asarray(posteriors, dtype=np.float64)
    if isinstance(gain, GainWeights):
        scores = p * gain.gain[:, u]
    else:
        scores = p @ np.asarray(gain, dtype=np.float64)
    return int(np.argmax(scores))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    learning_rate: float = 0.2
    batch_size: int = 8  # sequences per gradient step
    context_radius: int = 1
    tau: float = costsens.DEFAULT_TAU
    epsilon: float = costsens.DEFAULT_EPSILON
    gamma: float = costsens.DEFAULT_STEP_SIZE
    rng_seed: int = 0
    loss_mode: str = "cost_sensitive"

    def validate(self):
        # epochs = 0 is a legal no-op run (checkpoint equals init)
        if self.epochs < 0 or self.batch_size <= 0 or self.context_radius < 0:
            raise ConfigError(
                f"epochs/batch_size/context_radius out of range: "
                f"{self.epochs}/{self.batch_size}/{self.context_radius}"
            )
        if self.learning_rate <= 0 or self.tau < 0 or self.gamma <= 0:
            raise ConfigError(
                f"rates out of range: lr={self.learning_rate}, tau={self.tau}, "
                f"gamma={self.gamma}"
            )
        if not 0 < self.epsilon <= 1:
            raise ConfigError(f"tolerance must be in (0, 1], got {self.epsilon}")
        if self.loss_mode not in LOSS_MODES:
            raise ConfigError(
                f"loss_mode {self.loss_mode!r} not one of {LOSS_MODES}"
            )
        return self


def train(dataset, config: TrainConfig):
    """Alternating optimization over a dataset.

    Per epoch: (1) loss weights from the current multipliers, (2) one
    pass of mini-batch SGD on the weighted cross-entropy, (3) a full
    confusion pass with the updated classifier, (4, 5) mean refresh and
    projected multiplier step. plain_ce uses unit weights and skips
    1, 4, 5; inverse_prior keeps the multipliers pinned at zero.

    Returns (params, telemetry), one telemetry record per epoch.
    """
    config.validate()
    if not dataset.sequences:
        raise ConfigError("cannot train on an empty dataset")
    stats = compute_transition_stats(dataset)
    mult = MultiplierState.zeros(
        stats, step_size=config.gamma, epsilon=config.epsilon
    )
    params = ClassifierParams.zeros(
        dataset.num_classes, dataset.feature_dim, config.context_radius
    )
    rng = np.random.default_rng(config.rng_seed)
    windows = [
        _kernels.window_stack(seq.features, config.context_radius)
        for seq in dataset.sequences
    ]
    n_seq = len(dataset.sequences)
    telemetry = []
    for epoch in range(config.epochs):
        if config.loss_mode == "plain_ce":
            gain = None
        else:
            gain = costsens.compute_gain(stats, mult, config.tau)
        order = rng.permutation(n_seq)
        epoch_loss = 0.0
        epoch_frames = 0
        for lo in range(0, n_seq, config.batch_size):
            batch = order[lo : lo + config.batch_size]
            grad_w = np.zeros_like(params.weights)
            grad_b = np.zeros_like(params.bias)
            batch_frames = 0
            for idx in batch:
                seq = dataset.sequences[idx]
                phi = windows[idx]
                logits = phi @ params.weights.T + params.bias
                if gain is None:
                    frame_w = np.ones(seq.num_frames)
                else:
                    frame_w = costsens.frame_weights(
                        gain, seq.frame_labels, seq.prev_action
                    )
                loss_sum, dlogits = _kernels.softmax_xent_grad(
                    logits, seq.frame_labels, frame_w
                )
                grad_w += dlogits.T @ phi
                grad_b += dlogits.sum(axis=0)
                batch_frames += seq.num_frames
                epoch_loss += loss_sum
            scale = config.learning_rate / batch_frames
            params.weights -= scale * grad_w
            params.bias -= scale * grad_b
            epoch_frames += batch_frames
        mean_loss = epoch_loss / epoch_frames
        if not np.isfinite(mean_loss):
            raise TrainingDivergedError(epoch, mean_loss)
        tensor = compute_confusion(params, dataset)
        if config.loss_mode == "cost_sensitive":
            updated = costsens.update_multipliers(mult, tensor, stats)
            record = costsens.telemetry_record(epoch, tensor, stats, mult, updated)
            record["loss"] = mean_loss
            mult = updated
        else:
            record = {"epoch": epoch, "loss": mean_loss}
        telemetry.append(record)
    return params, telemetry


_CHECKPOINT_KEYS = ("num_classes", "feature_dim", "context_radius", "epoch")


def save_checkpoint(params: ClassifierParams, path, epoch):
    """JSON header line, then float32 little-endian weights and bias."""
    header = {
        "num_classes": params.num_classes,
        "feature_dim": params.feature_dim,
        "context_radius": params.context_radius,
        "epoch": int(epoch),
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode("ascii"))
        fh.write(np.ascontiguousarray(params.weights, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(params.bias, dtype="<f4").tobytes())


def load_checkpoint(path):
    """Returns (params, epoch)."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(header_line.decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}:1: bad checkpoint header ({exc})") from exc
    if not isinstance(header, dict):
        raise ParseError(f"{path}:1: checkpoint header is not a JSON object")
    if not all(k in header for k in _CHECKPOINT_KEYS):
        missing = [k for k in _CHECKPOINT_KEYS if k not in header]
        raise ParseError(f"{path}:1: header missing {missing}")
    for key in _CHECKPOINT_KEYS:
        value = header[key]
        if not isinstance(value, int) or isinstance(value, bool):
            raise ParseError(
                f"{path}:1: header field {key!r} must be an integer, got {value!r}"
            )
    L = header["num_classes"]
    D = header["feature_dim"]
    w = header["context_radius"]
    if L <= 0 or D <= 0 or w < 0:
        raise RangeError(f"{path}: non-positive dimensions in header")
    width = 2 * w + 1
    expect = L * D * width + L
    values = np.frombuffer(payload, dtype="<f4")
    if values.size != expect:
        raise ParseError(
            f"{path}: payload holds {values.size} floats, header implies {expect}"
        )
    params = ClassifierParams(
        weights=values[: L * D * width].reshape(L, D * width).astype(np.float64),
        bias=values[L * D * width :].astype(np.float64),
        context_radius=w,
    )
    return params, header["epoch"]
