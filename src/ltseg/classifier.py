"""Windowed linear frame classifier and its alternating training loop.

The backbone is deliberately small: softmax over an affine map of the
frame's feature window. The interesting part is the loop around it,
which alternates one epoch of gain-weighted gradient descent with a
projected multiplier step, so the loss weights for epoch e always
reflect the violations measured during epoch e-1. The learning state
comes from the SGD pass itself: each step's softmax also marks the
frames that the logits before the step classify correctly, read off its
own column max, and the epoch counts those hits per (class, previous
action) pair. Every frame sits in exactly one batch per epoch, so that
and the pair's frame count are all the learning state needs.

Training windows each sequence with ``_kernels.window_store``: a
strided view over the sequence's own float32 frames, which are held
once, frame-major and padded with ``p`` edge frames (``LabeledSequence``),
so the rows are the stacked windows at no extra bytes when ``p`` covers
the radius, as for a dataset laid out at it (``cmd_train`` lays it out
so); a sequence padded less is re-padded into a copy. The views also
give the class means. The SGD step allocates no batch-sized matrix:
each batch's views are concatenated straight into one float64
``[n_max, D*(2w+1)]`` buffer (an exact widening), and its class-major
logits and their gradient go into two ``[L, n_max]`` buffers, all three
made once per ``train`` call for the largest batch (the ``batch_size``
longest sequences). So training holds the features once, and never a
full ``[N, L]`` logits matrix, an ``[N, D*(2w+1)]`` copy or a per-frame
array over the training set.

``window_store`` is the one window builder and ``_class_major_logits``
the one logits expression: the SGD step and eval (``predict_windows`` on
``decode.windowed_extractor``'s per-sequence view) both use them.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import _kernels
from . import costsens
from .decode import ClassMeans, class_means_of
from .errors import (
    ConfigError,
    ParseError,
    RangeError,
    TrainingDivergedError,
    require_finite,
    require_int,
)
from .seqdata import check_radius, compute_transition_stats, read_bytes, read_json

LOSS_MODES = ("plain_ce", "inverse_prior", "cost_sensitive")


@dataclass(eq=False)
class ClassifierParams:
    """Affine map [L x D*(2w+1)] plus bias, with w frames of replicated
    context on each side. ``train_means`` are the training split's class
    means of the stacked windows with their support, the per-class
    training frame counts; eval decodes with them."""

    weights: np.ndarray
    bias: np.ndarray
    context_radius: int
    train_means: ClassMeans = None

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

    def predict_windows(self, phi):
        """Per-frame argmax labels of stacked windows ``[T, D*(2w+1)]``;
        ties go to the smallest class id."""
        return np.argmax(_class_major_logits(self, phi), axis=0)


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
        for name in ("epochs", "batch_size", "context_radius"):
            require_int(name, getattr(self, name))
        for name in ("learning_rate", "tau", "epsilon", "gamma"):
            require_finite(name, getattr(self, name))
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


def _class_major_logits(params, phi, out=None):
    """Logits ``[L, n]`` of windows ``[n, D*(2w+1)]``, one column a frame,
    written into ``out`` when one is given."""
    logits = np.matmul(params.weights, phi.T, out=out)
    logits += params.bias[:, None]
    return logits


def batch_gradient(params, phi, labels, weights, logits=None, dlogits=None):
    """``(loss_sum, grad_weights, grad_bias, hit)`` of the weighted
    cross-entropy of windows ``phi``, summed over the batch's frames;
    ``hit`` marks the frames whose argmax under ``params`` (ties to the
    smallest class id) is their label. ``logits`` and ``dlogits``, when
    given, are two float64 C-contiguous ``[L, n]`` buffers that receive
    the class-major logits and their gradient."""
    logits = _class_major_logits(params, phi, out=logits)
    loss_sum, dlogits, hit = _kernels.softmax_xent_grad(
        logits, labels, weights, out=dlogits
    )
    return loss_sum, dlogits @ phi, dlogits.sum(axis=1), hit


def train(dataset, config: TrainConfig):
    """Alternating optimization over a dataset.

    Per epoch: (1) loss weights from the current multipliers, (2) one
    pass of mini-batch SGD on the weighted cross-entropy, which also
    counts the correct frames per (class, previous action), each frame
    as predicted just before its batch's step, (3) one
    ``costsens.multiplier_step`` on those counts, which steps the
    multipliers and gives the epoch's telemetry record. The loss modes
    differ only in tau and gamma: inverse_prior is gamma = 0, which
    keeps the multipliers at zero, and plain_ce is inverse_prior at
    tau = 0, whose gain is exactly 1.

    Each sequence is windowed by ``_kernels.window_store``: a view over
    its own padded frames when they carry at least w edge frames on each
    side (a dataset laid out at w), a re-padded copy otherwise. A step
    concatenates its batch's views straight into one float64
    ``[n, D*(2w+1)]`` buffer (an exact widening), reads its frame
    weights off the gain array at its frames' (class, previous action)
    cells, and makes one ``softmax_xent_grad`` call and one gradient
    GEMM (``batch_gradient``) with the class-major logits and their
    gradient in two ``[L, n]`` buffers; the softmax also gives the
    hits, counted per cell by one ``bincount``. The three buffers are
    made once, for the largest batch, the ``batch_size`` longest
    sequences. The views give ``params.train_means`` too.

    Returns (params, telemetry), one telemetry record per epoch.
    """
    config.validate()
    seqs = dataset.sequences
    if not seqs:
        raise ConfigError("cannot train on an empty dataset")
    L, D, w = dataset.num_classes, dataset.feature_dim, config.context_radius
    check_radius(w, L, D, len(seqs))  # the N * D features are loaded already
    counts = compute_transition_stats(dataset)
    lam = np.zeros((L, L + 1))  # one multiplier per (class, previous action)
    params = ClassifierParams.zeros(L, D, w)
    rng = np.random.default_rng(config.rng_seed)
    windows = _kernels.window_store([(seq.frames, seq.pad) for seq in seqs], w)
    lengths = np.array([seq.num_frames for seq in seqs])
    # the step buffers hold the largest batch, flat so every batch's
    # [L, n] prefix is C-contiguous
    n_max = int(np.sort(lengths)[-config.batch_size :].sum())
    phi_buf = np.empty((n_max, params.weights.shape[1]))
    logits_buf = np.empty(L * n_max)
    dlogits_buf = np.empty(L * n_max)
    tau = 0.0 if config.loss_mode == "plain_ce" else config.tau
    gamma = config.gamma if config.loss_mode == "cost_sensitive" else 0.0
    telemetry = []
    for epoch in range(config.epochs):
        gain = costsens.compute_gain(counts, lam, tau).ravel()
        hits = np.zeros(L * (L + 1), dtype=np.int64)
        order = rng.permutation(len(seqs))
        epoch_loss = 0.0
        for lo in range(0, len(seqs), config.batch_size):
            ids = order[lo : lo + config.batch_size]
            n = int(lengths[ids].sum())
            phi = np.concatenate([windows[s] for s in ids], out=phi_buf[:n])
            labels = np.concatenate([seqs[s].frame_labels for s in ids])
            # flat (class, previous action) cells, column L 'start'
            cells = labels * (L + 1)
            cells += np.concatenate([seqs[s].prev_action for s in ids])
            loss_sum, grad_w, grad_b, hit = batch_gradient(
                params, phi, labels, gain[cells],
                logits_buf[: L * n].reshape(L, n), dlogits_buf[: L * n].reshape(L, n),
            )
            scale = config.learning_rate / n
            params.weights -= scale * grad_w
            params.bias -= scale * grad_b
            epoch_loss += loss_sum
            hits += np.bincount(cells[hit], minlength=hits.size)
        mean_loss = epoch_loss / dataset.total_frames
        if not np.isfinite(mean_loss):
            raise TrainingDivergedError(epoch, mean_loss)
        lam, record = costsens.multiplier_step(
            lam, hits.reshape(L, L + 1), counts, gamma, config.epsilon
        )
        record.update(epoch=epoch, loss=mean_loss)
        telemetry.append(record)
    params.train_means = class_means_of(dataset, windows)
    return params, telemetry


_CHECKPOINT_KEYS = ("num_classes", "feature_dim", "context_radius", "epoch")


def save_checkpoint(params: ClassifierParams, path, epoch):
    """JSON header line, then little-endian float32 weights and bias,
    float64 training class means and their int64 support."""
    means = params.train_means
    if means is None:
        raise ConfigError("a checkpoint needs the training split's class means")
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
        fh.write(np.ascontiguousarray(means.means, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(means.support, dtype="<i8").tobytes())


def load_checkpoint(path):
    """Returns (params, epoch), the training class means on
    ``params.train_means``; a bad file raises an error naming it."""
    header_line, _, payload = read_bytes(path).partition(b"\n")
    header = read_json(path, data=header_line)
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
    L, D, w, epoch = (header[key] for key in _CHECKPOINT_KEYS)
    if L <= 0 or D <= 0 or w < 0 or epoch < 0:
        raise RangeError(
            f"{path}: header out of range: num_classes {L}, feature_dim {D}, "
            f"context_radius {w}, epoch {epoch}"
        )
    size = L * D * (2 * w + 1)
    # float32 weights and bias, float64 means, int64 support
    expect = 4 * (size + L) + 8 * (size + L)
    if len(payload) != expect:
        raise ParseError(
            f"{path}: payload holds {len(payload)} bytes, header implies {expect}"
        )
    params_f4 = np.frombuffer(payload, dtype="<f4", count=size + L)
    means = np.frombuffer(payload, dtype="<f8", count=size, offset=4 * (size + L))
    support = np.frombuffer(payload, dtype="<i8", offset=4 * (size + L) + 8 * size)
    if not (np.isfinite(params_f4).all() and np.isfinite(means).all()):
        raise RangeError(f"{path}: non-finite parameters or class means")
    if (support < 0).any():
        raise RangeError(f"{path}: negative class support")
    params = ClassifierParams(
        weights=params_f4[:size].reshape(L, -1).astype(np.float64),
        bias=params_f4[size:].astype(np.float64),
        context_radius=w,
        train_means=ClassMeans(
            means=means.reshape(L, -1).astype(np.float64),
            support=support.astype(np.int64),
        ),
    )
    return params, epoch
