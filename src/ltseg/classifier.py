"""Windowed linear frame classifier and its alternating training loop.

The backbone is deliberately small: softmax over an affine map of the
frame's feature window. The interesting part is the loop around it,
which alternates one epoch of gain-weighted gradient descent with a
projected multiplier step, so the loss weights for epoch e always
reflect the violations measured during epoch e-1. The learning state
comes from the SGD pass itself: each step's softmax also marks the
frames that the logits before the step classify correctly, and the
epoch counts those hits per (class, previous action) cell, next to the
cell's frame count.

Training windows each sequence with ``_kernels.window_store``, a view of
the dataset's one padded float32 buffer (``seqdata.Dataset``), at no
extra bytes when the pad covers the radius, as ``cmd_train`` lays it
out; eval windows through the same views (``decode.windowed_extractor``)
and ``_class_major_logits``. The SGD step allocates no batch-sized
array: ``train`` draws its batch plan and makes its buffers once, and
adds one per-frame array, the flat cells.
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
    check_fields,
    require_int,
)
from .seqdata import DRAW_LIMIT, check_radius, compute_transition_stats
from .seqdata import read_bytes, read_json

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

    BOUNDS = (
        ("epochs", ">=", 0),  # 0 is a legal no-op run (checkpoint equals init)
        ("learning_rate", ">", 0),
        ("batch_size", ">=", 1),
        ("context_radius", ">=", 0),
        ("tau", ">=", 0),
        ("epsilon", ">", 0), ("epsilon", "<=", 1),
        ("gamma", ">", 0),
        ("rng_seed", ">=", 0),
    )

    def validate(self):
        if self.loss_mode not in LOSS_MODES:
            raise ConfigError(f"loss_mode {self.loss_mode!r} not one of {LOSS_MODES}")
        return check_fields(self, self.BOUNDS)


def _class_major_logits(params, phi, out=None):
    """Logits ``[L, n]`` of windows ``[n, D*(2w+1)]``, one column a frame,
    written into ``out`` when one is given."""
    logits = np.matmul(params.weights, phi.T, out=out)
    logits += params.bias[:, None]
    return logits


def batch_gradient(params, phi, labels, weights, logits=None, scratch=None):
    """``(loss_sum, grad_weights, grad_bias, hit)`` of the weighted
    cross-entropy of windows ``phi``, summed over the batch's frames;
    ``hit`` marks the frames whose argmax under ``params`` (ties to the
    smallest class id) is their label. ``logits``, when given, is a
    float64 C-contiguous ``[L, n]`` buffer that receives the class-major
    logits and then, in place, their gradient; ``scratch`` is
    ``softmax_xent_grad``'s."""
    logits = _class_major_logits(params, phi, out=logits)
    loss_sum, dlogits, hit = _kernels.softmax_xent_grad(
        logits, labels, weights, out=logits, scratch=scratch
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

    Made once, before the first epoch: the batch plan (each epoch's
    permutation and its batches' frame counts), the window views, which
    also give ``params.train_means``, the flat cells, and step buffers
    for the plan's largest batch. A step concatenates its batch's windows
    (widened exactly to float64) and cells into them, divides its labels
    out of the cells, weights its frames by the gain at their cells, puts
    the logits and then their gradient in one ``[L, n]`` buffer
    (``batch_gradient``) and bins its hits by cell, misses past the last.

    Returns (params, telemetry), one telemetry record per epoch.
    """
    config.validate()
    E, B, S = config.epochs, config.batch_size, len(dataset.sequences)
    L, D, w = dataset.num_classes, dataset.feature_dim, config.context_radius
    check_radius(w, L, D, S)  # the N * D features are loaded already
    if E * S >= DRAW_LIMIT:
        raise ConfigError(f"epochs {E} * num_sequences {S} must be below {DRAW_LIMIT}")
    counts = compute_transition_stats(dataset)
    lam = np.zeros((L, L + 1))  # one multiplier per (class, previous action)
    params = ClassifierParams.zeros(L, D, w)
    # the batch plan: each epoch's order [E, S] and its batches' frame counts
    rng = np.random.default_rng(config.rng_seed)
    orders = np.array([rng.permutation(S) for _ in range(E)], np.int64).reshape(E, S)
    lengths = np.diff(dataset.offsets)
    batch_frames = np.add.reduceat(lengths[orders], np.arange(0, S, B), axis=1)
    windows = _kernels.window_store([(s.frames, s.pad) for s in dataset.sequences], w)
    # the class means read only the windows: taken before the step buffers
    params.train_means = class_means_of(dataset, windows)
    # the logits buffer is flat, so every batch's [L, n] prefix is C-contiguous
    n_max = int(batch_frames.max(initial=0))
    phi_buf = np.empty((n_max, params.weights.shape[1]))
    logits_buf = np.empty(L * n_max)
    scratch = _kernels.XentScratch(L, n_max)
    labels_buf, cells_buf = np.empty((2, n_max), dtype=np.int64)
    weights_buf = np.empty(n_max)
    seq_cells = np.split(dataset.cells(), dataset.offsets[1:-1])
    tau = 0.0 if config.loss_mode == "plain_ce" else config.tau
    gamma = config.gamma if config.loss_mode == "cost_sensitive" else 0.0
    telemetry = []
    for epoch, (order, frames) in enumerate(zip(orders, batch_frames.tolist())):
        gain = costsens.compute_gain(counts, lam, tau).ravel()
        hits = np.zeros(L * (L + 1) + 1, dtype=np.int64)
        epoch_loss = 0.0
        for lo, n in zip(range(0, S, B), frames):
            ids = order[lo : lo + B].tolist()
            phi = np.concatenate([windows[s] for s in ids], out=phi_buf[:n])
            cells = np.concatenate([seq_cells[s] for s in ids], out=cells_buf[:n])
            # exact: a cell is label * (L + 1) + previous action, in [0, L]
            labels = np.floor_divide(cells, L + 1, out=labels_buf[:n])
            loss_sum, grad_w, grad_b, hit = batch_gradient(
                params, phi, labels, gain.take(cells, out=weights_buf[:n], mode="clip"),
                logits_buf[: L * n].reshape(L, n), scratch,
            )  # every cell is in range, so take need not check them
            scale = config.learning_rate / n
            params.weights -= np.multiply(grad_w, scale, out=grad_w)
            params.bias -= np.multiply(grad_b, scale, out=grad_b)
            epoch_loss += loss_sum
            # the missed frames go to the bin past the last cell
            np.putmask(cells, np.logical_not(hit, out=hit), hits.size - 1)
            hits += np.bincount(cells, minlength=hits.size)
        mean_loss = epoch_loss / dataset.total_frames
        if not np.isfinite(mean_loss):
            raise TrainingDivergedError(epoch, mean_loss)
        lam, record = costsens.multiplier_step(
            lam, hits[:-1].reshape(L, L + 1), counts, gamma, config.epsilon
        )
        record.update(epoch=epoch, loss=mean_loss)
        telemetry.append(record)
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
        require_int(f"{path}:1: header field {key!r}", header[key], ParseError)
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
