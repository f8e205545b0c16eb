"""Inference-time decoders: argmax, frame NCM, and segment NCM.

Frame-wise nearest-class-mean assigns each frame to the closest class
prototype in representation space. The segment variant keeps the
classifier's segment boundaries but replaces every segment's content
with the mode of the NCM votes inside it, trading frame-level jitter for
segment-level stability.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConfigError, EmptySequenceError
from .seqdata import segmentation_from_frames

DECODE_MODES = ("argmax", "ncm", "sncm")


@dataclass(frozen=True, eq=False)
class ClassMeans:
    """Per-class mean representations with their supporting frame counts.

    Rows with zero support are unusable: they never appear as NCM
    answers and are skipped in distance computations.
    """

    means: np.ndarray
    support: np.ndarray

    @property
    def num_classes(self):
        return self.means.shape[0]

    @property
    def usable(self):
        return self.support > 0


def windowed_extractor(context_radius):
    """Representation used by the linear backbone: the sequence's
    ``_kernels.window_store`` view, widened exactly to float64."""

    def extract(sequence):
        pair = (sequence.frames, sequence.pad)
        windows = _kernels.window_store([pair], context_radius)[0]
        return windows.astype(np.float64)

    return extract


def compute_class_means(dataset, extractor) -> ClassMeans:
    """``class_means_of`` over ``extractor(seq)``, [T, R], for each sequence."""
    return class_means_of(dataset, map(extractor, dataset.sequences))


def class_means_of(dataset, representations) -> ClassMeans:
    """Average the representation of every training frame per class.

    ``representations`` yields each sequence's [T, R] representation in
    order. Each labelled run is summed once and added into its class row,
    in order; the support is the dataset's per-class frame count. Training
    split only: evaluation data must never flow in here.
    """
    if not dataset.sequences:
        raise EmptySequenceError("cannot compute class means of an empty dataset")
    sums = None
    for seq, reps in zip(dataset.sequences, representations):
        reps = np.asarray(reps, dtype=np.float64)
        if sums is None:
            sums = np.zeros((dataset.num_classes, reps.shape[1]))
        starts, _, labels = segmentation_from_frames(seq.frame_labels)
        np.add.at(sums, labels, np.add.reduceat(reps, starts, axis=0))
    support = dataset.class_frame_counts.astype(np.int64)
    means = np.zeros_like(sums)
    np.divide(sums, support[:, None], out=means, where=support[:, None] > 0)
    return ClassMeans(means=means, support=support)


def ncm_predict(means: ClassMeans, representations):
    """Closest usable class mean per frame, squared Euclidean distance,
    ties to the smallest class id."""
    usable = means.usable
    if not usable.any():
        raise ConfigError("no class has any supporting frames")
    reps = np.asarray(representations, dtype=np.float64)
    dist = np.full((reps.shape[0], means.num_classes), np.inf)
    for i in np.flatnonzero(usable):
        # direct differences keep exact ties exact (no a^2-2ab+b^2 rounding)
        delta = reps - means.means[i]
        dist[:, i] = np.einsum("tr,tr->t", delta, delta)
    return np.argmin(dist, axis=1).astype(np.int64)


def sncm_decode(classifier_predictions, ncm_predictions):
    """Per classifier-delimited segment, output the mode of the NCM votes.

    Mode ties break toward the smallest class id. The output has at most
    as many runs as the classifier predictions.
    """
    y_hat = np.asarray(classifier_predictions, dtype=np.int64)
    v_hat = np.asarray(ncm_predictions, dtype=np.int64)
    if y_hat.shape != v_hat.shape:
        raise ConfigError(
            f"classifier gave {y_hat.shape[0]} frames, NCM {v_hat.shape[0]}"
        )
    out = np.empty_like(v_hat)
    starts, ends, _ = segmentation_from_frames(y_hat)
    for s, e in zip(starts.tolist(), ends.tolist()):
        votes = np.bincount(v_hat[s : e + 1])
        out[s : e + 1] = np.argmax(votes)  # first max = smallest id
    return out


def decode_sequence(params, sequence, mode, means=None):
    """Run one decoder on one sequence. Its stacked windows
    ``[T, D*(2w+1)]`` serve as both the classifier input and the NCM
    representation.

    ``argmax`` uses the classifier alone; ``ncm`` ignores the classifier
    scores and votes by distance; ``sncm`` combines both.
    """
    if mode not in DECODE_MODES:
        raise ConfigError(f"decode mode {mode!r} not one of {DECODE_MODES}")
    windows = windowed_extractor(params.context_radius)(sequence)
    if mode == "argmax":
        return params.predict_windows(windows)
    if means is None:
        raise ConfigError(f"decode mode {mode!r} needs class means")
    ncm = ncm_predict(means, windows)
    if mode == "ncm":
        return ncm
    return sncm_decode(params.predict_windows(windows), ncm)
