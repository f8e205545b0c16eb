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
from .errors import ConfigError
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
    order. Each labelled run is summed once, in float64 straight from its
    dtype, and one ``add.at`` adds the run sums into their class rows in
    order; the support is the dataset's per-class frame count. Training
    split only: evaluation data must never flow in here.
    """
    starts, _, runs = segmentation_from_frames(dataset.labels, dataset.offsets)
    cuts = np.searchsorted(starts, dataset.offsets).tolist()
    sums = None
    for reps, lo, hi, first in zip(representations, cuts, cuts[1:], dataset.offsets):
        if sums is None:
            sums = np.zeros((starts.size, reps.shape[1]))
        np.add.reduceat(reps, starts[lo:hi] - first, axis=0, dtype=np.float64,
                        out=sums[lo:hi])
    means = np.zeros((dataset.num_classes, sums.shape[1]))
    np.add.at(means, runs, sums)
    support = dataset.class_frame_counts.astype(np.int64)
    np.divide(means, support[:, None], out=means, where=support[:, None] > 0)
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


def decode(params, means, windows):
    """Every decoder on one sequence's stacked windows ``[T, D*(2w+1)]``,
    the classifier input and the NCM representation alike, as
    ``{mode: labels}`` in ``DECODE_MODES`` order: the classifier's
    argmax, the NCM votes by distance, and segment NCM built from both."""
    argmax = params.predict_windows(windows)
    votes = ncm_predict(means, windows)
    return {"argmax": argmax, "ncm": votes, "sncm": sncm_decode(argmax, votes)}


def decode_sequence(params, sequence, mode, means=None):
    """One decoder's labels of one sequence, from ``decode``; ``argmax``
    uses the classifier alone and needs no class means."""
    if mode not in DECODE_MODES:
        raise ConfigError(f"decode mode {mode!r} not one of {DECODE_MODES}")
    windows = windowed_extractor(params.context_radius)(sequence)
    if mode == "argmax":
        return params.predict_windows(windows)
    if means is None:
        raise ConfigError(f"decode mode {mode!r} needs class means")
    return decode(params, means, windows)[mode]
