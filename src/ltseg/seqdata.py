"""Labeled frame sequences, synthetic long-tailed data, and dataset I/O.

A sequence is its float32 frames [T, D], frame-major, plus a class
label per frame.
Each frame also records the label of the preceding segment (maximal run
of a single class), with the synthetic 'start' class (index L) standing
in before the first segment. ``segmentation_from_frames`` is the one
run-length encoding of a labeling, as int64 arrays
``(starts, ends, labels)``; the previous actions, the class means, the
segment decoder and the segment metrics all read it. A ``Dataset``
holds its sequences flat.
"""

import io
import json
import os
import tokenize
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import (
    ConfigError,
    EmptySequenceError,
    ParseError,
    RangeError,
    require_finite,
    require_int,
)

START = "start"

# segments per sequence, frames per segment and the entries of an array
# that a config sizes stay below this bound; no recording comes near it,
# and larger draws overflow numpy's Poisson sampler and the frame index
DRAW_LIMIT = 2**31


def segmentation_from_frames(frame_labels, offsets=None):
    """Run-length encode a frame labeling into int64 arrays
    ``(starts, ends, labels)``, one entry per segment in temporal order:
    ends are inclusive, the segments tile [0, T), adjacent labels differ.
    Given ``offsets`` [S+1], the labeling is S sequences held flat, and
    a segment also ends where a sequence does."""
    labels = np.asarray(frame_labels, dtype=np.int64)
    if labels.size == 0:
        raise EmptySequenceError("cannot segment an empty frame labeling")
    new = np.concatenate(([True], labels[1:] != labels[:-1]))
    if offsets is not None:
        new[offsets[:-1]] = True
    starts = np.flatnonzero(new)
    return starts, np.append(starts[1:], labels.size) - 1, labels[starts]


def default_class_names(num_classes):
    width = max(2, len(str(num_classes - 1)))
    return tuple(f"class_{i:0{width}d}" for i in range(num_classes))


@dataclass(frozen=True, eq=False, slots=True)
class LabeledSequence:
    """One sequence: its features, a label per frame and the previous
    action per frame. The features are held once, frame-major, as
    ``frames``, float32 ``[T + 2p, D]`` with ``pad`` (p) replicated edge
    frames on each side, so ``_kernels.window_store`` windows them in
    place at any context radius up to p; ``features`` is their [D x T]
    view. All three arrays are views of a ``Dataset``'s flat ones."""

    frames: np.ndarray
    frame_labels: np.ndarray
    prev_action: np.ndarray
    seq_id: str = ""
    pad: int = 0

    @property
    def features(self):
        return self.frames[self.pad : self.frames.shape[0] - self.pad].T

    @property
    def num_frames(self):
        return self.frame_labels.shape[0]


def _check_record(seq_id, frame_labels, frames, num_classes, feature_dim):
    """A ``(seq_id, frame_labels, frames)`` record as int64 labels in
    [0, num_classes) and finite float32 frames ``[T, feature_dim]``, T > 0;
    any other record raises an error naming its sequence."""
    y, x = np.asarray(frame_labels), np.asarray(frames)
    name = f"sequence {seq_id or '<unnamed>'}"
    if y.ndim != 1 or not y.size:
        raise EmptySequenceError(f"{name} has no frames")
    if y.dtype.kind not in "iu":
        raise ConfigError(f"{name}: labels of dtype {y.dtype} are not integers")
    bad = y[(y < 0) | (y >= num_classes)]
    if bad.size:
        raise RangeError(f"{name}: label {bad[0]} outside [0, {num_classes})")
    if x.shape != (y.size, feature_dim) or not feature_dim:
        raise ConfigError(f"{name}: frames {x.shape} do not match its {y.size} "
                          f"labels and feature dimension {feature_dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        x = x.astype(np.float32, copy=False)
    if not np.isfinite(x).all():
        raise RangeError(f"{name} has non-finite features")
    return y.astype(np.int64, copy=False), x


@dataclass(eq=False)
class Dataset:
    """Sequences sharing one class inventory and feature space, held
    flat: ``frames``, float32 ``[N + 2pS, D]``, holds the S sequences'
    frames in turn, each padded by p edge frames on each side, which
    construction fills; ``labels`` and ``prev_action``, derived from
    them, are int64 [N]. Sequence s is frames ``offsets[s]:offsets[s+1]``
    and rows ``offsets[s] + 2ps`` to ``offsets[s+1] + 2p(s+1)``;
    ``sequences`` are views of them. Every label is checked at once."""

    frames: np.ndarray
    labels: np.ndarray
    offsets: np.ndarray
    num_classes: int
    class_names: tuple
    seq_ids: list
    pad: int = 0
    prev_action: np.ndarray = field(init=False)
    sequences: list = field(init=False)
    class_frame_counts: np.ndarray = field(init=False)

    def __post_init__(self):
        L, names = self.num_classes, self.class_names
        labels, ids = self.labels, self.seq_ids
        if L <= 0:
            raise ConfigError(f"num_classes must be positive, got {L}")
        if names and len(names) != L:
            raise ConfigError(f"{len(names)} class names for {L} classes")
        self.class_names = tuple(names or default_class_names(L))
        offsets = self.offsets = np.asarray(self.offsets, dtype=np.int64)
        if offsets.ndim != 1 or offsets.size != len(ids) + 1:
            raise ConfigError(f"{len(ids)} sequence ids and {offsets.size} offsets: "
                              "the offsets must bound one sequence per id")
        if offsets[0] != 0:
            raise ConfigError(f"offsets start at {offsets[0]}, not 0, so frames before "
                              f"sequence {ids[0] or '<unnamed>'} lie in no sequence")
        short = np.flatnonzero(offsets[1:] <= offsets[:-1])[:1]
        if short.size:
            s = short[0]
            raise EmptySequenceError(f"sequence {ids[s] or '<unnamed>'} spans offsets "
                                     f"{offsets[s]} to {offsets[s + 1]}: no frames")
        pad, frames = self.pad, self.frames
        rows = offsets + 2 * pad * np.arange(offsets.size)
        if (len(frames), labels.size) != (rows[-1], offsets[-1]):
            raise ConfigError(f"{len(frames)} rows and {labels.size} labels where the "
                              f"offsets and pad take {rows[-1]} and {offsets[-1]}")
        bad = np.flatnonzero((labels < 0) | (labels >= L))[:1]
        if bad.size:
            s = np.searchsorted(offsets, bad[0], side="right") - 1
            raise RangeError(
                f"sequence {ids[s] or '<unnamed>'}: label {labels[bad[0]]} "
                f"outside [0, {L})"
            )
        # the label of the run before, 'start' (index L) in each first run
        starts, ends, _ = segmentation_from_frames(labels, offsets)
        prev = labels[starts - 1]
        prev[np.searchsorted(starts, offsets[:-1])] = L
        self.prev_action = prev = np.repeat(prev, ends - starts + 1)
        # each sequence's edge frames repeat its first and last frame
        edge = np.arange(pad)
        left, right = rows[:-1, None] + edge, rows[1:, None] - 1 - edge
        frames[left.ravel()] = frames[np.repeat(rows[:-1] + pad, pad)]
        frames[right.ravel()] = frames[np.repeat(rows[1:] - 1 - pad, pad)]
        rows, cuts = rows.tolist(), offsets.tolist()
        self.sequences = [
            LabeledSequence(frames[a:b], labels[c:d], prev[c:d], seq_id, pad)
            for a, b, c, d, seq_id in zip(rows, rows[1:], cuts, cuts[1:], ids)
        ]
        self.class_frame_counts = np.bincount(labels, minlength=L)

    @classmethod
    def of(cls, records, num_classes, class_names=(), pad=0):
        """A dataset of ``(seq_id, frame_labels, frames)`` records, as
        ``draw_synthetic`` yields them: each record is checked, naming its
        sequence (``_check_record``), and its frames ``[T, D]`` are copied
        once, as float32, into the layout padded by ``pad`` frames."""
        kept = []
        for seq_id, y, x in records:
            # the first record's frames set the feature dimension
            dim = kept[0][2].shape[1] if kept else np.shape(x)[-1] if np.ndim(x) else 0
            kept.append((seq_id, *_check_record(seq_id, y, x, num_classes, dim)))
        if not kept:
            raise EmptySequenceError("dataset has no sequences")
        ids, labels, drawn = zip(*kept)
        offsets = np.cumsum([0] + [y.size for y in labels])
        rows = (offsets + 2 * pad * np.arange(offsets.size)).tolist()
        frames = np.empty((rows[-1], dim), np.float32)  # construction fills the edges
        for x, a, b in zip(drawn, rows, rows[1:]):
            frames[a + pad : b - pad] = x
        return cls(frames, np.concatenate(labels), offsets, num_classes, class_names,
                   list(ids), pad)

    @property
    def feature_dim(self):
        return self.frames.shape[1]

    @property
    def total_frames(self):
        return self.labels.size

    def cells(self):
        """Each frame's (class, previous action) cell, int64 [N], flat."""
        cells = self.labels * (self.num_classes + 1)
        cells += self.prev_action
        return cells


def compute_transition_stats(dataset):
    """Frame counts by (truth class, previous action), int64 ``[L, L+1]``
    with column L 'start'; they depend only on the labels, not a model."""
    L = dataset.num_classes
    return np.bincount(dataset.cells(), minlength=L * (L + 1)).reshape(L, L + 1)


def check_radius(radius, num_classes, dim, num_sequences):
    """Refuse a context radius that sizes the classifier weights,
    ``L * D(2w+1)`` entries, or the window padding, ``2wS * D``, at
    ``DRAW_LIMIT`` or more, before either is allocated."""
    sizes = (num_classes * dim * (2 * radius + 1), 2 * radius * num_sequences * dim)
    if max(sizes) >= DRAW_LIMIT:
        raise ConfigError(
            f"context_radius {radius} gives {sizes[0]} weights and {sizes[1]} padding "
            f"entries; each must be below {DRAW_LIMIT}"
        )


def head_tail_split(class_frame_counts, threshold):
    """Split class ids into head (frame count >= threshold) and tail."""
    if threshold <= 0:
        raise ConfigError(f"threshold must be positive, got {threshold}")
    counts = np.asarray(class_frame_counts)
    head = {int(i) for i in np.flatnonzero(counts >= threshold)}
    tail = {int(i) for i in range(counts.shape[0])} - head
    return head, tail


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic long-tailed generator.

    Segment labels follow a Zipf-skewed prior chained through a
    predecessor distribution whose rows are concentration-skewed, so both
    the class totals and the incoming transitions are imbalanced.
    Durations are normal around one mean for every class, clamped to
    >= 1 frame. Features are per-class Gaussian bumps: a class mean drawn
    at scale ``mean_scale`` plus isotropic noise.
    """

    num_classes: int = 12
    feature_dim: int = 16
    num_sequences: int = 200
    mean_segments: float = 8.0
    class_skew: float = 1.5
    duration_mean: float = 20.0
    duration_spread: float = 0.3
    mean_scale: float = 1.0
    noise_scale: float = 0.5
    transition_skew: float = 1.0
    rng_seed: int = 0

    def validate(self):
        for name in ("num_classes", "feature_dim", "num_sequences"):
            require_int(name, getattr(self, name))
        for name in (
            "mean_segments", "class_skew", "duration_mean", "duration_spread",
            "mean_scale", "noise_scale", "transition_skew",
        ):
            require_finite(name, getattr(self, name))
        if self.num_classes < 2:
            raise ConfigError(
                f"need at least 2 classes to alternate segments, got {self.num_classes}"
            )
        if self.feature_dim <= 0 or self.num_sequences <= 0:
            raise ConfigError(
                f"feature_dim and num_sequences must be positive, got "
                f"{self.feature_dim} and {self.num_sequences}"
            )
        L, D = self.num_classes, self.feature_dim
        if max(L * D, (L + 1) * L) >= DRAW_LIMIT:
            raise ConfigError(
                f"num_classes {L} and feature_dim {D} size the class means, L * D, "
                f"and the successor table, (L + 1) * L; each must be below {DRAW_LIMIT}"
            )
        for name in ("mean_segments", "duration_mean"):
            value = getattr(self, name)
            if not 1 <= value < DRAW_LIMIT:
                raise ConfigError(
                    f"{name} must be in [1, {DRAW_LIMIT}), got {value}"
                )
        # the expected frame count; mean_segments and duration_mean are
        # >= 1 here, so the clamp only keeps a huge int out of the floats
        frames = min(self.num_sequences, DRAW_LIMIT) * self.mean_segments
        if not frames * self.duration_mean < DRAW_LIMIT:
            raise ConfigError(
                f"num_sequences * mean_segments * duration_mean, the expected "
                f"frame count, must be below {DRAW_LIMIT}, got {self.num_sequences}"
                f" * {self.mean_segments} * {self.duration_mean}"
            )
        if self.class_skew < 0 or self.transition_skew < 0:
            raise ConfigError("skew parameters must be >= 0")
        if self.duration_spread < 0:
            raise ConfigError(
                f"duration_spread must be >= 0, got {self.duration_spread}"
            )
        # noise_scale 0 is allowed: noiseless emitters make class means
        # exactly recoverable, which calibration tests rely on.
        if self.noise_scale < 0 or self.mean_scale <= 0:
            raise ConfigError("emitter scales out of range")
        return self


def _segment_label_chain(rng, cum_rows, num_segments, num_classes):
    # inverse-CDF draws keep the rng stream identical across platforms
    labels = np.empty(num_segments, dtype=np.int64)
    prev = num_classes  # 'start'
    for n in range(num_segments):
        u = rng.random()
        # clamp guards the ~1e-16 case where cum rounds below 1.0
        labels[n] = min(
            int(np.searchsorted(cum_rows[prev], u, side="right")), num_classes - 1
        )
        prev = labels[n]
    return labels


def _chain_rows(config, rng):
    """Cumulative successor distributions ``[L+1, L]``, row L 'start'.

    A skew large enough to leave a row without finite positive mass is a
    ConfigError naming it: a class_skew whose Zipf prior underflows past
    class 0, else the transition_skew whose twist overflowed."""
    L = config.num_classes
    base = (np.arange(1, L + 1, dtype=np.float64)) ** (-config.class_skew)
    with np.errstate(over="ignore", invalid="ignore"):
        twist = np.exp(config.transition_skew * rng.standard_normal((L + 1, L)))
        weights = base[None, :] * twist
        np.fill_diagonal(weights[:L], 0.0)  # adjacent segments must differ
        mass = weights.sum(axis=1, keepdims=True)
    bad = np.flatnonzero(~(np.isfinite(mass) & (mass > 0)))
    if bad.size:
        name = "class_skew" if base[1] == 0 else "transition_skew"
        row = START if bad[0] == L else f"class {bad[0]}"
        raise ConfigError(
            f"{name} {getattr(config, name)} leaves the successor row of "
            f"{row} without finite positive mass"
        )
    return np.cumsum(weights / mass, axis=1)


def draw_synthetic(config: SynthConfig):
    """Check the config, draw its class means and successor rows, then
    draw its sequences one at a time, yielding ``(seq_id, frame_labels,
    frames)``: int64 labels [T] and float32 features [T, D],
    bit-identical for equal configs."""
    config.validate()
    L, D = config.num_classes, config.feature_dim
    rng = np.random.default_rng(config.rng_seed)
    with np.errstate(over="ignore"):
        means = rng.standard_normal((L, D)) * config.mean_scale
        if not np.isfinite(means.astype(np.float32)).all():
            raise ConfigError(
                f"mean_scale {config.mean_scale} puts the class means outside "
                "the float32 range"
            )
    cum_rows = _chain_rows(config, rng)
    dur_mean = float(config.duration_mean)
    dur_scale = config.duration_spread * dur_mean
    width = max(4, len(str(config.num_sequences - 1)))
    for s in range(config.num_sequences):
        seq_id = f"seq_{s:0{width}d}"
        n_seg = 1 + int(rng.poisson(config.mean_segments - 1.0))
        labels = _segment_label_chain(rng, cum_rows, n_seg, L)
        durations = np.maximum(1.0, np.rint(rng.normal(dur_mean, dur_scale, n_seg)))
        if not durations.max() < DRAW_LIMIT:
            raise ConfigError(
                f"duration_spread {config.duration_spread} around duration_mean "
                f"{dur_mean} draws a segment of {durations.max()} frames in "
                f"{seq_id}, not below {DRAW_LIMIT}"
            )
        frame_labels = np.repeat(labels, durations.astype(np.int64))
        feats = means[frame_labels]  # [T, D]; the noise is drawn [D, T]
        with np.errstate(over="ignore", invalid="ignore"):
            if config.noise_scale > 0:
                feats += config.noise_scale * rng.standard_normal(feats.shape[::-1]).T
            frames = feats.astype(np.float32)
        if not np.isfinite(frames).all():
            raise ConfigError(
                f"noise_scale {config.noise_scale} puts the features of {seq_id} "
                "outside the float32 range"
            )
        yield seq_id, frame_labels, frames


def generate_synthetic(config: SynthConfig, pad=0) -> Dataset:
    """The sequences of ``draw_synthetic`` in one dataset, each laid out
    padded by ``pad`` frames; bit-identical for equal configs, whatever
    the pad, which is refused before the first draw."""
    config.validate()
    check_radius(pad, config.num_classes, config.feature_dim, config.num_sequences)
    return Dataset.of(draw_synthetic(config), config.num_classes, (), pad)


# ---------------------------------------------------------------------------
# On-disk format
#
# A dataset directory holds:
#   manifest.json            sequence ids + relative label/feature paths, L, D
#   classes.txt              "id name" per line; 'start' is implicit
#   groundTruth/<id>.txt     one class-name token per line per frame
#   features/<id>.npy        numpy .npy 1.0 of float32 (D, T), the MS-TCN
#                            orientation, whose data bytes are the
#                            frame-major [T, D] rows (Fortran order)
# ---------------------------------------------------------------------------


def _read_features(path, out, labels_path):
    """Read a .npy feature file into ``out``, float32 ``[T, D]``, T the frame
    count of ``labels_path``; any other file is a ParseError naming it."""
    with open(path, "rb") as fh:
        try:
            version = np.lib.format.read_magic(fh)
            if version != (1, 0):
                raise ValueError(f"format version {version[0]}.{version[1]}")
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
        # numpy's parser also raises TypeError and the errors of Python's
        # tokenizer and parser, whose stack a deeply nested header overflows
        except (ValueError, TypeError, SyntaxError, tokenize.TokenError,
                RecursionError, MemoryError) as exc:
            raise ParseError(f"{path}: not a .npy 1.0 header ({exc})") from None
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        # frame-major [T, D] data: np.save writes a transposed C array in
        # Fortran order, or in C order, the same bytes, when D or T is 1
        if (dtype != "<f4" or len(shape) != 2 or size != 4 * shape[0] * shape[1]
                or not fortran_order and min(shape) > 1):
            raise ParseError(f"{path}: {dtype.str} {shape}, fortran_order "
                             f"{fortran_order}, {size} data bytes; not float32 (D, T) "
                             "in Fortran order of 4 * D * T bytes")
        if shape != out.shape[::-1]:
            raise ParseError(f"{path}: {shape[0]} x {shape[1]} features, but the entry "
                             f"expects feature_dim {out.shape[1]} x the {out.shape[0]} "
                             f"label lines of {labels_path}")
        fh.readinto(out)
        if not np.little_endian:
            out.byteswap(inplace=True)


def save_dataset(path, class_names, feature_dim, sequences):
    """Write a dataset directory (see the format note above) of
    ``(seq_id, frame_labels, frames)``, frames ``[T, D]``, each sequence as
    it comes, checked first (``_check_record``); returns the class frame counts."""
    os.makedirs(os.path.join(path, "groundTruth"), exist_ok=True)
    os.makedirs(os.path.join(path, "features"), exist_ok=True)
    with open(os.path.join(path, "classes.txt"), "w", encoding="utf-8") as fh:
        for i, name in enumerate(class_names):
            fh.write(f"{i} {name}\n")
    entries, counts = [], np.zeros(len(class_names), dtype=np.int64)
    for idx, (seq_id, labels, frames) in enumerate(sequences):
        seq_id = seq_id or f"seq_{idx:04d}"
        labels, frames = _check_record(seq_id, labels, frames, counts.size, feature_dim)
        label_rel = os.path.join("groundTruth", f"{seq_id}.txt")
        feat_rel = os.path.join("features", f"{seq_id}.npy")
        with open(os.path.join(path, label_rel), "w", encoding="utf-8") as fh:
            for y in labels:
                fh.write(class_names[y] + "\n")
        # a C-contiguous copy, so that its transpose is saved in Fortran order
        np.save(os.path.join(path, feat_rel), np.ascontiguousarray(frames, "<f4").T)
        entries.append({"id": seq_id, "labels": label_rel, "features": feat_rel})
        counts += np.bincount(labels, minlength=counts.size)
    manifest = {
        "num_classes": len(class_names),
        "feature_dim": feature_dim,
        "sequences": entries,
    }
    with open(os.path.join(path, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return counts


def read_bytes(path, error=ParseError):
    """A file's bytes; an unreadable path raises ``error`` naming it."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise error(f"{path}: cannot read it ({exc.strerror or exc})") from exc


def _open_utf8(path, data=None, error=ParseError):
    """A UTF-8 text file, or ``data``, bytes read from it, as a text
    stream with ``open``'s universal newlines. A path that cannot be
    read raises ``error`` naming it, and a byte that is not UTF-8 raises
    ``error`` naming its line."""
    if data is None:
        data = read_bytes(path, error)
    try:
        return io.StringIO(data.decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: not UTF-8 text ({exc.reason})") from exc


def read_json(path, error=ParseError, data=None):
    """The JSON value in a UTF-8 file, or in ``data``, bytes read from
    it. Text that is not UTF-8 or not JSON, and nesting deeper than the
    parser's recursion limit, raise ``error`` naming the file."""
    try:
        return json.load(_open_utf8(path, data, error))
    except json.JSONDecodeError as exc:
        raise error(f"{path}:{exc.lineno}: not valid JSON ({exc.msg})") from None
    except RecursionError:
        raise error(f"{path}: JSON nested too deeply to parse") from None


def _read_classes(path, num_classes, manifest_path):
    name_of = {}
    for lineno, raw in enumerate(_open_utf8(path), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2 or not parts[0].lstrip("-").isdigit():
            raise ParseError(f"{path}:{lineno}: expected 'id name', got {raw!r}")
        idx = int(parts[0])
        if not 0 <= idx < num_classes:
            raise RangeError(
                f"{path}:{lineno}: class id {idx} outside [0, {num_classes}), "
                f"the num_classes of {manifest_path}"
            )
        if idx in name_of or parts[1] in name_of.values():
            raise ParseError(f"{path}:{lineno}: class id or name listed twice")
        if parts[1] == START:
            raise ParseError(
                f"{path}:{lineno}: '{START}' is implicit and may not be listed"
            )
        name_of[idx] = parts[1]
    if len(name_of) != num_classes:
        raise ParseError(
            f"{path}: lists {len(name_of)} classes, {manifest_path} says {num_classes}"
        )
    return tuple(name_of[i] for i in range(num_classes))


def _read_labels(path, id_of, classes_path):
    """The class ids of a label file's lines; ``id_of`` maps "" to -1,
    so blank lines are dropped, and an unknown name raises naming it."""
    tokens = list(map(str.strip, _open_utf8(path).getvalue().split("\n")))
    ids = np.fromiter(map(id_of.get, tokens, repeat(-2)), np.int64, len(tokens))
    if (ids == -2).any():
        line = int(np.argmax(ids == -2))
        raise ParseError(
            f"{path}:{line + 1}: class name {tokens[line]!r} is not in {classes_path}"
        )
    ids = ids[ids >= 0]
    if not ids.size:
        raise ParseError(f"{path}: no frames")
    return ids


_MANIFEST_ENTRY_KEYS = ("id", "labels", "features")


def load_dataset(path, pad=0) -> Dataset:
    """Read a dataset directory (or its manifest.json) back into memory,
    each sequence laid out padded by ``pad`` frames."""
    manifest_path = path
    if os.path.isdir(path):
        manifest_path = os.path.join(path, "manifest.json")
    root = os.path.dirname(manifest_path)
    manifest = read_json(manifest_path)
    if not isinstance(manifest, dict):
        raise ParseError(f"{manifest_path}: manifest is not a JSON object")
    for key in ("num_classes", "feature_dim"):
        value = manifest.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ParseError(
                f"{manifest_path}: field {key!r} must be an integer, got {value!r}"
            )
    num_classes = manifest["num_classes"]
    feature_dim = manifest["feature_dim"]
    entries = manifest.get("sequences")
    if not isinstance(entries, list) or not entries:
        raise ParseError(
            f"{manifest_path}: field 'sequences' must be a non-empty list, "
            f"got {entries!r}"
        )
    index_of = {}
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict) or not all(
            isinstance(entry.get(key), str) and "\0" not in entry[key]
            for key in _MANIFEST_ENTRY_KEYS
        ):
            raise ParseError(
                f"{manifest_path}: sequence entry {index} must be an object "
                f"with string fields {list(_MANIFEST_ENTRY_KEYS)} free of NUL "
                f"characters, got {entry!r}"
            )
        first = index_of.setdefault(entry["id"], index)
        if first != index:
            raise ParseError(
                f"{manifest_path}: sequence entries {first} and {index} share "
                f"the id {entry['id']!r}"
            )
    if num_classes <= 0 or feature_dim <= 0:
        raise RangeError(
            f"{manifest_path}: non-positive dimensions "
            f"L={num_classes}, D={feature_dim}"
        )
    check_radius(pad, num_classes, feature_dim, len(entries))
    classes_path = os.path.join(root, "classes.txt")
    names = _read_classes(classes_path, num_classes, manifest_path)
    id_of = {name: i for i, name in enumerate(names)}
    id_of[""] = -1  # a blank line
    labels = []
    try:  # the label files first, so the features are allocated once
        for index, entry in enumerate(entries):
            path = os.path.join(root, entry["labels"])
            labels.append(_read_labels(path, id_of, classes_path))
        offsets = np.cumsum([0] + [ids.size for ids in labels])
        labels = np.concatenate(labels)
        size = (int(offsets[-1]) + 2 * pad * len(entries), feature_dim)
        try:
            frames = np.empty(size, np.float32)
        except (MemoryError, ValueError):  # a feature_dim far past the files'
            raise RangeError(f"{manifest_path}: {size[0]} x {feature_dim} float32 "
                             "features do not fit in memory") from None
        for index, entry in enumerate(entries):
            feat_path = os.path.join(root, entry["features"])
            end = offsets[index + 1] + 2 * pad * index + pad
            slot = frames[end - (offsets[index + 1] - offsets[index]) : end]
            _read_features(feat_path, slot, os.path.join(root, entry["labels"]))
            if not np.isfinite(slot).all():
                raise RangeError(f"{feat_path}: non-finite feature values")
    except (OSError, ParseError) as exc:  # also name the manifest entry
        raise ParseError(f"{manifest_path}: sequence entry {index}: {exc}") from exc
    ids = [entry["id"] for entry in entries]
    return Dataset(frames, labels, offsets, num_classes, names, ids, pad)
