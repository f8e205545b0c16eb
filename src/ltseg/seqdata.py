"""Labeled frame sequences, synthetic long-tailed data, and dataset I/O.

A sequence is a feature matrix [D x T] plus a class label per frame.
Each frame also records the label of the preceding segment (maximal run
of a single class), with the synthetic 'start' class (index L) standing
in before the first segment. ``segmentation_from_frames`` is the one
run-length encoding of a labeling, as int64 arrays
``(starts, ends, labels)``; the previous actions, the segment decoder
and the segment metrics all read it.
"""

import io
import json
import os
from dataclasses import dataclass
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


def segmentation_from_frames(frame_labels):
    """Run-length encode a frame labeling into int64 arrays
    ``(starts, ends, labels)``, one entry per segment in temporal order:
    ends are inclusive, the segments tile [0, T), adjacent labels differ."""
    labels = np.asarray(frame_labels, dtype=np.int64)
    if labels.size == 0:
        raise EmptySequenceError("cannot segment an empty frame labeling")
    change = np.flatnonzero(labels[1:] != labels[:-1])
    starts = np.concatenate(([0], change + 1))
    ends = np.concatenate((change, [labels.size - 1]))
    return starts, ends, labels[starts]


@dataclass(frozen=True, eq=False, slots=True)
class LabeledSequence:
    """One sequence: its features, a label per frame and the previous
    action per frame. The features are held once, frame-major, as
    ``frames``, float32 ``[T + 2p, D]`` with ``pad`` (p) replicated edge
    frames on each side, so ``_kernels.window_store`` windows them in
    place at any context radius up to p; ``features`` is their [D x T]
    view."""

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

    @property
    def feature_dim(self):
        return self.frames.shape[1]

    @classmethod
    def from_frames(cls, features, frame_labels, num_classes, seq_id="", pad=0):
        """Build a sequence from features [D x T] and raw labels, deriving
        the previous actions from the run-length encoding, and checking
        every invariant. The features are copied once, as float32, into
        the layout padded by ``pad`` frames."""
        feats = np.asarray(features)
        labels = np.asarray(frame_labels, dtype=np.int64)
        name = f"sequence {seq_id or '<unnamed>'}"
        if labels.ndim != 1 or labels.size == 0:
            raise EmptySequenceError(f"{name} has no frames")
        if feats.ndim != 2 or feats.shape[1] != labels.size:
            raise ConfigError(
                f"{name}: feature matrix {feats.shape} does not match "
                f"{labels.size} frames"
            )
        if feats.shape[0] <= 0:
            raise ConfigError("feature dimension must be positive")
        frames = np.empty((labels.size + 2 * pad, feats.shape[0]), np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            frames[pad : pad + labels.size] = feats.T
        if not np.isfinite(frames[pad : pad + labels.size]).all():
            raise RangeError(f"{name} has non-finite features")
        frames[:pad] = frames[pad]
        frames[pad + labels.size :] = frames[pad + labels.size - 1]
        if labels.min() < 0 or labels.max() >= num_classes:
            bad = int(labels.max() if labels.max() >= num_classes else labels.min())
            raise RangeError(f"{name}: label {bad} outside [0, {num_classes})")
        # each segment's frames follow the previous segment's label, the
        # first segment's follow 'start' (index num_classes)
        starts, ends, runs = segmentation_from_frames(labels)
        prev = np.repeat(np.concatenate(([num_classes], runs[:-1])), ends - starts + 1)
        return cls(
            frames=frames, frame_labels=labels, prev_action=prev, seq_id=seq_id, pad=pad
        )


@dataclass(eq=False)
class Dataset:
    """A bundle of sequences sharing one class inventory and feature
    space, plus per-class frame totals."""

    sequences: list
    num_classes: int
    feature_dim: int
    class_frame_counts: np.ndarray
    class_names: tuple = ()

    @classmethod
    def build(cls, sequences, num_classes, class_names=()):
        if num_classes <= 0:
            raise ConfigError(f"num_classes must be positive, got {num_classes}")
        if class_names and len(class_names) != num_classes:
            raise ConfigError(
                f"{len(class_names)} class names for {num_classes} classes"
            )
        if not class_names:
            width = max(2, len(str(num_classes - 1)))
            class_names = tuple(f"class_{i:0{width}d}" for i in range(num_classes))
        if not sequences:
            raise EmptySequenceError("dataset has no sequences")
        dim = sequences[0].feature_dim
        counts = np.zeros(num_classes, dtype=np.int64)
        for seq in sequences:
            if seq.feature_dim != dim:
                raise ConfigError(
                    f"sequence {seq.seq_id or '<unnamed>'} has feature dim "
                    f"{seq.feature_dim}, expected {dim}"
                )
            if seq.prev_action[0] != num_classes:  # 'start' is index L
                raise ConfigError(
                    f"sequence {seq.seq_id or '<unnamed>'} was built for "
                    f"{int(seq.prev_action[0])} classes, the dataset has {num_classes}"
                )
            if seq.frame_labels.max() >= num_classes:
                raise RangeError(
                    f"sequence {seq.seq_id or '<unnamed>'}: label "
                    f"{int(seq.frame_labels.max())} outside [0, {num_classes})"
                )
            counts += np.bincount(seq.frame_labels, minlength=num_classes)
        return cls(
            sequences=list(sequences),
            num_classes=num_classes,
            feature_dim=dim,
            class_frame_counts=counts,
            class_names=tuple(class_names),
        )

    @property
    def total_frames(self):
        return int(self.class_frame_counts.sum())


def compute_transition_stats(dataset):
    """Frame counts by (truth class, previous action), int64 ``[L, L+1]``
    with column L 'start'; they depend only on the labels, not a model."""
    if not dataset.sequences:
        raise EmptySequenceError("cannot compute transition stats of an empty dataset")
    L = dataset.num_classes
    counts = np.zeros((L, L + 1), dtype=np.int64)
    for seq in dataset.sequences:
        flat = seq.frame_labels * (L + 1) + seq.prev_action
        counts += np.bincount(flat, minlength=counts.size).reshape(counts.shape)
    return counts


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


def generate_synthetic(config: SynthConfig, pad=0) -> Dataset:
    """Draw a synthetic dataset, each sequence laid out padded by ``pad``
    frames; bit-identical for equal configs, whatever the pad."""
    config.validate()
    L, D = config.num_classes, config.feature_dim
    check_radius(pad, L, D, config.num_sequences)
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
    sequences = []
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
        if config.noise_scale > 0:
            with np.errstate(over="ignore", invalid="ignore"):
                feats += config.noise_scale * rng.standard_normal(feats.shape[::-1]).T
        try:
            sequences.append(
                LabeledSequence.from_frames(feats.T, frame_labels, L, seq_id, pad)
            )
        except RangeError:  # the labels are valid, so the features overflowed
            raise ConfigError(
                f"noise_scale {config.noise_scale} puts the features of {seq_id} "
                "outside the float32 range"
            ) from None
    return Dataset.build(sequences, num_classes=L)


# ---------------------------------------------------------------------------
# On-disk format
#
# A dataset directory holds:
#   manifest.json            sequence ids + relative label/feature paths, L, D
#   classes.txt              "id name" per line; 'start' is implicit
#   groundTruth/<id>.txt     one class-name token per line per frame
#   features/<id>.bin|.csv   binary: u64-LE header (D, T) then D*T f32-LE,
#                            frame-major; csv: T rows x D columns
# ---------------------------------------------------------------------------

_FEATURE_HEADER = np.dtype("<u8")


def _write_features_binary(path, features):
    dim, num_frames = features.shape
    with open(path, "wb") as fh:
        np.array([dim, num_frames], dtype=_FEATURE_HEADER).tofile(fh)
        np.ascontiguousarray(features.T, dtype="<f4").tofile(fh)


def _read_features_binary(path):
    with open(path, "rb") as fh:
        header = np.fromfile(fh, dtype=_FEATURE_HEADER, count=2)
        if header.size != 2:
            raise ParseError(f"{path}: truncated header (offset {header.size * 8})")
        dim, num_frames = int(header[0]), int(header[1])
        payload = np.fromfile(fh, dtype="<f4")
    if payload.size != dim * num_frames:
        raise ParseError(
            f"{path}: expected {dim * num_frames} feature values "
            f"({dim} x {num_frames}), found {payload.size}"
        )
    return payload.reshape(num_frames, dim)


def _write_features_csv(path, features):
    # %.9g round-trips float32 exactly
    np.savetxt(path, features.T.astype(np.float64), fmt="%.9g", delimiter=",")


def _read_features_csv(path):
    text = _open_utf8(path)
    if not text.getvalue().strip():  # numpy warns on an input with no data
        raise ParseError(f"{path}: no feature values")
    try:
        # a value past the float32 range reads as inf, without a warning
        table = np.loadtxt(text, delimiter=",", dtype=np.float32, ndmin=2)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return table


def save_dataset(dataset, path, feature_format="binary"):
    """Write a dataset directory; see the format note above."""
    if feature_format not in ("binary", "csv"):
        raise ConfigError(f"unknown feature format {feature_format!r}")
    os.makedirs(os.path.join(path, "groundTruth"), exist_ok=True)
    os.makedirs(os.path.join(path, "features"), exist_ok=True)
    names = dataset.class_names
    with open(os.path.join(path, "classes.txt"), "w", encoding="utf-8") as fh:
        for i, name in enumerate(names):
            fh.write(f"{i} {name}\n")
    ext = "bin" if feature_format == "binary" else "csv"
    entries = []
    for idx, seq in enumerate(dataset.sequences):
        seq_id = seq.seq_id or f"seq_{idx:04d}"
        label_rel = os.path.join("groundTruth", f"{seq_id}.txt")
        feat_rel = os.path.join("features", f"{seq_id}.{ext}")
        with open(os.path.join(path, label_rel), "w", encoding="utf-8") as fh:
            for y in seq.frame_labels:
                fh.write(names[y] + "\n")
        if feature_format == "binary":
            _write_features_binary(os.path.join(path, feat_rel), seq.features)
        else:
            _write_features_csv(os.path.join(path, feat_rel), seq.features)
        entries.append({"id": seq_id, "labels": label_rel, "features": feat_rel})
    manifest = {
        "num_classes": dataset.num_classes,
        "feature_dim": dataset.feature_dim,
        "sequences": entries,
    }
    with open(os.path.join(path, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


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
    sequences = []
    for index, entry in enumerate(entries):
        label_path = os.path.join(root, entry["labels"])
        feat_path = os.path.join(root, entry["features"])
        try:
            labels = _read_labels(label_path, id_of, classes_path)
            csv = feat_path.endswith(".csv")
            feats = (_read_features_csv if csv else _read_features_binary)(feat_path)
        except (OSError, ParseError) as exc:  # also name the manifest entry
            raise ParseError(f"{manifest_path}: sequence entry {index}: {exc}") from exc
        if feats.shape != (labels.size, feature_dim):  # frame-major
            raise ParseError(
                f"{feat_path}: {feats.shape[1]} x {feats.shape[0]} features, but "
                f"{manifest_path} entry {index} expects feature_dim {feature_dim} "
                f"x the {labels.size} label lines of {label_path}"
            )
        if not np.isfinite(feats).all():
            raise RangeError(f"{feat_path}: non-finite feature values")
        sequences.append(
            LabeledSequence.from_frames(feats.T, labels, num_classes, entry["id"], pad)
        )
    return Dataset.build(sequences, num_classes=num_classes, class_names=names)
