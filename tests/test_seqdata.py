"""Sequence/segmentation types, synthetic generator, dataset I/O."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltseg import seqdata as sd
from ltseg.errors import (
    ConfigError,
    EmptySequenceError,
    LtsegError,
    ParseError,
    RangeError,
)


def _make_seq(labels, num_classes, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((dim, len(labels))).astype(np.float32)
    return sd.LabeledSequence.from_frames(feats, labels, num_classes=num_classes)


def _expand(starts, ends, runs):
    """Frame-wise labels of a run-length encoding, one segment at a time."""
    out = []
    for start, end, label in zip(starts.tolist(), ends.tolist(), runs.tolist()):
        assert start == len(out) and end >= start
        out.extend([label] * (end - start + 1))
    return np.array(out, dtype=np.int64)


def _check_encoding(labels):
    seg = sd.segmentation_from_frames(labels)
    assert all(a.dtype == np.int64 for a in seg)
    assert np.array_equal(_expand(*seg), labels)
    runs = seg[2]
    assert (runs[1:] != runs[:-1]).all()


def test_segmentation_from_frames_examples():
    starts, ends, runs = sd.segmentation_from_frames([0, 0, 1, 1, 1, 0])
    assert (starts.tolist(), ends.tolist(), runs.tolist()) == (
        [0, 2, 5], [1, 4, 5], [0, 1, 0]
    )
    assert [a.tolist() for a in sd.segmentation_from_frames([3])] == [[0], [0], [3]]


def test_segmentation_round_trip_random():
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        _check_encoding(rng.integers(0, 5, size=rng.integers(1, 40)))


def test_segmentation_empty_raises():
    with pytest.raises(EmptySequenceError):
        sd.segmentation_from_frames([])


def test_prev_action_matches_slow_oracle():
    rng = np.random.default_rng(99)
    for _ in range(200):
        L = int(rng.integers(2, 7))
        labels = rng.integers(0, L, size=rng.integers(1, 50))
        seq = _make_seq(labels, num_classes=L)
        # oracle: walk frames; a label change makes the old label the
        # previous action
        expect = np.empty(len(labels), dtype=np.int64)
        prev = L
        for t in range(len(labels)):
            if t and labels[t] != labels[t - 1]:
                prev = labels[t - 1]
            expect[t] = prev
        assert np.array_equal(seq.prev_action, expect)
        assert seq.prev_action[0] == L


def test_from_frames_validations():
    with pytest.raises(ConfigError):
        sd.LabeledSequence.from_frames(np.zeros((2, 3)), [0, 1], num_classes=2)
    with pytest.raises(RangeError):
        sd.LabeledSequence.from_frames(
            np.array([[0.0, np.inf]]), [0, 1], num_classes=2
        )
    with pytest.raises(RangeError, match="seq_x: label 5"):
        sd.LabeledSequence.from_frames(
            np.zeros((1, 2)), [0, 5], num_classes=2, seq_id="seq_x"
        )
    with pytest.raises(EmptySequenceError):
        sd.LabeledSequence.from_frames(np.zeros((1, 0)), [], num_classes=2)


def test_zero_noise_means_recoverable_exactly():
    cfg = sd.SynthConfig(
        num_classes=2, feature_dim=3, num_sequences=5, class_skew=0.0,
        noise_scale=0.0, rng_seed=7,
    )
    ds = sd.generate_synthetic(cfg)
    # the generator's first draw is the class-mean matrix
    means = np.random.default_rng(7).standard_normal((2, 3)) * cfg.mean_scale
    for c in range(2):
        cols = np.concatenate(
            [s.features[:, s.frame_labels == c] for s in ds.sequences], axis=1
        )
        assert cols.shape[1] > 0
        empirical = cols.astype(np.float64).mean(axis=1)
        assert np.array_equal(empirical, means[c].astype(np.float32).astype(np.float64))


def test_longtail_frame_counts():
    ds = sd.generate_synthetic(sd.SynthConfig(num_classes=10, class_skew=1.5, rng_seed=1))
    counts = ds.class_frame_counts
    # frozen oracle run; values tied to the PCG64 stream of the pinned numpy
    assert counts.tolist() == [
        10554, 6917, 2680, 2941, 2223, 1641, 2954, 754, 918, 632,
    ]
    assert counts.max() >= 10 * counts.min()
    ordered = np.sort(counts)[::-1]
    assert (ordered[:-1] >= ordered[1:]).all()
    assert ordered[0] / ordered[-1] >= 10


def test_generator_deterministic():
    cfg = sd.SynthConfig(num_classes=5, num_sequences=20, rng_seed=3)
    a, b = sd.generate_synthetic(cfg), sd.generate_synthetic(cfg)
    assert len(a.sequences) == len(b.sequences)
    for sa, sb in zip(a.sequences, b.sequences):
        assert sa.features.tobytes() == sb.features.tobytes()
        assert np.array_equal(sa.frame_labels, sb.frame_labels)
        assert sa.seq_id == sb.seq_id


def test_generator_invariants():
    ds = sd.generate_synthetic(sd.SynthConfig(num_classes=4, num_sequences=30, rng_seed=11))
    assert ds.feature_dim == 16
    assert ds.total_frames == sum(s.num_frames for s in ds.sequences)
    for seq in ds.sequences:
        _check_encoding(seq.frame_labels)


def test_generator_config_errors():
    for bad in (
        sd.SynthConfig(num_classes=1),
        sd.SynthConfig(feature_dim=0),
        sd.SynthConfig(num_sequences=0),
        sd.SynthConfig(noise_scale=-0.1),
        sd.SynthConfig(class_skew=-1.0),
        sd.SynthConfig(mean_segments=0.5),
    ):
        with pytest.raises(ConfigError):
            sd.generate_synthetic(bad)


@pytest.mark.parametrize(
    "field, value",
    [
        ("class_skew", 2000.0),
        ("class_skew", 1e300),
        ("transition_skew", 1e300),
        ("mean_segments", 1e300),
        ("duration_mean", 1e300),
        ("duration_spread", 1e300),
        ("mean_scale", 1e300),
        ("noise_scale", 1e300),
    ],
)
def test_generator_extreme_values_named(field, value):
    # each would otherwise give NaN successor rows, a bare numpy error or
    # features that float32 cannot hold
    cfg = sd.SynthConfig(num_classes=3, feature_dim=2, num_sequences=3,
                         **{field: value})
    with pytest.raises(ConfigError, match=field):
        sd.generate_synthetic(cfg)


def test_generator_expected_frame_count_bounded():
    # each field is below its own bound, but validate refuses, before any
    # draw, an expected frame count that reaches DRAW_LIMIT
    at_limit = sd.SynthConfig(
        num_sequences=2**10, mean_segments=2.0**10, duration_mean=2.0**11
    )
    for bad in (
        at_limit,
        dataclasses.replace(at_limit, num_sequences=10**400),
        sd.SynthConfig(num_sequences=sd.DRAW_LIMIT, mean_segments=1.0,
                       duration_mean=1.0),
    ):
        with pytest.raises(ConfigError, match=r"num_sequences \* mean_segments"):
            bad.validate()
    below = dataclasses.replace(at_limit, duration_mean=2.0**11 - 1)
    assert below.validate() is below


def _small_or_extreme(low, high, extreme):
    return st.floats(low, high) | st.sampled_from(extreme)


@st.composite
def small_synth_configs(draw):
    """Configs too small to allocate much, or with a value that must be
    refused before anything large is drawn."""
    return sd.SynthConfig(
        num_classes=draw(st.integers(2, 6)),
        feature_dim=draw(st.integers(1, 4)),
        num_sequences=draw(st.integers(1, 4)),
        mean_segments=draw(_small_or_extreme(1, 12, [2.0**31, 1e300])),
        class_skew=draw(_small_or_extreme(0, 4, [1100.0, 1e300])),
        duration_mean=draw(_small_or_extreme(1, 30, [2.0**31, 1e300])),
        duration_spread=draw(_small_or_extreme(0, 2, [1e300])),
        mean_scale=draw(_small_or_extreme(0.01, 10, [1e39, 1e300])),
        noise_scale=draw(_small_or_extreme(0, 5, [1e39, 1e300])),
        transition_skew=draw(_small_or_extreme(0, 6, [800.0, 1e300])),
        rng_seed=draw(st.integers(0, 3)),
    )


@settings(database=None, derandomize=True, deadline=None)
@given(small_synth_configs())
def test_generator_refuses_by_field_or_keeps_invariants(cfg):
    chains = []
    draw_chain = sd._segment_label_chain

    def recording_chain(*args):
        chains.append(draw_chain(*args))
        return chains[-1]

    sd._segment_label_chain = recording_chain
    try:
        ds = sd.generate_synthetic(cfg)
    except ConfigError as exc:
        names = [field.name for field in dataclasses.fields(cfg)]
        assert any(name in str(exc) for name in names), str(exc)
        return
    finally:
        sd._segment_label_chain = draw_chain
    for seq in ds.sequences:
        assert seq.features.dtype == np.float32
        assert np.isfinite(seq.features).all()
        assert ((seq.frame_labels >= 0) & (seq.frame_labels < cfg.num_classes)).all()
    for labels in chains:
        assert (labels[1:] != labels[:-1]).all()  # adjacent segments differ


def test_build_refuses_sequence_of_another_class_count():
    # built for 3 classes, its first frames follow 'start' at index 3,
    # which a 4-class dataset would count as class 3
    seq = sd.LabeledSequence.from_frames(
        np.zeros((3, 3)), [0, 0, 1], num_classes=3, seq_id="seq_x"
    )
    with pytest.raises(ConfigError, match="seq_x was built for 3 classes.* has 4"):
        sd.Dataset.build([_make_seq([0, 1], num_classes=4), seq], 4)
    assert sd.Dataset.build([seq], 3).num_classes == 3


def test_transition_stats_hand_enumeration():
    # frames [A, A, B]: prev actions are (start, start, A)
    ds = sd.Dataset.build([_make_seq([0, 0, 1], num_classes=2)], 2)
    counts = sd.compute_transition_stats(ds)
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(counts, [[0, 0, 2], [1, 0, 0]])


def test_transition_stats_single_segment_sequences():
    # every frame of a one-segment sequence follows 'start', column L
    seqs = [_make_seq([2] * 5, num_classes=3, seed=i) for i in range(4)]
    counts = sd.compute_transition_stats(sd.Dataset.build(seqs, 3))
    assert counts.shape == (3, 4)
    assert counts[2, 3] == 20
    assert counts.sum() == 20


def test_transition_stats_properties():
    ds = sd.generate_synthetic(sd.SynthConfig(num_classes=6, num_sequences=40, rng_seed=5))
    counts = sd.compute_transition_stats(ds)
    L = ds.num_classes
    assert counts.shape == (L, L + 1) and counts.dtype == np.int64
    # each sequence's first segment follows 'start'
    firsts = np.bincount(
        [seq.frame_labels[0] for seq in ds.sequences], minlength=L
    )
    assert np.array_equal(counts[:, L] > 0, firsts > 0)
    # adjacent segments differ, so no class follows itself
    assert not counts[np.arange(L), np.arange(L)].any()
    np.testing.assert_array_equal(counts.sum(axis=1), ds.class_frame_counts)


def test_head_tail_split():
    assert sd.head_tail_split([60000, 40000], 50000) == ({0}, {1})
    head, tail = sd.head_tail_split([3, 7, 2], 100)
    assert head == set() and tail == {0, 1, 2}
    head, tail = sd.head_tail_split([5, 5, 5], 5)
    assert head == {0, 1, 2} and tail == set()
    with pytest.raises(ConfigError):
        sd.head_tail_split([1, 2], 0)


def _datasets_equal(a, b):
    assert a.num_classes == b.num_classes
    assert a.feature_dim == b.feature_dim
    assert a.class_names == b.class_names
    assert np.array_equal(a.class_frame_counts, b.class_frame_counts)
    assert len(a.sequences) == len(b.sequences)
    for sa, sb in zip(a.sequences, b.sequences):
        assert sa.seq_id == sb.seq_id
        assert sa.features.tobytes() == sb.features.tobytes()
        assert np.array_equal(sa.frame_labels, sb.frame_labels)
        assert np.array_equal(sa.prev_action, sb.prev_action)


@pytest.mark.parametrize("fmt", ["binary", "csv"])
def test_save_load_round_trip(tmp_path, fmt):
    ds = sd.generate_synthetic(
        sd.SynthConfig(num_classes=4, feature_dim=5, num_sequences=6, rng_seed=2)
    )
    sd.save_dataset(ds, tmp_path / "ds", feature_format=fmt)
    _datasets_equal(ds, sd.load_dataset(str(tmp_path / "ds")))


@pytest.mark.parametrize("fmt", ["binary", "csv"])
def test_layout_pads_each_sequence_and_keeps_its_features(tmp_path, fmt):
    # the generator and the loader lay each sequence out frame-major with
    # `pad` copies of its edge frames on each side; its features, and so
    # the draw and the written files, are those of pad 0
    cfg = sd.SynthConfig(num_classes=4, feature_dim=5, num_sequences=6, rng_seed=2)
    plain = sd.generate_synthetic(cfg)
    padded = sd.generate_synthetic(cfg, pad=2)
    _datasets_equal(plain, padded)
    sd.save_dataset(padded, tmp_path / "ds", feature_format=fmt)
    loaded = sd.load_dataset(str(tmp_path / "ds"), pad=3)
    _datasets_equal(plain, loaded)
    for ds, pad in ((plain, 0), (padded, 2), (loaded, 3)):
        for seq in ds.sequences:
            assert seq.pad == pad and seq.frames.dtype == np.float32
            assert seq.frames.flags.c_contiguous
            rows = np.clip(np.arange(-pad, seq.num_frames + pad), 0, seq.num_frames - 1)
            assert seq.frames.tobytes() == seq.features.T[rows].tobytes()


def test_ground_truth_line_per_frame(tmp_path):
    ds = sd.Dataset.build([_make_seq([0, 0, 1, 1, 0, 2], num_classes=3)], 3)
    sd.save_dataset(ds, tmp_path / "ds")
    gt = (tmp_path / "ds" / "groundTruth").iterdir()
    lines = next(gt).read_text().splitlines()
    assert len(lines) == 6
    assert lines == ["class_00", "class_00", "class_01", "class_01", "class_00", "class_02"]
    loaded = sd.load_dataset(str(tmp_path / "ds"))
    assert loaded.sequences[0].num_frames == 6


def test_frame_count_mismatch_names_both_counts(tmp_path):
    ds = sd.generate_synthetic(
        sd.SynthConfig(num_classes=3, feature_dim=2, num_sequences=1, rng_seed=0)
    )
    sd.save_dataset(ds, tmp_path / "ds")
    label_file = tmp_path / "ds" / "groundTruth" / f"{ds.sequences[0].seq_id}.txt"
    lines = label_file.read_text().splitlines()
    label_file.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ParseError) as err:
        sd.load_dataset(str(tmp_path / "ds"))
    frames = ds.sequences[0].num_frames
    assert str(frames) in str(err.value) and str(frames - 1) in str(err.value)


def test_load_rejects_unknown_token_and_bad_ids(tmp_path):
    ds = sd.Dataset.build([_make_seq([0, 1], num_classes=2)], 2)
    sd.save_dataset(ds, tmp_path / "ds")
    gt = next((tmp_path / "ds" / "groundTruth").iterdir())
    gt.write_text("class_00\nmystery\n")
    with pytest.raises(ParseError, match="mystery"):
        sd.load_dataset(str(tmp_path / "ds"))

    sd.save_dataset(ds, tmp_path / "ds2")
    (tmp_path / "ds2" / "classes.txt").write_text("0 class_00\n5 class_01\n")
    with pytest.raises(RangeError):
        sd.load_dataset(str(tmp_path / "ds2"))

    sd.save_dataset(ds, tmp_path / "ds3")
    (tmp_path / "ds3" / "classes.txt").write_text("0 class_00\n1 start\n")
    with pytest.raises(ParseError, match="implicit"):
        sd.load_dataset(str(tmp_path / "ds3"))

    # two ids under one name: its frames would all read as the last id
    sd.save_dataset(ds, tmp_path / "ds4")
    (tmp_path / "ds4" / "classes.txt").write_text("0 class_01\n1 class_01\n")
    with pytest.raises(ParseError, match="listed twice"):
        sd.load_dataset(str(tmp_path / "ds4"))


def test_load_rejects_truncated_feature_file(tmp_path):
    ds = sd.Dataset.build([_make_seq([0, 1, 0], num_classes=2)], 2)
    sd.save_dataset(ds, tmp_path / "ds")
    feat = next((tmp_path / "ds" / "features").iterdir())
    feat.write_bytes(feat.read_bytes()[:-4])
    with pytest.raises(ParseError):
        sd.load_dataset(str(tmp_path / "ds"))


def test_missing_classes_flagged(tmp_path):
    ds = sd.Dataset.build([_make_seq([0, 0, 2], num_classes=4)], 4)
    assert np.flatnonzero(ds.class_frame_counts == 0).tolist() == [1, 3]
    sd.save_dataset(ds, tmp_path / "ds")
    loaded = sd.load_dataset(str(tmp_path / "ds"))
    assert np.flatnonzero(loaded.class_frame_counts == 0).tolist() == [1, 3]


DROP = object()


def _rewrite_manifest(tmp_path, mutate):
    """Save a two-sequence dataset, edit its manifest, return the path."""
    ds = sd.Dataset.build(
        [_make_seq([0, 1], num_classes=2), _make_seq([1, 0], num_classes=2, seed=1)], 2
    )
    sd.save_dataset(ds, tmp_path / "ds")
    path = tmp_path / "ds" / "manifest.json"
    manifest = json.loads(path.read_text())
    path.write_text(json.dumps(mutate(manifest)))
    return str(path)


def _edit(mapping, key, value):
    if value is DROP:
        del mapping[key]
    else:
        mapping[key] = value


@pytest.mark.parametrize(
    "key, value",
    [
        ("num_classes", "x"),
        ("num_classes", None),
        ("num_classes", 3.7),
        ("num_classes", True),
        ("feature_dim", "3"),
        ("num_classes", DROP),
        ("sequences", DROP),
        ("sequences", {"id": "a"}),
    ],
)
def test_load_rejects_malformed_manifest_fields(tmp_path, key, value):
    def mutate(manifest):
        _edit(manifest, key, value)
        return manifest

    path = _rewrite_manifest(tmp_path, mutate)
    with pytest.raises(ParseError) as err:
        sd.load_dataset(path)
    assert path in str(err.value) and key in str(err.value)


def test_load_rejects_non_object_manifest(tmp_path):
    path = _rewrite_manifest(tmp_path, lambda manifest: [manifest])
    with pytest.raises(ParseError) as err:
        sd.load_dataset(path)
    assert path in str(err.value)


@pytest.mark.parametrize(
    "key, value",
    [
        ("labels", DROP),
        ("features", DROP),
        ("id", DROP),
        ("labels", 7),
        ("id", None),
        (None, "not an object"),
        ("features", "features/missing.bin"),
    ],
)
def test_load_rejects_malformed_manifest_entry(tmp_path, key, value):
    def mutate(manifest):
        if key is None:
            manifest["sequences"][1] = value
        else:
            _edit(manifest["sequences"][1], key, value)
        return manifest

    path = _rewrite_manifest(tmp_path, mutate)
    with pytest.raises(ParseError) as err:
        sd.load_dataset(path)
    assert path in str(err.value) and "entry 1" in str(err.value)


_DATASET_FILES = (
    "manifest.json",
    "classes.txt",
    "groundTruth/s0.txt",
    "groundTruth/s1.txt",
    "features/s0",
    "features/s1",
)
# uniform bytes, and the ones that keep a text file parseable but wrong
_BYTE = st.one_of(st.integers(0, 255), st.sampled_from(b'0129-.e \n",'))
_DATASET_DAMAGE = st.tuples(
    st.sampled_from(["binary", "csv"]),
    st.sampled_from(_DATASET_FILES),
    st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, 10**6)),
        st.tuples(st.just("overwrite"), st.integers(0, 10**6), _BYTE),
        st.tuples(st.sampled_from(["delete", "directory"]), st.just(0)),
    ),
)


@settings(database=None, derandomize=True, deadline=None, max_examples=300)
@given(damage=_DATASET_DAMAGE)
def test_damaged_dataset_loads_or_fails_typed(tmp_path_factory, damage):
    # any truncation or single-byte overwrite of one file of a valid
    # dataset, or its deletion or replacement by a directory, either
    # still loads as a valid dataset or raises a typed error that names
    # the damaged file; class 3 has no frame, so a class name can turn
    # into a duplicate no label file contradicts
    fmt, name, (kind, offset, *byte) = damage
    root = tmp_path_factory.mktemp("ds")
    rng = np.random.default_rng(0)
    seqs = [
        sd.LabeledSequence.from_frames(
            rng.standard_normal((2, len(labels))).astype(np.float32),
            labels,
            num_classes=4,
            seq_id=f"s{index}",
        )
        for index, labels in enumerate(([0, 0, 1], [2, 1, 1, 0]))
    ]
    sd.save_dataset(sd.Dataset.build(seqs, 4), root, feature_format=fmt)
    if name.startswith("features/"):
        name += ".bin" if fmt == "binary" else ".csv"
    path = root / name
    raw = bytearray(path.read_bytes())
    if kind == "truncate":
        raw = raw[: offset % len(raw)]
    elif kind == "overwrite":
        raw[offset % len(raw)] = byte[0]
    path.unlink()
    if kind == "directory":
        path.mkdir()
    elif kind != "delete":
        path.write_bytes(bytes(raw))
    try:
        ds = sd.load_dataset(str(root))
    except LtsegError as exc:
        assert str(path) in str(exc)
    else:
        assert len(set(ds.class_names)) == ds.num_classes
        for seq in ds.sequences:
            assert seq.features.dtype == np.float32
            assert np.isfinite(seq.features).all()
            assert 0 <= seq.frame_labels.min() <= seq.frame_labels.max() < ds.num_classes
