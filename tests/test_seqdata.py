"""Sequence/segmentation types, synthetic generator, dataset I/O."""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltseg import _kernels
from ltseg import decode as dec
from ltseg import seqdata as sd
from ltseg.errors import (
    ConfigError,
    EmptySequenceError,
    LtsegError,
    ParseError,
    RangeError,
)


def _record(labels, dim=3, seed=0, seq_id=""):
    """A ``Dataset.of`` record of random float32 features drawn [D, T]."""
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((dim, len(labels))).astype(np.float32)
    return seq_id, np.asarray(labels, dtype=np.int64), feats.T


def _make_seq(labels, num_classes, dim=3, seed=0):
    return sd.Dataset.of([_record(labels, dim, seed)], num_classes).sequences[0]


def _save(ds, path):
    """Write a dataset held in memory through the streaming writer."""
    sequences = ((seq.seq_id, seq.frame_labels, seq.features.T) for seq in ds.sequences)
    sd.save_dataset(path, ds.class_names, ds.feature_dim, sequences)


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


def test_of_validations():
    # each refusal names the record's sequence
    with pytest.raises(ConfigError, match="seq_x: frames \\(3, 2\\)"):
        sd.Dataset.of([("seq_x", [0, 1], np.zeros((3, 2)))], 2)
    with pytest.raises(ConfigError, match="seq_y: frames \\(2, 3\\)"):
        sd.Dataset.of([_record([0, 1], dim=2), ("seq_y", [1, 0], np.zeros((2, 3)))], 2)
    with pytest.raises(ConfigError, match="feature dimension 0"):
        sd.Dataset.of([("seq_x", [0, 1], np.zeros((2, 0)))], 2)
    with pytest.raises(ConfigError, match="seq_x: labels of dtype float64"):
        sd.Dataset.of([("seq_x", [0.0, 1.0], np.zeros((2, 1)))], 2)
    with pytest.raises(RangeError, match="seq_x has non-finite"):
        sd.Dataset.of([("seq_x", [0, 1], np.array([[0.0], [np.inf]]))], 2)
    with pytest.raises(RangeError, match="seq_x has non-finite"):  # past float32
        sd.Dataset.of([_record([0]), ("seq_x", [0, 1], np.full((2, 3), 1e39))], 2)
    with pytest.raises(RangeError, match="seq_x: label 5"):
        sd.Dataset.of([("seq_x", [0, 5], np.zeros((2, 1)))], 2)
    with pytest.raises(EmptySequenceError, match="seq_x has no frames"):
        sd.Dataset.of([("seq_x", [], np.zeros((0, 1)))], 2)
    with pytest.raises(EmptySequenceError, match="no sequences"):
        sd.Dataset.of(iter(()), 2)


def test_of_copies_records_into_one_c_contiguous_buffer():
    # transposed [D, T] draws are F-ordered; the buffer windows in place
    records = [_record([0, 1, 1], seed=1), _record([1], seed=2), _record([0, 0], seed=3)]
    ds = sd.Dataset.of(iter(records), 2, pad=2)
    assert ds.frames.flags.c_contiguous and ds.frames.flags.owndata
    assert ds.frames.shape == (6 + 2 * 2 * 3, 3)
    for seq, (_, labels, frames) in zip(ds.sequences, records, strict=True):
        assert seq.frames.base is ds.frames
        assert seq.features.T.tobytes() == np.ascontiguousarray(frames).tobytes()
        assert seq.frame_labels.tobytes() == labels.tobytes()


def test_generator_refuses_pad_before_drawing(monkeypatch):
    # check_radius refuses the pad before the first sequence is drawn
    draws, chain = [], sd._segment_label_chain
    monkeypatch.setattr(sd, "_segment_label_chain",
                        lambda *args: draws.append(args) or chain(*args))
    with pytest.raises(ConfigError, match="context_radius"):
        sd.generate_synthetic(sd.SynthConfig(num_sequences=50), pad=10**12)
    assert draws == []
    assert sd.generate_synthetic(sd.SynthConfig(num_sequences=3), pad=1).pad == 1
    assert len(draws) == 3


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


def test_transition_stats_hand_enumeration():
    # frames [A, A, B]: prev actions are (start, start, A)
    ds = sd.Dataset.of([_record([0, 0, 1])], 2)
    counts = sd.compute_transition_stats(ds)
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(counts, [[0, 0, 2], [1, 0, 0]])


def test_transition_stats_single_segment_sequences():
    # every frame of a one-segment sequence follows 'start', column L
    records = [_record([2] * 5, seed=i) for i in range(4)]
    counts = sd.compute_transition_stats(sd.Dataset.of(records, 3))
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


# -- the flat dataset against per-sequence oracles ----------------------------


def transition_stats_oracle(dataset):
    """Per-sequence transition counts, summed one sequence at a time."""
    L = dataset.num_classes
    counts = np.zeros((L, L + 1), dtype=np.int64)
    for seq in dataset.sequences:
        flat = seq.frame_labels * (L + 1) + seq.prev_action
        counts += np.bincount(flat, minlength=counts.size).reshape(counts.shape)
    return counts


def class_frame_counts_oracle(dataset):
    counts = np.zeros(dataset.num_classes, dtype=np.int64)
    for seq in dataset.sequences:
        counts += np.bincount(seq.frame_labels, minlength=dataset.num_classes)
    return counts


def class_means_oracle(dataset, representations):
    """Class means one sequence at a time: each sequence's representation
    widened to float64, its runs summed and added into their class rows."""
    sums = None
    for seq, reps in zip(dataset.sequences, representations, strict=True):
        reps = np.asarray(reps, dtype=np.float64)
        if sums is None:
            sums = np.zeros((dataset.num_classes, reps.shape[1]))
        starts, _, labels = sd.segmentation_from_frames(seq.frame_labels)
        np.add.at(sums, labels, np.add.reduceat(reps, starts, axis=0))
    support = class_frame_counts_oracle(dataset)
    means = np.zeros_like(sums)
    np.divide(sums, support[:, None], out=means, where=support[:, None] > 0)
    return means, support


def _flat_dataset(sequences, num_classes, dim=2, pad=0, seed=0):
    """A dataset built flat, as the loader builds it, from label lists;
    its features are random and the previous actions derived."""
    rng = np.random.default_rng(seed)
    lengths = [len(labels) for labels in sequences]
    frames = rng.standard_normal((sum(lengths) + 2 * pad * len(lengths), dim))
    offsets = np.cumsum([0] + lengths)
    labels = np.concatenate([np.asarray(s, dtype=np.int64) for s in sequences])
    ids = [f"s{i}" for i in range(len(lengths))]
    return sd.Dataset(frames.astype(np.float32), labels, offsets, num_classes, (), ids, pad)


_LABEL_SEQUENCES = st.integers(2, 5).flatmap(
    lambda L: st.tuples(
        st.just(L),
        st.lists(st.lists(st.integers(0, L - 1), min_size=1, max_size=12),
                 min_size=1, max_size=8),
    )
)


@settings(database=None, derandomize=True, deadline=None, max_examples=200)
@given(case=_LABEL_SEQUENCES)
# 1-frame sequences, and sequences that start with the label their
# predecessor ends on: runs must still reset at every offset
@example(case=(3, [[0], [0, 0, 1], [1, 1], [1], [2, 0]]))
def test_flat_prev_action_equals_each_sequence_alone(case):
    L, sequences = case
    ds = _flat_dataset(sequences, L)
    assert ds.prev_action.dtype == np.int64
    for seq, labels in zip(ds.sequences, sequences, strict=True):
        alone = _make_seq(labels, num_classes=L)
        assert seq.prev_action.tobytes() == alone.prev_action.tobytes()
        assert seq.prev_action[0] == L
        assert np.shares_memory(seq.prev_action, ds.prev_action)
    expect = np.concatenate([_make_seq(s, num_classes=L).prev_action for s in sequences])
    assert ds.prev_action.tobytes() == expect.tobytes()


@pytest.mark.parametrize("pad", [0, 2])
@pytest.mark.parametrize("radius", [0, 1, 3])
def test_flat_statistics_equal_per_sequence_oracles(pad, radius):
    generated = sd.generate_synthetic(
        sd.SynthConfig(num_classes=6, feature_dim=3, num_sequences=17, rng_seed=pad),
        pad=pad,
    )
    built = sd.Dataset.of(
        [_record(labels, seed=i)
         for i, labels in enumerate(([3], [0, 0, 1], [1, 1, 1, 2], [2], [0, 3, 3]))],
        4,
    )
    for ds in (generated, built):
        counts = sd.compute_transition_stats(ds)
        assert counts.dtype == np.int64
        assert counts.tobytes() == transition_stats_oracle(ds).tobytes()
        assert ds.class_frame_counts.tobytes() == class_frame_counts_oracle(ds).tobytes()
        pairs = [(seq.frames, seq.pad) for seq in ds.sequences]
        # float32 views, as train passes them, and float64 copies, as eval's
        for reps in (
            _kernels.window_store(pairs, radius),
            [dec.windowed_extractor(radius)(seq) for seq in ds.sequences],
        ):
            got = dec.class_means_of(ds, reps)
            means, support = class_means_oracle(ds, reps)
            assert got.means.tobytes() == means.tobytes()
            assert got.support.tobytes() == support.tobytes()


@pytest.mark.parametrize("pad", [0, 2])
def test_load_holds_every_sequence_in_one_buffer(tmp_path, pad):
    ds = sd.generate_synthetic(
        sd.SynthConfig(num_classes=4, feature_dim=3, num_sequences=7, rng_seed=3)
    )
    _save(ds, tmp_path / "ds")
    loaded = sd.load_dataset(str(tmp_path / "ds"), pad=pad)
    assert loaded.frames.dtype == np.float32 and loaded.frames.flags.owndata
    assert loaded.frames.shape == (ds.total_frames + 2 * pad * 7, 3)
    assert loaded.offsets.tolist() == ds.offsets.tolist()
    for seq, original in zip(loaded.sequences, ds.sequences, strict=True):
        for view, flat in ((seq.frames, loaded.frames), (seq.frame_labels, loaded.labels),
                           (seq.prev_action, loaded.prev_action)):
            assert view.base is flat and np.shares_memory(view, flat)
        assert seq.features.tobytes() == original.features.tobytes()


def test_generator_pads_each_sequence_as_alone():
    # the drawn sequences go into one buffer, each laid out as a
    # one-sequence dataset of its own lays it out
    cfg = sd.SynthConfig(num_classes=3, feature_dim=2, num_sequences=40,
                         duration_spread=3.0, rng_seed=1)
    ds = sd.generate_synthetic(cfg, pad=2)
    assert ds.frames.shape == (ds.total_frames + 2 * 2 * 40, 2)
    for seq in ds.sequences:
        record = (seq.seq_id, seq.frame_labels, seq.features.T)
        alone = sd.Dataset.of([record], 3, pad=2).sequences[0]
        assert seq.frames.tobytes() == alone.frames.tobytes()
        assert seq.prev_action.tobytes() == alone.prev_action.tobytes()


def test_load_refuses_features_past_memory_typed(tmp_path, monkeypatch):
    # a feature_dim far past the files' sizes a buffer that cannot be
    # allocated: a RangeError naming the manifest, before any file is read
    ds = sd.Dataset.of([_record([0, 0])], 1)
    _save(ds, tmp_path / "ds")
    path = tmp_path / "ds" / "manifest.json"
    manifest = json.loads(path.read_text())
    path.write_text(json.dumps(dict(manifest, feature_dim=2**31 - 1)))
    empty = np.empty

    def refuse(shape, *args, **kwargs):
        if shape == (2, 2**31 - 1):
            raise MemoryError
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(sd.np, "empty", refuse)
    with pytest.raises(RangeError, match="do not fit in memory") as err:
        sd.load_dataset(str(path))
    assert str(path) in str(err.value)


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


def test_save_load_round_trip(tmp_path):
    cfg = sd.SynthConfig(num_classes=4, feature_dim=5, num_sequences=6, rng_seed=2)
    ds = sd.generate_synthetic(cfg)
    _save(ds, tmp_path / "ds")
    _datasets_equal(ds, sd.load_dataset(str(tmp_path / "ds")))
    # numpy reads each feature file as the drawn frames transposed, (D, T)
    for seq_id, _, frames in sd.draw_synthetic(cfg):
        features = np.load(tmp_path / "ds" / "features" / f"{seq_id}.npy")
        assert features.dtype == np.float32 and features.shape == frames.T.shape
        assert np.array_equal(features, frames.T)


@pytest.mark.parametrize("dim, lengths", [(1, [1, 3]), (3, [1, 2])])
def test_unit_dimension_features_round_trip(tmp_path, dim, lengths):
    # np.save writes a (D, T) array with D or T of 1 in C order, the same
    # bytes as Fortran order, and load_dataset reads them all the same
    records = [_record([0] * n, dim, seed=n, seq_id=f"s{n}") for n in lengths]
    ds = sd.Dataset.of(records, 1)
    _save(ds, tmp_path / "ds")
    _datasets_equal(ds, sd.load_dataset(str(tmp_path / "ds")))


def test_layout_pads_each_sequence_and_keeps_its_features(tmp_path):
    # the generator and the loader lay each sequence out frame-major with
    # `pad` copies of its edge frames on each side; its features, and so
    # the draw and the written files, are those of pad 0
    cfg = sd.SynthConfig(num_classes=4, feature_dim=5, num_sequences=6, rng_seed=2)
    plain = sd.generate_synthetic(cfg)
    padded = sd.generate_synthetic(cfg, pad=2)
    _datasets_equal(plain, padded)
    _save(padded, tmp_path / "ds")
    loaded = sd.load_dataset(str(tmp_path / "ds"), pad=3)
    _datasets_equal(plain, loaded)
    for ds, pad in ((plain, 0), (padded, 2), (loaded, 3)):
        for seq in ds.sequences:
            assert seq.pad == pad and seq.frames.dtype == np.float32
            assert seq.frames.flags.c_contiguous
            rows = np.clip(np.arange(-pad, seq.num_frames + pad), 0, seq.num_frames - 1)
            assert seq.frames.tobytes() == seq.features.T[rows].tobytes()


@pytest.mark.parametrize(
    "seq_id, labels, frames, error, message",
    [
        ("bad", [0, 1], np.zeros((2, 3)), ConfigError, "sequence bad"),  # width 3
        ("bad", [0, 1], np.full((2, 4), np.nan), RangeError, "sequence bad"),
        ("bad", [0, -1], np.zeros((2, 4)), RangeError, "sequence bad"),
        ("bad", [0, 5], np.zeros((2, 4)), RangeError, "sequence bad"),
        ("bad", [0.0, 1.0], np.zeros((2, 4)), ConfigError, "sequence bad"),
        # the second record would overwrite the first's files
        ("fine", [0, 1], np.zeros((2, 4)), ConfigError,
         "records 0 and 1 share the id 'fine'"),
        # one dies opening a missing directory, the other writes outside
        ("x/y", [0, 1], np.zeros((2, 4)), ConfigError,
         "record 1: id 'x/y' is not one path component"),
        ("../../x", [0, 1], np.zeros((2, 4)), ConfigError,
         "record 1: id '../../x' is not one path component"),
        ("x\0y", [0, 1], np.zeros((2, 4)), ConfigError,
         "record 1: id 'x\\x00y' is not one path component"),
    ],
    ids=["width", "nan", "label_-1", "label_5", "float_labels", "repeated_id",
         "id_with_separator", "id_outside_directory", "id_with_nul"],
)
def test_save_dataset_checks_each_record_before_writing_it(tmp_path, seq_id, labels,
                                                           frames, error, message):
    # a record that load_dataset would refuse, or that the writer cannot
    # name, is refused with an error naming it before its files are opened
    good = ("fine", np.array([1, 0]), np.ones((2, 4), np.float32))
    with pytest.raises(error, match=re.escape(message)):
        sd.save_dataset(str(tmp_path / "ds"), ("c0", "c1"), 4,
                        [good, (seq_id, labels, frames)])
    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.*"))
    assert written == ["ds/classes.txt", "ds/features/fine.npy",
                       "ds/groundTruth/fine.txt"]


def test_dataset_takes_integer_labels_of_any_kind_as_int64():
    frames = np.arange(6, dtype=np.float32).reshape(3, 2)
    for labels in ([0, 1, 1], (0, 1, 1), np.array([0, 1, 1], np.uint8)):
        ds = sd.Dataset(frames.copy(), labels, [0, 3], 2, (), ["a"])
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [0, 1, 1]
        assert ds.prev_action.tolist() == [2, 0, 0]


def test_dataset_refuses_buffers_that_do_not_match_the_offsets():
    # one 2-frame sequence: 3 rows would drop the third, and 3 labels
    # would count a frame no sequence holds
    frames, labels = np.zeros((3, 2), np.float32), np.array([0, 1])
    with pytest.raises(ConfigError, match="3 rows and 2 labels .* take 2 and 2"):
        sd.Dataset(frames, labels, [0, 2], 2, (), ["a"])
    with pytest.raises(ConfigError, match="2 rows and 3 labels .* take 2 and 2"):
        sd.Dataset(frames[:2], np.array([0, 1, 1]), [0, 2], 2, (), ["a"])
    with pytest.raises(ConfigError, match="3 rows and 2 labels .* take 4 and 2"):
        sd.Dataset(frames, labels, [0, 2], 2, (), ["a"], pad=1)
    assert sd.Dataset(frames[:2], labels, [0, 2], 2, (), ["a"]).total_frames == 2


@pytest.mark.parametrize(
    "offsets, error, message",
    [
        ([0, 2, 2], EmptySequenceError, "sequence b spans offsets 2 to 2"),
        ([0, 0, 3], EmptySequenceError, "sequence a spans offsets 0 to 0"),
        ([1, 3], ConfigError, "start at 1, not 0, .* before sequence a"),
        ([0, 3, 2, 4], EmptySequenceError, "sequence b spans offsets 3 to 2"),
    ],
    ids=["empty_last", "empty_first", "late_start", "negative_length"],
)
def test_dataset_refuses_offsets_that_do_not_tile_the_frames(offsets, error, message):
    # Dataset.of and load_dataset build offsets as a cumulative sum of
    # positive lengths from 0; a directly built dataset is checked too
    n = offsets[-1]
    frames, labels = np.zeros((n, 2), np.float32), np.zeros(n, np.int64)
    with pytest.raises(error, match=message):
        sd.Dataset(frames, labels, offsets, 2, (), ["a", "b", "c"][: len(offsets) - 1])


def _load_features(tmp_path, edit):
    """Load a one-sequence dataset after ``edit`` rewrites the bytes of
    its feature file, features/seq_0000.npy."""
    _save(sd.Dataset.of([_record([0, 1, 1])], 2), tmp_path)
    path = tmp_path / "features" / "seq_0000.npy"
    path.write_bytes(edit(path.read_bytes()))
    sd.load_dataset(str(tmp_path))


def _npy_header(text):
    """A .npy 1.0 file that holds the header ``text`` and no data."""
    return b"\x93NUMPY\x01\x00" + len(text).to_bytes(2, "little") + text


_FEATURES = "{tmp}/features/seq_0000.npy"


def _manifest_with_no_classes(tmp_path):
    manifest = {"num_classes": 0, "feature_dim": 3,
                "sequences": [{"id": "a", "labels": "a.txt", "features": "a.npy"}]}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    sd.load_dataset(str(tmp_path))


@pytest.mark.parametrize(
    "refused, error, names",
    [
        (lambda tmp: sd.Dataset(np.zeros((2, 2), np.float32), np.zeros(2, np.int64),
                                [0, 2], 0, (), ["a"]),
         ConfigError, "num_classes"),
        (lambda tmp: sd.Dataset(np.zeros((2, 2), np.float32), np.zeros(2, np.int64),
                                [0, 2], 2, ("x",), ["a"]),
         ConfigError, "class names"),
        (lambda tmp: sd.Dataset(np.zeros((3, 2), np.float32), np.array([0, 1, 5]),
                                [0, 1, 3], 2, (), ["a", "b"]),
         RangeError, "sequence b: label 5"),
        (lambda tmp: sd.Dataset(np.zeros((4, 2), np.float32), np.array([0, 0, 1, 1]),
                                [0, 2, 4], 2, (), ["a"]),
         ConfigError, "1 sequence ids and 3 offsets"),
        (lambda tmp: sd.Dataset(np.zeros((2, 2), np.float32), np.zeros(2, np.int64),
                                [1, 3], 2, (), []),
         ConfigError, "0 sequence ids and 2 offsets"),
        (lambda tmp: sd.SynthConfig(duration_spread=-0.5).validate(),
         ConfigError, "duration_spread"),
        # the (D, T) u64 header and frame-major float32 an older gen wrote
        (lambda tmp: _load_features(tmp, lambda raw: np.array([3, 3], "<u8").tobytes()
                                    + np.zeros(9, "<f4").tobytes()),
         ParseError, _FEATURES),
        # numpy's header parser raises a TokenError, a SyntaxError, a
        # TypeError, a MemoryError and a RecursionError on these
        (lambda tmp: _load_features(tmp, lambda raw: raw[:10] + b'"' + raw[11:]),
         ParseError, _FEATURES),
        (lambda tmp: _load_features(tmp, lambda raw: raw[:22] + b"0" + raw[23:]),
         ParseError, _FEATURES),
        (lambda tmp: _load_features(tmp, lambda raw: raw.replace(b" 's", b"b's")),
         ParseError, _FEATURES),
        (lambda tmp: _load_features(tmp, lambda raw: _npy_header(b"-" * 9000 + b"1")),
         ParseError, _FEATURES),
        (lambda tmp: _load_features(tmp, lambda raw: _npy_header(b"~" * 5000 + b"1")),
         ParseError, _FEATURES),
        (_manifest_with_no_classes, RangeError, "{tmp}/manifest.json"),
        # every pad is checked before the layout is allocated or sliced
        (lambda tmp: sd.generate_synthetic(
            sd.SynthConfig(num_classes=3, feature_dim=4, num_sequences=4), -1),
         ConfigError, "pad must be >= 0, got -1"),
        (lambda tmp: sd.Dataset.of([_record([0, 1])], 2, pad=-1),
         ConfigError, "pad must be >= 0, got -1"),
        (lambda tmp: sd.Dataset.of([_record([0, 1])], 2, pad=1.5),
         ConfigError, "pad must be an integer, got 1.5"),
        (lambda tmp: sd.Dataset.of([_record([0, 1])], 2, pad=True),
         ConfigError, "pad must be an integer, got True"),
        (lambda tmp: sd.Dataset.of([_record([0, 1])], 2, pad=10**12),
         ConfigError, "context_radius 1000000000000 gives"),
        (lambda tmp: sd.Dataset(np.zeros((0, 3), np.float32), np.array([0, 1]),
                                [0, 2], 2, (), ["a"], pad=-1),
         ConfigError, "pad must be >= 0, got -1"),
        (lambda tmp: _save(sd.Dataset.of([_record([0, 1])], 2), tmp)
         or sd.load_dataset(str(tmp), -1),
         ConfigError, "pad must be >= 0, got -1"),
        # a direct call may pass any array-like labels, but only integers
        (lambda tmp: sd.Dataset(np.zeros((2, 3), np.float32), np.array([0.0, 1.0]),
                                [0, 2], 2, (), ["a"]),
         ConfigError, "labels must be a 1-D integer array, got float64 (2,)"),
        (lambda tmp: sd.Dataset(np.zeros((2, 3), np.float32), [[0, 1]],
                                [0, 2], 2, (), ["a"]),
         ConfigError, "labels must be a 1-D integer array, got int64 (1, 2)"),
        (lambda tmp: sd.Dataset([[0.0] * 3] * 2, np.array([0, 1]), [0, 2], 2, (),
                                ["a"]),
         ConfigError, "frames must be a 2-D ndarray, got list"),
        (lambda tmp: sd.Dataset(np.zeros(6, np.float32), np.array([0, 1]),
                                [0, 2], 2, (), ["a"]),
         ConfigError, "frames must be a 2-D ndarray, got (6,)"),
    ],
    ids=["no_classes", "class_names", "dataset_label", "short_ids", "no_ids",
         "duration_spread", "feature_format", "npy_token_error", "npy_syntax_error",
         "npy_key_types", "npy_parser_stack", "npy_parser_recursion", "manifest_dims",
         "generator_negative_pad", "negative_pad", "float_pad", "bool_pad", "huge_pad",
         "direct_negative_pad", "loader_negative_pad", "float_labels", "nested_labels",
         "list_frames", "flat_frames"],
)
def test_typed_refusals_name_their_field_or_file(tmp_path, refused, error, names):
    with pytest.raises(error) as info:
        refused(tmp_path)
    assert names.format(tmp=tmp_path) in str(info.value)


def test_ground_truth_line_per_frame(tmp_path):
    ds = sd.Dataset.of([_record([0, 0, 1, 1, 0, 2])], 3)
    _save(ds, tmp_path / "ds")
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
    _save(ds, tmp_path / "ds")
    label_file = tmp_path / "ds" / "groundTruth" / f"{ds.sequences[0].seq_id}.txt"
    lines = label_file.read_text().splitlines()
    label_file.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ParseError) as err:
        sd.load_dataset(str(tmp_path / "ds"))
    frames = ds.sequences[0].num_frames
    assert str(frames) in str(err.value) and str(frames - 1) in str(err.value)


def test_load_rejects_unknown_token_and_bad_ids(tmp_path):
    ds = sd.Dataset.of([_record([0, 1])], 2)
    _save(ds, tmp_path / "ds")
    gt = next((tmp_path / "ds" / "groundTruth").iterdir())
    gt.write_text("class_00\nmystery\n")
    with pytest.raises(ParseError, match="mystery"):
        sd.load_dataset(str(tmp_path / "ds"))

    _save(ds, tmp_path / "ds2")
    (tmp_path / "ds2" / "classes.txt").write_text("0 class_00\n5 class_01\n")
    with pytest.raises(RangeError):
        sd.load_dataset(str(tmp_path / "ds2"))

    _save(ds, tmp_path / "ds3")
    (tmp_path / "ds3" / "classes.txt").write_text("0 class_00\n1 start\n")
    with pytest.raises(ParseError, match="implicit"):
        sd.load_dataset(str(tmp_path / "ds3"))

    # two ids under one name: its frames would all read as the last id
    _save(ds, tmp_path / "ds4")
    (tmp_path / "ds4" / "classes.txt").write_text("0 class_01\n1 class_01\n")
    with pytest.raises(ParseError, match="listed twice"):
        sd.load_dataset(str(tmp_path / "ds4"))


def test_load_rejects_truncated_feature_file(tmp_path):
    ds = sd.Dataset.of([_record([0, 1, 0])], 2)
    _save(ds, tmp_path / "ds")
    feat = next((tmp_path / "ds" / "features").iterdir())
    feat.write_bytes(feat.read_bytes()[:-4])
    with pytest.raises(ParseError):
        sd.load_dataset(str(tmp_path / "ds"))


def test_missing_classes_flagged(tmp_path):
    ds = sd.Dataset.of([_record([0, 0, 2])], 4)
    assert np.flatnonzero(ds.class_frame_counts == 0).tolist() == [1, 3]
    _save(ds, tmp_path / "ds")
    loaded = sd.load_dataset(str(tmp_path / "ds"))
    assert np.flatnonzero(loaded.class_frame_counts == 0).tolist() == [1, 3]


DROP = object()


def _rewrite_manifest(tmp_path, mutate):
    """Save a two-sequence dataset, edit its manifest, return the path."""
    ds = sd.Dataset.of([_record([0, 1]), _record([1, 0], seed=1)], 2)
    _save(ds, tmp_path / "ds")
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
# uniform bytes, and the ones that keep a text file or a .npy header's
# dict parseable but wrong
_BYTE = st.one_of(st.integers(0, 255), st.sampled_from(b'0129-.e \n",\'(){}:'))
_DATASET_DAMAGE = st.tuples(
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
    name, (kind, offset, *byte) = damage
    root = tmp_path_factory.mktemp("ds")
    rng = np.random.default_rng(0)
    records = [
        (f"s{index}", labels, rng.standard_normal((2, len(labels))).astype(np.float32).T)
        for index, labels in enumerate(([0, 0, 1], [2, 1, 1, 0]))
    ]
    _save(sd.Dataset.of(records, 4), root)
    if name.startswith("features/"):
        name += ".npy"
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
