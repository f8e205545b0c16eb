"""End-to-end CLI behavior: config handling, gen/train/eval/report."""

import dataclasses
import glob
import importlib.util
import io
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltseg import _kernels
from ltseg import classifier as clf
from ltseg import cli
from ltseg import decode as dec
from ltseg import metrics as mx
from ltseg import seqdata as sd
from ltseg.errors import ConfigError, ParseError, RangeError


def write_config(path, **data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return str(path)


def small_synth(**extra):
    base = {
        "num_classes": 3,
        "feature_dim": 4,
        "num_sequences": 5,
        "mean_segments": 3.0,
        "duration_mean": 6.0,
        "mean_scale": 2.0,
        "noise_scale": 0.0,
    }
    base.update(extra)
    return base


TOO_DEEP = b"[" * 3000 + b"]" * 3000

# JSON inputs that no reader may fail on with a bare traceback
UNREADABLE_JSON = [
    pytest.param(b'{"out": "\xff"}', id="not_utf8"),
    pytest.param(TOO_DEEP, id="too_deep"),
]


def tree_bytes(root):
    """{relative path: content} for every file under root."""
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            full = os.path.join(base, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, root)] = fh.read()
    return out


# -- config handling ---------------------------------------------------------


def test_default_config_is_synthetic():
    config = cli.load_config(None)
    assert config.synthetic is not None and config.manifest is None
    assert "decode" not in cli.config_to_dict(config)
    assert config.train.rng_seed == config.seed == 0


def test_config_round_trips_through_dict():
    config = cli.load_config(None, {"seed": 7, "tau": 0.5})
    again = cli.config_from_dict(cli.config_to_dict(config))
    assert again == config
    assert cli.config_hash(again) == cli.config_hash(config)


_SYNTH_VALUES = {
    "num_classes": st.integers(2, 8),
    "feature_dim": st.integers(1, 8),
    "num_sequences": st.integers(1, 50),
    "mean_segments": st.floats(1, 20),
    "class_skew": st.floats(0, 3),
    "duration_mean": st.floats(1, 40),
    "duration_spread": st.floats(0, 1),
    "mean_scale": st.floats(0.1, 5),
    "noise_scale": st.floats(0, 5),
    "transition_skew": st.floats(0, 3),
}
_TRAIN_VALUES = {
    "epochs": st.integers(0, 5),
    "learning_rate": st.floats(1e-3, 10),
    "batch_size": st.integers(1, 16),
    "context_radius": st.integers(0, 3),
    "tau": st.floats(0, 2),
    "epsilon": st.floats(1e-3, 1),
    "gamma": st.floats(1e-3, 10),
    "loss_mode": st.sampled_from(clf.LOSS_MODES),
}
_TOP_VALUES = {
    "train": st.fixed_dictionaries({}, optional=_TRAIN_VALUES),
    "decode": st.just("sncm"),
    "head_threshold": st.none() | st.integers(1, 1000),
    "feature_format": st.sampled_from(["binary", "csv"]),
    "out": st.text(max_size=8),
    "seed": st.integers(0, 2**32),
}


@settings(database=None, derandomize=True, deadline=None)
@given(data=st.data())
def test_config_round_trip_property(tmp_path_factory, data):
    # any small valid config, from either dataset source and with any
    # subset of its keys left to the defaults, survives config_to_dict,
    # directly and through the JSON text of an echoed config.json
    manifest = tmp_path_factory.getbasetemp() / "manifest.json"
    manifest.touch()
    source = st.one_of(
        st.fixed_dictionaries(
            {"synthetic": st.fixed_dictionaries({}, optional=_SYNTH_VALUES)}
        ),
        st.just({"manifest": str(manifest)}),
    )
    raw = data.draw(st.fixed_dictionaries({"dataset": source}, optional=_TOP_VALUES))
    config = cli.config_from_dict(raw)
    assert cli.config_from_dict(cli.config_to_dict(config)) == config
    echoed = json.loads(json.dumps(cli.config_to_dict(config)))
    assert cli.config_from_dict(echoed) == config


def test_decode_key_takes_only_sncm(tmp_path, capsys):
    # report.json is always sncm's; a config may still name sncm, which is
    # not echoed, and the other decoders are refused with their reports
    config = cli.config_from_dict({"decode": "sncm"})
    assert config == cli.load_config(None)
    assert "decode" not in cli.config_to_dict(config)
    for mode in ("argmax", "ncm"):
        with pytest.raises(ConfigError, match="report_argmax.json and report_ncm.json"):
            cli.config_from_dict({"decode": mode})
        path = write_config(tmp_path / "cfg.json", decode=mode, out=str(tmp_path / "runs"))
        assert cli.main(["eval", "--config", path, "checkpoint.bin"]) == 2
        assert f"decode {mode!r}" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "runs")


def test_flag_overrides_reach_subconfigs(tmp_path):
    path = write_config(
        tmp_path / "cfg.json",
        dataset={"synthetic": small_synth()},
        train={"epochs": 3, "tau": 0.1},
        seed=1,
    )
    config = cli.load_config(
        path, {"seed": 9, "loss_mode": "plain_ce", "tau": 0.7, "out": "elsewhere"}
    )
    assert config.seed == 9
    assert config.synthetic.rng_seed == 9 and config.train.rng_seed == 9
    assert config.train.loss_mode == "plain_ce"
    assert config.train.tau == 0.7
    assert config.out_dir == "elsewhere"


_CONFIG_TYPES = (sd.SynthConfig, clf.TrainConfig)
# bases at which no other field, nor a check over several fields, is at
# fault for any value at a row's limit: one frame per expected sequence
_BOUND_BASES = {
    sd.SynthConfig: sd.SynthConfig(num_sequences=1, mean_segments=1, duration_mean=1),
    clf.TrainConfig: clf.TrainConfig(),
}


def _next_value(value, toward, kind):
    """The nearest ``kind`` (int or float) to ``value`` in the direction
    of ``toward``."""
    if kind is int:
        return value + (1 if toward > value else -1)
    return math.nextafter(value, toward)


@pytest.mark.parametrize(
    "config_type, row",
    [(kind, row) for kind in _CONFIG_TYPES for row in kind.BOUNDS],
    ids=lambda arg: "".join(map(str, arg)) if isinstance(arg, tuple) else arg.__name__,
)
def test_each_bound_row_accepts_its_limit_and_refuses_past_it(config_type, row):
    # the limit itself, or the nearest value inside it, is accepted, and
    # the nearest value outside it is refused naming the field first
    name, op, limit = row
    kind = {f.name: f.type for f in dataclasses.fields(config_type)}[name]
    inside = math.inf if op[0] == ">" else -math.inf
    edge = kind(limit)
    if op.endswith("="):
        allowed, refused = edge, _next_value(edge, -inside, kind)
    else:
        allowed, refused = _next_value(edge, inside, kind), edge
    base = _BOUND_BASES[config_type]
    accepted = dataclasses.replace(base, **{name: allowed})
    assert accepted.validate() is accepted
    with pytest.raises(ConfigError) as info:
        dataclasses.replace(base, **{name: refused}).validate()
    assert str(info.value) == f"{name} must be {op} {limit}, got {refused}"


@pytest.mark.parametrize("config_type", _CONFIG_TYPES, ids=lambda kind: kind.__name__)
def test_every_numeric_config_field_has_a_bound_row(config_type):
    # a knob added to either config lands type-checked and bounded, or
    # is named here as one that is neither an int nor a float
    fields = dataclasses.fields(config_type)
    numeric = {f.name for f in fields if f.type in (int, float)}
    assert {f.name for f in fields} - numeric <= {"loss_mode"}
    assert {name for name, _, _ in config_type.BOUNDS} == numeric


@pytest.mark.parametrize(
    "seed, message",
    [
        (-1, "rng_seed must be >= 0, got -1"),
        (1.5, "rng_seed must be an integer, got 1.5"),
        (True, "rng_seed must be an integer, got True"),
    ],
    ids=["negative", "float", "bool"],
)
def test_library_rng_seed_refused_naming_it(seed, message):
    # numpy would raise a bare ValueError or TypeError, or seed 1 for True
    synth = sd.SynthConfig(num_classes=3, feature_dim=2, num_sequences=2)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        sd.generate_synthetic(dataclasses.replace(synth, rng_seed=seed))
    dataset = sd.generate_synthetic(synth)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        clf.train(dataset, clf.TrainConfig(epochs=1, rng_seed=seed))


def test_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path / "cfg.json", datasets={})
    with pytest.raises(ConfigError, match="unknown config keys"):
        cli.load_config(path)
    path = write_config(tmp_path / "cfg2.json", train={"lr": 1.0})
    with pytest.raises(ConfigError, match="unknown train keys"):
        cli.load_config(path)


def test_config_requires_single_source(tmp_path):
    path = write_config(
        tmp_path / "cfg.json",
        dataset={"synthetic": small_synth(), "manifest": "x.json"},
    )
    with pytest.raises(ConfigError, match="exactly one dataset source"):
        cli.load_config(path)
    path = write_config(tmp_path / "cfg2.json", dataset={})
    with pytest.raises(ConfigError, match="exactly one dataset source"):
        cli.load_config(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("iou_thresholds", ["x"]),
        ("iou_thresholds", [None]),
        ("iou_thresholds", [True]),
        ("head_threshold", "x"),
        ("head_threshold", 2.5),
        ("train.epochs", 2.5),
        ("train.epochs", True),
        ("train.batch_size", 2.5),
        ("train.context_radius", 1.5),
        ("dataset.synthetic.num_sequences", 2.5),
        ("dataset.synthetic.num_classes", 3.0),
        ("dataset.synthetic.feature_dim", "4"),
        ("train.learning_rate", float("nan")),
        ("train.tau", float("inf")),
        pytest.param("train.gamma", 10**400, id="train.gamma-10**400"),
        ("dataset.synthetic.duration_spread", float("nan")),
        ("dataset.synthetic.noise_scale", float("nan")),
        ("dataset.synthetic.class_skew", float("nan")),
        ("dataset.synthetic.duration_mean", [5, 6]),
        ("seed", -1),
        ("head_threshold", 0),
        ("feature_format", "hdf5"),
        pytest.param("dataset", ["manifest.json"], id="dataset-list"),
        ("dataset.manifest", 3),
        pytest.param("dataset.synthetic", [], id="dataset.synthetic-list"),
        ("train", 30),
    ],
)
def test_config_field_of_wrong_type_named(tmp_path, capsys, field, value):
    # a dotted field sits in nested sections; errors name its last part
    *sections, field = field.split(".")
    data = {field: value}
    for section in reversed(sections):
        data = {section: data}
    path = write_config(tmp_path / "cfg.json", out=str(tmp_path / "runs"), **data)
    with pytest.raises(ConfigError, match=field):
        cli.load_config(path)
    assert cli.main(["train", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:") and field in err
    assert not os.path.exists(tmp_path / "runs")


def test_config_top_level_not_an_object_named(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("[]")
    with pytest.raises(ConfigError, match="config top level"):
        cli.load_config(str(path))
    assert cli.main(["train", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: config top level must be a JSON object\n"
    )


def test_feature_format_key_takes_only_the_old_formats():
    # features are .npy files; a config may still name either format
    # older gens wrote, which is not echoed, and any other is refused
    for name in ("binary", "csv"):
        config = cli.config_from_dict({"feature_format": name})
        assert config == cli.load_config(None)
        assert "feature_format" not in cli.config_to_dict(config)
    with pytest.raises(ConfigError, match="feature_format 'npy' is not a choice"):
        cli.config_from_dict({"feature_format": "npy"})


@pytest.mark.parametrize(
    "data, flags, field",
    [
        ({"out": 5}, [], "out"),
        ({}, ["--tau", "nan"], "tau"),
        ({}, ["--gamma", "inf"], "gamma"),
        ({}, ["--seed", "-1"], "seed"),
    ],
    ids=["out", "tau-flag", "gamma-flag", "seed-flag"],
)
def test_config_out_and_flag_values_named(
    tmp_path, monkeypatch, capsys, data, flags, field
):
    # the default output root is relative to the working directory
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path / "cfg.json", **data)
    assert cli.main(["train", "--config", path, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert not os.path.exists(tmp_path / "runs")


@pytest.mark.parametrize(
    "flags, field",
    [(["--tau", "nan"], "tau"), (["--seed", "-1"], "seed"), (["--gamma", "0"], "gamma")],
    ids=["tau", "seed", "gamma"],
)
def test_flag_value_errors_do_not_name_the_config_file(tmp_path, capsys, flags, field):
    # the file is valid, so the flag's value alone is at fault
    path = write_config(tmp_path / "cfg.json", out=str(tmp_path / "runs"),
                        train={"epochs": 1})
    assert cli.main(["train", "--config", path, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert not err.startswith(f"error: {path}:")
    assert not os.path.exists(tmp_path / "runs")


def test_config_file_values_beside_flags(tmp_path):
    # a file value that a flag replaces is not checked; any other bad
    # file value is named with the file, also beside a bad flag
    path = write_config(tmp_path / "cfg.json", seed=-1, train={"tau": "x"})
    config = cli.load_config(path, {"seed": 3, "tau": 0.5})
    assert (config.seed, config.train.tau) == (3, 0.5)
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}: tau must be"):
        cli.load_config(path, {"seed": 3, "gamma": 0.0})
    with pytest.raises(ConfigError, match="^seed must be >= 0, got -2$"):
        cli.load_config(path, {"seed": -2, "tau": 0.5})


@pytest.mark.parametrize(
    "raw", [*UNREADABLE_JSON, pytest.param(b"{", id="not_json")]
)
def test_config_file_unreadable_named(tmp_path, monkeypatch, capsys, raw):
    # the default output root is relative to the working directory
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_bytes(raw)
    with pytest.raises(ConfigError, match="cfg.json"):
        cli.load_config(str(path))
    assert cli.main(["train", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:")
    assert not os.path.exists(tmp_path / "runs")


def test_config_missing_manifest_rejected(tmp_path):
    path = write_config(
        tmp_path / "cfg.json", dataset={"manifest": str(tmp_path / "absent.json")}
    )
    with pytest.raises(ConfigError, match="does not exist"):
        cli.load_config(path)


def test_every_override_flag_lands_in_the_effective_config(tmp_path):
    # each flag's argparse dest is its config key; config.json echoes it
    path = write_config(tmp_path / "cfg.json", dataset={"synthetic": small_synth()},
                        train={"epochs": 1})
    out = tmp_path / "flagged"
    argv = ["train", "--config", path, "--loss", "plain_ce", "--tau", "0.5",
            "--epsilon", "0.8", "--gamma", "2", "--seed", "3", "--out", str(out)]
    assert cli.main(argv) == 0
    (run_dir,) = os.listdir(out)
    with open(out / run_dir / "config.json", encoding="utf-8") as fh:
        echoed = json.load(fh)
    assert echoed["train"]["loss_mode"] == "plain_ce"
    assert (echoed["train"]["tau"], echoed["train"]["epsilon"]) == (0.5, 0.8)
    assert echoed["train"]["gamma"] == 2.0
    assert (echoed["seed"], echoed["out"]) == (3, str(out))


# -- gen ---------------------------------------------------------------------


def test_gen_writes_manifest_and_counts(tmp_path):
    config = cli.load_config(
        write_config(
            tmp_path / "cfg.json",
            dataset={"synthetic": small_synth()},
            out=str(tmp_path / "runs"),
        )
    )
    stream = io.StringIO()
    run_dir = cli.cmd_gen(config, stream=stream)
    with open(os.path.join(run_dir, "dataset", "manifest.json")) as fh:
        manifest = json.load(fh)
    assert len(manifest["sequences"]) == 5
    lines = stream.getvalue().strip().splitlines()
    assert lines[0] == "class_id,name,frames"
    assert len(lines) == 1 + 3
    # printed table matches the file copy
    with open(os.path.join(run_dir, "class_counts.csv")) as fh:
        assert fh.read() == stream.getvalue()
    with open(os.path.join(run_dir, "config.json")) as fh:
        echoed = json.load(fh)
    assert cli.config_from_dict(echoed) == config


def test_gen_same_seed_byte_identical(tmp_path):
    config = cli.load_config(
        write_config(
            tmp_path / "cfg.json",
            dataset={"synthetic": small_synth(noise_scale=0.5)},
            out=str(tmp_path / "runs"),
            seed=5,
        )
    )
    first = cli.cmd_gen(config, stream=io.StringIO())
    second = cli.cmd_gen(config, stream=io.StringIO())
    assert first != second
    assert tree_bytes(first) == tree_bytes(second)


def test_gen_skewed_counts_long_tailed(tmp_path):
    config = cli.load_config(
        write_config(
            tmp_path / "cfg.json",
            dataset={
                "synthetic": small_synth(
                    num_classes=10, num_sequences=30, class_skew=1.5
                )
            },
            out=str(tmp_path / "runs"),
        )
    )
    stream = io.StringIO()
    cli.cmd_gen(config, stream=stream)
    rows = stream.getvalue().strip().splitlines()[1:]
    counts = sorted((int(r.split(",")[2]) for r in rows), reverse=True)
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[0] > counts[-1]


def test_gen_needs_synthetic_source(tmp_path):
    dataset_cfg = cli.load_config(
        write_config(
            tmp_path / "gen.json",
            dataset={"synthetic": small_synth()},
            out=str(tmp_path / "runs"),
        )
    )
    run_dir = cli.cmd_gen(dataset_cfg, stream=io.StringIO())
    manifest = os.path.join(run_dir, "dataset", "manifest.json")
    config = cli.load_config(
        write_config(tmp_path / "cfg.json", dataset={"manifest": manifest})
    )
    with pytest.raises(ConfigError, match="synthetic"):
        cli.cmd_gen(config, stream=io.StringIO())


def test_gen_unwritable_out_dir_exit_code(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    path = write_config(
        tmp_path / "cfg.json",
        dataset={"synthetic": small_synth()},
        out=str(blocker / "runs"),
    )
    assert cli.main(["gen", "--config", path]) == 2


@pytest.mark.parametrize(
    "field, value",
    [
        ("class_skew", 2000.0),
        ("transition_skew", 1e300),
        ("mean_segments", 1e300),
        ("duration_spread", 1e300),
        ("noise_scale", 1e300),
        # each field below its own bound, but the expected frame count
        # num_sequences * mean_segments * duration_mean reaches 2**31
        pytest.param("num_sequences", 10**400, id="num_sequences-10**400"),
        ("num_sequences", 2**31),
        ("num_sequences", 2**31 // 18 + 1),
        ("mean_segments", 2.0**31 - 1),
        ("duration_mean", 2.0**30),
        # the class means [L, D] or the successor table [L+1, L] would
        # hold 2**31 entries or more
        ("num_classes", 10**12),
        ("feature_dim", 10**12),
    ],
)
def test_gen_extreme_synthetic_values_exit_2(tmp_path, capsys, field, value):
    path = write_config(
        tmp_path / "cfg.json",
        dataset={"synthetic": small_synth(**{field: value})},
        out=str(tmp_path / "runs"),
    )
    assert cli.main(["gen", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert not os.path.exists(tmp_path / "runs")


@pytest.mark.parametrize("root_exists", [False, True])
def test_gen_refused_mid_draw_leaves_only_what_was_there(
    tmp_path, capsys, monkeypatch, root_exists
):
    # gen writes each sequence as it is drawn; a sequence the generator
    # refuses after others were written removes the run directory, and
    # the output root (with its new parents) when gen made it
    draw = sd.draw_synthetic

    def refuse_second(config):
        draws = draw(config)
        yield next(draws)
        raise ConfigError("noise_scale puts the features of seq_0001 outside")

    monkeypatch.setattr(sd, "draw_synthetic", refuse_second)
    root = tmp_path / "out" / "runs"
    if root_exists:
        root.mkdir(parents=True)
    path = write_config(tmp_path / "cfg.json", dataset={"synthetic": small_synth()},
                        out=str(root))
    assert cli.main(["gen", "--config", path]) == 2
    assert "noise_scale" in capsys.readouterr().err
    if root_exists:
        assert os.listdir(root) == []
    else:
        assert not os.path.exists(tmp_path / "out")


def test_gen_holds_one_sequence_at_a_time(tmp_path):
    # gen streams: its tracemalloc peak stays below the dataset's own
    # float32 features, which generate_synthetic's dataset holds
    synth = small_synth(num_sequences=60, feature_dim=32, duration_mean=40.0)
    config = cli.load_config(write_config(tmp_path / "cfg.json",
                                          dataset={"synthetic": synth},
                                          out=str(tmp_path / "runs")))
    features = 4 * 32 * sd.generate_synthetic(config.synthetic).total_frames
    tracemalloc.start()
    try:
        run_dir = cli.cmd_gen(config, stream=io.StringIO())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < features / 2, (peak, features)
    loaded = sd.load_dataset(os.path.join(run_dir, "dataset"))
    assert 4 * 32 * loaded.total_frames == features


# -- train -------------------------------------------------------------------


def test_train_refuses_context_radius_past_draw_limit(tmp_path, capsys):
    # the weights [L, D*(2w+1)] and the window padding [2wS, D] would
    # hold 2**31 entries or more; refused before either is allocated
    path = write_config(
        tmp_path / "cfg.json",
        dataset={"synthetic": small_synth()},
        train={"context_radius": 10**12},
        out=str(tmp_path / "runs"),
    )
    assert cli.main(["train", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "context_radius" in err


@pytest.mark.parametrize("source", ["synthetic", "manifest"])
def test_refused_train_leaves_no_run_directory(tmp_path, capsys, source):
    # train checks its config, and the radius against the dataset, before
    # it makes the run directory, as gen does
    dataset = {"synthetic": small_synth()}
    if source == "manifest":
        gen = write_config(tmp_path / "gen.json", dataset=dataset,
                           out=str(tmp_path / "gen"))
        gen_dir = cli.cmd_gen(cli.load_config(gen), stream=io.StringIO())
        dataset = {"manifest": os.path.join(gen_dir, "dataset", "manifest.json")}
    path = write_config(
        tmp_path / "cfg.json",
        dataset=dataset,
        train={"context_radius": 10**12},
        out=str(tmp_path / "runs"),
    )
    assert cli.main(["train", "--config", path]) == 2
    assert "context_radius" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "runs")


def test_train_writes_checkpoint_and_telemetry(tmp_path):
    config = cli.load_config(
        write_config(
            tmp_path / "cfg.json",
            dataset={"synthetic": small_synth()},
            train={"epochs": 2, "learning_rate": 0.2},
            out=str(tmp_path / "runs"),
        )
    )
    run_dir, code = cli.cmd_train(config)
    assert code == 0
    params, epoch = clf.load_checkpoint(os.path.join(run_dir, "checkpoint.bin"))
    assert epoch == 2 and params.num_classes == 3
    with open(os.path.join(run_dir, "telemetry.jsonl")) as fh:
        records = [json.loads(line) for line in fh]
    assert [r["epoch"] for r in records] == [0, 1]
    for record in records:
        assert {"lagrangian", "mean_trans_acc", "lambda_max", "loss"} <= set(record)


TELEMETRY_KEYS = {
    "epoch", "loss", "lagrangian", "mean_trans_acc", "lambda_min",
    "lambda_mean", "lambda_max", "violations",
}


@pytest.mark.parametrize("loss_mode", clf.LOSS_MODES)
def test_train_telemetry_fields_in_every_mode(tmp_path, loss_mode):
    # every mode logs its learning state; only cost_sensitive moves the
    # multipliers, which on this noisy data it does by the last epoch
    config = cli.load_config(
        write_config(
            tmp_path / "cfg.json",
            dataset={"synthetic": small_synth(noise_scale=1.5)},
            train={"epochs": 3, "loss_mode": loss_mode},
            out=str(tmp_path / "runs"),
        )
    )
    run_dir, code = cli.cmd_train(config)
    assert code == 0
    with open(os.path.join(run_dir, "telemetry.jsonl")) as fh:
        records = [json.loads(line) for line in fh]
    assert [r["epoch"] for r in records] == [0, 1, 2]
    assert all(set(r) == TELEMETRY_KEYS for r in records)
    if loss_mode == "cost_sensitive":
        assert records[-1]["lambda_max"] > 0
    else:
        for key in ("lambda_min", "lambda_mean", "lambda_max"):
            assert [r[key] for r in records] == [0.0, 0.0, 0.0]


def test_train_zero_epochs_keeps_initialization(tmp_path):
    config = cli.load_config(
        write_config(
            tmp_path / "cfg.json",
            dataset={"synthetic": small_synth()},
            train={"epochs": 0},
            out=str(tmp_path / "runs"),
        )
    )
    run_dir, code = cli.cmd_train(config)
    assert code == 0
    params, epoch = clf.load_checkpoint(os.path.join(run_dir, "checkpoint.bin"))
    assert epoch == 0
    assert not params.weights.any() and not params.bias.any()
    with open(os.path.join(run_dir, "telemetry.jsonl")) as fh:
        assert fh.read() == ""


def test_train_seeded_reruns_identical(tmp_path):
    path = write_config(
        tmp_path / "cfg.json",
        dataset={"synthetic": small_synth(noise_scale=0.4)},
        train={"epochs": 3},
        out=str(tmp_path / "runs"),
        seed=11,
    )
    first, code_a = cli.cmd_train(cli.load_config(path))
    second, code_b = cli.cmd_train(cli.load_config(path))
    assert code_a == code_b == 0
    assert tree_bytes(first) == tree_bytes(second)


def test_train_checkpoint_independent_of_blas_threads(tmp_path):
    # the float64 weights may differ in the last bits across BLAS thread
    # counts; the float32 checkpoint must not
    path = write_config(
        tmp_path / "cfg.json",
        dataset={"synthetic": {"num_classes": 6, "num_sequences": 60}},
        train={"epochs": 5},
        seed=4,
    )
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    checkpoints = []
    for threads in ("1", "2"):
        out = tmp_path / f"runs_{threads}"
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            PYTHONPATH=os.pathsep.join(
                filter(None, [package_root, os.environ.get("PYTHONPATH")])
            ),
        )
        subprocess.run(
            [sys.executable, "-m", "ltseg.cli", "train", "--config", path,
             "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        (run_dir,) = os.listdir(out)
        checkpoints.append((out / run_dir / "checkpoint.bin").read_bytes())
    assert checkpoints[0] == checkpoints[1]


def test_train_rerun_from_echoed_config_identical(tmp_path):
    config = cli.load_config(
        write_config(
            tmp_path / "cfg.json",
            dataset={"synthetic": small_synth(noise_scale=0.3)},
            train={"epochs": 2},
            out=str(tmp_path / "runs"),
            seed=3,
        )
    )
    first, _ = cli.cmd_train(config)
    rerun = cli.load_config(os.path.join(first, "config.json"))
    second, _ = cli.cmd_train(rerun)
    assert tree_bytes(first) == tree_bytes(second)


def test_train_divergence_nonzero_exit(tmp_path):
    path = write_config(
        tmp_path / "cfg.json",
        dataset={"synthetic": small_synth(noise_scale=0.2)},
        train={"epochs": 4, "learning_rate": 1e308, "loss_mode": "plain_ce"},
        out=str(tmp_path / "runs"),
    )
    stream = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        run_dir, code = cli.cmd_train(cli.load_config(path), stream=stream)
    assert code == 1
    assert "diverged" in stream.getvalue()
    assert not os.path.exists(os.path.join(run_dir, "checkpoint.bin"))


# -- eval --------------------------------------------------------------------


def _train_small(tmp_path, **synth_extra):
    config = cli.load_config(
        write_config(
            tmp_path / "train.json",
            dataset={"synthetic": small_synth(**synth_extra)},
            train={"epochs": 12, "learning_rate": 0.5, "loss_mode": "plain_ce"},
            out=str(tmp_path / "runs"),
        )
    )
    run_dir, code = cli.cmd_train(config)
    assert code == 0
    return config, os.path.join(run_dir, "checkpoint.bin")


def test_eval_separable_scores_near_perfect(tmp_path):
    config, checkpoint = _train_small(tmp_path)
    run_dir = cli.cmd_eval(config, checkpoint)
    with open(os.path.join(run_dir, "report.json")) as fh:
        report = json.load(fh)
    assert report["global_acc"] >= 99.0
    assert report["per_class_acc"] >= 99.0
    assert report["edit_score"] >= 99.0
    for block in report["f1_at"].values():
        assert block["global"] >= 99.0 and block["per_class"] >= 99.0


def test_eval_sncm_reports_frame_ncm_supplement(tmp_path):
    config, checkpoint = _train_small(tmp_path, noise_scale=1.2, mean_scale=0.8)
    run_dir = cli.cmd_eval(config, checkpoint)
    with open(os.path.join(run_dir, "report.json")) as fh:
        sncm_report = json.load(fh)
    with open(os.path.join(run_dir, "report_ncm.json")) as fh:
        ncm_report = json.load(fh)
    assert sncm_report["edit_score"] >= ncm_report["edit_score"]


def test_eval_reports_read_back_through_report(tmp_path, capsys):
    # F1 is scored at the thresholds report reads, and a config cannot
    # name others, so every report eval writes is one report accepts
    config, checkpoint = _train_small(tmp_path)
    data = cli.config_to_dict(config)
    path = write_config(tmp_path / "f1.json", **{**data, "iou_thresholds": [0.3]})
    assert cli.main(["eval", "--config", path, checkpoint]) == 2
    assert "iou_thresholds" in capsys.readouterr().err
    path = write_config(tmp_path / "eval.json", **data)
    assert cli.main(["eval", "--config", path, checkpoint]) == 0
    (report,) = glob.glob(os.path.join(data["out"], "*", "report.json"))
    reports = [report] + [
        os.path.join(os.path.dirname(report), f"report_{mode}.json")
        for mode in ("ncm", "argmax")
    ]
    capsys.readouterr()
    assert cli.main(["report", *reports]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + len(reports)


def test_eval_writes_every_decoders_report(tmp_path):
    # one eval writes all three reports, report.json from sncm; the noisy
    # data keeps the decoders' reports pairwise apart
    config, checkpoint = _train_small(tmp_path, noise_scale=1.2, mean_scale=0.8)
    run_dir = cli.cmd_eval(config, checkpoint)
    for ext in ("json", "csv"):
        texts = set()
        for name in ("report", "report_ncm", "report_argmax"):
            with open(os.path.join(run_dir, f"{name}.{ext}"), "rb") as fh:
                texts.add(fh.read())
        assert len(texts) == 3


def test_eval_underlearned_tail_gap(tmp_path):
    config = cli.load_config(
        write_config(
            tmp_path / "cfg.json",
            dataset={
                "synthetic": small_synth(
                    num_classes=6,
                    num_sequences=12,
                    class_skew=2.0,
                    noise_scale=1.0,
                    mean_scale=0.6,
                )
            },
            train={"epochs": 2, "learning_rate": 0.1, "loss_mode": "plain_ce"},
            out=str(tmp_path / "runs"),
            head_threshold=60,
        )
    )
    run_dir, code = cli.cmd_train(config)
    assert code == 0
    out = cli.cmd_eval(config, os.path.join(run_dir, "checkpoint.bin"))
    with open(os.path.join(out, "report_argmax.json")) as fh:
        report = json.load(fh)
    assert report["global_acc"] > report["per_class_acc"]
    assert "head" in report["group"] and "tail" in report["group"]


def test_eval_dimension_mismatch(tmp_path):
    config, checkpoint = _train_small(tmp_path)
    wrong = cli.config_from_dict(
        {
            **cli.config_to_dict(config),
            "dataset": {"synthetic": small_synth(feature_dim=6)},
        }
    )
    with pytest.raises(ConfigError, match="features"):
        cli.cmd_eval(wrong, checkpoint)
    wrong = cli.config_from_dict(
        {
            **cli.config_to_dict(config),
            "dataset": {"synthetic": small_synth(num_classes=4)},
        }
    )
    with pytest.raises(ConfigError, match="classes"):
        cli.cmd_eval(wrong, checkpoint)


def test_eval_never_mutates_inputs(tmp_path):
    gen_config = cli.load_config(
        write_config(
            tmp_path / "gen.json",
            dataset={"synthetic": small_synth(noise_scale=0.5)},
            out=str(tmp_path / "runs"),
        )
    )
    gen_dir = cli.cmd_gen(gen_config, stream=io.StringIO())
    manifest = os.path.join(gen_dir, "dataset", "manifest.json")
    config = cli.load_config(
        write_config(
            tmp_path / "eval.json",
            dataset={"manifest": manifest},
            train={"epochs": 2},
            out=str(tmp_path / "runs"),
        )
    )
    train_dir, _ = cli.cmd_train(config)
    checkpoint = os.path.join(train_dir, "checkpoint.bin")
    before = tree_bytes(os.path.join(gen_dir, "dataset"))
    with open(checkpoint, "rb") as fh:
        checkpoint_before = fh.read()
    cli.cmd_eval(config, checkpoint)
    assert tree_bytes(os.path.join(gen_dir, "dataset")) == before
    with open(checkpoint, "rb") as fh:
        assert fh.read() == checkpoint_before


# the config carries the compat key "sncm"
def test_eval_sncm_runs_ncm_once_per_sequence(tmp_path, monkeypatch):
    config, checkpoint = _train_small(tmp_path, noise_scale=1.2, mean_scale=0.8)
    config = cli.config_from_dict({**cli.config_to_dict(config), "decode": "sncm"})
    params, _ = clf.load_checkpoint(checkpoint)
    dataset = cli._resolve_dataset(config)
    means = dec.compute_class_means(
        dataset, dec.windowed_extractor(params.context_radius)
    )
    truths = [sequence.frame_labels for sequence in dataset.sequences]
    want = {}
    for name, mode in (
        ("report", "sncm"),
        ("report_ncm", "ncm"),
        ("report_argmax", "argmax"),
    ):
        predictions = [
            dec.decode_sequence(params, sequence, mode, means=means)
            for sequence in dataset.sequences
        ]
        report = mx.evaluate(predictions, truths, dataset.num_classes)
        want[name] = json.loads(json.dumps(mx.report_to_dict(report)))
    calls = []
    ncm_predict = dec.ncm_predict

    def counted(*args):
        calls.append(1)
        return ncm_predict(*args)

    stores = []
    window_store = _kernels.window_store

    def counted_store(feature_list, radius):
        stores.append(len(feature_list))
        return window_store(feature_list, radius)

    monkeypatch.setattr(dec, "ncm_predict", counted)
    monkeypatch.setattr(_kernels, "window_store", counted_store)
    run_dir = cli.cmd_eval(config, checkpoint)
    assert len(calls) == len(dataset.sequences)
    # each sequence is windowed once, and its windows feed NCM and the
    # classifier
    assert stores == [1] * len(dataset.sequences)
    for name, report in want.items():
        with open(os.path.join(run_dir, f"{name}.json")) as fh:
            assert json.load(fh) == report


def _rotate_labels(dataset_dir):
    """Give every frame of a dataset directory the next class's name."""
    names = [
        line.split()[1]
        for line in (dataset_dir / "classes.txt").read_text().splitlines()
    ]
    rotate = {name: names[(i + 1) % len(names)] for i, name in enumerate(names)}
    for path in (dataset_dir / "groundTruth").iterdir():
        tokens = path.read_text().split()
        path.write_text("".join(rotate[token] + "\n" for token in tokens))


# the config carries the compat key "sncm"
def test_eval_predictions_ignore_eval_labels(tmp_path, monkeypatch):
    # eval decodes with the training split's class means and takes the
    # head set from its frame counts, so relabelling the scored split may
    # change the scores but never the predictions or the head set
    gen_dir = cli.cmd_gen(
        cli.load_config(
            write_config(
                tmp_path / "gen.json",
                dataset={"synthetic": small_synth(noise_scale=1.2, mean_scale=0.8)},
                out=str(tmp_path / "runs"),
            )
        ),
        stream=io.StringIO(),
    )
    dataset_dir = pathlib.Path(gen_dir) / "dataset"
    relabelled = tmp_path / "relabelled"
    shutil.copytree(dataset_dir, relabelled)
    _rotate_labels(relabelled)

    def config_for(root):
        return cli.load_config(
            write_config(
                tmp_path / "cfg.json",
                dataset={"manifest": str(root / "manifest.json")},
                train={"epochs": 4, "learning_rate": 0.5},
                decode="sncm",
                head_threshold=20,
                out=str(tmp_path / "runs"),
            )
        )

    train_dir, code = cli.cmd_train(config_for(dataset_dir))
    assert code == 0
    checkpoint = os.path.join(train_dir, "checkpoint.bin")
    decoded, heads = [], []
    evaluate = mx.evaluate

    def capture(predictions, truths, *args, **kwargs):
        decoded.append([np.array(p) for p in predictions])
        heads.append(kwargs["head"])
        return evaluate(predictions, truths, *args, **kwargs)

    monkeypatch.setattr(mx, "evaluate", capture)
    cli.cmd_eval(config_for(dataset_dir), checkpoint)
    cli.cmd_eval(config_for(relabelled), checkpoint)
    half = len(decoded) // 2
    assert half == 3
    for original, permuted in zip(decoded[:half], decoded[half:]):
        for a, b in zip(original, permuted, strict=True):
            np.testing.assert_array_equal(a, b)
    train_counts = cli._resolve_dataset(config_for(dataset_dir)).class_frame_counts
    want_head, _ = sd.head_tail_split(train_counts, 20)
    assert heads == [want_head] * len(heads)
    relabelled_counts = cli._resolve_dataset(config_for(relabelled)).class_frame_counts
    assert sd.head_tail_split(relabelled_counts, 20)[0] != want_head


def _only_run_dir(out_dir):
    (run,) = os.listdir(out_dir)
    return os.path.join(out_dir, run)


def _perfbench_run():
    """perfbench/run.py as a module, loaded by path beside its tracer."""
    bench = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
    sys.path.insert(0, str(bench))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(bench))
    return module


def test_perfbench_tracer_targets_resolve():
    # every function perfbench traces still exists under its name: the
    # unresolved targets are at most the six that name deleted code,
    # which the traced smoke run in CI also accepts; any other would read
    # 0 calls in every benchmark run
    run = _perfbench_run()
    resolve = sys.modules[run.Tracer.__module__]._resolve
    absent = {target.name for target in run.TARGETS if resolve(target) is None}
    assert absent <= {
        "confusion.compute_confusion",
        "costsens.frame_weights",
        "costsens.update_multipliers",
        "costsens.telemetry_record",
        "kernels.window_stack",
        "kernels.count_confusion_into",
    }, sorted(absent)


def test_benchmark_step5_equals_eval_report(tmp_path, capsys):
    # perfbench/run.py's protocol in small: gen, train and test manifests
    # over gen's files, train and eval through main with configs shaped
    # like run_repeat's (the "decode" key included), then the benchmark's
    # own step 5, score_quality, whose five scores are report.json's
    gen = write_config(
        tmp_path / "gen.json",
        dataset={"synthetic": small_synth(num_sequences=8, num_classes=4,
                                          class_skew=1.5, noise_scale=1.2,
                                          mean_scale=0.8)},
        feature_format="binary",
        seed=3,
    )
    assert cli.main(["gen", "--config", gen, "--out", str(tmp_path / "gen")]) == 0
    dataset_dir = os.path.join(_only_run_dir(tmp_path / "gen"), "dataset")
    with open(os.path.join(dataset_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    entries = manifest["sequences"]
    manifests = []
    for name, part in (("train", entries[:6]), ("test", entries[6:])):
        manifests.append(os.path.join(dataset_dir, f"manifest_{name}.json"))
        write_config(manifests[-1], **dict(manifest, sequences=part))
    threshold = int(sd.load_dataset(manifests[0]).class_frame_counts.max())
    configs = [
        write_config(
            tmp_path / f"{split}.json",
            dataset={"manifest": path},
            train={"epochs": 4, "loss_mode": "cost_sensitive"},
            decode="sncm",
            head_threshold=threshold,
            seed=3,
        )
        for split, path in zip(("train", "test"), manifests)
    ]
    train_out, eval_out = str(tmp_path / "train"), str(tmp_path / "eval")
    assert cli.main(["train", "--config", configs[0], "--out", train_out]) == 0
    checkpoint = os.path.join(_only_run_dir(train_out), "checkpoint.bin")
    assert cli.main(["eval", "--config", configs[1], "--out", eval_out, checkpoint]) == 0
    capsys.readouterr()

    run = _perfbench_run()
    quality, sizes = run.score_quality(
        types.SimpleNamespace(head_threshold=threshold), checkpoint, *manifests
    )
    assert sizes["head_classes"] and sizes["tail_classes"]
    eval_dir = _only_run_dir(eval_out)
    with open(os.path.join(eval_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    written = {
        "per_class_acc": report["per_class_acc"],
        "edit_score": report["edit_score"],
        "f1_25_per_class": report["f1_at"]["0.25"]["per_class"],
        "tail_per_class_acc": report["group"]["tail"]["per_class_acc"],
        "tail_f1_25": report["group"]["tail"]["per_class_f1_25"],
    }
    assert set(quality) == set(written) == set(run.QUALITY_METRICS)
    # report.json carries two decimals
    for name, score in quality.items():
        assert round(score, 2) == written[name], name
    with open(os.path.join(eval_dir, "config.json"), encoding="utf-8") as fh:
        assert "decode" not in json.load(fh)


def test_eval_checkpoint_without_class_means_exits_2(tmp_path, capsys):
    # a checkpoint that stops after the float32 weights and bias, the
    # layout written before the class means were stored, is refused
    config, checkpoint = _train_small(tmp_path)
    params, _ = clf.load_checkpoint(checkpoint)
    old = tmp_path / "old.bin"
    with open(checkpoint, "rb") as fh:
        header = fh.readline()
        old.write_bytes(header + fh.read(4 * (params.weights.size + params.bias.size)))
    path = write_config(tmp_path / "eval.json", **cli.config_to_dict(config))
    capsys.readouterr()
    assert cli.main(["eval", "--config", path, str(old)]) == 2
    assert f"error: {old}: payload holds" in capsys.readouterr().err


@pytest.mark.parametrize("header", UNREADABLE_JSON)
def test_eval_unreadable_checkpoint_header_exits_2(tmp_path, capsys, header):
    config, checkpoint = _train_small(tmp_path)
    with open(checkpoint, "rb") as fh:
        fh.readline()
        payload = fh.read()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(header + b"\n" + payload)
    with pytest.raises(ParseError, match="bad.bin"):
        clf.load_checkpoint(bad)
    path = write_config(tmp_path / "eval.json", **cli.config_to_dict(config))
    capsys.readouterr()
    assert cli.main(["eval", "--config", path, str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}:")


def test_main_eval_malformed_manifest_exits_2(tmp_path, capsys):
    gen_config = cli.load_config(
        write_config(
            tmp_path / "gen.json",
            dataset={"synthetic": small_synth()},
            out=str(tmp_path / "runs"),
        )
    )
    gen_dir = cli.cmd_gen(gen_config, stream=io.StringIO())
    manifest = os.path.join(gen_dir, "dataset", "manifest.json")
    path = write_config(
        tmp_path / "eval.json",
        dataset={"manifest": manifest},
        train={"epochs": 1},
        out=str(tmp_path / "runs"),
    )
    train_dir, _ = cli.cmd_train(cli.load_config(path))
    with open(manifest) as fh:
        data = json.load(fh)
    del data["sequences"][0]["labels"]
    with open(manifest, "w") as fh:
        json.dump(data, fh)
    capsys.readouterr()
    checkpoint = os.path.join(train_dir, "checkpoint.bin")
    assert cli.main(["eval", "--config", path, checkpoint]) == 2
    assert f"error: {manifest}" in capsys.readouterr().err


def _not_utf8(path, line):
    """Put a byte that is not UTF-8 into ``line`` (1-based) of a file."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[line - 1] = b"\xff" + lines[line - 1]
    path.write_bytes(b"".join(lines))
    return [f"{path}:{line}:"]


def _edit_entries(manifest_path, edit):
    data = json.loads(manifest_path.read_text(encoding="utf-8"))
    edit(data["sequences"])
    manifest_path.write_text(json.dumps(data), encoding="utf-8")


def _break_classes(root):
    return _not_utf8(root / "classes.txt", 2)


def _break_labels(root):
    return _not_utf8(next((root / "groundTruth").iterdir()), 3)


def _break_manifest(root):
    return _not_utf8(root / "manifest.json", 4)


def _nul_in_labels_path(root):
    _edit_entries(root / "manifest.json", lambda e: e[1].update(labels="a\0b.txt"))
    return [str(root / "manifest.json"), "entry 1"]


def _nul_in_features_path(root):
    _edit_entries(root / "manifest.json", lambda e: e[0].update(features="f\0.npy"))
    return [str(root / "manifest.json"), "entry 0"]


def _duplicate_id(root):
    _edit_entries(root / "manifest.json", lambda e: e[3].update(id=e[1]["id"]))
    return [str(root / "manifest.json"), "entries 1 and 3", "'seq_0001'"]


def _nan_in_binary_features(root):
    entry = json.loads((root / "manifest.json").read_text())["sequences"][0]
    path = root / entry["features"]
    with open(path, "r+b") as fh:
        fh.seek(-4 * 5, os.SEEK_END)  # into the last frame's data bytes
        fh.write(np.array([np.nan], dtype="<f4").tobytes())
    return [str(path), "non-finite"]


def _npy_features(root, write):
    """Rewrite sequence 0's features, read as numpy's (D, T) array, with
    ``write(path, features)``."""
    path = root / "features" / "seq_0000.npy"
    write(path, np.load(path))
    return [str(path)]


def _inf_in_npy_features(root):
    def write(path, features):
        features[2, 3] = np.inf
        np.save(path, features)  # in the Fortran order it was read in

    return [*_npy_features(root, write), "non-finite"]


def _float64_npy_features(root):
    return [*_npy_features(root, lambda p, f: np.save(p, f.astype(np.float64))), "<f8"]


def _c_order_npy_features(root):
    saved = _npy_features(root, lambda p, f: np.save(p, np.ascontiguousarray(f)))
    return [*saved, "fortran_order False"]


def _one_dim_npy_features(root):
    return [*_npy_features(root, lambda p, f: np.save(p, f.ravel("F"))), ",)"]


def _version_2_npy_features(root):
    def write(path, features):
        with open(path, "wb") as fh:
            np.lib.format.write_array(fh, features, version=(2, 0))

    return [*_npy_features(root, write), "version 2.0"]


def _trailing_byte_npy_features(root):
    path = root / "features" / "seq_0000.npy"
    size = np.load(path).nbytes
    path.write_bytes(path.read_bytes() + b"\0")
    return [str(path), f", {size + 1} data bytes;"]


def _deep_manifest(root):
    (root / "manifest.json").write_bytes(TOO_DEEP)
    return [f"{root / 'manifest.json'}:", "nested"]


def _no_sequences(root):
    _edit_entries(root / "manifest.json", lambda e: e.clear())
    return [str(root / "manifest.json"), "'sequences'"]


@pytest.mark.parametrize(
    "corrupt, error",
    [
        pytest.param(corrupt, error, id=corrupt.__name__)
        for corrupt, error in (
            (_break_classes, ParseError),
            (_break_labels, ParseError),
            (_break_manifest, ParseError),
            (_nul_in_labels_path, ParseError),
            (_nul_in_features_path, ParseError),
            (_duplicate_id, ParseError),
            (_nan_in_binary_features, RangeError),
            (_inf_in_npy_features, RangeError),
            (_float64_npy_features, ParseError),
            (_c_order_npy_features, ParseError),
            (_one_dim_npy_features, ParseError),
            (_version_2_npy_features, ParseError),
            (_trailing_byte_npy_features, ParseError),
            (_no_sequences, ParseError),
            (_deep_manifest, ParseError),
        )
    ],
)
def test_main_train_malformed_dataset_names_file(tmp_path, capsys, corrupt, error):
    gen_config = cli.load_config(
        write_config(
            tmp_path / "gen.json",
            dataset={"synthetic": small_synth()},
            out=str(tmp_path / "runs"),
        )
    )
    root = pathlib.Path(cli.cmd_gen(gen_config, stream=io.StringIO())) / "dataset"
    expected = corrupt(root)
    with pytest.raises(error):
        sd.load_dataset(str(root))
    path = write_config(
        tmp_path / "train.json",
        dataset={"manifest": str(root / "manifest.json")},
        train={"epochs": 1},
        out=str(tmp_path / "runs"),
    )
    capsys.readouterr()
    assert cli.main(["train", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    for part in expected:
        assert part in err


# -- report ------------------------------------------------------------------


def _fake_report(path, predictions, truths, num_classes=3):
    report = mx.evaluate(predictions, truths, num_classes)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(mx.report_to_dict(report), fh)
    return str(path)


def test_report_single_baseline_zero_deltas(tmp_path):
    truth = [np.array([0, 0, 1, 1, 2, 2])]
    path = _fake_report(tmp_path / "a.json", truth, truth)
    stream = io.StringIO()
    assert cli.cmd_report([path], stream=stream) == 0
    lines = stream.getvalue().strip().splitlines()
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == path
    # value, delta pairs: every delta is +0.00
    assert cells[2::2] == ["+0.00"] * 5


def test_report_deltas_are_differences(tmp_path):
    truth = [np.array([0, 0, 1, 1, 2, 2, 0, 0])]
    rough = [np.array([0, 0, 1, 0, 2, 2, 1, 0])]
    base = _fake_report(tmp_path / "base.json", rough, truth)
    best = _fake_report(tmp_path / "best.json", truth, truth)
    stream = io.StringIO()
    out_dir = tmp_path / "cmp"
    cli.cmd_report([base, best], stream=stream, out_dir=str(out_dir))
    with open(out_dir / "comparison.json") as fh:
        table = json.load(fh)
    with open(base) as fh:
        base_data = json.load(fh)
    with open(best) as fh:
        best_data = json.load(fh)
    row = table[1]
    want = round(
        best_data["f1_at"]["0.25"]["per_class"] - base_data["f1_at"]["0.25"]["per_class"],
        2,
    )
    assert row["delta_per_class_f1@0.25"] == pytest.approx(want)
    assert row["delta_per_class_acc"] == pytest.approx(
        round(best_data["per_class_acc"] - base_data["per_class_acc"], 2)
    )
    assert table[0]["delta_global_f1@0.25"] == 0.0
    with open(out_dir / "comparison.csv") as fh:
        assert fh.read() == stream.getvalue()


def test_report_rows_keep_input_order(tmp_path):
    truth = [np.array([0, 1, 2, 2])]
    paths = [
        _fake_report(tmp_path / name, truth, truth)
        for name in ("c.json", "a.json", "b.json")
    ]
    stream = io.StringIO()
    cli.cmd_report(paths, stream=stream)
    rows = [line.split(",")[0] for line in stream.getvalue().strip().splitlines()[1:]]
    assert rows == paths


def test_report_heterogeneous_classes_rejected(tmp_path):
    three = _fake_report(tmp_path / "three.json", [np.array([0, 1, 2])], [np.array([0, 1, 2])])
    four = _fake_report(
        tmp_path / "four.json",
        [np.array([0, 1, 2, 3])],
        [np.array([0, 1, 2, 3])],
        num_classes=4,
    )
    assert cli.main(["report", three, four]) == 2


def test_report_missing_threshold_named(tmp_path):
    truth = [np.array([0, 1, 1])]
    report = mx.evaluate(truth, truth, 2, thresholds=(0.25,))
    path = tmp_path / "partial.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(mx.report_to_dict(report), fh)
    with pytest.raises(ConfigError, match="missing report field"):
        cli.cmd_report([str(path)], stream=io.StringIO())


def _report_with_counts(counts):
    """A report that is well formed except, perhaps, for ``counts``."""
    f1_at = {key: {"per_class": 1.0, "global": 1.0} for key in cli.REPORT_F1_KEYS}
    return {"f1_at": f1_at, "per_class_acc": 1.0, "counts": counts}


@pytest.mark.parametrize(
    "content",
    [
        [1, 2],
        7,
        {"f1_at": [], "per_class_acc": 1.0, "counts": [1]},
        {
            "f1_at": {
                "0.10": {"per_class": 1.0},
                "0.25": {"per_class": 1.0, "global": 1.0},
                "0.50": {"per_class": 1.0},
            },
            "per_class_acc": "high",
            "counts": [1],
        },
        {
            "f1_at": {
                "0.10": {"per_class": 1.0},
                "0.25": {"per_class": 1.0, "global": 1.0},
                "0.50": {"per_class": 1.0},
            },
            "per_class_acc": 1.0,
            "counts": "abc",
        },
        # every count must be a non-negative int, never a bool
        _report_with_counts(["abc", None, 1]),
        _report_with_counts([1, True, 2]),
        _report_with_counts([1, -1, 2]),
        _report_with_counts([1, 2.0, 3]),
        _report_with_counts([[1], 2, 3]),
        *UNREADABLE_JSON,
    ],
)
def test_report_malformed_file_named(tmp_path, capsys, content):
    path = str(tmp_path / "bad.json")
    if isinstance(content, bytes):
        pathlib.Path(path).write_bytes(content)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(content, fh)
    with pytest.raises(ConfigError, match="bad.json"):
        cli.cmd_report([path], stream=io.StringIO())
    assert cli.main(["report", path]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}")


@pytest.fixture(scope="module")
def real_report(tmp_path_factory):
    """The bytes of a report.json that eval wrote."""
    config, checkpoint = _train_small(tmp_path_factory.mktemp("real_report"))
    run_dir = cli.cmd_eval(config, checkpoint)
    return pathlib.Path(run_dir, "report.json").read_bytes()


def _json_paths(node, path=()):
    """The key path of every value below ``node``: object keys, list indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


_REPORT_DAMAGE = st.one_of(
    st.tuples(st.just("drop"), st.integers(0, 10**6)),
    st.tuples(
        st.just("replace"),
        st.integers(0, 10**6),
        # "abc" is as long as the report's 3-class counts list
        st.sampled_from(["abc", "", True, False, None, 10**400, [], [1.5, 2.5]]),
    ),
    st.tuples(st.just("top"), st.sampled_from([[], [1, 2], "report", 7, None])),
    st.tuples(st.just("not_utf8"), st.integers(0, 10**6)),
    st.tuples(st.sampled_from(["delete", "directory"])),
)


@settings(database=None, derandomize=True, deadline=None, max_examples=300)
@given(damage=_REPORT_DAMAGE)
def test_damaged_report_compares_or_fails_named(tmp_path_factory, real_report, damage):
    # a real report with a dropped key, a value replaced by another JSON
    # type or a huge int, a top level that is not an object, a byte that
    # is not UTF-8, or deleted or replaced by a directory: report either
    # compares it against the intact copy or raises a ConfigError naming it
    kind, *args = damage
    root = tmp_path_factory.mktemp("report")
    good, path = root / "good.json", root / "damaged.json"
    good.write_bytes(real_report)
    data = json.loads(real_report)
    if kind in ("drop", "replace"):
        # a dropped key is an object key; any value can be replaced
        paths = [
            p for p in _json_paths(data) if kind == "replace" or isinstance(p[-1], str)
        ]
        *parents, key = paths[args[0] % len(paths)]
        node = data
        for step in parents:
            node = node[step]
        if kind == "drop":
            del node[key]
        else:
            node[key] = args[1]
    elif kind == "top":
        data = args[0]
    if kind == "not_utf8":
        raw = bytearray(real_report)
        raw[args[0] % len(raw)] = 0xFF
        path.write_bytes(bytes(raw))
    elif kind == "directory":
        path.mkdir()
    elif kind != "delete":
        path.write_text(json.dumps(data), encoding="utf-8")
    try:
        code = cli.cmd_report([str(good), str(path)], stream=io.StringIO())
    except ConfigError as exc:
        assert str(path) in str(exc)
    else:
        assert code == 0


# -- main entry point --------------------------------------------------------


def test_main_gen_train_eval_flow(tmp_path, capsys):
    path = write_config(
        tmp_path / "cfg.json",
        dataset={"synthetic": small_synth()},
        train={"epochs": 2},
        out=str(tmp_path / "runs"),
    )
    assert cli.main(["gen", "--config", path]) == 0
    assert cli.main(["train", "--config", path, "--loss", "plain_ce"]) == 0
    capsys.readouterr()
    runs = sorted(
        os.path.join(tmp_path, "runs", d) for d in os.listdir(tmp_path / "runs")
    )
    checkpoints = [
        os.path.join(d, "checkpoint.bin")
        for d in runs
        if os.path.exists(os.path.join(d, "checkpoint.bin"))
    ]
    assert len(checkpoints) == 1
    assert cli.main(["eval", "--config", path, checkpoints[0]]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--loss", "plain_ce"],
        ["train", "--decode", "ncm"],
        ["eval", "--tau", "0.5", "checkpoint.bin"],
        ["eval", "--decode", "sncm", "checkpoint.bin"],
    ],
    ids=["gen-loss", "train-decode", "eval-tau", "eval-decode"],
)
def test_subcommand_refuses_flags_it_does_not_read(tmp_path, capsys, argv):
    # gen never reads the train section, eval never reads it either, and
    # no subcommand picks a decoder: eval scores all three
    path = write_config(tmp_path / "cfg.json", out=str(tmp_path / "runs"))
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv[:1], "--config", path, *argv[1:]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "runs")


def test_main_reports_config_errors(tmp_path, capsys):
    path = write_config(tmp_path / "cfg.json", dataset={})
    assert cli.main(["train", "--config", path]) == 2
    assert "error:" in capsys.readouterr().err
