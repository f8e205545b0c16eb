"""Command-line front end: gen / train / eval / report.

Each run gets its own directory under the configured output root, named
by a hash of the effective config plus a timestamp. The effective
config, with every default filled in, is echoed into that directory as
``config.json`` so any run can be reproduced from its own artifacts.

The experiment ``seed`` feeds both the synthetic generator and the
trainer; per-section seeds are not separately configurable.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import sys
import time

from . import classifier as clf
from . import decode as dec
from . import metrics as mx
from . import seqdata as sd
from .errors import (
    ConfigError,
    LtsegError,
    TrainingDivergedError,
    require_bound,
    require_finite,
    require_int,
)

# the F1 keys of report_to_dict, one per threshold that eval scores
REPORT_F1_KEYS = tuple(map(mx.f1_key, mx.DEFAULT_IOU_THRESHOLDS))

_SYNTH_KEYS, _TRAIN_KEYS = (
    frozenset(f.name for f in dataclasses.fields(kind)) - {"rng_seed"}
    for kind in (sd.SynthConfig, clf.TrainConfig)
)
_TOP_KEYS = frozenset(
    {
        "dataset",
        "train",
        "decode",
        "head_threshold",
        "feature_format",
        "out",
        "seed",
    }
)


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs: a dataset source (exactly one of
    synthetic or manifest), training knobs, the head/tail split, and
    output placement. Eval scores every decoder, and F1 at
    ``metrics.DEFAULT_IOU_THRESHOLDS``, the paper's IoU thresholds."""

    synthetic: sd.SynthConfig = None
    manifest: str = None
    train: clf.TrainConfig = dataclasses.field(default_factory=clf.TrainConfig)
    head_threshold: int = None
    out_dir: str = "runs"
    seed: int = 0

    def validate(self):
        if (self.synthetic is None) == (self.manifest is None):
            raise ConfigError(
                "config needs exactly one dataset source, "
                "either dataset.synthetic or dataset.manifest"
            )
        if self.manifest is not None and not os.path.exists(self.manifest):
            raise ConfigError(f"manifest {self.manifest!r} does not exist")
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out must be a path, got {self.out_dir!r}")
        if self.head_threshold is not None:
            require_int("head_threshold", self.head_threshold)
            require_bound("head_threshold", self.head_threshold, ">", 0)
        if self.synthetic is not None:
            self.synthetic.validate()
        self.train.validate()
        return self


def _check_keys(mapping, allowed, where):
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(unknown)}")


def config_from_dict(data, overrides=None) -> ExperimentConfig:
    """Build the effective config from parsed JSON plus flag overrides."""
    overrides = dict(overrides or {})
    if not isinstance(data, dict):
        raise ConfigError("config top level must be a JSON object")
    _check_keys(data, _TOP_KEYS, "config")
    if data.get("decode", "sncm") != "sncm":  # older configs name sncm
        raise ConfigError(
            f"decode {data['decode']!r} is not a choice: report.json is sncm's, "
            "and eval writes report_argmax.json and report_ncm.json beside it"
        )
    if data.get("feature_format", "binary") not in ("binary", "csv"):  # older formats
        raise ConfigError(f"feature_format {data['feature_format']!r} is not a choice: "
                          "gen writes .npy features, whatever a config names")

    seed = overrides.pop("seed", data.get("seed", 0))
    require_int("seed", seed)
    require_bound("seed", seed, ">=", 0)

    source = data.get("dataset", {"synthetic": {}})
    if not isinstance(source, dict):
        raise ConfigError("dataset section must be an object")
    _check_keys(source, {"synthetic", "manifest"}, "dataset")
    synthetic = manifest = None  # validate asks for exactly one of them
    if "manifest" in source:
        manifest = source["manifest"]
        if not isinstance(manifest, str):
            raise ConfigError(f"dataset.manifest must be a path, got {manifest!r}")
    if "synthetic" in source:
        section = source["synthetic"]
        if not isinstance(section, dict):
            raise ConfigError("dataset.synthetic section must be an object")
        _check_keys(section, _SYNTH_KEYS, "dataset.synthetic")
        synthetic = sd.SynthConfig(rng_seed=seed, **section)

    train_section = data.get("train", {})
    if not isinstance(train_section, dict):
        raise ConfigError("train section must be an object")
    _check_keys(train_section, _TRAIN_KEYS, "train")
    train = clf.TrainConfig(rng_seed=seed, **train_section)
    for key in ("loss_mode", "tau", "epsilon", "gamma"):
        if key in overrides:
            train = dataclasses.replace(train, **{key: overrides.pop(key)})

    config = ExperimentConfig(
        synthetic=synthetic,
        manifest=manifest,
        train=train,
        head_threshold=data.get("head_threshold"),
        out_dir=overrides.pop("out", data.get("out", "runs")),
        seed=seed,
    )
    if overrides:
        raise ConfigError(f"unhandled overrides: {sorted(overrides)}")
    return config.validate()


def load_config(path=None, overrides=None) -> ExperimentConfig:
    """Read a config file, or start from all defaults when path is None.
    The file is checked first, without the values the flags replace, and
    an error in it names the file; an error in a flag's value does not."""
    overrides = overrides or {}
    data = {} if path is None else sd.read_json(path, ConfigError)
    own = data  # the file's values that no flag replaces
    if isinstance(data, dict):
        flagged = overrides.keys() & {"seed", "out"}
        own = {key: value for key, value in data.items() if key not in flagged}
        if isinstance(data.get("train"), dict):
            flagged = overrides.keys() & _TRAIN_KEYS
            own["train"] = {key: value for key, value in data["train"].items()
                            if key not in flagged}
    try:
        config_from_dict(own)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return config_from_dict(data, overrides)


def config_to_dict(config: ExperimentConfig) -> dict:
    """Effective config as plain JSON-ready data; inverse of
    config_from_dict for any config the CLI can build."""
    if config.synthetic is not None:
        source = {
            "synthetic": {
                name: getattr(config.synthetic, name) for name in sorted(_SYNTH_KEYS)
            }
        }
    else:
        source = {"manifest": config.manifest}
    return {
        "dataset": source,
        "train": {name: getattr(config.train, name) for name in sorted(_TRAIN_KEYS)},
        "head_threshold": config.head_threshold,
        "out": config.out_dir,
        "seed": config.seed,
    }


def config_hash(config: ExperimentConfig) -> str:
    canon = json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:10]


def make_run_dir(config: ExperimentConfig) -> str:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = os.path.join(config.out_dir, f"{config_hash(config)}-{stamp}")
    path, bump = base, 0
    while True:
        try:
            os.makedirs(path)
        except FileExistsError:
            bump += 1
            path = f"{base}-{bump}"
        else:
            return path


def _write_json(path, data):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _resolve_dataset(config: ExperimentConfig, pad=0) -> sd.Dataset:
    """The config's dataset, laid out padded by ``pad`` frames, the
    context radius it is windowed at."""
    if config.synthetic is not None:
        return sd.generate_synthetic(config.synthetic, pad)
    return sd.load_dataset(config.manifest, pad)


def cmd_gen(config: ExperimentConfig, stream=None) -> str:
    """Write the synthetic dataset one sequence at a time, as it is drawn,
    and print its class frame-count table as CSV. Returns the run
    directory. A config or sequence the generator refuses removes the
    run directory, and the output root when gen made it."""
    if config.synthetic is None:
        raise ConfigError("gen needs a synthetic dataset source, not a manifest")
    synth, made = config.synthetic, os.path.abspath(config.out_dir)
    while not os.path.exists(os.path.dirname(made)):  # the outermost new directory
        made = os.path.dirname(made)
    made = None if os.path.exists(made) else made
    run_dir = make_run_dir(config)
    _write_json(os.path.join(run_dir, "config.json"), config_to_dict(config))
    names = sd.default_class_names(synth.num_classes)
    try:
        counts = sd.save_dataset(os.path.join(run_dir, "dataset"), names,
                                 synth.feature_dim, sd.draw_synthetic(synth))
    except LtsegError:
        shutil.rmtree(made or run_dir)
        raise
    lines = ["class_id,name,frames"]
    for idx, name in enumerate(names):
        lines.append(f"{idx},{name},{int(counts[idx])}")
    table = "\n".join(lines) + "\n"
    with open(os.path.join(run_dir, "class_counts.csv"), "w", encoding="utf-8") as fh:
        fh.write(table)
    (stream or sys.stdout).write(table)
    return run_dir


def cmd_train(config: ExperimentConfig, stream=None):
    """Train per config, write checkpoint + telemetry JSON-lines; the
    checkpoint also holds the training split's class means for eval.
    Returns (run_dir, exit_code); divergence reports and exits nonzero."""
    # check and lay out first: a config or radius that is refused, alone
    # or against the dataset, leaves no run directory
    config.validate()
    dataset = _resolve_dataset(config, config.train.context_radius)
    run_dir = make_run_dir(config)
    _write_json(os.path.join(run_dir, "config.json"), config_to_dict(config))
    try:
        params, telemetry = clf.train(dataset, config.train)
    except TrainingDivergedError as exc:
        (stream or sys.stderr).write(f"error: {exc}\n")
        return run_dir, 1
    clf.save_checkpoint(
        params, os.path.join(run_dir, "checkpoint.bin"), config.train.epochs
    )
    with open(os.path.join(run_dir, "telemetry.jsonl"), "w", encoding="utf-8") as fh:
        for record in telemetry:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return run_dir, 0


def _write_report(run_dir, name, report):
    _write_json(os.path.join(run_dir, f"{name}.json"), mx.report_to_dict(report))
    rows = mx.report_to_csv_rows(report)
    with open(os.path.join(run_dir, f"{name}.csv"), "w", encoding="utf-8") as fh:
        fh.write("metric,value\n")
        for metric, value in rows:
            fh.write(f"{metric},{value}\n")


def cmd_eval(config: ExperimentConfig, checkpoint_path) -> str:
    """Decode the config's dataset with a trained checkpoint and write
    JSON + CSV metric reports of every decoder: ``report`` from segment
    NCM (sncm), the paper's decoder, plus ``report_argmax`` and
    ``report_ncm``. Reads only; never touches its inputs.

    The NCM class means and the head/tail split come from the training
    split's means and frame counts stored in the checkpoint; the scored
    dataset's labels are read only to score the predictions.
    """
    params, _ = clf.load_checkpoint(checkpoint_path)
    dataset = _resolve_dataset(config, params.context_radius)
    if params.num_classes != dataset.num_classes:
        raise ConfigError(
            f"checkpoint has {params.num_classes} classes, "
            f"dataset has {dataset.num_classes}"
        )
    if params.feature_dim != dataset.feature_dim:
        raise ConfigError(
            f"checkpoint expects {params.feature_dim}-dim features, "
            f"dataset provides {dataset.feature_dim}"
        )
    run_dir = make_run_dir(config)
    _write_json(os.path.join(run_dir, "config.json"), config_to_dict(config))

    means = params.train_means
    head = None
    if config.head_threshold is not None:
        head, _ = sd.head_tail_split(means.support, config.head_threshold)
    # each sequence is windowed and decoded once, by every decoder
    extract = dec.windowed_extractor(params.context_radius)
    decoded = [dec.decode(params, means, extract(seq)) for seq in dataset.sequences]
    truths = [sequence.frame_labels for sequence in dataset.sequences]
    for mode in dec.DECODE_MODES:
        predictions = [labels[mode] for labels in decoded]
        report = mx.evaluate(predictions, truths, dataset.num_classes, head=head)
        _write_report(run_dir, "report" if mode == "sncm" else f"report_{mode}", report)
    return run_dir


def _report_row(path, data):
    if not isinstance(data, dict):
        raise ConfigError(f"{path} is not a report: top level must be a JSON object")
    try:
        row = {
            key: data["f1_at"][key]["per_class"] for key in REPORT_F1_KEYS
        }
        row["per_class_acc"] = data["per_class_acc"]
        row["global_f1"] = data["f1_at"]["0.25"]["global"]
        counts = data["counts"]
    except KeyError as exc:
        raise ConfigError(f"{path} is missing report field {exc}") from None
    except TypeError as exc:
        raise ConfigError(f"{path} has a malformed report field: {exc}") from None
    if not isinstance(counts, list) or not all(
        isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in counts
    ):
        raise ConfigError(
            f"{path}: report field 'counts' must be a list of non-negative "
            f"integers, got {counts!r}"
        )
    row["classes"] = len(counts)
    for key, value in row.items():
        require_finite(f"{path}: report field {key!r}", value)
    return row


_COMPARE_COLUMNS = (
    *((f"per_class_f1@{key}", key) for key in REPORT_F1_KEYS),
    ("per_class_acc", "per_class_acc"),
    ("global_f1@0.25", "global_f1"),
)


def cmd_report(report_paths, stream=None, out_dir=None) -> int:
    """Compare metric reports against the first one (the baseline).
    Emits a CSV table of scores and signed deltas, rows in input order."""
    if not report_paths:
        raise ConfigError("need at least one report file")
    rows = []
    for path in report_paths:
        rows.append((path, _report_row(path, sd.read_json(path, ConfigError))))
    baseline = rows[0][1]
    for path, row in rows:
        if row["classes"] != baseline["classes"]:
            raise ConfigError(
                f"{path} reports {row['classes']} classes, "
                f"baseline has {baseline['classes']}"
            )

    header = ["report"]
    for title, _ in _COMPARE_COLUMNS:
        header += [title, f"delta_{title}"]
    lines = [",".join(header)]
    table = []
    for path, row in rows:
        cells = [path]
        record = {"report": path}
        for title, key in _COMPARE_COLUMNS:
            value = row[key]
            delta = value - baseline[key]
            cells += [f"{value:.2f}", f"{delta:+.2f}"]
            record[title] = round(value, 2)
            record[f"delta_{title}"] = round(delta, 2)
        lines.append(",".join(cells))
        table.append(record)
    text = "\n".join(lines) + "\n"
    (stream or sys.stdout).write(text)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "comparison.csv"), "w", encoding="utf-8") as fh:
            fh.write(text)
        _write_json(os.path.join(out_dir, "comparison.json"), table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltseg",
        description="Long-tailed temporal segmentation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(name, summary):
        cmd = sub.add_parser(name, help=summary)
        cmd.add_argument("--config", metavar="PATH", help="experiment config JSON")
        cmd.add_argument("--seed", type=int, help="override the experiment seed")
        cmd.add_argument("--out", metavar="DIR", help="override the output root")
        return cmd

    # each subcommand takes only the flags of the config fields it reads
    add_common("gen", "write a synthetic dataset to disk")
    cmd = add_common("train", "train a classifier")
    cmd.add_argument("--loss", dest="loss_mode", choices=clf.LOSS_MODES)
    cmd.add_argument("--tau", type=float, help="gain tempering exponent")
    cmd.add_argument("--epsilon", type=float, help="constraint tolerance")
    cmd.add_argument("--gamma", type=float, help="multiplier step size")
    cmd = add_common("eval", "score a checkpoint")
    cmd.add_argument("checkpoint", help="checkpoint file to evaluate")
    cmd = sub.add_parser("report", help="compare metric reports")
    cmd.add_argument("reports", nargs="+", help="report.json files, baseline first")
    cmd.add_argument("--out", metavar="DIR", help="also write the table here")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.reports, out_dir=args.out)
        # every override flag's dest is its config key
        overrides = {key: value for key, value in vars(args).items()
                     if key not in ("command", "config", "checkpoint")
                     and value is not None}
        config = load_config(args.config, overrides)
        if args.command == "gen":
            cmd_gen(config)
            return 0
        if args.command == "train":
            _, code = cmd_train(config)
            return code
        cmd_eval(config, args.checkpoint)
        return 0
    except (LtsegError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
