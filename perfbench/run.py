"""End-to-end and per-layer benchmark of ``ltseg gen -> train -> eval``.

Run from anywhere inside a source checkout (it needs ``src/ltseg``):

    python3 perfbench/run.py --workload paper_default --seed 0 --seconds 45 --trace 0

One process runs one workload. Every repeat follows the same protocol,
calling ``ltseg.cli.main`` exactly as a user's shell would:

1. ``ltseg gen`` writes the synthetic dataset to disk.
2. Two manifests are written over the generated files: the first
   ``train_sequences`` sequences are the train split, the rest the test
   split.
3. ``ltseg train`` runs on the train manifest.
4. ``ltseg eval`` runs on the test manifest.
5. (untimed) Quality is scored from the written checkpoint the way the
   paper does: class means and the head/tail split come from the train
   split, ``sncm`` decoding runs over the test split.

``--trace 0`` times steps 1-4 untraced and prints the end-to-end metrics
(see README.md for how each is taken).
``--trace 1`` also times untraced repeats, then traced ones, and prints
the per-layer metrics (see ``tracer.py``) plus the tracing overhead.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
where the numbers came from (versions, threads, data sizes).
``attempted``/``failed`` count CLI commands. ``correct`` is false when any
command fails or any output check fails: every ``report.json`` score must
lie in [0, 100], every repeat must write a byte-identical checkpoint, and
in a traced run the traced checkpoint and quality scores must equal the
untraced ones exactly.

The benchmark starts no threads itself. ``LTSEG_THREADS`` and
``LTSEG_BACKEND`` are left as the caller set them and are recorded.
"""

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from tracer import Stats, Target, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

MIN_REPEATS = 3
SETUP_REPEATS = 7


@dataclasses.dataclass(frozen=True)
class Workload:
    synthetic: dict
    feature_format: str
    train_sequences: int
    train: dict
    head_threshold: int


WORKLOADS = {
    # The README config; the train split is the ROADMAP baseline set.
    # Training (SGD plus the per-epoch confusion pass) dominates.
    "paper_default": Workload(
        synthetic=dict(
            num_classes=12,
            feature_dim=16,
            num_sequences=325,
            class_skew=1.5,
            transition_skew=2.0,
            noise_scale=0.4,
        ),
        feature_format="binary",
        train_sequences=260,
        train=dict(epochs=30, learning_rate=0.3, loss_mode="cost_sensitive"),
        # not the README's 400: at 400 the 65-sequence test split of some
        # seeds holds no tail class at all
        head_threshold=1000,
    ),
    # Breakfast-scale label inventory: the L*L*(L+1) confusion tensor, the
    # L x (L+1) multipliers and the per-class NCM loop grow, and features
    # go through the CSV path of seqdata.
    "many_classes": Workload(
        synthetic=dict(
            num_classes=48,
            feature_dim=32,
            num_sequences=150,
            mean_segments=16,
            class_skew=1.2,
            transition_skew=2.0,
            # at 2.0 the edit and tail F1 scores spread by 9 % across seeds
            noise_scale=1.5,
        ),
        feature_format="csv",
        train_sequences=120,
        train=dict(epochs=10, loss_mode="cost_sensitive"),
        head_threshold=400,
    ),
}

QUALITY_METRICS = (
    "per_class_acc",
    "edit_score",
    "f1_25_per_class",
    "tail_per_class_acc",
    "tail_f1_25",
)


class CheckFailed(Exception):
    """A CLI command failed or an output check did not hold."""


@dataclasses.dataclass
class Tally:
    attempted: int = 0
    failed: int = 0


@dataclasses.dataclass
class Repeat:
    train_s: float
    pipeline_s: float
    checkpoint_sha: str
    paths: tuple  # checkpoint, train manifest, test manifest


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up time and provenance


SETUP_CODE = (
    "import time; start = time.perf_counter(); import ltseg.cli; "
    "elapsed = time.perf_counter() - start; import ltseg; "
    "print(ltseg.__file__); print(repr(elapsed))"
)


def measure_setup():
    """Median time of ``import ltseg.cli`` in a fresh interpreter.

    One untimed import first compiles the bytecode caches, which users
    pay once per install, not per command.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for attempt in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        module_file, elapsed = done.stdout.split()
        if not os.path.abspath(module_file).startswith(SRC + os.sep):
            raise CheckFailed(f"set-up imported ltseg from {module_file}")
        if attempt:
            times.append(float(elapsed))
    return statistics.median(times)


def openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                return int(func())
    return None


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(workload_name, seed, sizes):
    import numpy
    import ltseg

    backend_name = getattr(ltseg, "backend_name", None)
    return {
        "workload": workload_name,
        "seed": seed,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "ltseg_backend": backend_name() if callable(backend_name) else None,
        "LTSEG_THREADS": os.environ.get("LTSEG_THREADS"),
        "LTSEG_BACKEND": os.environ.get("LTSEG_BACKEND"),
        "openblas_threads": openblas_threads(),
        **sizes,
    }


# ---------------------------------------------------------------------------
# one pass of the protocol


def run_cli(argv, tally):
    """One ``ltseg`` command in this process; raises CheckFailed unless
    it returns 0. Its stdout (gen's class table) is discarded."""
    from ltseg import cli

    tally.attempted += 1
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejecting the arguments
        code = exc.code
    except Exception:  # any crash counts as a failed command
        traceback.print_exc()
        code = "exception"
    if code != 0:
        tally.failed += 1
        raise CheckFailed(f"ltseg {' '.join(argv)} returned {code!r}")


def only_run_dir(out_dir):
    runs = os.listdir(out_dir)
    if len(runs) != 1:
        raise CheckFailed(f"{out_dir} holds {len(runs)} run directories, expected 1")
    return os.path.join(out_dir, runs[0])


def write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def write_splits(dataset_dir, train_sequences):
    """Train and test manifests over the generated files, next to gen's
    own manifest so their relative paths resolve."""
    with open(os.path.join(dataset_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    entries = manifest["sequences"]
    if not 0 < train_sequences < len(entries):
        raise CheckFailed(
            f"cannot split {len(entries)} sequences at {train_sequences}"
        )
    train, test = entries[:train_sequences], entries[train_sequences:]
    if {e["id"] for e in train} & {e["id"] for e in test}:
        raise CheckFailed("train and test splits share a sequence")
    paths = []
    for name, part in (("train", train), ("test", test)):
        paths.append(
            write_json(
                os.path.join(dataset_dir, f"manifest_{name}.json"),
                dict(manifest, sequences=part),
            )
        )
    return paths


def check_report(path):
    """Every score in report.json parses and lies in [0, 100]."""
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"{path}: {exc}") from None
    scores = []

    def walk(node, key=None):
        if key in ("counts", "classes", "empty"):
            return
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, k)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            scores.append(node)
        else:
            raise CheckFailed(f"{path}: unexpected value {node!r} under {key!r}")

    walk(report)
    if "per_class_acc" not in report or not scores:
        raise CheckFailed(f"{path}: no scores")
    bad = [s for s in scores if not 0.0 <= s <= 100.0]
    if bad:
        raise CheckFailed(f"{path}: scores outside [0, 100]: {bad}")


def score_quality(workload, checkpoint, train_manifest, test_manifest):
    """Step 5: the paper's protocol on the written checkpoint. Returns
    (quality scores, data sizes)."""
    from ltseg import classifier, decode, metrics, seqdata

    params, _ = classifier.load_checkpoint(checkpoint)
    train = seqdata.load_dataset(train_manifest)
    test = seqdata.load_dataset(test_manifest)
    means = decode.compute_class_means(
        train, decode.windowed_extractor(params.context_radius)
    )
    head, tail = seqdata.head_tail_split(
        train.class_frame_counts, workload.head_threshold
    )
    predictions = [
        decode.decode_sequence(params, seq, "sncm", means=means)
        for seq in test.sequences
    ]
    report = metrics.evaluate(
        predictions,
        [seq.frame_labels for seq in test.sequences],
        test.num_classes,
        head=head,
    )
    if report.group["tail"].empty:
        raise CheckFailed("the test split has no tail class")
    quality = {
        "per_class_acc": report.per_class_acc,
        "edit_score": report.edit_score,
        "f1_25_per_class": report.f1_at[0.25][1],
        "tail_per_class_acc": report.group["tail"].per_class_acc,
        "tail_f1_25": report.group["tail"].per_class_f1_25,
    }
    sizes = {
        "classes": test.num_classes,
        "head_classes": len(head),
        "tail_classes": len(tail),
        "train_sequences": len(train.sequences),
        "test_sequences": len(test.sequences),
        "train_frames": train.total_frames,
        "test_frames": test.total_frames,
        "predicted_segments": sum(
            int((p[1:] != p[:-1]).sum()) + 1 for p in predictions
        ),
    }
    return quality, sizes


def run_repeat(workload, seed, work_dir, tally):
    """Steps 1-4, timed, in a fresh directory.

    The directory is left in place: deleting files while later repeats
    write theirs makes the file system stall them unevenly, so the run
    removes all of them at its end.
    """
    os.makedirs(work_dir)

    def out(name):
        return os.path.join(work_dir, name)

    gen_config = write_json(
        out("gen.json"),
        {
            "dataset": {"synthetic": workload.synthetic},
            "feature_format": workload.feature_format,
            "seed": seed,
        },
    )
    gc.collect()
    start = time.perf_counter()
    run_cli(["gen", "--config", gen_config, "--out", out("gen")], tally)
    dataset_dir = os.path.join(only_run_dir(out("gen")), "dataset")
    manifests = write_splits(dataset_dir, workload.train_sequences)
    configs = [
        write_json(
            out(f"{split}.json"),
            {
                "dataset": {"manifest": manifest},
                "train": workload.train,
                "decode": "sncm",
                "head_threshold": workload.head_threshold,
                "seed": seed,
            },
        )
        for split, manifest in zip(("train", "test"), manifests)
    ]
    train_start = time.perf_counter()
    run_cli(["train", "--config", configs[0], "--out", out("train")], tally)
    train_done = time.perf_counter()
    checkpoint = os.path.join(only_run_dir(out("train")), "checkpoint.bin")
    run_cli(["eval", "--config", configs[1], "--out", out("eval"), checkpoint], tally)
    done = time.perf_counter()

    check_report(os.path.join(only_run_dir(out("eval")), "report.json"))
    with open(checkpoint, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return Repeat(
        train_s=train_done - train_start,
        pipeline_s=done - start,
        checkpoint_sha=digest,
        paths=(checkpoint, *manifests),
    )


# ---------------------------------------------------------------------------
# per-layer targets

TRACED = {
    "seqdata": (
        "generate_synthetic",
        "save_dataset",
        "load_dataset",
        "compute_transition_stats",
    ),
    "classifier": ("train", "save_checkpoint", "load_checkpoint"),
    "confusion": ("compute_confusion",),
    "costsens": ("compute_gain", "frame_weights", "update_multipliers", "telemetry_record"),
    "_kernels": ("window_stack", "softmax_xent_grad", "count_confusion_into", "levenshtein"),
    "decode": ("compute_class_means", "ncm_predict", "sncm_decode", "decode_sequence"),
    "metrics": ("evaluate", "edit_score"),
    "cli": ("cmd_gen", "cmd_train", "cmd_eval"),
}
EXTRA_COUNTS = {
    # rows stacked; window_stack returns [T, D*(2w+1)]
    ("_kernels", "window_stack"): ("rows", lambda args, result: int(result.shape[0])),
    ("seqdata", "load_dataset"): ("frames", lambda args, result: int(result.total_frames)),
}
SELF_TIMED = ("classifier.train", "cli.cmd_gen", "cli.cmd_train", "cli.cmd_eval")

TARGETS = tuple(
    Target(
        # a metric name must start with a letter, so "_kernels" reads "kernels"
        name=f"{module.lstrip('_')}.{attr}",
        module=f"ltseg.{module}",
        attr=attr,
        extra=EXTRA_COUNTS.get((module, attr)),
    )
    for module, attrs in TRACED.items()
    for attr in attrs
)


def layer_values(snapshot, test_sequences):
    """Per-layer metrics of one traced repeat, {name: (value, unit)}.
    An absent target reads as zero calls and zero time."""
    values = {}
    for target in TARGETS:
        stats = snapshot.get(target.name, Stats())
        values[f"{target.name}.ms"] = (stats.seconds * 1e3, "ms")
        values[f"{target.name}.calls"] = (stats.calls, "count")
        if target.name in SELF_TIMED:
            values[f"{target.name}.self_ms"] = (stats.self_seconds * 1e3, "ms")
        if target.extra:
            values[f"{target.name}.{target.extra[0]}"] = (stats.extra, "count")
    frames = values["seqdata.load_dataset.frames"][0]
    rows = values["kernels.window_stack.rows"][0]
    values["kernels.window_rows_per_frame"] = (rows / frames if frames else 0.0, "ratio")
    ncm_calls = values["decode.ncm_predict.calls"][0]
    values["decode.ncm_calls_per_test_sequence"] = (ncm_calls / test_sequences, "ratio")
    return values


# ---------------------------------------------------------------------------
# the run


def timed_repeats(workload, seed, seconds, work_prefix, tally, traced=False):
    """Repeats until ``seconds`` have passed, at least MIN_REPEATS.
    Returns the repeats and, when ``traced``, one tracer per repeat."""
    repeats, tracers = [], []
    start = time.perf_counter()
    while len(repeats) < MIN_REPEATS or time.perf_counter() - start < seconds:
        tracer = Tracer(TARGETS) if traced else None
        work_dir = f"{work_prefix}-{len(repeats)}"
        with tracer or contextlib.nullcontext():
            repeats.append(run_repeat(workload, seed, work_dir, tally))
        tracers.append(tracer)
    return repeats, tracers


def median_of(repeats, field):
    return statistics.median(getattr(r, field) for r in repeats)


def check_same_checkpoint(reference, repeats):
    digests = {r.checkpoint_sha for r in repeats}
    if digests != {reference.checkpoint_sha}:
        raise CheckFailed(
            f"checkpoints differ between repeats: {sorted(digests | {reference.checkpoint_sha})}"
        )


def measure(args, tally):
    """All repeats of one run; returns (metrics, data sizes, absent
    targets). Removes its work directory at the end."""
    workload = WORKLOADS[args.workload]
    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    try:
        return _measure(args, tally, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)


def _measure(args, tally, workload, work):
    metrics = {}
    if not args.trace:
        metrics["setup_s"] = (measure_setup(), "s")
    # the untimed first repeat fills caches and gives the reference
    # checkpoint and quality scores that later repeats are checked against
    reference = run_repeat(workload, args.seed, f"{work}/warmup", tally)
    quality, sizes = score_quality(workload, *reference.paths)
    seconds = args.seconds / 2 if args.trace else args.seconds
    plain, _ = timed_repeats(workload, args.seed, seconds, f"{work}/plain", tally)
    check_same_checkpoint(reference, plain)
    if not args.trace:
        # other tenants of the machine only add time, so the fastest repeat
        # is the steadiest figure from run to run
        metrics["train_s"] = (min(r.train_s for r in plain), "s")
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
        for name in QUALITY_METRICS:
            metrics[name] = (quality[name], "%")
        return metrics, sizes, []

    traced, tracers = timed_repeats(
        workload, args.seed, seconds, f"{work}/traced", tally, traced=True
    )
    check_same_checkpoint(reference, traced)
    traced_quality, _ = score_quality(workload, *traced[-1].paths)
    if traced_quality != quality:
        raise CheckFailed(f"traced quality {traced_quality} != untraced {quality}")
    per_repeat = [layer_values(t.snapshot(), sizes["test_sequences"]) for t in tracers]
    for name, (_, unit) in per_repeat[0].items():
        metrics[name] = (statistics.median(v[name][0] for v in per_repeat), unit)
    overhead = median_of(traced, "pipeline_s") - median_of(plain, "pipeline_s")
    metrics["trace_overhead_s"] = (overhead, "s")
    return metrics, sizes, tracers[0].absent


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ltseg", "cli.py")):
        print(f"error: no ltseg sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import ltseg

    if not os.path.abspath(ltseg.__file__).startswith(SRC + os.sep):
        print(f"error: ltseg imported from {ltseg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tally = Tally()
    correct = True
    metrics, sizes, absent = {}, {}, []
    try:
        metrics, sizes, absent = measure(args, tally)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    record = provenance(args.workload, args.seed, sizes)
    record["absent_targets"] = absent
    print(json.dumps({"provenance": record}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct and tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
