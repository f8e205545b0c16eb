"""Cost-sensitive training and segment-level decoding for long-tailed
temporal sequence segmentation.

The package is organized around a small pipeline:

- :mod:`ltseg.seqdata`: labeled frame sequences, synthetic long-tailed
  dataset generation, transition statistics, on-disk dataset format.
- :mod:`ltseg.costsens`: per-transition learning state, constraint
  multipliers and the adaptively re-weighted cross-entropy they induce.
- :mod:`ltseg.classifier`: a windowed linear frame classifier and its
  training loop.
- :mod:`ltseg.decode`: frame and segment-level nearest-class-mean
  decoding.
- :mod:`ltseg.metrics`: frame accuracy, edit score, segmental F1, and
  grouped reports.
- :mod:`ltseg.cli`: command line entry points (gen/train/eval/report).

Numeric hot loops live in :mod:`ltseg._kernels`, one numpy
implementation each.
"""

__version__ = "0.1.0"

from . import _kernels
from .errors import (
    ConfigError,
    EmptySequenceError,
    LtsegError,
    ParseError,
    RangeError,
    TrainingDivergedError,
)

__all__ = [
    "ConfigError",
    "EmptySequenceError",
    "LtsegError",
    "ParseError",
    "RangeError",
    "TrainingDivergedError",
    "_kernels",
    "__version__",
]
