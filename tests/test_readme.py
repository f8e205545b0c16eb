"""The README's library example runs as written, and its config block is
a config the CLI accepts and echoes."""

import json
import pathlib
import re

from ltseg import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_scores_held_out_sequences(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    scope = {}
    exec(compile(block, str(README), "exec"), scope)
    train, test = scope["train"], scope["test"]
    assert train.seq_ids and test.seq_ids
    assert not set(train.seq_ids) & set(test.seq_ids)
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [line[0] for line in lines] == ["argmax", "sncm"]
    scores = {line[0]: [float(word) for word in line[1:]] for line in lines}
    assert all(len(row) == 4 for row in scores.values())
    assert all(0.0 <= score <= 100.0 for row in scores.values() for score in row)
    # an example on which every score is perfect, or both decoders tie,
    # shows nothing of either
    assert not all(score == 100.0 for row in scores.values() for score in row)
    assert scores["argmax"] != scores["sncm"]


def test_readme_config_block_parses_and_round_trips():
    (block,) = re.findall(r"^```json\n(.*?)^```", README.read_text(), re.M | re.S)
    data = json.loads(block)
    config = cli.config_from_dict(data)
    echoed = cli.config_to_dict(config)
    assert cli.config_from_dict(echoed) == config
    # every value the block states is the effective one; the synthetic
    # and train sections share no key
    stated = {**data["dataset"]["synthetic"], **data["train"]}
    stated.update((key, data[key]) for key in ("head_threshold", "out", "seed"))
    effective = {**echoed["dataset"]["synthetic"], **echoed["train"], **echoed}
    assert {key: effective[key] for key in stated} == stated
