"""The README's library example runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_scores_held_out_sequences(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    scope = {}
    exec(compile(block, str(README), "exec"), scope)
    train, test = scope["train"], scope["test"]
    assert train.seq_ids and test.seq_ids
    assert not set(train.seq_ids) & set(test.seq_ids)
    scores = [float(word) for word in capsys.readouterr().out.split()]
    assert len(scores) == 4
    assert all(0.0 <= score <= 100.0 for score in scores)
