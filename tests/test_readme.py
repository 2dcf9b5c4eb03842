"""The README's ``python`` blocks run as written and print what they say."""

import re
from pathlib import Path

import pytest

from fuzzts import DegreeError

README = Path(__file__).parent.parent / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_library_tour_prints_the_bisimilar_pairs_and_the_minimized_size(capsys):
    exec(BLOCKS[0], {})
    assert capsys.readouterr().out.splitlines() == [
        "[('s2', 't2'), ('s2', 't3'), ('s3', 't2'), ('s3', 't3')]",
        "4",
    ]


def test_degree_block_raises_on_its_last_line_only():
    *lines, last = BLOCKS[1].rstrip("\n").split("\n")
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    with pytest.raises(DegreeError, match="more than 9 fractional digits"):
        exec(last, namespace)
