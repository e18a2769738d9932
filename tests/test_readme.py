"""The README's library quick tour runs, and gives the values its comments
state."""

import re
from collections import Counter
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs_and_matches_its_comments():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    scope: dict = {}
    exec(compile(block, "README.md", "exec"), scope)

    cpx = scope["cpx"]
    assert "# 19 cells: 7 regions, 9 edges, 3 vertices" in block
    assert len(cpx.cells) == 19
    assert Counter(cell.dim for cell in cpx.cells.values()) == {2: 7, 1: 9, 0: 3}

    assert "# {'yes': 0, 'boundary': 1, 'no': 1}" in block
    assert scope["topo"].bounded_counts() == {"yes": 0, "boundary": 1, "no": 1}

    assert "verify_one_bounded(cpx, Fraction(1, 4)).status   # 'pass'" in block
    assert scope["verify_one_bounded"](cpx, scope["Fraction"](1, 4)).status == "pass"
