import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    """The first python block of README runs as written and prints the
    showcase's 12 conflicting pairs and its 3 crosstalk-free passes."""
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block.group(1), str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out == ["12 conflicting pairs; first: 0 2 2 False", "[[0, 1, 7], [2, 4, 5], [3, 6]]"]
