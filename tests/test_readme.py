import re
from pathlib import Path

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_api_sketch_runs(capsys):
    # the README's Python API sketch runs as printed, so its calls cannot
    # drift from the package's signatures
    sketch = re.search(r"^## Python API sketch\n\n```python\n(.*?)^```\n",
                       _README.read_text(), re.S | re.M)
    assert sketch is not None
    exec(compile(sketch.group(1), str(_README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 5
