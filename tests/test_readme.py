import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import landausim
from landausim.dynamics import step

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_api_sketch_runs(capsys):
    # the README's Python API sketch runs as printed, so its calls cannot
    # drift from the package's signatures
    sketch = re.search(r"^## Python API sketch\n\n```python\n(.*?)^```\n",
                       _README.read_text(), re.S | re.M)
    assert sketch is not None
    exec(compile(sketch.group(1), str(_README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 5


def test_every_public_name_resolves():
    # each name in the package's and every module's __all__ is defined there
    modules = [landausim] + [importlib.import_module(f"landausim.{m.name}")
                             for m in pkgutil.iter_modules(landausim.__path__)]
    for mod in modules:
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert not missing, (mod.__name__, missing)


def test_readme_step_signature_matches_the_code():
    # parameter names, kinds and defaults as the README prints them, with
    # the annotations left out and whitespace normalised
    printed = re.search(r"`step(\(.*?\))`", _README.read_text(), re.S)
    assert printed is not None
    sig = inspect.signature(step)
    bare = sig.replace(parameters=[p.replace(annotation=inspect.Parameter.empty)
                                   for p in sig.parameters.values()],
                       return_annotation=inspect.Signature.empty)
    assert " ".join(printed.group(1).split()) == str(bare)
