"""Every script in scripts/ imports, so a renamed library name fails here rather than at use."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")), ids=lambda p: p.name)
def test_script_imports(path, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))  # as `python scripts/<name>.py` has it
    spec = importlib.util.spec_from_file_location(f"scripts_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # each script's __main__ guard keeps it from running
    assert callable(module.main)
