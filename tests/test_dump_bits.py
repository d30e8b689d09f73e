"""scripts/dump_bits.py runs against the library and gives a stable digest per case."""

import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "dump_bits.py"


def test_one_case_gives_the_same_digest_twice():
    spec = importlib.util.spec_from_file_location("dump_bits", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    digest = dict(module.cases())["hybrid/nphi12/offline"]
    first, second = digest(), digest()
    assert re.fullmatch(r"[0-9a-f]{64}", first)
    assert first == second
