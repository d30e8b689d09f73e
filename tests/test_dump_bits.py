"""scripts/dump_bits.py runs against the library, gives a stable digest per case and compares
two digest maps."""

import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "dump_bits.py"


def load():
    spec = importlib.util.spec_from_file_location("dump_bits", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_case_gives_the_same_digest_twice():
    digest = dict(load().cases())["hybrid/nphi12/offline"]
    first, second = digest(), digest()
    assert re.fullmatch(r"[0-9a-f]{64}", first)
    assert first == second


def test_compare_names_each_differing_or_one_sided_case():
    base = {"a": "1", "b": "2", "c": "3"}
    change = {"a": "1", "b": "9", "d": "4"}
    compare = load().compare
    assert compare(base, change) == ["b 2 9", "c 3 -", "d - 4"]
    assert compare(base, dict(base)) == []


def test_the_skip_case_skips_every_corrector_step():
    """The ``skip`` provider's score is zero, so each corrector step keeps its input and
    draws nothing: its digests pin the skip path of the corrector."""
    module = load()
    provider, groups = module._providers(*module._nets())["skip"]
    schedule = module.gse.GuidanceSchedule.from_guided_steps(groups[0], module.PARAMS)
    _, ledger, _ = module.gse.enhance_offline(module._noisy(7), provider, schedule,
                                              module.SAMPLER, module.PARAMS, seed=11,
                                              frame_size=module.FRAME)
    assert ledger.corrector_skips == ledger.corrector_evals == module.PARAMS.N
