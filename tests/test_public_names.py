"""Every exported name and every benchmark trace target must resolve.

The traced benchmark run (perfbench/spans.py) patches the functions it
measures by module and attribute, so deleting or renaming one of them would
break that run without failing any behavioural test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
SUBMODULES = ["bounds", "braces", "construct", "groupinfo", "modular", "ybe"]


def _trace_targets():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_trace_targets_resolve():
    targets = _trace_targets()
    assert targets
    for _, module_name, attr in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"


@pytest.mark.parametrize("module_name", [""] + SUBMODULES)
def test_all_names_exist(module_name):
    module = importlib.import_module("bracekit" + ("." + module_name if module_name else ""))
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing

