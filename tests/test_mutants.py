"""The mutation list stays applicable; ``tests/mutants.py`` runs the mutants themselves."""

import re

from mutants import MUTANTS, ROOT


def test_every_old_text_occurs_once_in_src():
    for name, mutant in MUTANTS.items():
        assert mutant.file.startswith("src/"), name
        assert (ROOT / mutant.file).read_text().count(mutant.old) == 1, name


def test_every_named_test_exists():
    for name, mutant in MUTANTS.items():
        assert mutant.tests, name
        for test in mutant.tests:
            path, function = re.fullmatch(r"([^:]+)::(\w+)(?:\[.*\])?", test).groups()
            assert f"def {function}(" in (ROOT / path).read_text(), (name, test)
