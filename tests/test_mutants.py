"""``scripts/mutants.py`` against today's tree: each probe's old text still
occurs exactly once in its file, and each test it names still exists, so a
probe that an edit left stale fails here, not first in the mutation run.
Read only: no mutant is applied and no pytest subprocess runs."""
import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = _load_mutants()


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_old_text_occurs_once(mutant):
    text = (ROOT / "src" / mutant.path).read_text()
    assert text.count(mutant.old) == 1


def _defined(path: Path, names: list) -> bool:
    """Whether ``path`` defines the class-then-function chain ``names``."""
    body = ast.parse(path.read_text()).body
    for name in names:
        found = [node for node in body if getattr(node, "name", None) == name
                 and isinstance(node, (ast.ClassDef, ast.FunctionDef))]
        if not found:
            return False
        body = found[0].body
    return True


@pytest.mark.parametrize("node", sorted({node for mutant in MUTANTS for node in mutant.tests}))
def test_named_test_exists(node):
    # The parametrize id in brackets is not resolved.
    path, *names = node.split("[")[0].split("::")
    assert names and names[-1].startswith("test_")
    assert _defined(ROOT / path, names)
