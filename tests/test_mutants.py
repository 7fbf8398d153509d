"""The mutant runner's generation step (tests/tools/mutants.py), without
running any mutant: generation is deterministic, ids are unique, and every
mutant compiles to code that differs from its module's."""

import runpy
import types
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
# run from its source, not imported, so no bytecode is written beside it
RUNNER = Path(__file__).parent / "tools" / "mutants.py"
mutants = types.SimpleNamespace(**runpy.run_path(str(RUNNER)))


def test_mutants_are_deterministic_unique_and_compile():
    source = {name: compile(mutants._module(SRC, name), name, "exec")
              for name in mutants.MODULES}
    made = []
    for ident, name, line, tree in mutants.mutants(SRC):
        assert compile(tree, name, "exec") != source[name], ident
        made.append((ident, line))
    assert made == [(ident, line) for ident, _, line, _ in mutants.mutants(SRC)]
    ids = [ident for ident, _ in made]
    assert len(set(ids)) == len(ids)
    assert {ident.partition(":")[0] for ident in ids} == set(mutants.MODULES)
