"""Operator and constant mutants of the package, each run against one tests directory.

    python tests/tools/mutants.py TESTS_DIR

Each site in a function or method of MODULES gives one mutant: a comparison
moved to its neighbour (< to <=, == to !=, ...), an arithmetic or bitwise
operator swapped (+ to -, * to +, ...), `and` and `or` swapped, a `not`
doubled (so dropped), an int raised by one or a bool flipped; annotations
and module-level code are left alone.  Its id is module:qualified
name:operator:ordinal, the ordinal counting that operator in that function.
The mutated module is written whole by `ast.unparse`, and so is every
unmutated one, so comments and layout go; no test reads them.

Each mutant runs in a copy of SRC and TESTS_DIR in a temporary directory,
never in the checkout, under one `python -m pytest -x` over the test files
but SKIPPED, JOBS mutants at a time.  A run that uses up CPU_SECONDS of CPU
time times out; any other nonzero exit kills the mutant.  The unmutated
copy must pass first.  Stdout has one verdict per mutant, then the counts.

Two runs on one tree give the same verdicts: Hypothesis runs with
derandomize=True (each test's seed is a hash of the test), database=None
(no example found for one mutant replays for another), no shrinking and no
timing-based health checks; PYTHONHASHSEED is 0, and no bytecode is
written, so each rewritten module is compiled afresh.  The limit is on CPU
time, not wall time, so a busy host turns no kill into a timeout.  Only
the suite's own time budgets still read the wall clock, so the number of
jobs is fixed, to load the host alike on every run; a mutant that slows a
command to near a budget can still flip between killed and not.

A change to the tests keeps the kill set when this gives the same verdicts
with the old TESTS_DIR (`git archive <base> tests | tar -x -C <dir>`) as
with the new one.
"""

import argparse
import ast
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
MODULES = ("duality", "gamma", "kernels", "numutil", "padic", "supernatural", "tate")
# they start interpreters of their own or read files beside the tests; no
# module test relies on them
SKIPPED = ("test_mutants.py", "test_readme.py", "test_reach.py", "test_records.py")
# run first: between them they run every subcommand in a few seconds, so
# most mutants fail early
FIRST = ("test_output_digests.py", "test_acceptance.py")
CPU_SECONDS = 60  # over twice what the unmutated suite takes
JOBS = 2
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
         ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn,
         ast.NotIn: ast.In, ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add,
         ast.FloorDiv: ast.Mult, ast.Div: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
         ast.LShift: ast.RShift, ast.RShift: ast.LShift, ast.BitAnd: ast.BitOr,
         ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr, ast.And: ast.Or, ast.Or: ast.And}
# loaded with -p by every run; the address-space cap makes a mutant that
# grows an integer without end fail instead of filling the host's memory, and
# past the CPU limit the run ends with SIGXCPU
PROFILE = f"""\
import resource
from hypothesis import HealthCheck, Phase, settings
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
resource.setrlimit(resource.RLIMIT_CPU, ({CPU_SECONDS}, {CPU_SECONDS + 10}))
resource.setrlimit(resource.RLIMIT_CORE, (0, 0))
settings.register_profile("mutants", derandomize=True, database=None, deadline=None,
                          phases=(Phase.explicit, Phase.generate),
                          suppress_health_check=list(HealthCheck))
settings.load_profile("mutants")
"""


class _Sites(ast.NodeVisitor):
    """Every site inside a function, in source order, as (qualified name,
    operator, line, holder, key, new): the mutant puts new at holder[key]
    (a list) or holder.key."""

    def __init__(self):
        self.scope, self.depth, self.found = [], 0, []

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node):  # its defaults and body, never an annotation
        self.scope.append(node.name)
        self.depth += 1
        for child in node.args.defaults + [d for d in node.args.kw_defaults if d] + node.body:
            self.visit(child)
        self.depth -= 1
        self.scope.pop()

    def visit_AnnAssign(self, node):
        if node.value:
            self.visit(node.value)

    def generic_visit(self, node):
        if isinstance(node, ast.Compare):
            slots = [(node.ops, i, op) for i, op in enumerate(node.ops)]
        else:
            slots = [(node, "op", getattr(node, "op", None))]
        for holder, key, op in slots:
            if type(op) in SWAPS:
                new = SWAPS[type(op)]
                self.site(node, f"{type(op).__name__}>{new.__name__}", holder, key, new())
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            double = ast.copy_location(ast.UnaryOp(ast.Not(), node.operand), node)
            self.site(node, "Not>NotNot", node, "operand", double)
        if isinstance(node, ast.Constant) and type(node.value) in (bool, int):
            new = not node.value if type(node.value) is bool else node.value + 1
            self.site(node, f"{node.value!r}>{new!r}", node, "value", new)
        super().generic_visit(node)

    def site(self, node, label, holder, key, new):
        if self.depth:
            self.found.append((".".join(self.scope), label, node.lineno, holder, key, new))


def _put(holder, key, value):
    """Put value at holder[key] (a list) or holder.key; return what was there."""
    if isinstance(key, int):
        holder[key], old = value, holder[key]
    else:
        old = getattr(holder, key)
        setattr(holder, key, value)
    return old


def _module(src, name):
    return ast.parse((Path(src) / "tatedual" / f"{name}.py").read_text())


def mutants(src):
    """Yield (id, module, line, tree) for every site of MODULES under src:
    tree is the whole module with that one site mutated, until the next
    item is asked for."""
    for name in MODULES:
        tree, sites, seen = _module(src, name), _Sites(), Counter()
        sites.visit(tree)
        for qualified, label, line, holder, key, new in sites.found:
            ident = f"{name}:{qualified}:{label}:{seen[qualified, label]}"
            seen[qualified, label] += 1
            old = _put(holder, key, new)
            yield ident, name, line, tree
            _put(holder, key, old)


def _verdict(command, root):
    env = dict(os.environ, PYTHONPATH=f"{root / 'src'}{os.pathsep}{root}",
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    child = subprocess.Popen(command, cwd=root, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = child.wait(3 * CPU_SECONDS)
    except subprocess.TimeoutExpired:  # a backstop: the CPU limit comes first
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return "timeout"
    return "survived" if code == 0 else "timeout" if code == -signal.SIGXCPU else "killed"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("tests", type=Path)
    args = parser.parse_args(argv)
    start = time.monotonic()
    rest = sorted({f.name for f in args.tests.glob("test_*.py")} - set(SKIPPED) - set(FIRST))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "--tb=no", "-p", "no:cacheprovider",
               "-p", "mutants_profile", *(f"tests/{f}" for f in FIRST + tuple(rest))]
    roots = [Path(tempfile.mkdtemp(prefix="mutants-")) for _ in range(JOBS)]
    copies = queue.Queue()  # the roots no job is using
    for root in roots:
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(SRC / "tatedual", root / "src" / "tatedual", ignore=ignore)
        shutil.copytree(args.tests, root / "tests", ignore=ignore)
        for name in MODULES:  # unmutated modules unparsed too, as the mutated ones are
            (root / "src" / "tatedual" / f"{name}.py").write_text(ast.unparse(_module(SRC, name)))
        (root / "mutants_profile.py").write_text(PROFILE)
        copies.put(root)

    def run(case):
        ident, name, line, mutated = case
        root = copies.get()
        path = root / "src" / "tatedual" / f"{name}.py"
        text = path.read_text()
        path.write_text(mutated)
        try:
            return _verdict(command, root), ident, line
        finally:
            path.write_text(text)
            copies.put(root)

    try:
        if _verdict(command, roots[0]) != "survived":
            sys.exit(f"the unmutated tree fails: {' '.join(command)}")
        counts = Counter()
        with ThreadPoolExecutor(JOBS) as pool:
            cases = ((ident, name, line, ast.unparse(tree))
                     for ident, name, line, tree in mutants(SRC))
            for verdict, ident, line in pool.map(run, cases):
                counts[verdict] += 1
                print(verdict, ident, f"(line {line})", flush=True)
    finally:
        for root in roots:
            shutil.rmtree(root)
    print(f"applied {sum(counts.values())} killed {counts['killed']} survived "
          f"{counts['survived']} timeout {counts['timeout']} in {time.monotonic() - start:.0f} s")


if __name__ == "__main__":
    main()
