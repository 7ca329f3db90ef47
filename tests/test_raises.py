"""Every refusal of the library is one that some test makes happen.

A `raise` whose message no test names is a proof step that nobody has seen
work, or a refusal that nobody has seen refuse.  The gate reads the
library's source and the tests' string constants, so it costs no run:
each `raise` of the traced modules must have its message key in some
string constant under `tests/`, unless `ALLOWED` names the raise with the
reason it stays.  `scripts/raise_reach.py` is the slow, traced check that
the named raises are in fact reached.
"""

import ast
import string
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "indres"
MODULES = ("groupcore", "chartab", "classfun", "blocks", "lattice",
           "correspondence", "catalog", "cli")

# a raise's name -> why no test names its message
ALLOWED = {
    "chartab._ReductionRows.__missing__": "a dict's missing key raises KeyError "
                                          "with the key, as dict does",
}


def message_keys(node):
    """The keys of a raise's message: the longest constant piece of each
    message it can raise, or none.

    A message is the first argument of the raised call: a string, or an
    f-string whose constant pieces are read without its placeholders, so a
    message that opens with a placeholder or a short word still has a key.
    A piece loses the spaces and punctuation at its ends, which join it to
    the placeholders around it.
    A conditional expression raises either of two messages.
    """
    exc = node.exc
    if not (isinstance(exc, ast.Call) and exc.args):
        return []
    return _keys(exc.args[0])


def _keys(msg):
    if isinstance(msg, ast.IfExp):
        return _keys(msg.body) + _keys(msg.orelse)
    parts = msg.values if isinstance(msg, ast.JoinedStr) else [msg]
    pieces = [p.value.strip(string.whitespace + string.punctuation) for p in parts
              if isinstance(p, ast.Constant) and isinstance(p.value, str)]
    key = max(pieces, key=len, default="")
    return [key] if key else []


def raises(source, module):
    """(name, keys) of each raise in a module's source; the name is the
    module and the qualified name of the function around the raise, then
    the keys."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Raise):
                keys = message_keys(child)
                name = ".".join([module] + scope)
                out.append((": ".join([name, " | ".join(keys)]) if keys else name, keys))
            visit(child, scope)

    visit(ast.parse(source), [])
    return out


def string_constants(sources):
    """Every string constant of the given sources, implicit
    concatenations joined, as the parser sees them."""
    return [node.value for source in sources for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)]


def untested(library, tests, allowed):
    """Names of the raises, over (module, source) pairs, with a key in no
    test constant, or with no key, that `allowed` does not name."""
    constants = string_constants(tests)
    return [name for module, source in library for name, keys in raises(source, module)
            if name not in allowed
            and not (keys and all(any(k in c for c in constants) for k in keys))]


def _library():
    return [(m, (SRC / f"{m}.py").read_text()) for m in MODULES]


def _tests():
    """The other test files: this one's own strings name nothing."""
    return [p.read_text() for p in sorted(TESTS.glob("*.py")) if p.name != Path(__file__).name]


def test_every_library_raise_is_named_by_a_test():
    assert untested(_library(), _tests(), ALLOWED) == []


def test_every_allowed_raise_still_exists():
    names = {name for module, source in _library() for name, _ in raises(source, module)}
    assert sorted(set(ALLOWED) - names) == []


def test_the_gate_finds_an_untested_raise():
    library = [("mod", '''
def f(x):
    if x:
        raise ValueError(f"{x} is tested here")
    raise ValueError("nobody names this one")

def g(x):
    raise ValueError("is tested here" if x else "but not this")

class C:
    def h(self, e):
        raise KeyError(e)
''')]
    tests = ['import pytest\nMSG = "is tested " "here"\n']
    untested_by_name = ["mod.f: nobody names this one", "mod.g: is tested here | but not this"]
    assert untested(library, tests, {}) == untested_by_name + ["mod.C.h"]
    assert untested(library, tests, {"mod.C.h": "why"}) == untested_by_name


def test_raise_reach_lists_every_raise_of_a_run_that_reaches_none():
    """`tests/test_no_assert.py` only reads the library's source, so the
    traced script reports 0 of all the raises and lists each one."""
    total = sum(len(raises(source, module)) for module, source in _library())
    r = subprocess.run([sys.executable, "scripts/raise_reach.py", "tests/test_no_assert.py"],
                       cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    unreached = lines[lines.index(f"reached 0 of {total}") + 1:]
    assert len(unreached) == total
    assert all(ln.startswith("src/indres/") and ": raise " in ln for ln in unreached)
