"""Derived data has one owner: the object it is derived from.

Library modules other than the catalog hold no module-level mutable
container, and `functools.cache` memoizes only `chartab._phi_reduction`,
whose key is an integer; all other derived data, a group's character table
included, is memoized on a table, an instance or a group by
`groupcore._memo` (a block partition on its table, the data of a pair of
tables on the small table of the pair).  A group or a table keeps that data in `_cache`
and nowhere else: `_cache` is the only private attribute that
`PermGroup.__init__` sets and the only private field of `CharTable`.
"""

import ast

from test_no_assert import CHECKED, SRC

MUTABLE_LITERALS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                    ast.SetComp)
MUTABLE_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "deque",
                 "Counter"}
PROCESS_CACHES = {"cache", "lru_cache"}


# catalog's module-level BUILDERS and REFERENCE_ROWS are constant
# registries, not caches of derived data
OWNED = tuple(m for m in CHECKED if m != "catalog")


def _trees():
    for module in OWNED:
        yield module, ast.parse((SRC / f"{module}.py").read_text())


def _name(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def test_one_module_level_mutable_container():
    found = set()
    for module, tree in _trees():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if isinstance(value, MUTABLE_LITERALS) or (
                isinstance(value, ast.Call) and _name(value) in MUTABLE_CALLS
            ):
                found |= {(module, t.id) for t in targets if isinstance(t, ast.Name)}
    assert found == set()


def test_functools_cache_only_on_phi_reduction():
    found = set()
    for module, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_name(d) in PROCESS_CACHES for d in node.decorator_list):
                    found.add((module, node.name))
    assert found == {("chartab", "_phi_reduction")}


def _class(module, name):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name)


def test_permgroup_init_sets_no_private_attribute_but_cache():
    init = next(n for n in _class("groupcore", "PermGroup").body
                if isinstance(n, ast.FunctionDef) and n.name == "__init__")
    private = {
        t.attr for node in ast.walk(init)
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
        and t.value.id == "self" and t.attr.startswith("_")
    }
    assert private == {"_cache"}


def test_chartable_declares_no_private_field_but_cache():
    private = {
        t.id for node in _class("chartab", "CharTable").body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(t, ast.Name) and t.id.startswith("_")
    }
    assert private == {"_cache"}
