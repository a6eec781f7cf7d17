"""No tuple is built from a generator or iterator in the package.

CPython 3.11 builds `tuple(<generator>)`, `tuple(map(...))` (likewise
filter and zip) and the arguments of `f(*<generator>)` in a 10-slot tuple
that `_PyTuple_Resize` then shrinks with a realloc.  Once freed, such a
tuple joins the free list for its final size.  Those lists keep up to 2000
tuples per size, for sizes 1 to 19, and only a generation-2 collection
empties them.  So a long-running process built this way keeps growing its
resident memory with the number of calls it makes.  `tuple([...])` sizes
the tuple exactly from the list.
"""

import ast
import pathlib

import tropsing

PACKAGE = pathlib.Path(tropsing.__file__).parent
ITERATORS = {"map", "filter", "zip"}


def builds_from_iterator(node):
    return isinstance(node, ast.GeneratorExp) or (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ITERATORS
    )


def test_package_builds_no_tuple_from_a_generator():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            is_tuple = isinstance(node.func, ast.Name) and node.func.id == "tuple"
            args = node.args[:1] if is_tuple else [
                a.value for a in node.args if isinstance(a, ast.Starred)
            ]
            if any(builds_from_iterator(a) for a in args):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
