"""Every parameter of every function and method in invpairs is read by its body.

A parameter that no body reads is an option that changes nothing; this
check keeps such options from accumulating.  It parses each module file, so
methods whose code is not in the file (the __init__ and __eq__ that
dataclasses generate) are never seen.  A read inside a nested function or
lambda counts, since a closure is how the body uses the value.
"""

import ast
import pathlib

import pytest

import invpairs

SOURCES = sorted(pathlib.Path(invpairs.__file__).parent.glob("*.py"))


def _functions(tree):
    """Module-level functions and methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def _unread_parameters(fn):
    args = fn.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    read = {node.id for stmt in fn.body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [p for p in params if p not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unread = [f"{name}({param})" for name, fn in _functions(tree) for param in _unread_parameters(fn)]
    assert unread == []


def test_an_unread_parameter_is_reported():
    fn = ast.parse("def f(a, b, *, c=1):\n    return [a for _ in ()] or (lambda: c)\n").body[0]
    assert _unread_parameters(fn) == ["b"]
