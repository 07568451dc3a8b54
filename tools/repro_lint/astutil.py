"""Shared AST helpers for the repro-lint rules.

One vocabulary for names, scopes and the shm-segment acquisition shapes,
shared by :mod:`tools.repro_lint.rules` and :mod:`tools.repro_lint.flowrules`.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Union

#: Function-like nodes that open a new scope of their own.
FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def tail_name(node: ast.AST) -> Optional[str]:
    """Last segment of a Name/Attribute chain (``a.b.c`` -> ``"c"``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def dotted_name(node: ast.AST) -> Optional[str]:
    """Full dotted form of a Name/Attribute chain, or None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def walk_scope(stmts: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested function scopes."""
    stack: List[ast.AST] = list(stmts)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # a nested scope; its body is analyzed separately
        stack.extend(ast.iter_child_nodes(node))


def function_scopes(tree: ast.Module) -> Iterator[FunctionNode]:
    """Every function definition in the module (the flow-rule unit)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def in_path(relpath: str, *suffixes: str) -> bool:
    return any(relpath.endswith(suffix) for suffix in suffixes)


def is_shm_acquisition(node: ast.AST) -> bool:
    """Does *node* acquire a shared-memory segment?

    Either a direct segment constructor call — ``ShmSegment(...)``, the
    one place this repository maps a segment (``kernels/shm.py``), or
    the standard library's ``SharedMemory(...)`` — or a
    ``<...>Store.create(...)`` / ``<...>Store.attach(...)`` classmethod,
    the way everything else obtains a segment handle.  What RPL008
    tracks.
    """
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    tail = tail_name(func)
    if tail in ("ShmSegment", "SharedMemory"):
        return True
    if tail in ("create", "attach") and isinstance(func, ast.Attribute):
        receiver = tail_name(func.value)
        return receiver is not None and "Store" in receiver
    return False


__all__ = [
    "FunctionNode",
    "dotted_name",
    "function_scopes",
    "in_path",
    "is_shm_acquisition",
    "tail_name",
    "walk_scope",
]
