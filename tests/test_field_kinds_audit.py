"""No constructor checks a number by hand: every range check is a field kind.

A hand-written ``if x <= 0`` in a constructor is false for NaN, and an
``int(x)`` turns 1.5 into 1; both kept letting bad values through.  So
the constructors of ``src/repro`` declare their numbers in a
``FIELD_KINDS`` table (:mod:`repro.fields`), and this walk over their
source counts what would bypass it:

* a comparison of a parameter or a ``self.`` field against a number
  literal inside ``__init__`` / ``__post_init__``;
* an ``int()`` call on one.

Relations between fields (``warmup < duration``) compare two names and
are not counted.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Set

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
CONSTRUCTORS = ("__init__", "__post_init__")


def _number(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _field(node: ast.expr, params: Set[str]) -> bool:
    if isinstance(node, ast.Name):
        return node.id in params
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def hand_checks(source: str, where: str) -> List[str]:
    """Each hand-written number check in the constructors of ``source``."""
    hits = []  # (line, column, what)
    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, ast.FunctionDef) and fn.name in CONSTRUCTORS):
            continue
        args = fn.args
        params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs} - {"self"}
        for node in ast.walk(fn):
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if any(
                    (_field(a, params) and _number(b)) or (_number(a) and _field(b, params))
                    for a, b in zip(sides, sides[1:])
                ):
                    hits.append((node.lineno, node.col_offset, ast.unparse(node)))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "int"
                and node.args
                and _field(node.args[0], params)
            ):
                hits.append((node.lineno, node.col_offset, ast.unparse(node)))
    return [f"{where}:{line} {what}" for line, _, what in sorted(hits)]


def test_no_constructor_checks_a_number_by_hand():
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        hits += hand_checks(path.read_text(), str(path.relative_to(SRC)))
    assert hits == [], "declare these in FIELD_KINDS (repro.fields):\n" + "\n".join(hits)


def test_the_walk_sees_each_shape_of_the_fault():
    source = '''
class A:
    def __init__(self, n, rate, seed):
        if n < 1 or 0.0 < rate:
            pass
        if not 0.0 <= self.window <= -1:
            pass
        self.seed = int(seed)

    def __post_init__(self):
        if self.patience < 0 or self.warmup < self.duration:
            pass

    def method(self, n):
        if n < 1:
            pass
'''
    hits = hand_checks(source, "a.py")
    assert [hit.split(" ", 1)[1] for hit in hits] == [
        "n < 1", "0.0 < rate", "0.0 <= self.window <= -1", "int(seed)", "self.patience < 0",
    ]
