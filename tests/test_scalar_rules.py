"""Every range check of a scalar argument goes through one of the two rules in stiefel.py."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stiefelgen"

#: Message fragments of a hand-written scalar check: stiefel._check_integer and _check_real raise these.
RULE_PHRASES = ("must lie in", "must be finite", "must be positive", "must be an integer")


def value_error_messages(tree: ast.Module) -> list:
    """The literal text of each `raise ValueError(...)` in a module, the constant parts of an f-string joined."""
    return [
        "".join(part.value for part in ast.walk(arg) if isinstance(part, ast.Constant) and isinstance(part.value, str))
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "ValueError"
        for arg in node.exc.args
    ]


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py") if p.name != "stiefel.py"))
def test_no_scalar_is_range_checked_by_hand(name):
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    by_hand = [m for m in value_error_messages(tree) if any(phrase in m for phrase in RULE_PHRASES)]
    assert by_hand == [], f"use stiefel._check_integer or stiefel._check_real in {name}, not {by_hand}"


def test_the_rules_themselves_are_seen():
    # the two rules raise the phrases, so a scan that found nothing there would find nothing anywhere
    messages = value_error_messages(ast.parse((SRC / "stiefel.py").read_text(encoding="utf-8")))
    assert {phrase for phrase in RULE_PHRASES for m in messages if phrase in m} == {"must lie in", "must be an integer"}
