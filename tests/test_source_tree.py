"""Source-tree rules that are cheaper to check than to review."""

import ast
from pathlib import Path

import longattn

# Tape ops whose finite-difference checks live outside test_primitive_op_gradients:
# the CTC loss is checked in test_ctc.py and by acceptance criterion 4.
GRADIENT_CHECKED_ELSEWHERE = {"ctc_loss_op"}

# Module-level functions and classes that nothing in src refers to by name.
# Each one is here for a reason outside src; anything else that src does not
# use belongs in the tests or nowhere.
UNREFERENCED_ALLOWED = {
    # independent oracles that tests compare the program against
    "attn_kernel_form",
    "sigma_inverse",
    "ctc_brute_force",
    "check_gradients",
    # the benchmark's per-block training check
    "loss_decreased",
}


def calls(node) -> set[str]:
    """Names of the functions called anywhere in ``node``: ``f(...)`` and ``m.f(...)``."""
    return {call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for call in ast.walk(node) if isinstance(call, ast.Call)
            and isinstance(call.func, (ast.Name, ast.Attribute))}


def test_every_tape_op_has_a_gradient_check():
    # every new op gets a finite-difference gradient check
    ops = set()
    for path in Path(longattn.__file__).parent.rglob("*.py"):
        ops |= {node.name for node in ast.parse(path.read_text(encoding="utf-8")).body
                if isinstance(node, ast.FunctionDef) and "make_op" in calls(node)}
    tests = ast.parse((Path(__file__).parent / "test_numerics.py").read_text(encoding="utf-8"))
    (check,) = [node for node in tests.body if isinstance(node, ast.FunctionDef)
                and node.name == "test_primitive_op_gradients"]
    assert ops - calls(check) == GRADIENT_CHECKED_ELSEWHERE


def test_every_src_definition_is_used_in_src_or_allowlisted():
    defined, used = set(), set()
    for path in Path(longattn.__file__).parent.rglob("*.py"):
        if path.name == "__init__.py":  # re-exports are not uses
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined |= {node.name for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            # ``np.exp`` is numpy's, not a use of a src ``exp``
            elif isinstance(node, ast.Attribute) and not (
                    isinstance(node.value, ast.Name) and node.value.id == "np"):
                used.add(node.attr)
    assert defined - used == UNREFERENCED_ALLOWED


def test_src_rebinds_no_global():
    # the current tape is a context variable, set and reset, never rebound; the
    # row-block pool is a cached object, started once
    rebound = set()
    for path in Path(longattn.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Global):
                rebound.update(node.names)
    assert rebound == set()
