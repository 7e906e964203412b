import ast
import pathlib

import e510

SRC = pathlib.Path(e510.__file__).parent


def test_no_assert_in_src():
    # python -O strips assert statements, so a check written as one vanishes
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert len(list(SRC.glob("*.py"))) >= 7
    assert found == []


# the attributes a module's derived caches live in, and the names they had
# before they shared one store, so that bringing one back fails too
DERIVED_ATTRS = {"_derived", "_act_cache", "_stack_cache", "_zterm_cache", "_depth_cache",
                 "_fp_cache", "_actions"}


def test_only_fmodules_reads_derived_state_by_attribute():
    # everywhere else a module's derived caches are reached through
    # cache(name, p), so fmodules alone knows how they are stored
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "fmodules.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr in DERIVED_ATTRS
             or isinstance(node, ast.Constant) and node.value in DERIVED_ATTRS]
    assert found == []


def test_only_fmodules_makes_a_dual_module():
    # every dual is a module's shared dual(), so that duals of one module
    # are one object and compose can chain them
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "fmodules.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "DualModule"]
    assert found == []
