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
