"""Key headers that cannot describe a working key, and the stdlib-only runtime."""

import ast
import sys
from pathlib import Path
from random import Random

import pytest

import juoan2
from juoan2 import DecodeError, decode_key, encode_key, keygen


@pytest.fixture(scope="module")
def pair_n12():
    return keygen(12, Random(12))  # n = 18, np = 12


@pytest.mark.parametrize("kind", [0, 1], ids=["public", "private"])
@pytest.mark.parametrize("np", [6, 10, 13, 2, 0, -12])
def test_decode_rejects_np_that_does_not_fit_n(pair_n12, kind, np):
    text = encode_key(pair_n12[kind])
    assert "\nn=18\nnp=12\n" in text
    with pytest.raises(DecodeError, match="does not fit"):
        decode_key(text.replace("\nnp=12\n", f"\nnp={np}\n"))


def test_stdlib_only_imports():
    root = Path(juoan2.__file__).parent
    modules = sorted(root.rglob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top == "juoan2" or top in sys.stdlib_module_names, (path.name, name)
