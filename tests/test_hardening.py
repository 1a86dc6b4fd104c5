"""Malformed key and ciphertext files, and the stdlib-only runtime."""

import ast
import sys
import warnings
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import juoan2
import juoan2.cryptanalysis
from juoan2 import (
    DecodeError,
    decode_ciphertext,
    decode_key,
    encode_ciphertext,
    encode_key,
    encrypt_message,
    keygen,
)


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


_PUB, _PRV = keygen(4, Random(4))
VALID_KEYS = (encode_key(_PUB), encode_key(_PRV), encode_key(keygen(12, Random(12))[1]))
VALID_CIPHERTEXTS = (
    encode_ciphertext(encrypt_message(_PUB, b"fuzz", Random(1)), _PUB.n_payload),
    encode_ciphertext([], 4),
)


@st.composite
def mutated(draw, originals, alphabet):
    """One of `originals` with a few characters or bytes replaced, deleted or inserted."""
    data = draw(st.sampled_from(originals))
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.sampled_from(range(len(data) + 1)))  # uniform, unlike integers()
        cut = draw(st.integers(0, 3))
        data = data[:pos] + draw(alphabet) + data[pos + cut :]
    return data


KEY_ALPHABET = st.text(st.sampled_from("0123456789abcdefABCDEF-+_=,\n xnpMCANWDI\u0663"), max_size=3)


def decodes_or_rejects(decode, data) -> None:
    """`decode` may return or raise DecodeError; any other exception fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a small modulus only warns
        try:
            decode(data)
        except DecodeError:
            pass


@settings(max_examples=300, deadline=None)
@given(st.one_of(mutated(VALID_KEYS, KEY_ALPHABET), st.text(max_size=200)))
def test_decode_key_raises_only_decode_error(text):
    decodes_or_rejects(decode_key, text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(mutated(VALID_CIPHERTEXTS, st.binary(max_size=3)), st.binary(max_size=64)))
def test_decode_ciphertext_raises_only_decode_error(data):
    decodes_or_rejects(decode_ciphertext, data)


SOURCES = sorted(Path(juoan2.__file__).parent.rglob("*.py"))


def test_stdlib_only_imports():
    assert SOURCES
    for path in SOURCES:
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


def test_sources_parse_as_python_3_10():
    # requires-python is >=3.10.  feature_version only rejects syntax newer
    # than 3.10 (a match statement passes, an except* group fails); it is a
    # syntax floor and says nothing about library calls added since.
    for path in SOURCES:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


@pytest.mark.parametrize("package", [juoan2, juoan2.cryptanalysis], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(package):
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert not missing


def test_no_source_module_has_an_unused_import():
    # No linter runs on this tree, so an import that a removal orphans shows
    # here.  Package __init__ files re-export, as does a line marked
    # `# noqa: F401` (lattice.py's, for the benchmark).
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            if "# noqa: F401" in "\n".join(lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in used:
                    unused.append((path.name, name))
    assert not unused


def test_no_module_imports_another_modules_private_names():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and node.module.partition(".")[0] != "juoan2":
                continue  # stdlib, including __future__
            module_parts = (node.module or "").split(".")
            names = [alias.name for alias in node.names]
            private = [part for part in module_parts + names if part.startswith("_")]
            assert not private, (path.name, node.module, private)
