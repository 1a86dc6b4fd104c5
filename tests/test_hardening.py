"""Malformed key and ciphertext files, the stdlib-only runtime, and its value types."""

import ast
import os
import subprocess
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
    BitBlock,
    Ciphertext,
    DecodeError,
    DecryptTrace,
    NoiseVector,
    PrivateKey,
    PublicKey,
    decode_ciphertext,
    decode_key,
    encode_ciphertext,
    encode_key,
    encrypt_message,
    keygen,
)
from juoan2.cryptanalysis import DensityReport, ExperimentRow, IntegerLattice


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
TESTS = sorted(Path(__file__).parent.glob("*.py"))


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
    # here, in the library and in these tests.  Package __init__ files
    # re-export, as does a line marked `# noqa: F401` (lattice.py's, for the
    # benchmark).
    unused = []
    for path in SOURCES + TESTS:
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


def test_importing_the_package_and_cli_loads_no_dataclasses():
    # The value types are NamedTuples: a dataclass generates and compiles
    # its methods on every import, and `dataclasses` itself pulls in
    # `inspect`.  A fresh process, as each CLI call is.
    env = {**os.environ, "PYTHONPATH": str(Path(juoan2.__file__).parent.parent)}
    code = "import sys, juoan2, juoan2.cryptanalysis, juoan2.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


VALUE_TYPES = [
    (lambda: PublicKey((3, 5), 11, 1), "PublicKey(C=(3, 5), M=11, n_payload=1)"),
    (lambda: PrivateKey((1, 3), 7, 4, 11, 1), "PrivateKey(A=(1, 3), neg_w=7, delta_inv=4, M=11, n_payload=1)"),
    (lambda: BitBlock((1, 0), 1), "BitBlock(bits=(1, 0), n_payload=1)"),
    (lambda: NoiseVector((0, 1)), "NoiseVector(bits=(0, 1))"),
    (lambda: Ciphertext(5), "Ciphertext(S=5)"),
    (lambda: DecryptTrace(2, (1, 0), (2,), 9, (1, 3)), "DecryptTrace(k=2, bits=(1, 0), noise_positions=(2,), residue=9)"),
    (
        lambda: DensityReport(4, 8.0, 0.5, "LLL-vulnerable"),
        "DensityReport(n=4, lgM=8.0, density=0.5, classification='LLL-vulnerable', lower_bound=None)",
    ),
    (
        lambda: ExperimentRow(20, 40.0, 0.5, "recovered", 12.5),
        "ExperimentRow(n=20, lgM=40.0, density=0.5, attack_outcome='recovered', wall_time_ms=12.5)",
    ),
    (lambda: IntegerLattice(((1, 2), (3, 4))), "IntegerLattice(rows=((1, 2), (3, 4)))"),
]


@pytest.mark.parametrize("make, text", VALUE_TYPES, ids=[text.partition("(")[0] for _, text in VALUE_TYPES])
def test_value_type_repr_immutability_and_equality(make, text):
    value, twin = make(), make()
    assert repr(value) == text
    first_field = text.partition("(")[2].partition("=")[0]
    with pytest.raises(AttributeError):
        setattr(value, first_field, None)
    assert value == twin and value is not twin and hash(value) == hash(twin)
