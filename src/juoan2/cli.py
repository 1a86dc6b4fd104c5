"""Command-line front end: key management, encryption, and the attack bench.

Exit codes: 0 success, 1 operational failure (invalid ciphertext, a block
with two verified plaintexts under `decrypt --audit`, attack failure, bad
input files, memory or recursion depth exhausted), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from random import Random

from .codec import check_ciphertext, decode_ciphertext, decode_key, encode_ciphertext, encode_key
from .decrypt import audit_message, decrypt_block, decrypt_message
from .encrypt import BitBlock, Ciphertext, NoiseVector, encrypt_block, encrypt_message
from .errors import DecodeError, InvalidCiphertextError, ParameterError
from .keygen import PrivateKey, PublicKey, derive_public, keygen
from .cryptanalysis.density import ambiguity_estimate, assp_density_from_bits, ssp_density_from_bits
from .cryptanalysis.lattice import (
    SubsetSumAttack,
    block_from_kappa,
    expand_assp_to_ssp,
    kappa_from_assignment,
)
from .cryptanalysis.oracles import brute_force_assp

# Worked reference vectors for `vectors appendix-a` (n_tilde = 8).
_REF_A = (2, 4, 11, 29, 76, 199, 523, 1368)
_REF_M = 3581
_REF_W = 863
_REF_DELTA = 1128
_REF_LEVER = (13, 2, 9, 7, 8, 3, 6, 11)
_REF_C = (2034, 3376, 134, 88, 2402, 746, 2833, 607)
_REF_BITS = (1, 0, 1, 0, 1, 0, 0, 1)
_REF_NOISE = (0, 0, 1, 0, 0, 1, 1, 1)
_REF_S = 3204
_REF_S0 = 1260
_REF_K = 115
_REF_INTERMEDIATE = 2283
_REF_BRANCHES = ("one", "noise", "noise", "one", "skip", "one", "skip", "one")


# Largest `keygen -n`: key generation costs about n^3 time (1.3 s at n=4000,
# 8 s at 8000) and n^2 memory, so larger requests are refused up front.
_MAX_KEYGEN_N = 4096

# Largest expanded weight count `attack` takes on: 231 at n=32, 552 at n=64.
# The weight rows are reduced once per key (about 0.5 s at n=32, 15 s at
# n=64); each block then appends a row per wrap guess up to (sum of weights
# - S) // M, about half the weight count (the expansion is too dense for the
# closest-vector rule-out to skip any): about 1.3 s at n=32 and 53 s at
# n=64 a block (medians of 20 and 2 keys, Python 3.11, 2 vCPUs), and a
# message has many, so larger keys are refused.
_MAX_ATTACK_WEIGHTS = 256


def _rng_from_seed(seed: str | None) -> Random:
    if seed is None:
        return Random()
    value = int(seed, 16)
    if value < 0:  # Random seeds by absolute value: -5 would give the stream of 5
        raise ParameterError(f"--seed must not be negative, got {seed}")
    return Random(value)


def _load_key(path: str, want_private: bool):
    key = decode_key(Path(path).read_text())
    if isinstance(key, PrivateKey) != want_private:
        raise DecodeError(f"{path}: not a {'private' if want_private else 'public'} key")
    return key


def _load_ciphertext(path: str, key: PublicKey | PrivateKey) -> list[Ciphertext]:
    """Read and decode a ciphertext file and check that it fits `key`."""
    try:
        blocks, n_payload = decode_ciphertext(Path(path).read_bytes())
    except DecodeError as exc:
        raise InvalidCiphertextError(str(exc)) from exc
    check_ciphertext(blocks, n_payload, key)
    return blocks


def _cmd_keygen(args: argparse.Namespace) -> int:
    if args.n > _MAX_KEYGEN_N:
        raise ParameterError(
            f"-n {args.n} is above the ceiling of {_MAX_KEYGEN_N} payload bits per block"
        )
    pub, prv = keygen(args.n, _rng_from_seed(args.seed))
    Path(args.out + ".pub").write_text(encode_key(pub))
    Path(args.out + ".prv").write_text(encode_key(prv))
    print(f"wrote {args.out}.pub and {args.out}.prv (n={args.n}, "
          f"n_tilde={pub.n_tilde}, lgM={pub.M.bit_length()}, "
          f"ambiguous blocks ~{ambiguity_estimate(pub.n_tilde, pub.M):.2g})")
    return 0


def _cmd_encrypt(args: argparse.Namespace) -> int:
    pub = _load_key(args.pub, want_private=False)
    message = Path(args.infile).read_bytes()
    blocks = encrypt_message(pub, message, _rng_from_seed(args.seed))
    Path(args.out).write_bytes(encode_ciphertext(blocks, pub.n_payload))
    print(f"encrypted {len(message)} bytes into {len(blocks)} blocks")
    return 0


def _cmd_decrypt(args: argparse.Namespace) -> int:
    prv = _load_key(args.prv, want_private=True)
    pub = _load_key(args.pub, want_private=False)
    blocks = _load_ciphertext(args.infile, prv)
    if not args.audit:
        message = decrypt_message(prv, blocks, pub)
    else:
        message, traces = audit_message(prv, blocks, pub)
        ambiguous = 0
        for idx, (first, *rest) in enumerate(traces):
            branches = ",".join(s.branch for s in first.steps)
            print(f"block {idx}: k={first.k} bits={''.join(map(str, first.bits))} "
                  f"branches={branches}", file=sys.stderr)
            others = sorted({t.bits for t in rest} - {first.bits})
            if others:
                shown = ",".join("".join(map(str, bits)) for bits in others)
                print(f"block {idx}: ambiguous, also verifies as bits={shown}", file=sys.stderr)
                ambiguous += 1
        if ambiguous:
            print(f"error: {ambiguous} of {len(blocks)} blocks have more than one "
                  f"verified plaintext; no output written", file=sys.stderr)
            return 1
    Path(args.out).write_bytes(message)
    print(f"decrypted {len(blocks)} blocks into {len(message)} bytes")
    return 0


def _cmd_density(args: argparse.Namespace) -> int:
    if args.assp:
        report = assp_density_from_bits(args.n, args.lgM)
    else:
        report = ssp_density_from_bits(args.n, args.lgM)
    kind = "ASSP" if args.assp else "SSP"
    line = (f"{kind} n={report.n} lgM={report.lgM:.4f} "
            f"density={report.density:.4f} classification={report.classification}")
    if report.lower_bound is not None:
        line += f" lower_bound={report.lower_bound:.4f}"
    print(line)
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    pub = _load_key(args.pub, want_private=False)
    weights, var_map = expand_assp_to_ssp(pub)
    if len(weights) > _MAX_ATTACK_WEIGHTS:
        raise ParameterError(
            f"the key expands to {len(weights)} weights, above the attack's ceiling "
            f"of {_MAX_ATTACK_WEIGHTS}"
        )
    blocks = _load_ciphertext(args.ct, pub)
    attack = SubsetSumAttack(weights, pub.M, assp_map=var_map, max_wraps=args.trials)
    any_hit = False
    for idx, ct in enumerate(blocks):
        x = attack(ct.S)
        if x is None:
            print(f"block {idx}: attack failed")
            continue
        block = block_from_kappa(kappa_from_assignment(x, var_map), pub.n_tilde)
        print(f"block {idx}: recovered bits {''.join(map(str, block))}")
        any_hit = True
    return 0 if any_hit else 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    pub = _load_key(args.pub, want_private=False)
    hits = brute_force_assp(pub, args.S)
    for bits, noise in hits:
        positions = ",".join(map(str, sorted(noise))) or "-"
        print(f"bits={''.join(map(str, bits))} noise_positions={positions}")
    print(f"{len(hits)} preimages")
    return 0


def _cmd_vectors(args: argparse.Namespace) -> int:
    pub = derive_public(_REF_A, _REF_W, _REF_DELTA, _REF_LEVER, _REF_M, n_payload=8)
    prv = PrivateKey(_REF_A, _REF_M - _REF_W, pow(_REF_DELTA, -1, _REF_M), _REF_M, 8)
    checks = [("C", pub.C, _REF_C)]
    ct = encrypt_block(pub, BitBlock(_REF_BITS, 8), NoiseVector(_REF_NOISE))
    checks.append(("S", ct.S, _REF_S))
    checks.append(("S0", ct.S * prv.delta_inv % prv.M, _REF_S0))
    block, trace = decrypt_block(prv, ct, pub)
    checks.append(("k", trace.k, _REF_K))
    checks.append(
        ("intermediate", (_REF_S0 + trace.k * prv.neg_w) % prv.M, _REF_INTERMEDIATE)
    )
    checks.append(("branches", tuple(s.branch for s in trace.steps), _REF_BRANCHES))
    checks.append(("recovered", block.bits, _REF_BITS))
    ok = True
    for name, got, want in checks:
        match = got == want
        ok = ok and match
        shown = "".join(map(str, got)) if name == "recovered" else got
        print(f"{name}: {shown} [{'ok' if match else f'MISMATCH, expected {want}'}]")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="juoan2", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a key pair")
    p.add_argument("-n", type=int, required=True,
                   help=f"payload bits per block (even, >= 4, <= {_MAX_KEYGEN_N})")
    p.add_argument("--seed", help="hex seed for deterministic generation")
    p.add_argument("-o", "--out", required=True, help="output base path (.pub/.prv)")
    p.set_defaults(func=_cmd_keygen)

    p = sub.add_parser("encrypt", help="encrypt a file")
    p.add_argument("--pub", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", help="hex seed for deterministic noise/padding")
    p.set_defaults(func=_cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a file")
    p.add_argument("--prv", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pub", required=True,
                   help="public key; every decrypted block must re-encrypt under it")
    p.add_argument("--audit", action="store_true",
                   help="print per-block traces to stderr; exit 1 and write nothing "
                   "if a block has more than one verified plaintext")
    p.set_defaults(func=_cmd_decrypt)

    p = sub.add_parser("density", help="print a density report")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--assp", action="store_true")
    group.add_argument("--ssp", action="store_true")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--lgM", type=float, required=True)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("attack", help="run the lattice attack on a ciphertext (keys of at "
                       f"most {_MAX_ATTACK_WEIGHTS} expanded weights, about n <= 34)")
    p.add_argument("--pub", required=True)
    p.add_argument("--ct", required=True)
    p.add_argument("--trials", type=int,
                   help="cap on the wraparound count m, counted from 0 (by default "
                   "every m up to (sum of weights - S) // M); the guesses run "
                   "middle-out, nearest 2(S + mM) = sum of weights first")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("oracle", help="brute-force all preimages of a sum")
    p.add_argument("--pub", required=True)
    p.add_argument("--S", type=int, required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("vectors", help="replay built-in reference vectors")
    p.add_argument("vector", choices=["appendix-a"])
    p.set_defaults(func=_cmd_vectors)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidCiphertextError as exc:
        print(f"invalid ciphertext: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, RecursionError) as exc:  # a hostile input outgrew a limit
        print(f"error: {type(exc).__name__}" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
