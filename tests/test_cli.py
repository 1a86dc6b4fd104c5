"""Command-line interface: subcommands, exit codes, reproducibility."""

import hashlib
import time
from pathlib import Path
from random import Random

import pytest

import juoan2.cli
import juoan2.decrypt
from juoan2 import (
    Ciphertext,
    InvalidCiphertextError,
    PublicKey,
    decode_ciphertext,
    decode_key,
    encode_ciphertext,
    encode_key,
    encrypt_block,
    extend_block,
    sample_noise,
)
from juoan2.cli import main
from juoan2.decrypt import audit_decrypt_block, decrypt_block
from juoan2.encrypt import compute_L
from juoan2.cryptanalysis import (
    ambiguity_estimate,
    block_from_kappa,
    expand_assp_to_ssp,
    kappa_from_assignment,
    lattice,
    lattice_attack,
)

from conftest import (
    BAD_FRAMINGS,
    NO_RESIDUE_PRV,
    NO_RESIDUE_PUB,
    NO_RESIDUE_S,
    REF_S,
    REFUSED_PRIVATE_KEYS,
    encrypt_payloads,
    time_limit,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_vectors_appendix_a(capsys):
    code, out, _ = run(capsys, "vectors", "appendix-a")
    assert code == 0
    assert "S: 3204 [ok]" in out
    assert "k: 115 [ok]" in out
    assert "recovered: 10101001 [ok]" in out


def test_keygen_encrypt_decrypt_round_trip(tmp_path, capsys):
    base = str(tmp_path / "key")
    msg = tmp_path / "msg.bin"
    ct = tmp_path / "msg.ct"
    out = tmp_path / "msg.out"
    msg.write_bytes(b"the quick brown fox")
    assert run(capsys, "keygen", "-n", "16", "--seed", "c0ffee", "-o", base)[0] == 0
    assert run(capsys, "encrypt", "--pub", base + ".pub", "--in", str(msg),
               "--out", str(ct), "--seed", "01")[0] == 0
    code, _, err = run(capsys, "decrypt", "--prv", base + ".prv",
                       "--pub", base + ".pub", "--in", str(ct), "--out", str(out))
    assert code == 0, err
    assert out.read_bytes() == b"the quick brown fox"


def test_decrypt_audit_prints_traces(tmp_path, capsys):
    base = str(tmp_path / "key")
    msg = tmp_path / "m"
    ct = tmp_path / "c"
    out = tmp_path / "o"
    msg.write_bytes(b"hi")
    run(capsys, "keygen", "-n", "8", "--seed", "aa", "-o", base)
    run(capsys, "encrypt", "--pub", base + ".pub", "--in", str(msg),
        "--out", str(ct), "--seed", "02")
    code, _, err = run(capsys, "decrypt", "--prv", base + ".prv",
                       "--pub", base + ".pub", "--in", str(ct),
                       "--out", str(out), "--audit")
    assert code == 0
    assert "block 0: k=" in err


def test_decrypt_audit_decrypts_each_block_once(tmp_path, capsys, monkeypatch):
    base = str(tmp_path / "key")
    msg = tmp_path / "m"
    ct = tmp_path / "c"
    out = tmp_path / "o"
    message = b"eleven blocks at n=16"
    msg.write_bytes(message)
    run(capsys, "keygen", "-n", "16", "--seed", "ab", "-o", base)
    run(capsys, "encrypt", "--pub", base + ".pub", "--in", str(msg),
        "--out", str(ct), "--seed", "03")
    prv = decode_key(Path(base + ".prv").read_text())
    pub = decode_key(Path(base + ".pub").read_text())
    blocks, _ = decode_ciphertext(ct.read_bytes())
    assert len(blocks) > 1
    want = []
    for idx, ct_block in enumerate(blocks):
        plain, trace = decrypt_block(prv, ct_block, pub)
        want.append(f"block {idx}: k={trace.k} bits={''.join(map(str, plain.bits))} "
                    f"branches={','.join(s.branch for s in trace.steps)}")

    scanned = []
    scan = juoan2.decrypt._scan

    def counted(*args):
        scanned.append(args[1])
        return scan(*args)

    def forbidden(*args, **kwargs):
        raise AssertionError("decrypt --audit called decrypt_message")

    monkeypatch.setattr(juoan2.decrypt, "_scan", counted)
    monkeypatch.setattr(juoan2.cli, "decrypt_message", forbidden)
    code, stdout, err = run(capsys, "decrypt", "--prv", base + ".prv",
                            "--pub", base + ".pub", "--in", str(ct),
                            "--out", str(out), "--audit")
    assert code == 0, err
    assert stdout == f"decrypted {len(blocks)} blocks into {len(message)} bytes\n"
    assert out.read_bytes() == message
    assert err.splitlines() == want
    assert scanned == blocks


def test_decrypt_refuses_another_keys_public_key(tmp_path, capsys):
    mine, theirs = str(tmp_path / "mine"), str(tmp_path / "theirs")
    msg, ct, out = tmp_path / "m", tmp_path / "c", tmp_path / "o"
    msg.write_bytes(b"hi")
    run(capsys, "keygen", "-n", "8", "--seed", "aa", "-o", mine)
    run(capsys, "keygen", "-n", "8", "--seed", "bb", "-o", theirs)
    run(capsys, "encrypt", "--pub", mine + ".pub", "--in", str(msg),
        "--out", str(ct), "--seed", "02")
    code, _, err = run(capsys, "decrypt", "--prv", mine + ".prv", "--pub", theirs + ".pub",
                       "--in", str(ct), "--out", str(out))
    assert code == 1
    assert "public key does not match the private key" in err and "Traceback" not in err
    assert not out.exists()


def test_decrypt_without_a_public_key_is_a_usage_error(tmp_path, capsys):
    base = str(tmp_path / "key")
    run(capsys, "keygen", "-n", "8", "--seed", "aa", "-o", base)
    with pytest.raises(SystemExit) as exc:
        main(["decrypt", "--prv", base + ".prv", "--in", str(tmp_path / "c"),
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "--pub" in capsys.readouterr().err


def test_keygen_prints_the_ambiguity_estimate(tmp_path, capsys):
    base = str(tmp_path / "key")
    code, out, _ = run(capsys, "keygen", "-n", "4", "--seed", "07", "-o", base)
    assert code == 0
    pub = decode_key(Path(base + ".pub").read_text())
    estimate = ambiguity_estimate(pub.n_tilde, pub.M)
    assert 0.05 < estimate < 0.5
    assert f"ambiguous blocks ~{estimate:.2g})" in out


def test_keygen_rejects_n_above_the_ceiling_at_once(tmp_path, capsys):
    base = tmp_path / "key"
    start = time.perf_counter()
    code, _, err = run(capsys, "keygen", "-n", "1000000000", "-o", str(base))
    assert time.perf_counter() - start < 0.5
    assert code == 1
    assert "ceiling of 4096" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("seed", [["--seed", "-5"], ["--seed=-0x5"]])
def test_keygen_refuses_a_negative_seed(tmp_path, capsys, seed):
    code, out, err = run(capsys, "keygen", "-n", "8", *seed, "-o", str(tmp_path / "key"))
    assert code == 1
    assert out == ""
    assert err == f"error: --seed must not be negative, got {seed[-1].removeprefix('--seed=')}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("seed", [["--seed", "-5"], ["--seed=-0x5"]])
def test_encrypt_refuses_a_negative_seed(tmp_path, capsys, seed):
    keys = tmp_path / "keys"
    keys.mkdir()
    run(capsys, "keygen", "-n", "8", "--seed", "5", "-o", str(keys / "key"))
    msg = keys / "m"
    msg.write_bytes(b"seed")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, out, err = run(capsys, "encrypt", "--pub", str(keys / "key.pub"), "--in", str(msg),
                         "--out", str(out_dir / "m.ct"), *seed)
    assert code == 1
    assert out == ""
    assert err == f"error: --seed must not be negative, got {seed[-1].removeprefix('--seed=')}\n"
    assert not list(out_dir.iterdir())


def test_seeded_runs_are_byte_identical(tmp_path, capsys):
    msg = tmp_path / "m"
    msg.write_bytes(b"determinism")
    outputs = []
    for tag in ("x", "y"):
        base = str(tmp_path / tag)
        ct = tmp_path / (tag + ".ct")
        run(capsys, "keygen", "-n", "8", "--seed", "5eed", "-o", base)
        run(capsys, "encrypt", "--pub", base + ".pub", "--in", str(msg),
            "--out", str(ct), "--seed", "0abc")
        outputs.append(
            ((tmp_path / (tag + ".pub")).read_bytes(),
             (tmp_path / (tag + ".prv")).read_bytes(),
             ct.read_bytes())
        )
    assert outputs[0] == outputs[1]
    # SHA-256 of the .pub, .prv and .ct files: any change to the seeded
    # random streams of keygen or encryption shows here.
    assert [hashlib.sha256(b).hexdigest() for b in outputs[0]] == [
        "1dda9779d387468e855cb5d7940f1c5e514146d1660a56c04fe2a88b26a67d6e",
        "29459fecd712559eeac0ab3d99a1c88cefce9343cd5f024ac63dbf9d4f12feed",
        "8bd5785fc9fbc41857a2b21bb0e49324253ea53ff12cca31c2bdd49eedefc116",
    ]


def test_decrypt_corrupted_ciphertext_fails_cleanly(tmp_path, capsys):
    base = str(tmp_path / "key")
    run(capsys, "keygen", "-n", "8", "--seed", "aa", "-o", base)
    bad = tmp_path / "bad.ct"
    bad.write_bytes(b"\x00garbage")
    code, _, err = run(capsys, "decrypt", "--prv", base + ".prv", "--pub", base + ".pub",
                       "--in", str(bad), "--out", str(tmp_path / "x"))
    assert code == 1
    assert "invalid ciphertext" in err


def test_density_subcommand(capsys):
    code, out, _ = run(capsys, "density", "--assp", "-n", "10", "--lgM", "20")
    assert code == 0
    assert "density=1.0896" in out
    assert "supercritical" in out
    code, out, _ = run(capsys, "density", "--ssp", "-n", "20", "--lgM", "40")
    assert code == 0
    assert "density=0.5000" in out
    assert "LLL-vulnerable" in out


@pytest.mark.parametrize("kind", ["--ssp", "--assp"])
@pytest.mark.parametrize("lg", ["nan", "inf", "-inf"])
def test_density_rejects_non_finite_bit_size(capsys, kind, lg):
    code, out, err = run(capsys, "density", kind, "-n", "10", f"--lgM={lg}")
    assert code == 1
    assert out == ""
    assert "finite bit size" in err and "Traceback" not in err


@pytest.mark.parametrize("kind", ["--ssp", "--assp"])
def test_density_rejects_an_n_too_large_for_a_float(capsys, kind):
    code, out, err = run(capsys, "density", kind, "-n", "9" * 400, "--lgM", "20")
    assert code == 1
    assert out == ""
    assert "too large for a float" in err and "Traceback" not in err


def test_oracle_subcommand(tmp_path, capsys, ref_pub):
    pub_file = tmp_path / "ref.pub"
    pub_file.write_text(encode_key(ref_pub))
    with pytest.warns(Warning):
        code, out, _ = run(capsys, "oracle", "--pub", str(pub_file), "--S", str(REF_S))
    assert code == 0
    assert "bits=10101001 noise_positions=6,7" in out
    assert "1 preimages" in out


def test_oracle_rejects_out_of_range_sum(tmp_path, capsys, ref_pub):
    pub_file = tmp_path / "ref.pub"
    pub_file.write_text(encode_key(ref_pub))
    with pytest.warns(Warning):
        code, _, err = run(capsys, "oracle", "--pub", str(pub_file), "--S", "99999")
    assert code == 1
    assert "target 99999 outside [0, 3581)" in err


def test_oracle_prints_the_genuine_preimage_at_n_10(tmp_path, capsys):
    base = str(tmp_path / "key")
    assert run(capsys, "keygen", "-n", "10", "--seed", "0a", "-o", base)[0] == 0
    pub = decode_key(Path(base + ".pub").read_text())
    rng = Random(4)
    block = extend_block([rng.randint(0, 1) for _ in range(10)], rng)
    noise = sample_noise(15, rng)
    S = encrypt_block(pub, block, noise).S
    levels = compute_L(block.bits)
    included = [i + 1 for i in range(15) if noise.bits[i] and not block.bits[i] and levels[i]]
    with time_limit(2):  # n_tilde = 15
        code, out, err = run(capsys, "oracle", "--pub", base + ".pub", "--S", str(S))
    assert code == 0, err
    bits = "".join(map(str, block.bits))
    assert f"bits={bits} noise_positions={','.join(map(str, included)) or '-'}" in out


def test_encrypt_with_unpadded_key_names_the_layout(tmp_path, capsys, ref_pub):
    pub_file = tmp_path / "ref.pub"
    pub_file.write_text(encode_key(ref_pub))
    msg = tmp_path / "m"
    msg.write_bytes(b"x")
    with pytest.warns(Warning):
        code, _, err = run(capsys, "encrypt", "--pub", str(pub_file), "--in", str(msg),
                           "--out", str(tmp_path / "c"), "--seed", "01")
    assert code == 1
    assert "key has no padding positions" in err and "use encrypt_block" in err
    assert "Traceback" not in err


def test_attack_subcommand_runs(tmp_path, capsys):
    base = str(tmp_path / "key")
    msg = tmp_path / "m"
    ct = tmp_path / "c"
    msg.write_bytes(b"a")
    run(capsys, "keygen", "-n", "4", "--seed", "07", "-o", base)
    run(capsys, "encrypt", "--pub", base + ".pub", "--in", str(msg),
        "--out", str(ct), "--seed", "03")
    code, out, _ = run(capsys, "attack", "--pub", base + ".pub",
                       "--ct", str(ct), "--trials", "4")
    assert code in (0, 1)
    assert "block 0:" in out


def test_attack_survives_a_half_sum_ciphertext(tmp_path, capsys):
    # S chosen so that 2(S + m*M) equals the sum of the expanded weights for
    # a wrap guess m the attack tries: that guess's lattice rows are dependent.
    base = str(tmp_path / "key")
    run(capsys, "keygen", "-n", "4", "--seed", "01", "-o", base)
    pub = decode_key(Path(base + ".pub").read_text())
    weights, _ = expand_assp_to_ssp(pub)
    assert sum(weights) % 2 == 0 and sum(weights) // 2 // pub.M < len(weights)
    ct = tmp_path / "c"
    ct.write_bytes(encode_ciphertext([Ciphertext(sum(weights) // 2 % pub.M)], 4))
    code, out, err = run(capsys, "attack", "--pub", base + ".pub", "--ct", str(ct))
    assert "rank deficient" not in err
    assert "block 0:" in out
    assert code in (0, 1)


def test_attack_rejects_negative_trials(tmp_path, capsys):
    base = str(tmp_path / "key")
    msg = tmp_path / "m"
    ct = tmp_path / "c"
    msg.write_bytes(b"a")
    run(capsys, "keygen", "-n", "4", "--seed", "07", "-o", base)
    run(capsys, "encrypt", "--pub", base + ".pub", "--in", str(msg),
        "--out", str(ct), "--seed", "03")
    code, out, err = run(capsys, "attack", "--pub", base + ".pub",
                         "--ct", str(ct), "--trials", "-1")
    assert code == 1
    assert "max_wraps must be >= 0" in err
    assert "block 0:" not in out


def test_attack_with_huge_trials_returns_promptly(tmp_path, capsys):
    base = str(tmp_path / "key")
    msg = tmp_path / "m"
    ct = tmp_path / "c"
    msg.write_bytes(b"a")
    run(capsys, "keygen", "-n", "4", "--seed", "07", "-o", base)
    run(capsys, "encrypt", "--pub", base + ".pub", "--in", str(msg),
        "--out", str(ct), "--seed", "03")
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "attack", "--pub", base + ".pub",
                       "--ct", str(ct), "--trials", "1000000000")
    assert time.perf_counter() - t0 < 2
    assert code in (0, 1)
    assert "block 0:" in out



def _key_and_ciphertext(tmp_path, capsys, n, tag):
    base = str(tmp_path / f"key{tag}")
    msg = tmp_path / f"m{tag}"
    ct = tmp_path / f"c{tag}"
    msg.write_bytes(b"a")
    run(capsys, "keygen", "-n", str(n), "--seed", "07", "-o", base)
    run(capsys, "encrypt", "--pub", base + ".pub", "--in", str(msg),
        "--out", str(ct), "--seed", "03")
    return base + ".pub", str(ct)


@pytest.mark.parametrize("key_n, ct_n", [(4, 16), (16, 4)])
def test_attack_rejects_a_ciphertext_framed_for_another_width(
    tmp_path, capsys, monkeypatch, key_n, ct_n
):
    pub, _ = _key_and_ciphertext(tmp_path, capsys, key_n, "k")
    _, ct = _key_and_ciphertext(tmp_path, capsys, ct_n, "c")
    attacked = []
    monkeypatch.setattr(lattice, "SubsetSumAttack", lambda *a, **k: attacked.append(a))
    code, out, err = run(capsys, "attack", "--pub", pub, "--ct", ct)
    assert code == 1
    assert f"ciphertext framing says n={ct_n} but the key was built for n={key_n}" in err
    assert "block 0:" not in out
    assert not attacked


@pytest.mark.parametrize("audit", [(), ("--audit",)], ids=["audit0", "audit1"])
def test_decrypt_rejects_a_ciphertext_framed_for_another_width(tmp_path, capsys, audit):
    pub, _ = _key_and_ciphertext(tmp_path, capsys, 4, "k")
    _, ct = _key_and_ciphertext(tmp_path, capsys, 16, "c")
    out = tmp_path / "o"
    code, stdout, err = run(capsys, "decrypt", "--prv", str(Path(pub).with_suffix(".prv")),
                            "--pub", pub, "--in", ct, "--out", str(out), *audit)
    assert (code, stdout) == (1, "")
    assert err == "error: ciphertext framing says n=16 but the key was built for n=4\n"
    assert not out.exists()


def test_attack_refuses_a_key_above_the_ceiling_at_once(tmp_path, capsys, monkeypatch):
    pub, ct = _key_and_ciphertext(tmp_path, capsys, 128, "")
    attacked = []
    monkeypatch.setattr(lattice, "SubsetSumAttack", lambda *a, **k: attacked.append(a))
    start = time.perf_counter()
    code, out, err = run(capsys, "attack", "--pub", pub, "--ct", ct)
    assert time.perf_counter() - start < 0.5
    assert code == 1
    assert "1289 weights" in err
    assert f"ceiling of {juoan2.cli._MAX_ATTACK_WEIGHTS}" in err
    assert "block 0:" not in out
    assert not attacked


def test_attack_refuses_a_modulus_above_the_window_at_once(tmp_path, capsys, monkeypatch):
    # six weights, but an 8000-bit modulus: the attack would run for half a minute
    pub = tmp_path / "wide.pub"
    ct = tmp_path / "wide.ct"
    M = (1 << 8000) - 1
    pub.write_text(encode_key(PublicKey(tuple(M // k for k in range(2, 8)), M, 4)))
    ct.write_bytes(encode_ciphertext([Ciphertext(M // 3)], 4))
    attacked = []
    monkeypatch.setattr(lattice, "SubsetSumAttack", lambda *a, **k: attacked.append(a))
    start = time.perf_counter()
    code, out, err = run(capsys, "attack", "--pub", str(pub), "--ct", str(ct))
    assert time.perf_counter() - start < 0.5
    assert code == 1
    assert "above the ceiling 12" in err and "Traceback" not in err
    assert "block 0:" not in out
    assert not attacked


def test_wrong_key_type_fails(tmp_path, capsys):
    base = str(tmp_path / "key")
    run(capsys, "keygen", "-n", "8", "--seed", "aa", "-o", base)
    msg = tmp_path / "m"
    msg.write_bytes(b"z")
    code, _, err = run(capsys, "encrypt", "--pub", base + ".prv",
                       "--in", str(msg), "--out", str(tmp_path / "c"))
    assert code == 1
    assert "not a public key" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["density", "-n", "10", "--lgM", "20"])  # missing --assp/--ssp
    assert exc.value.code == 2


def test_decrypt_audit_refuses_an_ambiguous_block(tmp_path, capsys):
    # keygen(4) with seed 1: "hi" encrypted with seed 1 has two blocks (1 and
    # 2) with a second verified plaintext, and plain decryption silently
    # returns b"bi".
    base = str(tmp_path / "key")
    msg, ct, out = tmp_path / "m", tmp_path / "c", tmp_path / "o"
    msg.write_bytes(b"hi")
    run(capsys, "keygen", "-n", "4", "--seed", "1", "-o", base)
    run(capsys, "encrypt", "--pub", base + ".pub", "--in", str(msg),
        "--out", str(ct), "--seed", "1")
    prv = decode_key(Path(base + ".prv").read_text())
    pub = decode_key(Path(base + ".pub").read_text())
    blocks, _ = decode_ciphertext(ct.read_bytes())
    verified = [{t.bits for t in audit_decrypt_block(prv, b, pub)} for b in blocks]
    assert [i for i, v in enumerate(verified) if len(v) > 1] == [1, 2]
    decrypt = ("decrypt", "--prv", base + ".prv", "--pub", base + ".pub",
               "--in", str(ct), "--out", str(out))
    code, _, err = run(capsys, *decrypt, "--audit")
    assert code == 1
    assert not out.exists()
    assert "Traceback" not in err
    assert [line.split(":")[0] for line in err.splitlines() if "ambiguous" in line] == ["block 1", "block 2"]
    assert err.splitlines()[-1] == (
        "error: 2 of 5 blocks have more than one verified plaintext; no output written")
    code, _, err = run(capsys, *decrypt)
    assert code == 0, err
    assert out.read_bytes() == b"bi"


def _uniform_residue(M):  # decrypt_block finds no verified decomposition of it
    return Random(0).randrange(M)


def _beyond_M(M):
    return M + 5


@pytest.mark.parametrize("audit, bad_block, message", [
    pytest.param((), _uniform_residue, "no k <= ", id="audit0"),
    pytest.param(("--audit",), _uniform_residue, "no k <= ", id="audit1"),
    pytest.param((), _beyond_M, "ciphertext {S} outside [0, {M})\n", id="beyond-M-audit0"),
    pytest.param(("--audit",), _beyond_M, "ciphertext {S} outside [0, {M})\n",
                 id="beyond-M-audit1"),
])
def test_decrypt_names_the_block_it_rejects(tmp_path, capsys, audit, bad_block, message):
    base = str(tmp_path / "key")
    msg, ct, out = tmp_path / "m", tmp_path / "c", tmp_path / "o"
    msg.write_bytes(b"three blocks")
    run(capsys, "keygen", "-n", "16", "--seed", "ab", "-o", base)
    run(capsys, "encrypt", "--pub", base + ".pub", "--in", str(msg),
        "--out", str(ct), "--seed", "04")
    prv = decode_key(Path(base + ".prv").read_text())
    pub = decode_key(Path(base + ".pub").read_text())
    blocks, n_payload = decode_ciphertext(ct.read_bytes())
    blocks[1] = Ciphertext(bad_block(pub.M))
    if blocks[1].S < pub.M:  # a residue: decrypt_block must reject it on its own
        with pytest.raises(InvalidCiphertextError):
            decrypt_block(prv, blocks[1], pub)
    ct.write_bytes(encode_ciphertext(blocks, n_payload))
    code, _, err = run(capsys, "decrypt", "--prv", base + ".prv", "--pub", base + ".pub",
                       "--in", str(ct), "--out", str(out), *audit)
    assert code == 1
    assert err.startswith("invalid ciphertext: block 1: " + message.format(S=blocks[1].S, M=pub.M))
    assert not out.exists()


def test_attack_names_a_block_outside_the_modulus(tmp_path, capsys, monkeypatch):
    pub, ct = _key_and_ciphertext(tmp_path, capsys, 8, "")
    M = decode_key(Path(pub).read_text()).M
    blocks, n_payload = decode_ciphertext(Path(ct).read_bytes())
    blocks[1] = Ciphertext(M + 5)
    Path(ct).write_bytes(encode_ciphertext(blocks, n_payload))
    attacked = []
    monkeypatch.setattr(lattice, "SubsetSumAttack", lambda *a, **k: attacked.append(a))
    code, out, err = run(capsys, "attack", "--pub", pub, "--ct", ct, "--trials", "0")
    assert (code, out) == (1, "")
    assert err == f"invalid ciphertext: block 1: ciphertext {M + 5} outside [0, {M})\n"
    assert not attacked


@pytest.mark.parametrize("command", ["decrypt", "attack"])
def test_a_malformed_ciphertext_file_reads_the_same_in_every_command(
    tmp_path, capsys, monkeypatch, command
):
    pub, _ = _key_and_ciphertext(tmp_path, capsys, 8, "")
    bad, out = tmp_path / "bad.ct", tmp_path / "o"
    bad.write_bytes(b"J2CTgarbage")  # the magic, then 7 of the header's 9 bytes
    attacked = []
    monkeypatch.setattr(lattice, "SubsetSumAttack", lambda *a, **k: attacked.append(a))
    if command == "decrypt":
        argv = ("decrypt", "--prv", pub[:-4] + ".prv", "--pub", pub,
                "--in", str(bad), "--out", str(out))
    else:
        argv = ("attack", "--pub", pub, "--ct", str(bad))
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (1, "")
    assert err == "invalid ciphertext: truncated ciphertext header\n"
    assert not out.exists() and not attacked


def test_attack_reduces_the_weight_rows_once_per_key(tmp_path, capsys, monkeypatch):
    base = str(tmp_path / "key")
    msg, ct = tmp_path / "m", tmp_path / "c"
    msg.write_bytes(b"abcd")  # 33 framed bits: three 16-bit blocks
    run(capsys, "keygen", "-n", "16", "--seed", "5e", "-o", base)
    run(capsys, "encrypt", "--pub", base + ".pub", "--in", str(msg),
        "--out", str(ct), "--seed", "06")
    pub = decode_key(Path(base + ".pub").read_text())
    blocks, _ = decode_ciphertext(ct.read_bytes())
    assert len(blocks) == 3
    weights, var_map = expand_assp_to_ssp(pub)
    expected = []
    for idx, block in enumerate(blocks):
        x = lattice_attack(weights, block.S, pub.M, assp_map=var_map, max_wraps=2)
        if x is None:
            expected.append(f"block {idx}: attack failed")
        else:
            bits = block_from_kappa(kappa_from_assignment(x, var_map), pub.n_tilde)
            expected.append(f"block {idx}: recovered bits {''.join(map(str, bits))}")
    sizes = []

    class CountedBasis(lattice.ReducedBasis):
        def __init__(self, rows=(), *args, **kwargs):
            rows = list(rows)
            sizes.append(len(rows))
            super().__init__(rows, *args, **kwargs)

    monkeypatch.setattr(lattice, "ReducedBasis", CountedBasis)
    code, out, err = run(capsys, "attack", "--pub", base + ".pub", "--ct", str(ct),
                         "--trials", "2")
    assert out.splitlines() == expected, err
    assert code == (0 if any("recovered" in line for line in expected) else 1)
    assert sizes == [len(weights)]


@pytest.mark.parametrize("command", ["decrypt", "attack"])
def test_an_empty_ciphertext_reads_the_same_in_every_command(
    tmp_path, capsys, monkeypatch, command
):
    pub, _ = _key_and_ciphertext(tmp_path, capsys, 8, "")
    empty, out = tmp_path / "empty.ct", tmp_path / "o"
    empty.write_bytes(encode_ciphertext([], 8))
    attacked = []
    if command == "decrypt":
        argv = ("decrypt", "--prv", pub[:-4] + ".prv", "--pub", pub,
                "--in", str(empty), "--out", str(out))
    else:
        monkeypatch.setattr(lattice, "SubsetSumAttack", lambda *a, **k: attacked.append(a))
        argv = ("attack", "--pub", pub, "--ct", str(empty))
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout, err) == (1, "", "error: empty ciphertext list\n")
    assert not out.exists() and not attacked


@pytest.mark.parametrize("key, message", REFUSED_PRIVATE_KEYS.values(), ids=REFUSED_PRIVATE_KEYS)
def test_decrypt_refuses_a_hand_built_private_key_file(tmp_path, capsys, key, message):
    pub, ct = _key_and_ciphertext(tmp_path, capsys, 8, "")
    prv, out = tmp_path / "bad.prv", tmp_path / "o"
    prv.write_text(encode_key(key))
    code, _, err = run(capsys, "decrypt", "--prv", str(prv), "--pub", pub,
                       "--in", ct, "--out", str(out))
    assert code == 1
    assert err.startswith("error: " + message) and len(err.splitlines()) == 1
    assert not out.exists()


def test_decrypt_refuses_a_public_key_as_the_private_key(tmp_path, capsys):
    pub, ct = _key_and_ciphertext(tmp_path, capsys, 8, "")
    out = tmp_path / "o"
    code, _, err = run(capsys, "decrypt", "--prv", pub, "--pub", pub,
                       "--in", ct, "--out", str(out))
    assert (code, err) == (1, f"error: {pub}: not a private key\n")
    assert not out.exists()


@pytest.mark.parametrize("payloads, message", BAD_FRAMINGS.values(), ids=BAD_FRAMINGS)
def test_decrypt_refuses_a_bad_message_framing(tmp_path, capsys, payloads, message):
    pub, _ = _key_and_ciphertext(tmp_path, capsys, 8, "")
    prv, ct, out = Path(pub).with_suffix(".prv"), tmp_path / "bad.ct", tmp_path / "o"
    ct.write_bytes(encode_ciphertext(
        encrypt_payloads(decode_key(Path(pub).read_text()), payloads, Random(3)), 8))
    code, _, err = run(capsys, "decrypt", "--prv", str(prv), "--pub", pub,
                       "--in", str(ct), "--out", str(out))
    assert (code, err) == (1, f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("audit", [(), ("--audit",)], ids=["audit0", "audit1"])
def test_decrypt_reports_a_framing_error_once(tmp_path, capsys, audit):
    # Every block decrypts, but its payload bits are all zero: extend_block
    # sets only the padding bit, so the message has no 1 terminator.
    pub, _ = _key_and_ciphertext(tmp_path, capsys, 8, "")
    prv, ct, out = Path(pub).with_suffix(".prv"), tmp_path / "zeros.ct", tmp_path / "o"
    keys = decode_key(prv.read_text()), decode_key(Path(pub).read_text())
    blocks = encrypt_payloads(keys[1], [(0,) * 8] * 3, Random(5))
    assert all(decrypt_block(keys[0], b, keys[1])[0].bits[:8] == (0,) * 8 for b in blocks)
    ct.write_bytes(encode_ciphertext(blocks, 8))
    code, stdout, err = run(capsys, "decrypt", "--prv", str(prv), "--pub", pub,
                            "--in", str(ct), "--out", str(out), *audit)
    assert (code, stdout, err) == (1, "", "error: terminal padding marker missing\n")
    assert not out.exists()


def test_decrypt_names_a_block_with_no_residue_under_the_budget(tmp_path, capsys):
    prv, pub, ct, out = (tmp_path / name for name in ("k.prv", "k.pub", "c", "o"))
    prv.write_text(encode_key(NO_RESIDUE_PRV))
    pub.write_text(encode_key(NO_RESIDUE_PUB))
    ct.write_bytes(encode_ciphertext([Ciphertext(NO_RESIDUE_S)], 8))
    code, _, err = run(capsys, "decrypt", "--prv", str(prv), "--pub", str(pub),
                       "--in", str(ct), "--out", str(out))
    assert (code, err) == (1, "invalid ciphertext: block 0: no k <= 576 decomposes ciphertext 3999\n")
    assert not out.exists()


@pytest.mark.parametrize("error, line", [
    (MemoryError(), "error: MemoryError"),
    (RecursionError("maximum recursion depth exceeded"),
     "error: RecursionError: maximum recursion depth exceeded"),
])
def test_memory_and_recursion_errors_exit_1_with_one_line(capsys, monkeypatch, error, line):
    def exhausted(args):
        raise error

    monkeypatch.setattr(juoan2.cli, "_cmd_density", exhausted)
    code, out, err = run(capsys, "density", "--ssp", "-n", "8", "--lgM", "4")
    assert (code, out, err) == (1, "", line + "\n")
