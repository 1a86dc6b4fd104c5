"""Command-line interface: subcommands, exit codes, reproducibility."""

import time
from pathlib import Path

import pytest

from juoan2 import Ciphertext, decode_key, encode_ciphertext, encode_key
from juoan2.cli import main
from juoan2.cryptanalysis import expand_assp_to_ssp

from conftest import REF_S


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


def test_decrypt_corrupted_ciphertext_fails_cleanly(tmp_path, capsys):
    base = str(tmp_path / "key")
    run(capsys, "keygen", "-n", "8", "--seed", "aa", "-o", base)
    bad = tmp_path / "bad.ct"
    bad.write_bytes(b"\x00garbage")
    code, _, err = run(capsys, "decrypt", "--prv", base + ".prv",
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
