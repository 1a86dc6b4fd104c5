"""The benchmark's workloads: seeded inputs, timed library calls, checks.

Every workload is a closed loop with one client: the next unit of work is
sent only after the previous one has returned and been checked.  Set-up
builds a pool of inputs from the seed alone; unit i takes pool entry
i mod len(pool), so a traced replay of units 0..N-1 sees exactly the
inputs that the untraced pass saw.  The library is reached only through
module attributes looked up at call time, which is what lets a traced run
swap in span wrappers (see `layer_patches`).
"""

from __future__ import annotations

import importlib
import math
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from random import Random
from types import ModuleType
from typing import Any

import spans

clock = time.perf_counter

# Verdicts on one unit of work.  FAIL: the user did not get back what was
# sent, yet every output still meets the library's own contract (a valid
# ciphertext with a second preimage decrypts to that one).  WRONG: an output
# breaks the contract, or the library raised.
PASS, FAIL, WRONG = "pass", "fail", "wrong"

MODULES = {
    "keygen": "juoan2.keygen",
    "encrypt": "juoan2.encrypt",
    "codec": "juoan2.codec",
    "decrypt": "juoan2.decrypt",
    "errors": "juoan2.errors",
    "experiments": "juoan2.cryptanalysis.experiments",
    "lattice": "juoan2.cryptanalysis.lattice",
    "lll": "juoan2.cryptanalysis.lll",
    "oracles": "juoan2.cryptanalysis.oracles",
}


@dataclass(frozen=True)
class Library:
    keygen: ModuleType
    encrypt: ModuleType
    codec: ModuleType
    decrypt: ModuleType
    errors: ModuleType
    experiments: ModuleType
    lattice: ModuleType
    lll: ModuleType
    oracles: ModuleType


def import_library() -> Library:
    """Import juoan2 afresh, dropping any copy loaded before, as a user's process would."""
    for name in [m for m in sys.modules if m == "juoan2" or m.startswith("juoan2.")]:
        del sys.modules[name]
    importlib.import_module("juoan2")
    importlib.import_module("juoan2.cryptanalysis")
    return Library(**{key: importlib.import_module(path) for key, path in MODULES.items()})


def tail(samples: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples beyond it, and its value.

    Nearest-rank percentile; below twenty samples no such percentile reaches
    the median, and the median is reported instead.
    """
    n = len(samples)
    pct = 100 * (n - 10) // n
    if pct <= 50:
        return 50, statistics.median(samples)
    return pct, sorted(samples)[math.ceil(pct * n / 100) - 1]


class Workload:
    """One input pool and the unit of work run on each entry.

    Subclasses set `name`, the sample names of their `primary` and
    `secondary` operation, `round_units` (a run stops only at a multiple of
    it, so each run holds the same mix), and implement `setup`, `run_unit`
    and `report`.
    """

    name = ""
    primary = ""
    secondary = ""
    round_units = 1

    def __init__(self, lib: Library, seed: int):
        self.lib = lib
        self.setup(Random(seed))
        self.reset()

    def reset(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.tally: dict[str, int] = defaultdict(int)

    def setup(self, rng: Random) -> None:
        raise NotImplementedError

    def run_unit(self, i: int) -> tuple[str, Any]:
        """Run and check unit i; returns (verdict, output to compare across passes)."""
        raise NotImplementedError

    def capture(self) -> list[tuple[Any, str, Any]]:
        """Module attributes to replace for the whole run, to see results the API hides."""
        return []

    def report(self, wall: float, units: int) -> list[tuple[str, float, str]]:
        """The workload's own end-to-end figures, by name, for the human-readable table."""
        raise NotImplementedError

    def end_to_end(self, wall: float, units: int) -> dict[str, float]:
        primary = self.samples[self.primary]
        return {
            "primary_ms_p50": statistics.median(primary),
            "primary_ms_tail": tail(primary)[1],
            "secondary_ms_p50": statistics.median(self.samples[self.secondary]),
            "units_per_s": units / wall,
        }

    def _tail_row(self, label: str, sample: str) -> tuple[str, float, str]:
        pct, value = tail(self.samples[sample])
        return label, value, f"ms (p{pct} of {len(self.samples[sample])})"


class RoundTrip(Workload):
    """keygen(128), encrypt_message, the J2CT codec both ways, decrypt_message.

    Each unit makes its own key: the retry offset of a block, and so its
    decryption time, depends mostly on the key's lever, and one key per run
    would make the run's median a draw of a single key.
    """

    name = "roundtrip-n128"
    primary = "decrypt"
    secondary = "keygen"
    n = 128
    pool_size = 512

    def setup(self, rng: Random) -> None:
        # (key seed, encryption seed, message); a message of at most 15 bytes
        # plus its terminator bit fits one 128-bit block
        self.pool = [
            (rng.getrandbits(64), rng.getrandbits(64), rng.randbytes(rng.randint(1, 15)))
            for _ in range(self.pool_size)
        ]

    def run_unit(self, i: int) -> tuple[str, Any]:
        lib = self.lib
        key_seed, enc_seed, message = self.pool[i % len(self.pool)]
        t0 = clock()
        pub, prv = lib.keygen.keygen(self.n, Random(key_seed))
        t1 = clock()
        blocks = lib.encrypt.encrypt_message(pub, message, Random(enc_seed))
        t2 = clock()
        decoded, n_payload = lib.codec.decode_ciphertext(
            lib.codec.encode_ciphertext(blocks, pub.n_payload)
        )
        t3 = clock()
        plain = lib.decrypt.decrypt_message(prv, decoded, pub, n_payload)
        t4 = clock()
        for sample, start, end in (("keygen", t0, t1), ("encrypt", t1, t2), ("codec", t2, t3), ("decrypt", t3, t4)):
            self.samples[sample].append((end - start) * 1e3)
        output = (plain, tuple(b.S for b in blocks))
        if decoded != blocks or n_payload != self.n:
            return WRONG, output
        if plain == message:
            return PASS, output
        for ct in decoded:
            if not reencrypts(lib, pub, ct, *lib.decrypt.decrypt_block(prv, ct, pub)):
                return WRONG, output
        return FAIL, output

    def report(self, wall: float, units: int) -> list[tuple[str, float, str]]:
        s = self.samples
        return [
            ("decrypt_ms_p50", statistics.median(s["decrypt"]), "ms"),
            self._tail_row("decrypt_ms_tail", "decrypt"),
            ("blocks_per_s", units / wall, "1/s"),
            ("keygen_ms_p50", statistics.median(s["keygen"]), "ms"),
            ("encrypt_us_p50", statistics.median(s["encrypt"]) * 1e3, "us"),
        ]


class Forgery(Workload):
    """decrypt_block at n=16 on valid and uniformly forged ciphertexts, interleaved."""

    name = "forgery-n16"
    primary = "reject"
    secondary = "decrypt"
    round_units = 2
    n = 16
    keys = 512
    blocks_per_key = 8

    def setup(self, rng: Random) -> None:
        enc = self.lib.encrypt
        self.pool = []
        for _ in range(self.keys):
            pub, prv = self.lib.keygen.keygen(self.n, rng)
            for j in range(self.blocks_per_key):
                if j % 2:
                    self.pool.append((pub, prv, enc.Ciphertext(rng.randrange(pub.M)), None))
                    continue
                block = enc.extend_block([rng.randint(0, 1) for _ in range(self.n)], rng)
                ct = enc.encrypt_block(pub, block, enc.sample_noise(block.n_total, rng))
                self.pool.append((pub, prv, ct, block.bits))

    def run_unit(self, i: int) -> tuple[str, Any]:
        lib = self.lib
        pub, prv, ct, bits = self.pool[i % len(self.pool)]
        t0 = clock()
        try:
            block, trace = lib.decrypt.decrypt_block(prv, ct, pub)
        except lib.errors.InvalidCiphertextError:
            block = trace = None
        elapsed = (clock() - t0) * 1e3
        output = None if block is None else (block.bits, trace.k)
        if bits is not None:
            self.samples["decrypt"].append(elapsed)
            if block is not None and block.bits == bits:
                return PASS, output
            if block is None or not reencrypts(lib, pub, ct, block, trace):
                return WRONG, output
            self.tally["ambiguous"] += 1
            return FAIL, output
        self.samples["reject"].append(elapsed)
        self.tally["forged_accepted"] += block is not None
        return PASS if block is None or reencrypts(lib, pub, ct, block, trace) else WRONG, output

    def report(self, wall: float, units: int) -> list[tuple[str, float, str]]:
        s = self.samples
        return [
            ("decrypt_ms_p50", statistics.median(s["decrypt"]), "ms"),
            self._tail_row("decrypt_ms_tail", "decrypt"),
            ("reject_ms_p50", statistics.median(s["reject"]), "ms"),
            self._tail_row("reject_ms_tail", "reject"),
            ("forged_accepted", self.tally["forged_accepted"], "count"),
            ("valid_decrypted_to_other_preimage", self.tally["ambiguous"], "count"),
        ]


class Attack(Workload):
    """Attack trials, with two oracle-n8 blocks per round so that `oracles` is measured too.

    A round is one genuine ASSP trial, twenty planted-SSP trials (n=20,
    40-bit weights) and two `Oracle` units.
    """

    name = "attack"
    primary = "ssp"
    secondary = "assp"
    ssp_per_round = 20
    oracle_per_round = 2
    round_units = 1 + ssp_per_round + oracle_per_round
    pool_size = 1024

    def setup(self, rng: Random) -> None:
        self.pool = [rng.getrandbits(64) for _ in range(self.pool_size)]
        self.found: list[tuple] = []
        self.oracle = Oracle(self.lib, rng.getrandbits(64))

    def reset(self) -> None:
        super().reset()
        self.oracle.reset()
        self.oracle.samples = self.samples  # one dict, for scaling by unit

    def capture(self) -> list[tuple[Any, str, Any]]:
        # trial rows report the outcome only; the solution is checked here
        attack = self.lib.experiments.lattice_attack

        def recorded(weights, S, M, *args, **kwargs):
            x = attack(weights, S, M, *args, **kwargs)
            self.found.append((weights, S, M, x))
            return x

        return [(self.lib.experiments, "lattice_attack", recorded)]

    def run_unit(self, i: int) -> tuple[str, Any]:
        rnd, phase = divmod(i, self.round_units)
        if phase > self.ssp_per_round:
            j = rnd * self.oracle_per_round + phase - self.ssp_per_round - 1
            verdict, output = self.oracle.run_unit(j)
            return verdict, ("oracle", output)
        experiments = self.lib.experiments
        kind = "assp" if phase == 0 else "ssp"
        rng = Random(self.pool[i % len(self.pool)])
        self.found.clear()
        t0 = clock()
        if kind == "assp":
            row = experiments.run_assp_attack_trial(16, rng, max_wraps=8)
        else:
            row = experiments.run_planted_ssp_trial(20, 40, rng)
        self.samples[kind].append((clock() - t0) * 1e3)
        if len(self.found) != 1:
            return WRONG, (kind, row.attack_outcome, None)
        weights, S, M, x = self.found[0]
        solved = x is not None and len(x) == len(weights) and sum(b * w for b, w in zip(x, weights)) % M == S
        self.tally[kind] += 1
        self.tally[kind + "_recovered"] += solved
        ok = (x is None or solved) and (row.attack_outcome == "recovered") == solved
        return PASS if ok else WRONG, (kind, row.attack_outcome, x)

    def report(self, wall: float, units: int) -> list[tuple[str, float, str]]:
        s, t = self.samples, self.tally
        return [
            ("ssp_trial_ms_p50", statistics.median(s["ssp"]), "ms"),
            self._tail_row("ssp_trial_ms_tail", "ssp"),
            ("assp_trial_s_p50", statistics.median(s["assp"]) / 1e3, f"s (of {len(s['assp'])})"),
            ("ssp_recovered_ratio", t["ssp_recovered"] / max(1, t["ssp"]), f"ratio (of {t['ssp']})"),
            ("assp_recovered", t["assp_recovered"], "count"),
            *self.oracle.report(wall, units)[:3],
        ]


class Oracle(Workload):
    """brute_force_assp and ciphertext_multiplicity at n=8, one fresh key per block."""

    name = "oracle-n8"
    primary = "brute"
    secondary = "multiplicity"
    n = 8
    pool_size = 256

    def setup(self, rng: Random) -> None:
        enc = self.lib.encrypt
        self.pool = []
        for _ in range(self.pool_size):
            pub, prv = self.lib.keygen.keygen(self.n, rng)
            block = enc.extend_block([rng.randint(0, 1) for _ in range(self.n)], rng)
            noise = enc.sample_noise(block.n_total, rng)
            ct = enc.encrypt_block(pub, block, noise)
            # noise counts only at a zero bit with a set bit above it
            above = [any(block.bits[i:]) for i in range(block.n_total)]
            included = frozenset(
                i + 1 for i in range(block.n_total) if not block.bits[i] and noise.bits[i] and above[i]
            )
            self.pool.append((pub, prv, block, ct, (block.bits, included)))

    def run_unit(self, i: int) -> tuple[str, Any]:
        lib = self.lib
        pub, prv, block, ct, genuine = self.pool[i % len(self.pool)]
        t0 = clock()
        preimages = lib.oracles.brute_force_assp(pub, ct.S)
        t1 = clock()
        multiplicity = lib.oracles.ciphertext_multiplicity(pub, block)
        t2 = clock()
        self.samples["brute"].append((t1 - t0) * 1e3)
        self.samples["multiplicity"].append((t2 - t1) * 1e3)
        decrypted, _ = lib.decrypt.decrypt_block(prv, ct, pub)
        ok = (
            genuine in preimages
            and any(bits == decrypted.bits for bits, _ in preimages)
            and 1 <= multiplicity <= 1 << block.n_total
        )
        return PASS if ok else WRONG, (frozenset(preimages), multiplicity, decrypted.bits)

    def report(self, wall: float, units: int) -> list[tuple[str, float, str]]:
        s = self.samples
        return [
            ("oracle_ms_p50", statistics.median(s["brute"]), "ms"),
            self._tail_row("oracle_ms_tail", "brute"),
            ("multiplicity_us_p50", statistics.median(s["multiplicity"]) * 1e3, "us"),
            ("blocks_per_s", units / wall, "1/s"),
        ]


WORKLOADS = {w.name: w for w in (RoundTrip, Forgery, Attack, Oracle)}


def reencrypts(lib: Library, pub, ct, block, trace) -> bool:
    """Whether a decrypted block, with the noise its trace shed, encrypts back to `ct`."""
    noise = [0] * pub.n_tilde
    for step in trace.steps:
        if step.branch == lib.decrypt.BRANCH_NOISE:
            noise[step.i - 1] = 1
    enc = lib.encrypt
    return enc.encrypt_block(pub, block, enc.NoiseVector(tuple(noise))).S == ct.S


def layer_patches(lib: Library, tracer: spans.Tracer) -> list[tuple[Any, str, Any]]:
    """Span wrappers for each layer, installed in the namespace of the calling module.

    Trial set-up (keygen, encryption, density and expansion inside the
    experiments module) is left unwrapped, so it stays in `experiments`'
    self time.
    """

    def call(module, attr, name, describe=None):
        return module, attr, spans.span_call(tracer, name, getattr(module, attr), describe)

    def decrypted(args, kwargs, result, error):
        if result is not None:
            return {"accepted": True, "offsets": result[1].k}
        k_max = kwargs.get("k_max", args[3] if len(args) > 3 else None)
        return {"accepted": False, "offsets": k_max or lib.decrypt.default_k_max(args[0].n_tilde)}

    def reduced(args, kwargs, result, error):
        rows = args[0].rows
        return {"dim": len(rows), "bits": max(abs(v).bit_length() for row in rows for v in row)}

    return [
        call(lib.keygen, "keygen", "keygen"),
        call(lib.encrypt, "encrypt_message", "encrypt"),
        call(lib.codec, "encode_ciphertext", "codec", lambda a, k, r, e: {"bytes": len(r or b"")}),
        call(lib.codec, "decode_ciphertext", "codec"),
        call(lib.decrypt, "decrypt_message", "decrypt.message"),
        call(lib.decrypt, "decrypt_block", "decrypt.retry", decrypted),
        (lib.decrypt, "decompose_candidates",
         spans.span_generator(tracer, "decrypt.tree", lib.decrypt.decompose_candidates)),
        call(lib.decrypt, "reencrypts_to", "decrypt.reencrypt", lambda a, k, r, e: {"match": bool(r)}),
        call(lib.experiments, "run_planted_ssp_trial", "experiments", lambda *_: {"kind": "ssp"}),
        call(lib.experiments, "run_assp_attack_trial", "experiments", lambda *_: {"kind": "assp"}),
        call(lib.experiments, "lattice_attack", "lattice", lambda a, k, r, e: {"hit": r is not None}),
        call(lib.lattice, "build_ssp_lattice", "lattice.basis"),
        call(lib.lattice, "build_plain_ssp_lattice", "lattice.basis"),
        call(lib.lattice, "basis_from_generators", "lattice.basis"),
        call(lib.lattice, "lll_reduce", "lll", reduced),
        call(lib.oracles, "brute_force_assp", "oracles.brute"),
        call(lib.oracles, "ciphertext_multiplicity", "oracles.multiplicity"),
    ]


# (name, unit, better); times and counts are per unit of the workload's work
PER_LAYER = [
    ("bench.self_s", "s/unit", "lower"),
    ("keygen.self_s", "s/unit", "lower"),
    ("encrypt.self_s", "s/unit", "lower"),
    ("codec.self_s", "s/unit", "lower"),
    ("codec.bytes", "1/unit", "lower"),
    ("decrypt.message.self_s", "s/unit", "lower"),
    ("decrypt.retry.self_s", "s/unit", "lower"),
    ("decrypt.retry.calls", "1/unit", "lower"),
    ("decrypt.retry.offsets", "1/unit", "lower"),
    ("decrypt.tree.self_s", "s/unit", "lower"),
    ("decrypt.tree.calls", "1/unit", "lower"),
    ("decrypt.tree.candidates", "1/unit", "lower"),
    ("decrypt.reencrypt.self_s", "s/unit", "lower"),
    ("decrypt.reencrypt.calls", "1/unit", "lower"),
    ("decrypt.reencrypt.rejects", "1/unit", "lower"),
    ("decrypt.useful_ratio", "ratio", "higher"),
    ("experiments.self_s", "s/unit", "lower"),
    ("lattice.self_s", "s/unit", "lower"),
    ("lattice.basis.self_s", "s/unit", "lower"),
    ("lattice.reductions_per_trial", "ratio", "lower"),
    ("lattice.hit_ratio", "ratio", "higher"),
    ("lll.self_s", "s/unit", "lower"),
    ("lll.self_s.ssp", "s/unit", "lower"),
    ("lll.self_s.assp", "s/unit", "lower"),
    ("lll.calls", "1/unit", "lower"),
    ("lll.dim_max", "count", "lower"),
    ("lll.entry_bits_max", "bits", "lower"),
    ("oracles.brute.self_s", "s/unit", "lower"),
    ("oracles.multiplicity.self_s", "s/unit", "lower"),
    ("trace.overhead", "s/unit", "lower"),
]

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("primary_ms_p50", "ms", "lower"),
    ("primary_ms_tail", "ms", "lower"),
    ("secondary_ms_p50", "ms", "lower"),
    ("units_per_s", "1/s", "higher"),
]


def layer_metrics(tracer: spans.Tracer, units: int, overhead_s: float) -> dict[str, float]:
    """Per-layer figures from a traced pass of `units` units."""
    own = spans.self_times(tracer.spans)
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, (span, t) in enumerate(zip(tracer.spans, own)):
        seconds[span.name] += t
        calls[span.name] += 1
        if span.name == "lll":
            seconds["lll." + str(tracer.ancestor_attr(i, "kind"))] += t

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in tracer.spans if s.name == name)

    def ratio(a, b):
        return a / b if b else 0.0

    lll_spans = [s for s in tracer.spans if s.name == "lll"]
    reencrypts = calls["decrypt.reencrypt"]
    per_unit = {
        "bench.self_s": seconds["bench"],
        "keygen.self_s": seconds["keygen"],
        "encrypt.self_s": seconds["encrypt"],
        "codec.self_s": seconds["codec"],
        "codec.bytes": attr_sum("codec", "bytes"),
        "decrypt.message.self_s": seconds["decrypt.message"],
        "decrypt.retry.self_s": seconds["decrypt.retry"],
        "decrypt.retry.calls": calls["decrypt.retry"],
        "decrypt.retry.offsets": attr_sum("decrypt.retry", "offsets"),
        "decrypt.tree.self_s": seconds["decrypt.tree"],
        "decrypt.tree.calls": tracer.counters["decrypt.tree.calls"],
        "decrypt.tree.candidates": tracer.counters["decrypt.tree.items"],
        "decrypt.reencrypt.self_s": seconds["decrypt.reencrypt"],
        "decrypt.reencrypt.calls": reencrypts,
        "decrypt.reencrypt.rejects": reencrypts - attr_sum("decrypt.reencrypt", "match"),
        "experiments.self_s": seconds["experiments"],
        "lattice.self_s": seconds["lattice"],
        "lattice.basis.self_s": seconds["lattice.basis"],
        "lll.self_s": seconds["lll"],
        "lll.self_s.ssp": seconds["lll.ssp"],
        "lll.self_s.assp": seconds["lll.assp"],
        "lll.calls": calls["lll"],
        "oracles.brute.self_s": seconds["oracles.brute"],
        "oracles.multiplicity.self_s": seconds["oracles.multiplicity"],
    }
    out = {name: value / units for name, value in per_unit.items()}
    out["decrypt.useful_ratio"] = ratio(attr_sum("decrypt.retry", "accepted"), reencrypts)
    out["lattice.reductions_per_trial"] = ratio(calls["lll"], calls["experiments"])
    out["lattice.hit_ratio"] = ratio(attr_sum("lattice", "hit"), calls["lll"])
    out["lll.dim_max"] = max((s.attrs["dim"] for s in lll_spans), default=0)
    out["lll.entry_bits_max"] = max((s.attrs["bits"] for s in lll_spans), default=0)
    out["trace.overhead"] = overhead_s / units
    return {name: float(out[name]) for name, _, _ in PER_LAYER}
