"""Seeded inputs, operations and verdict oracles for the three workloads.

A workload is a ladder of rungs.  A rung is one input size (one toric
lattice, one code); it holds a fixed number of operations of each kind.
The workload seed chooses the inputs inside a rung (which gate is dropped,
which random seed matrices, which regions, which survey seeds) but never
the counts, so totals compare across seeds.

Every operation is one `hgpforge.cli.main(argv)` call.  Its check receives
the exit code and stdout and returns None when the verdict matches the
oracle, or a one-line reason otherwise.  Oracles are computed here, from
the generated inputs, and never from the verdict under test.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable, Optional

import gf2

WORKLOADS = ("cnz", "nogo", "codes")

# cnz: (t, L, full toric-cnz ops, dropped-gate verify-diagonal ops).  Weighted
# toward small rungs; t=3 at L>=6 takes 4.5 s or more per op and is left out.
# The largest layers get no dropped-gate op: a single one exits anywhere
# between 0.1 and 0.9 s, so the seed alone would move ops_per_s.
CNZ_RUNGS = (
    (2, 4, 18, 8),
    (3, 2, 20, 8),
    (2, 6, 9, 6),
    (3, 3, 6, 4),
    (2, 8, 6, 4),
    (4, 2, 1, 4),
    (3, 4, 1, 1),
    (2, 10, 1, 0),
    (2, 12, 1, 0),
    (3, 5, 1, 0),
    (4, 3, 1, 0),
)

# nogo: code -> ops per modulus exponent m = 2, 3, 4.  The random codes skip
# m = 4: their m = 4 survey cost varies 2-4x between codes of one class,
# which moved op_s.p90 across the Hamming m = 2 rung from seed to seed.
NOGO_SAMPLES = 16
NOGO_RUNGS = (
    ("toric3", (8, 8, 8)),
    ("toric4", (4, 4, 4)),
    ("rnd32", (5, 5, 0)),
    ("rnd35", (5, 5, 0)),
    ("toric5", (1, 1, 1)),
    ("hamming", (8, 1, 1)),
)

# codes: code -> (correctable ops, logicals ops, distance ops).
CODES_RUNGS = (
    ("toric3", (12, 2, 2)),
    ("rnd_a", (12, 2, 3)),
    ("rnd_b", (12, 2, 3)),
    ("toric4", (12, 2, 8)),
    ("hamming", (12, 2, 3)),
    ("toric5", (12, 2, 1)),
)

# Random two-factor products: seed shapes (rows, cols), the code's k, the
# seed ranks, the minimum Kunneth distance and the number of instances the
# rung's ops cycle through.  Fixing k and the ranks fixes the check ranks of
# the product; the survey cost of nogo still varies about 2x between codes
# of one class, so those rungs average over five codes.  nogo needs d >= 3
# and n <= 40; codes draws from the criterion-2 pool shape (seeds at most
# 5 x 5).
RANDOM_CODES = {
    "rnd32": ((4, 5), (4, 3), 1, 4, 3, 3, 5),
    "rnd35": ((5, 5), (3, 4), 1, 4, 3, 3, 5),
    "rnd_a": ((4, 4), (4, 5), 1, 3, 4, 2, 1),
    "rnd_b": ((4, 5), (4, 3), 1, 4, 3, 2, 1),
}

# Every layer function a workload's description says it exercises; the
# traced run fails if one of them records no call.
EXERCISES = {
    "cnz": (
        "cli.main", "cli.read_bundle", "product.build_product", "css.assemble_css",
        "css.canonical_logical_basis", "diagonal.parse_circuit_text",
        "diagonal.format_circuit_text", "diagonal.preserves_codespace",
        "diagonal.difference", "diagonal.substitute", "diagonal.logical_action",
        "diagonal.hierarchy_level", "toric_cnz.build_bundle",
        "toric_cnz.verify_invariance", "toric_cnz.verify_logical_cnz",
    ),
    "nogo": (
        "cli.main", "cli.read_bundle", "product.build_product", "css.assemble_css",
        "diagonal.transversal_nogo_harness", "diagonal.kernel_mod_power_of_two",
        "diagonal.preserves_codespace", "diagonal.difference", "diagonal.substitute",
        "diagonal.logical_action", "diagonal.hierarchy_level",
    ),
    "codes": (
        "cli.main", "cli.read_bundle", "product.build_product", "css.assemble_css",
        "correctability.is_correctable", "css.canonical_logical_basis",
        "css.brute_distance", "f2la.mat_vec", "f2la.rref", "f2la.kernel_basis",
        "f2la.RowSpace.contains",
    ),
}
# The build commands in set-up exercise these on every workload.
SETUP_EXERCISES = ("css.kunneth_parameters", "classical.distance", "f2la.kron")

Check = Callable[[int, str], Optional[str]]


@dataclass(frozen=True)
class Op:
    label: str  # "<rung>/<kind>"
    argv: tuple[str, ...]
    check: Check


class SetupError(RuntimeError):
    pass


def rung_names(workload: str) -> list[str]:
    if workload == "cnz":
        return [f"t{t}L{length}" for t, length, _, _ in CNZ_RUNGS]
    return [name for name, _ in (NOGO_RUNGS if workload == "nogo" else CODES_RUNGS)]


def make_ops(workload: str, seed: int, workdir: str, rungs: Optional[list[str]] = None) -> list[Op]:
    """Write the workload's inputs under `workdir` (the current directory
    while this runs, so file names stay relative) and return its ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"hgpbench:{workload}:{seed}")
    wanted = set(rung_names(workload) if rungs is None else rungs)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        maker = {"cnz": _cnz_ops, "nogo": _nogo_ops, "codes": _codes_ops}[workload]
        return maker(rng, wanted)
    finally:
        os.chdir(cwd)


def rung_counts(ops: list[Op]) -> dict[str, int]:
    return dict(Counter(op.label for op in ops))


# -- running the CLI -----------------------------------------------------------


def call_cli(argv) -> tuple[int, str]:
    from hgpforge import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def envelope(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def _setup_cli(argv) -> dict:
    rc, out = call_cli(argv)
    env = envelope(out)
    if rc != 0 or env.get("status") != "ok":
        raise SetupError(f"{' '.join(argv)} -> exit {rc}: {out.strip()}")
    return env["results"]


# -- input files ---------------------------------------------------------------


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return path


def _matrix_text(rows: list[int], ncols: int) -> str:
    body = ["".join("1" if (r >> j) & 1 else "0" for j in range(ncols)) for r in rows]
    return "\n".join([f"{len(rows)} {ncols}", *body]) + "\n"


def _cyclic_repetition(length: int) -> list[int]:
    return [(1 << i) ^ (1 << ((i + 1) % length)) for i in range(length)]


def _hamming() -> list[int]:
    return [gf2.mask_of(c for c in range(7) if ((c + 1) >> bit) & 1) for bit in range(3)]


@dataclass(frozen=True)
class Bundle:
    path: str
    n: int
    hx: list[int]
    hz: list[int]
    params: dict  # the build envelope: n, k, kunneth_d_x, kunneth_d_z


def _build(name: str, seeds: list[tuple[list[int], int]], expect: Optional[tuple] = None) -> Bundle:
    paths = []
    for i, (rows, ncols) in enumerate(seeds):
        paths.append(_write(f"{name}.seed{i}.txt", _matrix_text(rows, ncols)))
    path = f"{name}.json"
    params = _setup_cli(["build", *paths, "--level", "1", "-o", path])
    got = (params["n"], params["k"], params["kunneth_d_x"], params["kunneth_d_z"])
    if expect is not None and got != expect:
        raise SetupError(f"build {name}: (n, k, d_x, d_z) = {got}, expected {expect}")
    with open(path, encoding="ascii") as fh:
        payload = json.load(fh)
    return Bundle(
        path,
        payload["n"],
        [gf2.mask_of(r) for r in payload["Hx"]],
        [gf2.mask_of(r) for r in payload["Hz"]],
        params,
    )


def _toric_bundle(t: int, length: int) -> Bundle:
    seed = (_cyclic_repetition(length), length)
    k = t  # one logical per lattice direction
    return _build(f"toric{t}d{length}", [seed] * t, (t * length**t, k, length ** (t - 1), length))


def _hamming_bundle() -> Bundle:
    h = _hamming()
    return _build("hamming", [(h, 7), (gf2.transpose(h, 7), 3)], (58, 16, 3, 3))


def _random_bundle(name: str, rng: random.Random) -> Bundle:
    """Seed matrices of the rung's shapes and ranks, redrawn until the
    product has the rung's k and at least its distance on both sides."""
    (ra, ca), (rb, cb), k_want, rank_a, rank_b, d_min, _ = RANDOM_CODES[name.split(".")[0]]
    for _ in range(100_000):
        a = [rng.getrandbits(ca) for _ in range(ra)]
        b = [rng.getrandbits(cb) for _ in range(rb)]
        if gf2.rank(a) != rank_a or gf2.rank(b) != rank_b:
            continue
        n, k, d_x, d_z = gf2.kunneth_2d(a, ca, b, cb)
        if k == k_want and min(d_x, d_z) >= d_min and n <= 40:
            return _build(name, [(a, ca), (b, cb)], (n, k, d_x, d_z))
    raise SetupError(f"no random seeds found for {name}")


def _code_bundles(name: str, rng: random.Random) -> list[Bundle]:
    if name.startswith("toric"):
        return [_toric_bundle(2, int(name[len("toric"):]))]
    if name == "hamming":
        return [_hamming_bundle()]
    instances = RANDOM_CODES[name][-1]
    if instances == 1:
        return [_random_bundle(name, rng)]
    return [_random_bundle(f"{name}.{i}", rng) for i in range(instances)]


def _strata(pool: list, count: int, key, rng: random.Random) -> list:
    """`count` picks from `pool`, one from each of `count` equal slices of
    the range of `key`, so every seed spreads its picks over that range."""
    lo = min(key(x) for x in pool)
    hi = max(key(x) for x in pool) + 1
    picks = []
    for i in range(count):
        a, b = lo + (hi - lo) * i // count, lo + (hi - lo) * (i + 1) // count
        inside = [x for x in pool if a <= key(x) < max(b, a + 1)]
        picks.append(rng.choice(inside or pool))
    return picks


# -- cnz -----------------------------------------------------------------------


def _cnz_ops(rng: random.Random, wanted: set[str]) -> list[Op]:
    from hgpforge import toric_cnz

    ops = []
    for t, length, full, drops in CNZ_RUNGS:
        rung = f"t{t}L{length}"
        if rung not in wanted:
            continue
        argv = ("toric-cnz", "--t", str(t), "--L", str(length), "-o", f"{rung}.layer.txt")
        check = _cnz_full_check(t, length)
        ops.extend(Op(f"{rung}/full", argv, check) for _ in range(full))
        if not drops:
            continue
        bundle = _toric_bundle(t, length)
        layer = toric_cnz.build_cnz_circuit(t, length)
        gates = sorted(tuple(sorted(m)) for m, _ in layer.terms())
        first_row = {g: _first_violation(bundle, g)[1] for g in gates}
        for i, gate in enumerate(_strata(gates, drops, first_row.get, rng)):
            kept = [g for g in gates if g != gate]
            path = _write(
                f"{rung}.drop{i}.txt",
                "MOD 1\n" + "".join("CNZ " + " ".join(map(str, g)) + "\n" for g in kept),
            )
            argv = ("verify-diagonal", bundle.path, path, "--copies", str(t))
            ops.append(Op(f"{rung}/drop", argv, _drop_check(*_first_violation(bundle, gate))))
    return ops


def _first_violation(bundle: Bundle, gate: tuple[int, ...]) -> tuple[int, int]:
    """The (copy, Hx row) a layer missing `gate` first fails on.

    The rest of the layer preserves the codespace, so the difference of the
    damaged layer under an X stabilizer is minus that of the missing gate,
    which is nonzero on the codespace exactly when the stabilizer flips one
    of the gate's qubits.  The check scans copies, then rows, in order.
    """
    n = bundle.n
    for copy in range(len(gate)):
        qubits = [q - copy * n for q in gate if copy * n <= q < (copy + 1) * n]
        for r, row in enumerate(bundle.hx):
            if any((row >> q) & 1 for q in qubits):
                return copy, r
    raise SetupError(f"gate {gate} touches no X stabilizer")


def _cnz_full_check(t: int, length: int) -> Check:
    # The logical C^(t-1)Z couples copy c's class sigma(c) for every
    # permutation sigma: exactly t! monomials {c*t + sigma(c)}, coefficient 1.
    expected = sorted(
        (sorted(c * t + s for c, s in enumerate(sigma)), 1)
        for sigma in itertools.permutations(range(t))
    )
    block = (t * length**t, t)

    def check(rc: int, out: str) -> Optional[str]:
        env = envelope(out)
        res = env["results"]
        if rc != 0 or env["status"] != "ok":
            return f"exit {rc}, status {env['status']}"
        if res["invariance"] is not True or res["logical_level"] != t:
            return f"invariance {res['invariance']}, level {res.get('logical_level')}"
        if (res["n_per_block"], res["k_per_block"], res["copies"]) != (*block, t):
            return f"block {res['n_per_block']}, {res['k_per_block']}, {res['copies']}"
        got = sorted((sorted(term["monomial"]), term["coeff"]) for term in res["logical_terms"])
        if got != expected:
            return f"logical terms {got} != {expected}"
        return None

    return check


def _drop_check(copy: int, row: int) -> Check:
    def check(rc: int, out: str) -> Optional[str]:
        env = envelope(out)
        res = env["results"]
        if rc != 1 or env["status"] != "violated" or res["preserves"] is not False:
            return f"exit {rc}, status {env['status']}, preserves {res.get('preserves')}"
        got = (res["violating_copy"], res["violating_row"])
        if got != (copy, row):
            return f"violation at {got}, expected {(copy, row)}"
        return None

    return check


# -- nogo ----------------------------------------------------------------------


def _nogo_ops(rng: random.Random, wanted: set[str]) -> list[Op]:
    ops = []
    for name, per_m in NOGO_RUNGS:
        if name not in wanted:
            continue
        bundles = _code_bundles(name, rng)
        for m, count in zip((2, 3, 4), per_m):
            for i in range(count):
                argv = (
                    "nogo-transversal", bundles[i % len(bundles)].path, "--mod", str(m),
                    "--samples", str(NOGO_SAMPLES), "--seed", str(rng.randrange(1 << 16)),
                )
                ops.append(Op(f"{name}/m{m}", argv, _nogo_check(m)))
    return ops


def _nogo_check(m: int) -> Check:
    def check(rc: int, out: str) -> Optional[str]:
        env = envelope(out)
        res = env["results"]
        if rc != 0 or env["status"] != "ok":
            return f"exit {rc}, status {env['status']}"
        if res["all_preserve"] is not True or not res["max_level"] <= 2:
            return f"all_preserve {res['all_preserve']}, max_level {res['max_level']}"
        if (res["modulus_log2"], res["sample_count"]) != (m, NOGO_SAMPLES):
            return f"echoed m {res['modulus_log2']}, samples {res['sample_count']}"
        return None

    return check


# -- codes ---------------------------------------------------------------------


def _codes_ops(rng: random.Random, wanted: set[str]) -> list[Op]:
    ops = []
    for name, (n_corr, n_logicals, n_dist) in CODES_RUNGS:
        if name not in wanted:
            continue
        (b,) = _code_bundles(name, rng)
        d = min(b.params["kunneth_d_x"], b.params["kunneth_d_z"])
        # Two thirds random regions of 1..d+2 qubits, one third a logical
        # representative's support plus up to two qubits (never correctable).
        reps = [e["support"] for e in envelope(call_cli(("logicals", b.path))[1])["results"]["logicals"]]
        n_random = n_corr - n_corr // 3
        for i in range(n_corr):
            if i < n_random:
                region = rng.sample(range(b.n), 1 + i * (d + 2) // n_random)
            else:
                region = set(rng.choice(reps))
                region |= set(rng.sample(range(b.n), rng.randrange(3)))
            path = _write(f"{name}.region{i}.txt", " ".join(map(str, sorted(region))) + "\n")
            ops.append(Op(f"{name}/correctable", ("correctable", b.path, path), _correctable_check(b, region)))
        ops.extend(Op(f"{name}/logicals", ("logicals", b.path), _logicals_check(b)) for _ in range(n_logicals))
        argv = ("distance", b.path, "--max-weight", str(d), "--jobs", "1")
        ops.extend(Op(f"{name}/distance", argv, _distance_check(b)) for _ in range(n_dist))
    return ops


def _correctable_check(b: Bundle, region) -> Check:
    mask = gf2.mask_of(region)
    hidden_x = gf2.hidden_logicals(b.hz, b.hx, mask, b.n)
    hidden_z = gf2.hidden_logicals(b.hx, b.hz, mask, b.n)
    correctable = hidden_x == 0 and hidden_z == 0

    def check(rc: int, out: str) -> Optional[str]:
        env = envelope(out)
        res = env["results"]
        want = (0, "ok") if correctable else (1, "violated")
        if (rc, env["status"]) != want or res["correctable"] is not correctable:
            return f"exit {rc}, correctable {res['correctable']}; rank formula says {correctable}"
        if correctable:
            return "witness for a correctable region" if "witness" in res else None
        wit = gf2.mask_of(res["witness"])
        kernel, stab = (b.hz, b.hx) if res["witness_type"] == "X" else (b.hx, b.hz)
        if wit & ~mask or not gf2.annihilates(kernel, wit) or gf2.in_row_space(stab, wit):
            return f"bad {res['witness_type']} witness {res['witness']}"
        return None

    return check


def _logicals_check(b: Bundle) -> Check:
    k = b.params["k"]

    def check(rc: int, out: str) -> Optional[str]:
        env = envelope(out)
        res = env["results"]
        if rc != 0 or env["status"] != "ok":
            return f"exit {rc}, status {env['status']}"
        if res["k"] != k or res["pairing_identity"] is not True:
            return f"k {res['k']} (Kunneth {k}), pairing_identity {res['pairing_identity']}"
        xs = [gf2.mask_of(e["support"]) for e in res["logicals"] if e["type"] == "X"]
        zs = [gf2.mask_of(e["support"]) for e in res["logicals"] if e["type"] == "Z"]
        if len(xs) != k or len(zs) != k:
            return f"{len(xs)} X and {len(zs)} Z representatives for k={k}"
        if not all(gf2.annihilates(b.hz, x) for x in xs) or not all(gf2.annihilates(b.hx, z) for z in zs):
            return "a representative anticommutes with a stabilizer"
        pairing = [[(x & z).bit_count() % 2 for z in zs] for x in xs]
        if any(pairing[i][j] != (i == j) for i in range(k) for j in range(k)):
            return "X/Z representatives do not pair to the identity"
        return None

    return check


def _distance_check(b: Bundle) -> Check:
    want = (b.params["kunneth_d_x"], b.params["kunneth_d_z"])

    def check(rc: int, out: str) -> Optional[str]:
        env = envelope(out)
        res = env["results"]
        if rc != 0 or env["status"] != "ok":
            return f"exit {rc}, status {env['status']}"
        got = (res["d_x"], res["d_z"])
        if got != want or res["d"] != min(want) or res["n"] != b.n:
            return f"(d_x, d_z) = {got}, Kunneth {want}"
        return None

    return check

