"""Command-line surface for building and checking product codes.

Every command prints one canonical JSON report envelope to stdout:

    {"command": ..., "inputs": {path: sha256}, "results": ..., "status": ...}

Exit codes: 0 ok / property holds, 1 property violated (not correctable,
not codespace-preserving, hierarchy bound broken), 2 usage, parse or
closed-stdout error.  Each command returns its results and verdict; `main`
alone writes the envelope and maps the verdict to the status and the exit code.
Each input file is read once, by `_read_input`: the envelope's sha256 of a
path is taken from the bytes the command parsed.  Output files (the
`build` bundle, the `toric-cnz` circuit and `--report`) are written by
`_write_output`: in place, then cut to the written length, so a longer
old file leaves no tail.  Like a plain open(path, "w"), this is not atomic.
Output is byte-identical for identical inputs.  `distance --jobs N`, and
`nogo-transversal --seed S` and `--samples N`, are parsed and stop here: no
library call takes them, since searches run in one thread and the survey
reads the solution-module generators alone (no combination of them reaches
a higher level).  `cmd_nogo_transversal` alone caps `--samples` at
MAX_SAMPLES and echoes it as `sample_count`.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import os
import stat
import sys
from typing import Optional

from . import correctability, css, diagonal, f2la, product, toric_cnz

OK, VIOLATED, USAGE_ERROR = 0, 1, 2

BUNDLE_FORMAT = "hgpforge-bundle-v1"

# `nogo-transversal --samples` drives no work (the survey draws none); it is
# only capped and echoed as `sample_count`.
MAX_SAMPLES = 1000


class CliError(Exception):
    pass


# path -> sha256 of the bytes `_read_input` read from it; `main` clears it
# before each command and reports it as the envelope's inputs.
_input_digests: dict[str, str] = {}


def _emit(command: str, inputs: dict, results: dict, status: str) -> bool:
    """Write the envelope to stdout; False if stdout is closed.  Stdout then
    points at os.devnull, so the interpreter's last flush fails no more."""
    report = {
        "command": command,
        "inputs": inputs,
        "results": results,
        "status": status,
    }
    try:
        sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return False
    return True


def _read_input(path: str) -> str:
    """The ASCII text of an input file, with universal newlines as a
    text-mode open reads it; the sha256 of the bytes read is recorded in
    `_input_digests`.  A file that cannot be read, or is not ASCII, is
    reported as `cannot read PATH: ...`."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        text = data.decode("ascii")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    _input_digests[path] = hashlib.sha256(data).hexdigest()
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _write_output(path: str, text: str) -> None:
    """Write text to path as ASCII, in place, and cut a regular file to the
    written length.  Opening without O_TRUNC skips emptying an old file
    first, which can cost far more than the write; `-o /dev/null` and pipes
    are written but not cut.  An OSError from the open, the write, the
    flush (also the last one, on close) or the cut is reported as
    `cannot write PATH: ...`."""
    try:
        # O_BINARY (Windows only) leaves newline translation to the wrapper alone
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        with open(fd, "w", encoding="ascii") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, fh.tell())  # tell() flushes first
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _sparse_rows(m: f2la.BinaryMatrix) -> list[list[int]]:
    return list(map(f2la.indices_of, m.bits))


def write_bundle(path: str, code: css.CssCode, sources: list[str]) -> None:
    """Serialize a product CSS code; factor matrices are embedded so the
    bundle is self-contained."""
    pc = code.complex
    if pc is None:
        raise CliError("only product-built codes can be bundled")
    payload = {
        "format": BUNDLE_FORMAT,
        "level": code.level,
        "factors": [
            {
                "rows": fac.a.rows,
                "cols": fac.a.cols,
                "data": fac.a.to_strings(),
                "source": source,
            }
            for fac, source in zip(pc.factors, sources)
        ],
        **_derived_fields(code),
    }
    _write_output(path, json.dumps(payload, sort_keys=True) + "\n")


def _derived_fields(code: css.CssCode) -> dict:
    """The bundle fields that follow from the factors and the level: t, the
    level's sectors, n and the check rows."""
    return {
        "t": code.complex.t,
        "sectors": [
            {"J": list(s.J), "shape": list(s.shape), "offset": s.offset}
            for s in code.complex.tables[code.level].sectors
        ],
        "n": code.n,
        "Hx": _sparse_rows(code.hx),
        "Hz": _sparse_rows(code.hz),
    }


def read_bundle(path: str) -> css.CssCode:
    """Rebuild the code from a bundle, verifying that the stored t, sectors,
    n and checks match the rebuilt code.  Python takes JSON true for 1 and
    18.0 for 18, so the level, the factor shapes and every number of the
    stored fields must also be ints."""
    try:
        payload = json.loads(_read_input(path))
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise CliError(f"bad bundle file {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != BUNDLE_FORMAT:
        raise CliError(f"{path} is not a {BUNDLE_FORMAT} file")
    try:
        factors = [_read_factor(entry) for entry in payload["factors"]]
        pc = product.build_product(factors)
        code = css.assemble_css(pc, _int(payload, "level"))
        derived = _derived_fields(code)
        stored = {key: payload[key] for key in derived}
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad bundle file {path}: {exc}") from exc
    if stored != derived or not _all_ints(stored):
        raise CliError(f"bundle {path} is inconsistent with its factors")
    return code


def _all_ints(fields: dict) -> bool:
    """True if no number of the derived fields is a bool or a float.  Read
    once the fields equal the derived ones, so their layout is known."""
    numbers = [fields["t"], fields["n"]]
    for sector in fields["sectors"]:
        numbers += [*sector["J"], *sector["shape"], sector["offset"]]
    rows = itertools.chain(fields["Hx"], fields["Hz"])
    return {*map(type, numbers), *map(type, itertools.chain.from_iterable(rows))} <= {int}


def _int(entry: dict, key: str) -> int:
    """entry[key], which must be a JSON integer: not a bool, not a float."""
    value = entry[key]
    if type(value) is not int:
        raise TypeError(f"{key} must be an integer, not {value!r}")
    return value


def _read_factor(entry: dict) -> f2la.BinaryMatrix:
    """A seed matrix from its bundle entry; the stored shape must match."""
    data, rows, cols = entry["data"], _int(entry, "rows"), _int(entry, "cols")
    if not isinstance(data, list):
        raise ValueError("factor data must be a list of row strings")
    m = f2la.BinaryMatrix.from_rows(data) if data else f2la.BinaryMatrix.zeros(0, cols)
    if (m.rows, m.cols) != (rows, cols):
        raise ValueError(
            f"factor data is {m.rows}x{m.cols} but the bundle declares {rows}x{cols}"
        )
    return m


def _logical_terms(poly: diagonal.PhasePolynomial) -> list[dict]:
    return [{"monomial": list(mono), "coeff": c} for mono, c in poly.terms()]


def _parse_region(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split()]
    except ValueError as exc:
        raise CliError(f"bad region file: {exc}") from exc


# -- commands ----------------------------------------------------------------


def cmd_build(args) -> tuple[dict, bool]:
    if len(args.seeds) < 2:
        raise CliError("build needs at least two seeds: one seed (t=1) has no level in [1, t-1]")
    if len(args.seeds) > product.MAX_DIMENSION:
        raise CliError(f"build takes at most {product.MAX_DIMENSION} seeds, not {len(args.seeds)}")
    # a seed file named twice is read and parsed once; a file is parsed
    # before the next is read, so the first bad seed is the one reported
    parsed = {p: f2la.parse_matrix_text(_read_input(p)) for p in dict.fromkeys(args.seeds)}
    seeds = [parsed[p] for p in args.seeds]
    pc = product.build_product(seeds)
    code = css.assemble_css(pc, args.level)
    params = css.kunneth_parameters(pc, args.level)
    write_bundle(args.output, code, sources=args.seeds)
    results = {
        "n": params.n,
        "k": params.k,
        "kunneth_d_x": params.d_x,
        "kunneth_d_z": params.d_z,
        "level": args.level,
        "t": pc.t,
        "bundle": args.output,
    }
    return results, True


def cmd_logicals(args) -> tuple[dict, bool]:
    code = read_bundle(args.bundle)
    basis = css.canonical_logical_basis(code)
    entries = []
    for rep in basis.x_reps + basis.z_reps:
        entries.append(
            {
                "type": rep.kind,
                "sector": rep.sector,
                "fixed_dirs": list(rep.fixed_dirs),
                "fixed_values": list(rep.fixed_values),
                "support": sorted(rep.pauli.support),
            }
        )
    results = {
        "k": basis.k,
        "pairing_identity": basis.pairing == f2la.BinaryMatrix.identity(basis.k),
        "logicals": entries,
    }
    return results, True


def cmd_distance(args) -> tuple[dict, bool]:
    code = read_bundle(args.bundle)
    result = css.brute_distance(code, max_weight=args.max_weight)
    results = {
        "n": code.n,
        "k": code.k,
        "d_x": result.d_x,
        "d_z": result.d_z,
        "d": result.d,
    }
    return results, True


def cmd_correctable(args) -> tuple[dict, bool]:
    code = read_bundle(args.bundle)
    region = _parse_region(_read_input(args.region))
    verdict = correctability.is_correctable(code, region)
    return verdict.to_json(), verdict.correctable


def cmd_verify_diagonal(args) -> tuple[dict, bool]:
    if not 1 <= args.copies <= diagonal.MAX_COPIES:
        raise CliError(f"copies must be >= 1 and <= {diagonal.MAX_COPIES}")
    code = read_bundle(args.bundle)
    poly = diagonal.parse_circuit_text(_read_input(args.circuit))
    expected = args.copies * code.n
    if poly.nvars > expected:
        raise CliError(
            f"circuit touches variable {poly.nvars - 1} but {args.copies} "
            f"copies give only {expected} qubits"
        )
    poly = poly.renumber(0, expected)
    res = diagonal.preserves_codespace(poly, code, copies=args.copies)
    results: dict = {"preserves": res.preserves}
    if res.preserves:
        action = diagonal.logical_action(poly, code, copies=args.copies)
        results["logical_terms"] = _logical_terms(action)
        results["level"] = diagonal.hierarchy_level(action)
    else:
        results["violating_copy"] = res.violating_copy
        results["violating_row"] = res.violating_row
    return results, res.preserves


def cmd_nogo_transversal(args) -> tuple[dict, bool]:
    code = read_bundle(args.bundle)
    if not 0 <= args.samples <= MAX_SAMPLES:
        raise CliError(f"samples must be >= 0 and <= {MAX_SAMPLES}")
    results = diagonal.transversal_nogo_harness(code, args.mod).to_json()
    results["sample_count"] = args.samples
    return results, results["clifford_bound_respected"]


def cmd_toric_cnz(args) -> tuple[dict, bool]:
    bundle = toric_cnz.build_bundle(args.t, args.length)
    _write_output(
        args.output,
        diagonal.format_circuit_text(
            bundle.circuit,
            comment=f"C^{args.t - 1}Z layer, {args.t} copies of n={bundle.code.n}",
        ),
    )
    inv = toric_cnz.verify_invariance(bundle)
    results: dict = {
        "t": bundle.t,
        "L": bundle.length,
        "copies": bundle.copies,
        "n_per_block": bundle.code.n,
        "k_per_block": bundle.code.k,
        "invariance": inv.preserves,
        "circuit": args.output,
    }
    verified = False
    if inv.preserves:
        ver = toric_cnz.verify_logical_cnz(bundle)
        verified = ver.verified
        results["logical_level"] = ver.level
        results["logical_cnz_verified"] = ver.verified
        results["logical_terms"] = _logical_terms(ver.logical_poly)
    if args.report:
        _write_output(args.report, json.dumps(results, sort_keys=True) + "\n")
    return results, verified


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgpforge",
        description="hypergraph product code construction and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a product code bundle from seed matrices")
    p.add_argument("seeds", nargs="+", help="seed parity-check matrix files")
    p.add_argument("--level", type=int, required=True, help="qubit level l (1..t-1)")
    p.add_argument("-o", "--output", required=True, help="bundle JSON path")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("logicals", help="canonical logical basis of a bundle")
    p.add_argument("bundle")
    p.set_defaults(func=cmd_logicals)

    p = sub.add_parser("distance", help="brute-force code distance")
    p.add_argument("bundle")
    p.add_argument("--max-weight", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1, help="accepted; stops at the CLI (one thread)")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("correctable", help="cleaning-lemma verdict for a region")
    p.add_argument("bundle")
    p.add_argument("region", help="file of whitespace-separated qubit indices")
    p.set_defaults(func=cmd_correctable)

    p = sub.add_parser(
        "verify-diagonal", help="check a diagonal circuit preserves the codespace"
    )
    p.add_argument("bundle")
    p.add_argument("circuit", help="circuit text file")
    p.add_argument("--copies", type=int, default=1)
    p.set_defaults(func=cmd_verify_diagonal)

    p = sub.add_parser(
        "nogo-transversal",
        help="survey transversal diagonal phase patterns for the hierarchy bound",
    )
    p.add_argument("bundle")
    p.add_argument("--mod", type=int, required=True, help="modulus exponent m")
    p.add_argument("--samples", type=int, default=100, help="capped at 1000, echoed; none drawn")
    p.add_argument("--seed", type=int, default=0, help="accepted; stops at the CLI (none drawn)")
    p.set_defaults(func=cmd_nogo_transversal)

    p = sub.add_parser(
        "toric-cnz", help="build and verify the toric C^(t-1)Z circuit"
    )
    p.add_argument("--t", type=int, required=True, help="product dimension (copies)")
    p.add_argument("--L", dest="length", type=int, required=True, help="lattice size")
    p.add_argument("-o", "--output", required=True, help="circuit text output path")
    p.add_argument("--report", default=None, help="verification report JSON path")
    p.set_defaults(func=cmd_toric_cnz)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else OK
    _input_digests.clear()
    try:
        results, ok = args.func(args)
    except (CliError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        _emit(args.command, {}, {"error": str(exc)}, "error")
        return USAGE_ERROR
    if not _emit(args.command, dict(_input_digests), results, "ok" if ok else "violated"):
        sys.stderr.write("error: stdout is closed\n")
        return USAGE_ERROR
    return OK if ok else VIOLATED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
