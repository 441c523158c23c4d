"""End-to-end tests of the command-line interface and its file formats."""

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from hgpforge import classical, cli, css, diagonal, f2la, product
from hgpforge.cli import main

from helpers import reference_verdict


@pytest.fixture()
def seed3(tmp_path):
    path = tmp_path / "seed3.txt"
    path.write_text(
        f2la.format_matrix_text(classical.cyclic_repetition_check(3), comment="L=3")
    )
    return str(path)


@pytest.fixture()
def toric_bundle(tmp_path, seed3, capsys):
    out = str(tmp_path / "toric18.json")
    assert main(["build", seed3, seed3, "--level", "1", "-o", out]) == 0
    capsys.readouterr()  # drop the build report
    return out


def hgp_bundle(tmp_path, capsys, name, seed):
    """Build the level-1 product of `seed` and its transpose; return its bundle."""
    paths = [tmp_path / f"{name}.txt", tmp_path / f"{name}T.txt"]
    for path, matrix in zip(paths, (seed, f2la.transpose(seed))):
        path.write_text(f2la.format_matrix_text(matrix))
    out = str(tmp_path / f"{name}.json")
    assert main(["build", *map(str, paths), "--level", "1", "-o", out]) == 0
    capsys.readouterr()  # drop the build report
    return out


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestBuild:
    def test_build_reports_parameters(self, capsys, tmp_path, seed3):
        out = str(tmp_path / "b.json")
        code, report = run_json(
            capsys, ["build", seed3, seed3, "--level", "1", "-o", out]
        )
        assert code == 0
        assert report["status"] == "ok"
        assert report["results"]["n"] == 18
        assert report["results"]["k"] == 2
        assert report["results"]["kunneth_d_x"] == 3
        assert report["results"]["kunneth_d_z"] == 3
        assert seed3 in report["inputs"]

    def test_three_seeds(self, capsys, tmp_path):
        seed2 = tmp_path / "seed2.txt"
        seed2.write_text(
            f2la.format_matrix_text(classical.cyclic_repetition_check(2))
        )
        out = str(tmp_path / "b3.json")
        code, report = run_json(
            capsys,
            ["build", str(seed2), str(seed2), str(seed2), "--level", "1", "-o", out],
        )
        assert code == 0
        assert report["results"]["n"] == 24
        assert report["results"]["k"] == 3

    def test_invalid_level_is_usage_error(self, tmp_path, seed3, capsys):
        out = str(tmp_path / "bad.json")
        assert main(["build", seed3, "--level", "0", "-o", out]) == 2
        captured = capsys.readouterr()
        assert "error" in captured.err
        report = json.loads(captured.out)
        assert report["status"] == "error"
        assert "level" in report["results"]["error"]

    @pytest.mark.parametrize("level", ["0", "2"])
    def test_a_level_outside_the_product_is_a_usage_error(self, tmp_path, seed3, capsys, level):
        out = str(tmp_path / "bad.json")
        rc, report = run_json(capsys, ["build", seed3, seed3, "--level", level, "-o", out])
        assert rc == 2 and report["status"] == "error"
        assert report["results"]["error"] == "level must be in [1, 1] for t=2"

    @pytest.mark.parametrize(
        "count,message",
        [(1, "build needs at least two seeds"), (product.MAX_DIMENSION + 1, "build takes at most")],
    )
    def test_a_seed_count_outside_the_dimensions_is_refused_before_reading(
        self, tmp_path, capsys, count, message
    ):
        seeds = [str(tmp_path / "missing.txt")] * count
        rc, report = run_json(capsys, ["build", *seeds, "--level", "1", "-o", str(tmp_path / "x")])
        assert rc == 2 and report["status"] == "error"
        assert report["results"]["error"].startswith(message), report

    def test_bad_seed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a matrix\n")
        assert main(["build", str(bad), "--level", "1", "-o", str(tmp_path / "x")]) == 2

    def test_the_first_bad_seed_is_reported(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 3\n120\n")
        missing, out = str(tmp_path / "missing.txt"), str(tmp_path / "b.json")
        code, report = run_json(capsys, ["build", str(bad), missing, "--level", "1", "-o", out])
        assert code == 2 and report["results"]["error"] == "bad matrix row '120'"
        code, report = run_json(capsys, ["build", missing, str(bad), "--level", "1", "-o", out])
        assert code == 2 and report["results"]["error"].startswith(f"cannot read {missing}: ")

    def test_deterministic_output(self, tmp_path, seed3, capsys):
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        main(["build", seed3, seed3, "--level", "1", "-o", out1])
        first = capsys.readouterr().out
        main(["build", seed3, seed3, "--level", "1", "-o", out2])
        second = capsys.readouterr().out
        assert first.replace(out1, "X") == second.replace(out2, "X")
        assert Path(out1).read_text() == Path(out2).read_text()


class TestBundleRoundTrip:
    def test_reload_reproduces_code(self, toric_bundle):
        code = cli.read_bundle(toric_bundle)
        assert (code.n, code.k) == (18, 2)

    def test_tampered_bundle_rejected(self, tmp_path, toric_bundle):
        payload = json.loads(Path(toric_bundle).read_text())
        payload["Hx"][0] = [0]
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(cli.CliError, match="inconsistent"):
            cli.read_bundle(str(bad))

    @pytest.mark.parametrize(
        "field, value", [("t", 9), ("t", 3), ("n", 7), ("n", 19), ("sectors", []), ("sectors", None)]
    )
    def test_a_corrupted_derived_field_is_inconsistent(
        self, capsys, tmp_path, toric_bundle, field, value
    ):
        payload = json.loads(Path(toric_bundle).read_text())
        payload[field] = value
        bad = tmp_path / "corrupted.json"
        bad.write_text(json.dumps(payload))
        for command in ("logicals", "distance"):
            code, report = run_json(capsys, [command, str(bad)])
            assert code == 2 and report["status"] == "error"
            assert report["results"]["error"] == f"bundle {bad} is inconsistent with its factors"

    def test_a_shifted_sector_is_inconsistent(self, tmp_path, toric_bundle):
        payload = json.loads(Path(toric_bundle).read_text())
        payload["sectors"][1]["offset"] += 1
        bad = tmp_path / "shifted.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(cli.CliError, match="inconsistent"):
            cli.read_bundle(str(bad))

    @pytest.mark.parametrize("fields", [("t",), ("n",), ("sectors",), ("t", "n", "sectors")])
    def test_a_missing_derived_field_is_a_bad_bundle(
        self, capsys, tmp_path, toric_bundle, fields
    ):
        payload = json.loads(Path(toric_bundle).read_text())
        for field in fields:
            del payload[field]
        bad = tmp_path / "missing.json"
        bad.write_text(json.dumps(payload))
        for command in ("logicals", "distance"):
            code, report = run_json(capsys, [command, str(bad)])
            assert code == 2 and report["status"] == "error"
            assert report["results"]["error"] == f"bad bundle file {bad}: '{fields[0]}'"

    @pytest.mark.parametrize(
        "edit",
        [
            lambda p: p.update(level=True),
            lambda p: p.update(level=1.0),
            lambda p: p.update(n=18.0),
            lambda p: p.update(t=2.0),
            lambda p: p["sectors"][0].update(offset=0.0),
            lambda p: p["sectors"][1]["J"].__setitem__(0, True),
            lambda p: p["sectors"][1]["shape"].__setitem__(0, 3.0),
            lambda p: p["factors"][0].update(rows=3.0),
            lambda p: p["factors"][1].update(cols=3.0),
            lambda p: p["Hx"][0].__setitem__(0, False),
            lambda p: p["factors"][0].update(data=[[1, 1, 0], [0, 1, 1], [1, 0, 1]]),
            lambda p: p["factors"][0].update(data=[3, 6, 5]),
            lambda p: p["factors"][0].update(data=["110", 6, "101"]),
            lambda p: p["factors"][0].update(data=["110", "011", None]),
        ],
        ids=[
            "level-true", "level-float", "n-float", "t-float", "offset-float", "J-true",
            "shape-float", "rows-float", "cols-float", "Hx-false", "data-lists", "data-ints",
            "data-mixed", "data-null",
        ],
    )
    def test_a_number_of_another_json_type_is_a_bad_bundle(
        self, capsys, tmp_path, toric_bundle, edit
    ):
        # JSON true == 1 and 18.0 == 18 in Python; the bundle format holds
        # integers and 0/1 strings, and nothing else stands in for them
        payload = json.loads(Path(toric_bundle).read_text())
        edit(payload)
        bad = tmp_path / "retyped.json"
        bad.write_text(json.dumps(payload))
        code, report = run_json(capsys, ["logicals", str(bad)])
        assert code == 2 and report["status"] == "error"
        assert str(bad) in report["results"]["error"]

    def test_structurally_broken_bundle_is_usage_error(self, tmp_path, toric_bundle):
        payload = json.loads(Path(toric_bundle).read_text())
        del payload["factors"]
        bad = tmp_path / "broken.json"
        bad.write_text(json.dumps(payload))
        assert main(["distance", str(bad)]) == 2
        not_json = tmp_path / "nope.json"
        not_json.write_text("{]")
        assert main(["distance", str(not_json)]) == 2

    def test_a_deeply_nested_bundle_is_a_bad_bundle(self, capsys, tmp_path):
        # json.loads recurses once per level and raises RecursionError
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        code, report = run_json(capsys, ["logicals", str(deep)])
        assert code == 2 and report["status"] == "error"
        assert report["results"]["error"].startswith(f"bad bundle file {deep}: ")

    def test_a_region_unreadable_after_the_bundle_is_a_usage_error(
        self, capsys, tmp_path, toric_bundle, monkeypatch
    ):
        region = tmp_path / "region.txt"
        region.write_text("0 5\n")
        real = cli.read_bundle

        def read_then_remove_region(path):
            code = real(path)
            region.unlink()
            return code

        monkeypatch.setattr(cli, "read_bundle", read_then_remove_region)
        assert main(["correctable", toric_bundle, str(region)]) == 2
        out = capsys.readouterr().out
        assert out.count("\n") == 1  # one envelope, nothing before it
        report = json.loads(out)
        assert report["command"] == "correctable"
        assert report["status"] == "error"
        assert report["inputs"] == {}
        assert report["results"]["error"].startswith(f"cannot read {region}: ")

    def test_logicals_round_trip(self, capsys, toric_bundle):
        code1, rep1 = run_json(capsys, ["logicals", toric_bundle])
        code2, rep2 = run_json(capsys, ["logicals", toric_bundle])
        assert code1 == code2 == 0
        assert rep1 == rep2
        assert rep1["results"]["k"] == 2
        assert rep1["results"]["pairing_identity"] is True
        entries = rep1["results"]["logicals"]
        assert len(entries) == 4
        for entry in entries:
            assert entry["type"] in ("X", "Z")
            assert len(entry["support"]) == 3


class TestDistance:
    def test_distance_command(self, capsys, toric_bundle):
        code, report = run_json(capsys, ["distance", toric_bundle])
        assert code == 0
        assert report["results"] == {"d": 3, "d_x": 3, "d_z": 3, "k": 2, "n": 18}

    def test_jobs_flag(self, capsys, toric_bundle):
        code, report = run_json(capsys, ["distance", toric_bundle, "--jobs", "2"])
        assert code == 0 and report["results"]["d"] == 3

    def test_walks_reuse_the_codes_row_spaces(self, capsys, tmp_path, monkeypatch):
        toric5 = hgp_bundle(tmp_path, capsys, "rep5", classical.cyclic_repetition_check(5))
        widths = []
        real = f2la.RowSpace.__init__

        def spy(self, *args, **kwargs):
            real(self, *args, **kwargs)
            widths.append(self.cols)

        monkeypatch.setattr(f2la.RowSpace, "__init__", spy)
        rc, report = run_json(capsys, ["distance", toric5, "--max-weight", "5"])
        assert rc == 0 and report["results"]["d"] == 5
        # Over the 50 qubits: Hx and Hz once each in CssCode.  The walks read
        # the sparse check rows and test membership in the code's stabilizer
        # spaces (the 5-column rest is the seeds).
        assert widths.count(50) == 2


class TestSeedCodes:
    @pytest.mark.parametrize(
        "argv, builds",
        [
            (["correctable", "{bundle}", "{region}"], False),
            (["distance", "{bundle}"], False),
            (["logicals", "{bundle}"], True),
        ],
    )
    def test_only_commands_that_read_the_seeds_build_their_codes(
        self, capsys, tmp_path, toric_bundle, monkeypatch, argv, builds
    ):
        region = tmp_path / "r.txt"
        region.write_text("0 5\n")
        built = []
        real = classical.ClassicalCode.__init__
        monkeypatch.setattr(
            classical.ClassicalCode, "__init__", lambda self, h: built.append(h) or real(self, h)
        )
        argv = [arg.format(bundle=toric_bundle, region=region) for arg in argv]
        assert main(argv) == 0
        capsys.readouterr()
        assert bool(built) == builds


class TestCorrectable:
    def test_correctable_region(self, capsys, tmp_path, toric_bundle):
        region = tmp_path / "r.txt"
        region.write_text("0 5\n")
        code, report = run_json(capsys, ["correctable", toric_bundle, str(region)])
        assert code == 0
        assert report["results"] == {"correctable": True}

    def test_uncorrectable_region(self, capsys, tmp_path, toric_bundle):
        region = tmp_path / "r.txt"
        region.write_text("0 1 2\n")  # a canonical X line
        code, report = run_json(capsys, ["correctable", toric_bundle, str(region)])
        assert code == 1
        assert report["status"] == "violated"
        assert report["results"]["correctable"] is False
        assert report["results"]["witness_type"] in ("X", "Z")

    def test_bad_region_index(self, tmp_path, toric_bundle):
        region = tmp_path / "r.txt"
        region.write_text("99\n")
        assert main(["correctable", toric_bundle, str(region)]) == 2

    @pytest.mark.parametrize("qubit", ["18", "-1"])  # n, and below 0
    def test_a_region_off_the_code_is_one_error_line(self, tmp_path, toric_bundle, qubit):
        # the library's range rule is the only one: one error line, no traceback
        region = tmp_path / "r.txt"
        region.write_text(f"0 {qubit}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "hgpforge.cli", "correctable", toric_bundle, str(region)],
            capture_output=True, env=_subprocess_env(), timeout=60, text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "error: region index out of range\n", proc.stderr
        report = json.loads(proc.stdout)
        assert report["status"] == "error"
        assert report["results"] == {"error": "region index out of range"}

    def test_regions_above_the_enumeration_bound(self, capsys, tmp_path):
        # Toric L=8 (n=128) with 32-qubit regions: the witness is the first
        # offending kernel basis row, not the exhaustive search's.
        seed = classical.cyclic_repetition_check(8)
        bundle = hgp_bundle(tmp_path, capsys, "toric8", seed)
        code = cli.read_bundle(bundle)
        rng = random.Random(8)
        line = sorted(css.canonical_logical_basis(code).z_reps[0].pauli.support)
        rest = [q for q in range(code.n) if q not in line]
        regions = [sorted(rng.sample(range(code.n), 32)), sorted(line + rng.sample(rest, 24))]
        verdicts = []
        for qubits in regions:
            path = tmp_path / "r.txt"
            path.write_text(" ".join(map(str, qubits)) + "\n")
            rc, report = run_json(capsys, ["correctable", bundle, str(path)])
            results = report["results"]
            expected = reference_verdict(code, qubits)
            got = (results["correctable"], results.get("witness"), results.get("witness_type"))
            assert got == expected and rc == (0 if expected[0] else 1)
            verdicts.append(got[0])
        assert verdicts == [True, False]


class TestVerifyDiagonal:
    def test_stabilizer_phase_pattern(self, capsys, tmp_path, toric_bundle):
        code = cli.read_bundle(toric_bundle)
        row = code.hz.bits[0]
        lines = ["MOD 1"] + [f"PHASE 1 {q}" for q in f2la.indices_of(row)]
        circ = tmp_path / "c.txt"
        circ.write_text("\n".join(lines) + "\n")
        rc, report = run_json(capsys, ["verify-diagonal", toric_bundle, str(circ)])
        assert rc == 0
        assert report["results"]["preserves"] is True
        assert report["results"]["level"] == 0
        assert report["results"]["logical_terms"] == []

    def test_violating_circuit(self, capsys, tmp_path, toric_bundle):
        circ = tmp_path / "c.txt"
        circ.write_text("MOD 1\nCCZ 0 1 3\n")
        rc, report = run_json(capsys, ["verify-diagonal", toric_bundle, str(circ)])
        assert rc == 1
        assert report["status"] == "violated"
        assert report["results"]["preserves"] is False

    def test_qubit_out_of_range(self, tmp_path, toric_bundle):
        circ = tmp_path / "c.txt"
        circ.write_text("MOD 1\nPHASE 1 40\n")
        assert main(["verify-diagonal", toric_bundle, str(circ)]) == 2

    @pytest.mark.parametrize("header", ["MODX 2", "MODULUS 2"])
    def test_a_header_that_only_starts_with_mod_is_refused(
        self, capsys, tmp_path, toric_bundle, header
    ):
        circ = tmp_path / "c.txt"
        circ.write_text(f"{header}\nCZ 0 1\n")
        rc, report = run_json(capsys, ["verify-diagonal", toric_bundle, str(circ), "--copies", "2"])
        assert rc == 2 and report["status"] == "error"
        assert report["results"]["error"] == "circuit file must start with a 'MOD m' header"


class TestNogoTransversal:
    def test_toric_respects_bound(self, capsys, toric_bundle):
        rc, report = run_json(
            capsys,
            ["nogo-transversal", toric_bundle, "--mod", "3", "--samples", "10"],
        )
        assert rc == 0
        assert report["results"]["max_level"] <= 2
        assert report["results"]["clifford_bound_respected"] is True
        assert report["results"]["all_preserve"] is True

    def test_seeded_determinism(self, capsys, toric_bundle):
        args = ["nogo-transversal", toric_bundle, "--mod", "2", "--samples", "5", "--seed", "3"]
        rc1, rep1 = run_json(capsys, args)
        rc2, rep2 = run_json(capsys, args)
        assert (rc1, rep1) == (rc2, rep2)

    def test_survey_eliminates_no_matrix_per_solution(self, capsys, toric_bundle, monkeypatch):
        built = []
        real = f2la.RowSpace.__init__

        def spy(self, *args, **kwargs):
            built.append(args)
            real(self, *args, **kwargs)

        monkeypatch.setattr(f2la.RowSpace, "__init__", spy)
        counts = []
        for samples in ("0", "16"):
            built.clear()
            argv = ["nogo-transversal", toric_bundle, "--mod", "3", "--samples", samples]
            assert main(argv) == 0
            capsys.readouterr()
            counts.append(len(built))
        assert counts[0] == counts[1] > 0
        code = cli.read_bundle(toric_bundle)
        assert code.rank_hx == len(code.hx_basis_rows) == code.hx_space.rank

    def test_survey_builds_images_once(self, capsys, toric_bundle, monkeypatch):
        # _coordinates is called by diagonal._images alone, once per build
        calls = []
        real = diagonal._coordinates
        monkeypatch.setattr(
            diagonal, "_coordinates", lambda *args: calls.append(args) or real(*args)
        )
        counts = []
        for samples in ("0", "16"):
            calls.clear()
            argv = ["nogo-transversal", toric_bundle, "--mod", "3", "--samples", samples]
            assert main(argv) == 0
            capsys.readouterr()
            counts.append(len(calls))
        assert counts == [1, 1]

    def test_one_pullback_per_survey(self, capsys, toric_bundle, monkeypatch):
        calls = []
        real = diagonal.substitute
        monkeypatch.setattr(diagonal, "substitute", lambda *args: calls.append(args) or real(*args))
        for samples in ("0", "16"):
            calls.clear()
            rc, report = run_json(
                capsys, ["nogo-transversal", toric_bundle, "--mod", "3", "--samples", samples]
            )
            assert rc == 0 and report["results"]["all_preserve"] is True
            # only the maximum-level generator is pulled back, and
            # preserves_codespace and logical_action share that pullback
            assert len(calls) == 1


class TestToricCnz:
    def test_end_to_end_t3(self, capsys, tmp_path, toric_bundle):
        circ = str(tmp_path / "ccz.txt")
        report_path = str(tmp_path / "ccz.json")
        rc, report = run_json(
            capsys,
            ["toric-cnz", "--t", "3", "--L", "2", "-o", circ, "--report", report_path],
        )
        assert rc == 0
        results = report["results"]
        assert results["invariance"] is True
        assert results["logical_cnz_verified"] is True
        assert results["logical_level"] == 3
        assert json.loads(Path(report_path).read_text()) == results

    def test_emitted_circuit_verifies_via_cli(self, capsys, tmp_path):
        # round trip: toric-cnz emits a circuit, verify-diagonal re-checks it
        seed2 = tmp_path / "seed2.txt"
        seed2.write_text(f2la.format_matrix_text(classical.cyclic_repetition_check(2)))
        bundle = str(tmp_path / "cube.json")
        assert main(["build", str(seed2), str(seed2), str(seed2), "--level", "1", "-o", bundle]) == 0
        circ = str(tmp_path / "ccz.txt")
        assert main(["toric-cnz", "--t", "3", "--L", "2", "-o", circ]) in (0,)
        capsys.readouterr()
        rc, report = run_json(
            capsys, ["verify-diagonal", bundle, circ, "--copies", "3"]
        )
        assert rc == 0
        assert report["results"]["preserves"] is True
        assert report["results"]["level"] == 3
        assert len(report["results"]["logical_terms"]) == 6

    def test_one_pullback_per_op(self, capsys, tmp_path, toric_bundle, monkeypatch):
        calls = []
        real = diagonal.substitute
        monkeypatch.setattr(diagonal, "substitute", lambda *args: calls.append(args) or real(*args))
        circ = str(tmp_path / "cz.txt")
        rc, report = run_json(capsys, ["toric-cnz", "--t", "2", "--L", "3", "-o", circ])
        assert rc == 0 and report["results"]["logical_cnz_verified"] is True
        assert len(calls) == 1
        rc, report = run_json(capsys, ["verify-diagonal", toric_bundle, circ, "--copies", "2"])
        assert rc == 0 and report["results"]["level"] == 2
        assert len(calls) == 2


class TestContract:
    def test_jobs_environment_variable_is_not_read(self, capsys, toric_bundle, monkeypatch):
        unset = main(["distance", toric_bundle]), capsys.readouterr().out
        monkeypatch.setenv("HGPFORGE_JOBS", "abc")
        assert (main(["distance", toric_bundle]), capsys.readouterr().out) == unset
        assert unset[0] == 0

    @pytest.mark.parametrize(
        "max_weight, message",
        [("1", "weight <= 1 found"), ("2", "weight <= 2 found"), ("0", ">= 1"), ("-3", ">= 1")],
    )
    def test_max_weight_below_distance_is_usage_error(
        self, capsys, toric_bundle, max_weight, message
    ):
        assert main(["distance", toric_bundle, "--max-weight", max_weight]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "error" and message in report["results"]["error"]

    def test_max_weight_at_distance_reports_it(self, capsys, toric_bundle):
        rc, report = run_json(capsys, ["distance", toric_bundle, "--max-weight", "3"])
        assert rc == 0 and report["results"]["d"] == 3

    def test_max_weight_over_the_subset_cap_is_refused_before_any_walk(
        self, capsys, tmp_path, monkeypatch
    ):
        # the L=8 repetition check and its transpose give the L=8 toric code:
        # n = 128 qubits under weight-4 checks, so the walks up to limit W may
        # visit 128 * sum over w = 1..W of (3^w - 1) / 2 nodes, about 5.7e6
        # for W = 10 and 1.9e6 for W = 9
        toric8 = hgp_bundle(tmp_path, capsys, "rep8", classical.cyclic_repetition_check(8))
        real = css._walk_logical_weight

        def refuse(*args, **kwargs):
            raise RuntimeError("walked")

        monkeypatch.setattr(css, "_walk_logical_weight", refuse)
        start = time.monotonic()
        assert main(["distance", toric8, "--max-weight", "10"]) == 2
        assert time.monotonic() - start < 1.0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "error"
        assert "max_weight 10 needs up to" in report["results"]["error"]
        assert "above the cap of 4194304" in report["results"]["error"]
        # the spy sits on the search's path: W = 8 is within the cap and walked
        walked = []
        monkeypatch.setattr(css, "_walk_logical_weight", lambda *args: walked.append(args) or real(*args))
        rc, report = run_json(capsys, ["distance", toric8, "--max-weight", "8"])
        assert rc == 0 and report["results"]["d"] == 8
        assert len(walked) == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--mod", "2", "--samples", "-5"], "samples must be >= 0"),
            (["--mod", "0"], "modulus_log2 must be >= 1"),
            (["--mod", "-1"], "modulus_log2 must be >= 1"),
        ],
    )
    def test_nogo_bad_arguments_are_usage_errors(self, capsys, toric_bundle, flags, message):
        assert main(["nogo-transversal", toric_bundle, *flags]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "error" and message in report["results"]["error"]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--mod", str(diagonal.MAX_MODULUS_LOG2 + 1)], "modulus_log2 must be >= 1 and <= 8"),
            (
                ["--mod", "2", "--samples", str(cli.MAX_SAMPLES + 1)],
                "samples must be >= 0 and <= 1000",
            ),
        ],
    )
    def test_nogo_over_a_cap_is_refused_before_any_congruence_row(
        self, capsys, toric_bundle, monkeypatch, flags, message
    ):
        built = []
        real = diagonal._preservation_congruences
        monkeypatch.setattr(
            diagonal, "_preservation_congruences", lambda *args: built.append(args) or real(*args)
        )
        assert main(["nogo-transversal", toric_bundle, *flags]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "error" and message in report["results"]["error"]
        assert built == []
        # the spy sits on the survey's path: a value within the caps reaches it
        assert main(["nogo-transversal", toric_bundle, "--mod", "2", "--samples", "0"]) == 0
        assert len(built) == 1

    def test_nogo_over_the_congruence_row_cap_is_refused_before_the_kernel(
        self, capsys, tmp_path, toric_bundle, monkeypatch
    ):
        # HGP of a dense 8x9 seed and its transpose: n = 145, qubit images of
        # up to 8 variables, so up to 19,458 congruence rows at m = 4
        seed = f2la.BinaryMatrix(8, 9, [0b111111111 ^ (1 << i) for i in range(8)])
        dense = hgp_bundle(tmp_path, capsys, "dense", seed)
        solved = []
        real = diagonal.kernel_mod_power_of_two
        monkeypatch.setattr(
            diagonal, "kernel_mod_power_of_two", lambda *args: solved.append(args) or real(*args)
        )
        assert main(["nogo-transversal", dense, "--mod", "4", "--samples", "0"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "error"
        assert "19458 congruence rows exceed the cap of 16384" in report["results"]["error"]
        assert solved == []
        # the spy sits on the survey's path: a code within the cap reaches it
        assert main(["nogo-transversal", toric_bundle, "--mod", "4", "--samples", "0"]) == 0
        assert len(solved) == 1

    def test_caps_admit_the_largest_values_in_use(self, capsys, tmp_path, toric_bundle):
        # m <= 4 and samples <= 100 in the tests, golden fixtures, benchmark and README
        assert diagonal.MAX_MODULUS_LOG2 >= 4 and cli.MAX_SAMPLES >= 100
        top = str(diagonal.MAX_MODULUS_LOG2)
        assert main(["nogo-transversal", toric_bundle, "--mod", top, "--samples", "0"]) == 0
        # the most congruence rows in use: up to 515 on the Hamming HGP at m = 4
        assert diagonal.MAX_CONGRUENCE_ROWS >= 515
        hamming = hgp_bundle(tmp_path, capsys, "ham", classical.hamming_7_4().h)
        assert main(["nogo-transversal", hamming, "--mod", "4", "--samples", "0"]) == 0

    def test_circuit_modulus_over_the_cap_is_refused_before_the_pullback(
        self, capsys, tmp_path, toric_bundle, monkeypatch
    ):
        circ = tmp_path / "big_mod.txt"
        circ.write_text(f"MOD {diagonal.MAX_MODULUS_LOG2 + 1}\nPHASE 1 0\n")
        pulled = []
        real = diagonal._images
        monkeypatch.setattr(diagonal, "_images", lambda *args: pulled.append(args) or real(*args))
        assert main(["verify-diagonal", toric_bundle, str(circ)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "error"
        assert "modulus exponent must be >= 1 and <= 8" in report["results"]["error"]
        assert pulled == []
        # the spy sits on the check's path: a modulus within the cap reaches it
        circ.write_text(f"MOD {diagonal.MAX_MODULUS_LOG2}\nPHASE 2 0\n")
        assert main(["verify-diagonal", toric_bundle, str(circ)]) in (0, 1)
        assert len(pulled) == 1

    @pytest.mark.parametrize("copies", ["0", "-1", str(diagonal.MAX_COPIES + 1)])
    def test_copies_outside_the_cap_are_refused_before_the_pullback(
        self, capsys, tmp_path, toric_bundle, monkeypatch, copies
    ):
        circ = tmp_path / "empty.txt"
        circ.write_text("MOD 1\n")
        pulled = []
        real = diagonal._images
        monkeypatch.setattr(diagonal, "_images", lambda *args: pulled.append(args) or real(*args))
        assert main(["verify-diagonal", toric_bundle, str(circ), "--copies", copies]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "error"
        assert "copies must be >= 1 and <= 8" in report["results"]["error"]
        assert pulled == []
        # the spy sits on the check's path: a copy count within the cap reaches it
        top = str(diagonal.MAX_COPIES)
        assert main(["verify-diagonal", toric_bundle, str(circ), "--copies", top]) == 0
        assert pulled

    def test_nogo_zero_samples_surveys_generators_only(self, capsys, toric_bundle):
        argv = ["nogo-transversal", toric_bundle, "--mod", "2", "--samples", "0"]
        rc, report = run_json(capsys, argv)
        assert rc == 0 and report["results"]["sample_count"] == 0

    def test_jobs_and_seed_stop_at_the_cli(self, capsys, toric_bundle):
        outs = []
        for argv in (
            ["distance", toric_bundle, "--jobs", "1"],
            ["distance", toric_bundle, "--jobs", "4"],
            ["nogo-transversal", toric_bundle, "--mod", "3", "--seed", "0"],
            ["nogo-transversal", toric_bundle, "--mod", "3", "--seed", "9"],
        ):
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and outs[2] == outs[3]

    def test_benchmark_argv_forms_are_accepted(self, capsys, toric_bundle):
        # the forms the distance and nogo ops pass: a refused flag fails every op
        argv = ["distance", toric_bundle, "--max-weight", "3", "--jobs", "1"]
        rc, report = run_json(capsys, argv)
        assert rc == 0 and report["results"]["d"] == 3
        argv = ["nogo-transversal", toric_bundle, "--mod", "2", "--samples", "16", "--seed", "123"]
        rc, report = run_json(capsys, argv)
        assert rc == 0 and report["results"]["sample_count"] == 16

    def test_build_over_the_check_bit_cap_is_refused_before_any_map(
        self, capsys, tmp_path, monkeypatch
    ):
        # six copies of the 5x5 circulant: n (r_x + r_z) = 93,750 * 250,000 bits
        rep5 = tmp_path / "rep5.txt"
        rep5.write_text(f2la.format_matrix_text(classical.cyclic_repetition_check(5)))
        built = []
        real = product.ProductComplex._build_boundary
        monkeypatch.setattr(
            product.ProductComplex,
            "_build_boundary",
            lambda self, *args, **kwargs: built.append(args) or real(self, *args, **kwargs),
        )
        out = tmp_path / "rep5x6.json"
        rc, report = run_json(capsys, ["build", *[str(rep5)] * 6, "--level", "1", "-o", str(out)])
        assert rc == 2 and report["status"] == "error"
        # plus six seeds of 5^2 + 5^2 kernel and cokernel bits
        assert f"23437500300 bits, above the cap of {css.MAX_CHECK_BITS}" in report["results"]["error"]
        assert built == [] and not out.exists()

    @pytest.mark.parametrize("widths", [(3_000_000, 2), (46_000, 46_000)])
    def test_seeds_without_rows_are_refused_at_once(self, tmp_path, widths):
        # n = 0, but each seed's kernel basis is the N x N identity and Hz
        # holds N_0 N_1 empty rows; run under an address-space limit so that
        # a build the cap misses fails instead of taking the host's memory
        paths = []
        for i, width in enumerate(widths):
            paths.append(tmp_path / f"wide{i}.txt")
            paths[-1].write_text(f"0 {width}\n")
        out, timing = tmp_path / "wide.json", tmp_path / "seconds.txt"
        rc, stdout, stderr = _cli_in_a_memory_limit(
            ["build", *map(str, paths), "--level", "1", "-o", str(out)], timing
        )
        assert rc == 2 and not out.exists()
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
        report = json.loads(stdout)
        assert report["status"] == "error"
        assert f"above the cap of {css.MAX_CHECK_BITS}" in report["results"]["error"]
        assert float(timing.read_text()) < 0.5

    def test_toric_cnz_over_the_check_bit_cap_is_refused(self, capsys, tmp_path):
        # t=2, L=153: 46,818 gates are under the gate cap, but Hx and Hz
        # would hold 46,818^2 bits
        out = tmp_path / "cz153.txt"
        assert main(["toric-cnz", "--t", "2", "--L", "153", "-o", str(out)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert f"above the cap of {css.MAX_CHECK_BITS}" in report["results"]["error"]
        assert not out.exists()

    def test_non_integer_jobs_is_usage_error(self, capsys, toric_bundle):
        assert main(["distance", toric_bundle, "--jobs", "abc"]) == 2

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("rows", 5, "declares 5x3"),
            ("rows", -1, "declares -1x3"),
            ("cols", 4, "declares 3x4"),
            ("data", "111", "list"),
        ],
    )
    def test_factor_layout_is_checked(self, capsys, tmp_path, toric_bundle, field, value, message):
        payload = json.loads(Path(toric_bundle).read_text())
        payload["factors"][0][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["distance", str(bad)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "error" and message in report["results"]["error"]
        assert report["results"]["error"].startswith(f"bad bundle file {bad}: ")

    def test_a_gate_over_the_branch_cap_is_refused_before_expanding(self, capsys, tmp_path):
        # one CNZ on 20 qubits of the L=5 toric code: each qubit's image holds
        # two or three coordinates, 5,308,416 branches in all
        toric5 = hgp_bundle(tmp_path, capsys, "rep5", classical.cyclic_repetition_check(5))
        circ = tmp_path / "c20z.txt"
        circ.write_text("MOD 1\nCNZ " + " ".join(map(str, range(20))) + "\n")
        tracemalloc.start()
        try:
            assert main(["verify-diagonal", str(toric5), str(circ)]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["status"] == "error"
        assert report["results"]["error"] == (
            "a monomial's pullback holds up to 5308416 branches, above the cap of 1048576"
        )
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        # the expansion would hold millions of branch tuples (830 MB)
        assert peak < 4 << 20, peak

    def test_toric_cnz_over_the_gate_cap_is_refused_before_building(self, capsys, tmp_path):
        # t=6, L=10 would need 10^6 * 6! = 7.2e8 gates, above the 2^20 cap
        out = tmp_path / "c6z.txt"
        start = time.monotonic()
        assert main(["toric-cnz", "--t", "6", "--L", "10", "-o", str(out)]) == 2
        assert time.monotonic() - start < 1.0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "error" and "cap of 1048576 gates" in report["results"]["error"]
        assert not out.exists()

    def test_toric_cnz_above_the_product_dimension_is_refused_before_building(
        self, capsys, tmp_path, monkeypatch
    ):
        # t=7, L=2 is 2^7 * 7! = 645120 gates, under the gate cap
        def no_product(*args, **kwargs):
            raise AssertionError("a product was built")

        monkeypatch.setattr(product, "build_product", no_product)
        out = tmp_path / "c7z.txt"
        t = product.MAX_DIMENSION + 1
        rc, report = run_json(capsys, ["toric-cnz", "--t", str(t), "--L", "2", "-o", str(out)])
        assert rc == 2 and report["status"] == "error"
        error = report["results"]["error"]
        assert f"product dimension t >= 2 and <= {product.MAX_DIMENSION}, not {t}" in error, error
        assert not out.exists()


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _subprocess_env() -> dict:
    """The environment for a subprocess to import this package."""
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def _cli_in_a_memory_limit(argv: list[str], timing: Path) -> tuple[int, str, str]:
    """Run `main(argv)` in a subprocess limited to 2 GiB of address space;
    return its exit code, stdout and stderr.  The call's own seconds, without
    the interpreter's start, are written to timing."""
    limit = 1 << 31
    probe = (
        "import sys, time\n"
        "from hgpforge.cli import main\n"
        "start = time.monotonic()\n"
        "code = main(sys.argv[2:])\n"
        "open(sys.argv[1], 'w').write(repr(time.monotonic() - start))\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(timing), *argv],
        capture_output=True, text=True, env=_subprocess_env(), timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    return proc.returncode, proc.stdout, proc.stderr


def _circuit_into_a_closed_stdout(target: str) -> tuple[int, str]:
    """Run `toric-cnz --t 2 --L 3 -o target` in a subprocess whose stdout is
    a pipe with no reader; return its exit code and its stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hgpforge.cli", "toric-cnz", "--t", "2", "--L", "3", "-o", target],
            stdout=write_end, stderr=subprocess.PIPE, env=_subprocess_env(), timeout=60,
        )
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr.decode()


class TestInputsAndOutputs:
    """Each input is read once and hashed from the bytes parsed; each output
    is written in place and cut to its length."""

    @pytest.fixture()
    def outputs(self, tmp_path, seed3):
        """(argv writing to `path`, the output's name) for each output file."""
        return {
            "circuit": lambda path: ["toric-cnz", "--t", "2", "--L", "3", "-o", path],
            "report": lambda path: [
                "toric-cnz", "--t", "2", "--L", "3", "-o", str(tmp_path / "cz.txt"), "--report", path,
            ],
            "build": lambda path: ["build", seed3, seed3, "--level", "1", "-o", path],
        }

    @pytest.mark.parametrize("output", ["circuit", "report", "build"])
    def test_a_longer_old_output_is_cut_to_the_new_content(
        self, capsys, tmp_path, outputs, output
    ):
        fresh, old = tmp_path / "fresh.out", tmp_path / "old.out"
        old.write_text("x" * 100_000 + "\n")
        for path in (fresh, old):
            assert main(outputs[output](str(path))) == 0
        capsys.readouterr()
        assert 0 < len(fresh.read_bytes()) < 100_000
        assert old.read_bytes() == fresh.read_bytes()

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
    @pytest.mark.parametrize("output", ["circuit", "report", "build"])
    def test_the_null_device_is_an_output(self, capsys, outputs, output):
        rc, report = run_json(capsys, outputs[output](os.devnull))
        assert rc == 0 and report["status"] == "ok"

    @pytest.mark.parametrize("output", ["circuit", "report", "build"])
    def test_a_directory_output_is_a_usage_error(self, capsys, tmp_path, outputs, output):
        assert main(outputs[output](str(tmp_path))) == 2
        out = capsys.readouterr().out
        assert out.count("\n") == 1  # one envelope, nothing before it
        report = json.loads(out)
        assert report["status"] == "error" and report["inputs"] == {}

    def test_each_input_is_read_once_and_its_digest_is_of_its_bytes(
        self, capsys, tmp_path, seed3, toric_bundle, monkeypatch
    ):
        region = tmp_path / "region.txt"
        region.write_text("0 5\n")
        circ = tmp_path / "cz.txt"
        assert main(["toric-cnz", "--t", "2", "--L", "3", "-o", str(circ)]) == 0
        capsys.readouterr()
        reads = []
        real = cli._read_input
        monkeypatch.setattr(cli, "_read_input", lambda path: reads.append(path) or real(path))
        bundle = str(tmp_path / "b.json")
        runs = [
            (["build", seed3, seed3, "--level", "1", "-o", bundle], [seed3]),
            (["logicals", toric_bundle], [toric_bundle]),
            (["distance", toric_bundle], [toric_bundle]),
            (["correctable", toric_bundle, str(region)], [toric_bundle, str(region)]),
            (["verify-diagonal", toric_bundle, str(circ), "--copies", "2"], [toric_bundle, str(circ)]),
            (["nogo-transversal", toric_bundle, "--mod", "2"], [toric_bundle]),
            (["toric-cnz", "--t", "2", "--L", "3", "-o", str(circ)], []),
        ]
        for argv, paths in runs:
            reads.clear()
            rc, report = run_json(capsys, argv)
            assert rc == 0, argv
            assert reads == paths
            assert report["inputs"] == {path: _sha256(path) for path in paths}

    def test_crlf_inputs_read_as_text_mode_reads_them(self, capsys, tmp_path, toric_bundle):
        # the digest is of the bytes on disk, the parse of the text with
        # universal newlines: a broken bundle's error position is the same
        region = tmp_path / "region.txt"
        region.write_bytes(b"0\r\n5\r\n")
        rc, report = run_json(capsys, ["correctable", toric_bundle, str(region)])
        assert rc == 0 and report["results"] == {"correctable": True}
        assert report["inputs"][str(region)] == _sha256(region)
        errors = []
        for name, text in (("lf.json", b"{\n]"), ("crlf.json", b"{\r\n]")):
            broken = tmp_path / name
            broken.write_bytes(text)
            rc, report = run_json(capsys, ["logicals", str(broken)])
            assert rc == 2
            errors.append(report["results"]["error"].replace(str(broken), "BUNDLE"))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("command", ["correctable", "verify-diagonal"])
    def test_an_input_that_is_not_ascii_names_the_file(
        self, capsys, tmp_path, toric_bundle, command
    ):
        # a region file for correctable, a circuit file for verify-diagonal
        binary = tmp_path / "bin.txt"
        binary.write_bytes(b"MOD 1\nZ 0\xff\n")
        rc, report = run_json(capsys, [command, toric_bundle, str(binary)])
        assert rc == 2 and report["status"] == "error"
        assert report["inputs"] == {}
        error = report["results"]["error"]
        assert error.startswith(f"cannot read {binary}: ") and "0xff" in error, error

    @pytest.mark.parametrize("output", ["file", "/dev/stdout"])
    def test_a_closed_stdout_is_a_usage_error_without_a_traceback(self, tmp_path, output):
        if output == "/dev/stdout" and not os.path.exists(output):
            pytest.skip("no /dev/stdout")
        target = str(tmp_path / "cz.txt") if output == "file" else output
        returncode, err = _circuit_into_a_closed_stdout(target)
        assert returncode == 2, err
        assert err.count("\n") == 1 and err.startswith("error: "), err
        assert "Traceback" not in err and "Exception ignored" not in err

    @pytest.mark.parametrize("output", ["circuit", "report", "build"])
    def test_a_write_error_names_the_output_path(self, capsys, tmp_path, outputs, output):
        rc, report = run_json(capsys, outputs[output](str(tmp_path)))
        assert rc == 2
        assert report["results"]["error"].startswith(f"cannot write {tmp_path}: ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("length", ["3", "64"])  # cut on the last flush, or on a write
    def test_a_full_device_is_a_usage_error_naming_it(self, capsys, length):
        rc, report = run_json(capsys, ["toric-cnz", "--t", "2", "--L", length, "-o", "/dev/full"])
        assert rc == 2 and report["status"] == "error"
        assert report["results"]["error"].startswith("cannot write /dev/full: ")

    def test_a_report_into_a_missing_directory_names_the_report(self, capsys, tmp_path):
        circuit, report_path = tmp_path / "cz.txt", tmp_path / "missing" / "r.json"
        argv = ["toric-cnz", "--t", "2", "--L", "3", "-o", str(circuit), "--report", str(report_path)]
        rc, report = run_json(capsys, argv)
        assert rc == 2 and report["status"] == "error"
        assert report["results"]["error"].startswith(f"cannot write {report_path}: ")
        assert circuit.read_text().startswith("# C^1Z layer")

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_a_circuit_into_a_closed_stdout_names_it_without_a_traceback(self):
        returncode, err = _circuit_into_a_closed_stdout("/dev/stdout")
        assert returncode == 2, err
        assert err.count("\n") == 1 and err.startswith("error: cannot write /dev/stdout: "), err
        assert "Traceback" not in err and "Exception ignored" not in err
