"""Byte-for-byte CLI reports on small instances.

`golden/stdout.json` maps each case name to the exact stdout the command
printed when the fixtures were captured; `golden/inputs/` holds the seed,
region and circuit files.  Commands run from inside one working directory
with relative file names, because the report's `inputs` keys are the paths
as given.  The bundles come from the build cases, which the module fixture
runs first.
"""

import contextlib
import io
import json
import os
import shutil
from pathlib import Path

import pytest

from hgpforge.cli import main

GOLDEN = Path(__file__).parent / "golden"

BUILDS = [
    ("build_toric", ["build", "seed3.txt", "seed3.txt", "--level", "1", "-o", "toric.json"], 0),
    ("build_toric3d", ["build", "seed2.txt", "seed2.txt", "seed2.txt", "--level", "1", "-o", "toric3d.json"], 0),
    ("build_hamming", ["build", "ham.txt", "hamT.txt", "--level", "1", "-o", "hamming.json"], 0),
]

CASES = BUILDS + [
    ("logicals_toric", ["logicals", "toric.json"], 0),
    ("logicals_toric3d", ["logicals", "toric3d.json"], 0),
    ("distance_toric", ["distance", "toric.json"], 0),
    ("distance_toric3d", ["distance", "toric3d.json"], 0),
    ("distance_hamming_bounded", ["distance", "hamming.json", "--max-weight", "3", "--jobs", "1"], 0),
    ("distance_hamming_bound_too_low", ["distance", "hamming.json", "--max-weight", "2"], 2),
    ("distance_hamming_over_budget", ["distance", "hamming.json"], 0),
    ("correctable_x_witness", ["correctable", "toric.json", "region_x.txt"], 1),
    ("correctable_z_witness", ["correctable", "toric.json", "region_z.txt"], 1),
    ("correctable_no_witness", ["correctable", "toric.json", "region_ok.txt"], 0),
    ("verify_diagonal_preserving", ["verify-diagonal", "toric.json", "cz.txt", "--copies", "2"], 0),
    ("verify_diagonal_violating", ["verify-diagonal", "toric.json", "cz_drop.txt", "--copies", "2"], 1),
    ("nogo_m2", ["nogo-transversal", "toric.json", "--mod", "2", "--samples", "5"], 0),
    ("nogo_m3", ["nogo-transversal", "toric.json", "--mod", "3", "--samples", "5", "--seed", "7"], 0),
    ("toric_cnz_t2", ["toric-cnz", "--t", "2", "--L", "3", "-o", "cz_out.txt"], 0),
    ("toric_cnz_t3", ["toric-cnz", "--t", "3", "--L", "2", "-o", "ccz_out.txt", "--report", "ccz.json"], 0),
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    for src in (GOLDEN / "inputs").iterdir():
        shutil.copy(src, path / src.name)
    cwd = os.getcwd()
    os.chdir(path)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for _, argv, _ in BUILDS:
                assert main(argv) == 0
    finally:
        os.chdir(cwd)
    return path


@pytest.fixture(scope="module")
def expected():
    return json.loads((GOLDEN / "stdout.json").read_text())


def test_every_case_has_a_fixture(expected):
    assert sorted(expected) == sorted(name for name, _, _ in CASES)


@pytest.mark.parametrize("name, argv, status", CASES, ids=[c[0] for c in CASES])
def test_stdout_matches_golden(name, argv, status, workdir, expected, monkeypatch, capsys):
    monkeypatch.chdir(workdir)
    assert main(argv) == status
    out = capsys.readouterr().out
    assert out == expected[name]
    report = json.loads(out)
    assert report["command"] == argv[0]
    assert report["status"] == ("ok", "violated", "error")[status]
