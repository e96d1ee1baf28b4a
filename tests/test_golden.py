"""Golden outputs: pinned stdout digests and manifest parameters.

One small deterministic run per subcommand (several for the CSV
renderers), plus the Casimir mode sum on the default epsilon ladder.
A digest that moves means the printed bytes changed; every such change
is declared in CHANGES.md together with its reason.  The goldens that
load no numpy are also run under every other CPython 3.10-3.13 on PATH.
"""

import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from zpflab import cli, field
from zpflab.cli import dispatch

GOLDEN = {
    "constants-gaussian": (
        ["constants", "--system", "gaussian"],
        "374601bcc2964b1ff279f28e10cc7f6af8305205e3cd7b6861b308601c74fa44",
        {"format": "csv", "system": "gaussian"},
    ),
    "constants-si": (
        ["constants", "--system", "si"],
        "653a4b0e70d0795ea73f1ee5fabae0584d62a07e36c494c9ffca5f11bf34ceda",
        {"format": "csv", "system": "si"},
    ),
    "constants-natural-json": (
        ["constants", "--system", "natural", "--format", "json"],
        "8fec69e9f7ae73a31dd29b9ae9ab7dccab886879716c54c04daffaab5a9b3636",
        {"format": "json", "system": "natural"},
    ),
    "oscillator": (
        ["oscillator", "--m", "1.5", "--omega", "0.5", "--samples", "64", "--seed", "9"],
        "74e73c8bd7a04dcd92a1e432afacfb89e05c0773d77d4af1bac96a913fc769ee",
        {"format": "csv", "m": 1.5, "omega": 0.5, "samples": 64, "seed": 9,
         "units": "gaussian"},
    ),
    "oscillator-json": (
        ["oscillator", "--m", "1.5", "--omega", "0.5", "--samples", "64", "--seed", "9",
         "--format", "json"],
        "cdd1f7efbb5b8264182a8102af0d13828601d3aff8f1e62eaf591c56ac8d95fd",
        {"format": "json", "m": 1.5, "omega": 0.5, "samples": 64, "seed": 9,
         "units": "gaussian"},
    ),
    "field-default-scales": (
        ["field", "scaling-run", "--grid", "16", "--draws", "2", "--seed", "13"],
        # the alias-class sums drawn from their exact joint law, then folded
        # to each scale and coarse-grained by Parseval on the folded spectrum,
        # whose Hermitian symmetry is completed after the folds
        "959bf127a979cd197cd0e99e091d182771ab5eb5413c4766ac4e1e173a44e572",
        {"box": 1.0, "draws": 2, "format": None, "grid": 16, "k_max": 50.26548245743669,
         "kappa": 1.0, "scales": [0.0625, 0.125, 0.25, 0.5], "seed": 13, "window": "hann"},
    ),
    "field-json": (
        ["field", "scaling-run", "--grid", "16", "--draws", "2", "--seed", "13",
         "--format", "json"],
        "efc01b0eccba5a3abaa5c7e00772348f8f4890c8f323a3ef4c7af3294a16e6d0",
        {"box": 1.0, "draws": 2, "format": "json", "grid": 16, "k_max": 50.26548245743669,
         "kappa": 1.0, "scales": [0.0625, 0.125, 0.25, 0.5], "seed": 13, "window": "hann"},
    ),
    "field-tophat-box2-csv": (
        # tophat window, csv only, a box other than 1 and scales given out of order;
        # its scales' L = 8 is below N, so it takes the Cholesky route
        ["field", "scaling-run", "--grid", "16", "--draws", "3", "--seed", "21", "--box", "2",
         "--window", "tophat", "--format", "csv", "--scales", "0.5,0.25,1"],
        "3c6ef52cf5dd250e5d9e35edf266169e1971912bb239a7b37ca67d40de27873b",
        {"box": 2.0, "draws": 3, "format": "csv", "grid": 16, "k_max": 25.132741228718345,
         "kappa": 1.0, "scales": [0.25, 0.5, 1.0], "seed": 21, "window": "tophat"},
    ),
    "field-cholesky-route": (
        # 64^3 on the default scales: the class grid L = 16 is below N, so the
        # law is the Cholesky factor of the class covariance, as in a benchmark run
        ["field", "scaling-run", "--grid", "64", "--draws", "3", "--seed", "13"],
        "f4d5d2017b6d844a528e8f35e5a780386f446a6a06a4301af0a8a92524e173db",
        {"box": 1.0, "draws": 3, "format": None, "grid": 64, "k_max": 201.06192982974676,
         "kappa": 1.0, "scales": [0.0625, 0.125, 0.25, 0.5], "seed": 13, "window": "hann"},
    ),
    "field-cholesky-tophat-box2-kmax-csv": (
        # the Cholesky route with the tophat window and a cutoff far below Nyquist
        ["field", "scaling-run", "--grid", "32", "--window", "tophat", "--box", "2",
         "--k-max", "6.3", "--draws", "3", "--format", "csv"],
        "59b79e55aabd52b7a85a393999f6e65f0ea961708b5170519bf972071d6c888c",
        {"box": 2.0, "draws": 3, "format": "csv", "grid": 32, "k_max": 6.3, "kappa": 1.0,
         "scales": [0.125, 0.25, 0.5, 1.0], "seed": 0, "window": "tophat"},
    ),
    "field-cholesky-128": (
        # the scale target's grid, with the arguments of the field_scale benchmark
        ["field", "scaling-run", "--grid", "128", "--draws", "2", "--seed", "5"],
        "9fe5fd7a4e61275a24862ac5c1a0f0009897cea0d0ded255d45f514fbcb7d4b7",
        {"box": 1.0, "draws": 2, "format": None, "grid": 128, "k_max": 402.1238596594935,
         "kappa": 1.0, "scales": [0.0625, 0.125, 0.25, 0.5], "seed": 5, "window": "hann"},
    ),
    "casimir-closed-csv": (
        ["casimir", "--area", "2", "--sep", "0.5", "--format", "csv"],
        "0b67601723199a1208663ef4a8ee2d98e07ae42da289ef7cf4bb55fdd9438058",
        {"area": 2.0, "epsilons": [0.4, 0.2, 0.1, 0.05], "format": "csv", "modesum": False,
         "order": 3, "sep": 0.5, "units": "gaussian"},
    ),
    "casimir-closed-json": (
        ["casimir", "--area", "2", "--sep", "0.5"],
        "853890f0c31437a93dd45297c49c05f0dad105dd3d980f9a7f1e761093db878d",
        {"area": 2.0, "epsilons": [0.4, 0.2, 0.1, 0.05], "format": "json", "modesum": False,
         "order": 3, "sep": 0.5, "units": "gaussian"},
    ),
    "casimir-modesum-default-ladder": (
        ["casimir", "--area", "1", "--sep", "1", "--units", "natural", "--modesum"],
        "94a1266b0f02425380ff4eda937a62642921c494489fbad43a02558db4433b35",
        {"area": 1.0, "epsilons": [0.4, 0.2, 0.1, 0.05], "format": "json", "modesum": True,
         "order": 3, "sep": 1.0, "units": "natural"},
    ),
    "casimir-modesum-csv": (
        # the nested diagnostics have no CSV row
        ["casimir", "--area", "1", "--sep", "1", "--units", "natural", "--modesum",
         "--format", "csv"],
        "764dfe41f92781a0241f80544f96cbdf52f3f2da809069ae6067caf8293e3db9",
        {"area": 1.0, "epsilons": [0.4, 0.2, 0.1, 0.05], "format": "csv", "modesum": True,
         "order": 3, "sep": 1.0, "units": "natural"},
    ),
    "lamb-welton": (
        ["lamb", "--n", "2"],
        # the provenance cell holds a comma and is quoted, so the row keeps 3 cells
        "fd21587b6f07e0041574368db9e2052b9a7d75999d11d966e82c7b9719808d2f",
        {"ell": 0, "format": "csv", "jitter": None, "n": 2, "omega_max": 7.7634407062933e20,
         "omega_min": 4.134137333510199e16},
    ),
    "lamb-welton-json": (
        ["lamb", "--n", "2", "--format", "json"],
        "a344d284ae5a3d878bcb00dabd8d1004b5ae72a95d703c6b9104a93cd7d071df",
        {"ell": 0, "format": "json", "jitter": None, "n": 2, "omega_max": 7.7634407062933e20,
         "omega_min": 4.134137333510199e16},
    ),
    "lamb-explicit-jitter": (
        ["lamb", "--n", "3", "--jitter", "1e-23"],
        "faab4f9d5d7a6cbaf1de70ee1e19e8de99bfbbd818b8b92b487a379daf2f0d11",
        {"ell": 0, "format": "csv", "jitter": 1e-23, "n": 3, "omega_max": None,
         "omega_min": None},
    ),
    "coil": (
        ["coil", "--turns", "100", "--area", "10", "--resistance", "1e-12", "--scale", "1"],
        "f9bdfb82092d89d2ed02203101a8d74a564edcc702ba30da1498971a5da74a03",
        {"area": 10.0, "format": "json", "particle": "electron", "resistance": 1e-12,
         "scale": 1.0, "turns": 100, "units": "gaussian"},
    ),
    "coil-proton-csv": (
        ["coil", "--turns", "5", "--area", "2", "--resistance", "0.1", "--scale", "0.5",
         "--particle", "proton", "--format", "csv"],
        "d793c902bd4ea3b60533c5df4804e3289c75b7982255dd14e6fa6c2a3462b866",
        {"area": 2.0, "format": "csv", "particle": "proton", "resistance": 0.1, "scale": 0.5,
         "turns": 5, "units": "gaussian"},
    ),
}

# The route of the class law each field golden takes, as its name or
# comment states: the mode route at L = N, the Cholesky route below it.
# A digest pins its route's random stream, so a run moved to the other
# route fails here by name, not only as an unexplained digest move.
FIELD_ROUTES = {
    "field-default-scales": "modes",
    "field-json": "modes",
    "field-tophat-box2-csv": "cholesky",
    "field-cholesky-route": "cholesky",
    "field-cholesky-tophat-box2-kmax-csv": "cholesky",
    "field-cholesky-128": "cholesky",
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = dispatch(argv, out, err)
    assert code == 0, err.getvalue()
    return out.getvalue(), json.loads(err.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(GOLDEN))
def test_stdout_digest_and_manifest_parameters(name):
    argv, digest, parameters = GOLDEN[name]
    out, manifest = run(argv)
    assert json.dumps(manifest["parameters"], sort_keys=True) == json.dumps(
        parameters, sort_keys=True
    )
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", list(GOLDEN))
def test_csv_rows_match_header_width(name):
    out, _ = run(GOLDEN[name][0])
    table = [line for line in out.splitlines() if not line.startswith(("{", "["))]
    rows = list(csv.reader(table, strict=True))
    assert all(len(row) == len(rows[0]) for row in rows), rows


def test_every_field_golden_names_its_route():
    assert set(FIELD_ROUTES) == {name for name, (argv, _, _) in GOLDEN.items()
                                 if argv[0] == "field"}


@pytest.mark.parametrize("name", list(FIELD_ROUTES))
def test_field_golden_takes_the_route_it_names(name):
    # the layout from the run's parameters, which the digest test pins to its argv
    parameters = GOLDEN[name][2]
    blocks = [round(parameters["box"] / scale) for scale in parameters["scales"]]
    modes = field.class_layout(parameters["grid"], blocks)[1]
    assert ("modes" if modes else "cholesky") == FIELD_ROUTES[name]


# The goldens that load no numpy: plain math and decimal, whose digits the
# language fixes, so they hold on every CPython the package supports.
PURE_GOLDENS = {name: argv for name, (argv, _, _) in GOLDEN.items()
                if argv[0] != "field" and "--samples" not in argv}
OTHER_PYTHONS = [f"python3.{minor}" for minor in range(10, 14)
                 if (3, minor) != sys.version_info[:2]]
# Runs each {name: argv} through dispatch and prints {name: [exit code, stdout sha256]}.
DIGEST_SCRIPT = """
import hashlib, io, json, sys
from zpflab.cli import dispatch
digests = {}
for name, argv in json.loads(sys.argv[1]).items():
    out = io.StringIO()
    code = dispatch(argv, out, io.StringIO())
    digests[name] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]
print(json.dumps(digests))
"""


@pytest.mark.parametrize("python", OTHER_PYTHONS)
def test_pure_goldens_print_the_same_bytes_on_another_python(python):
    # a pyenv shim for a version that is not installed is on PATH but fails
    exe = shutil.which(python)
    probe = exe and subprocess.run(
        [exe, "-c", "import sys; print(sys.implementation.name)"],
        capture_output=True, text=True, timeout=60,
    )
    if not probe or probe.returncode != 0 or probe.stdout.strip() != "cpython":
        pytest.skip(f"no working {python} on PATH")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run(
        [exe, "-c", DIGEST_SCRIPT, json.dumps(PURE_GOLDENS)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(result.stdout) == {name: [0, GOLDEN[name][1]] for name in PURE_GOLDENS}
