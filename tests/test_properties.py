"""Property test: every input the CLI accepts ends in one of three documented ways.

Exit 0 prints strict JSON or CSV whose numbers are all finite; exit 1
(bad input) and exit 2 (internal failure) print nothing on stdout.
No exception escapes ``dispatch``.
"""

import csv
import io
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zpflab.cli import dispatch

EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1.0, -1.0,
            1e300, 1e308, -1e308, 1.7976931348623157e308, math.inf, math.nan]
FLOATS = st.one_of(st.sampled_from(EXTREMES), st.floats())
UNITS = st.sampled_from(["gaussian", "si", "natural"])
FORMATS = st.sampled_from(["csv", "json"])


def flag(name, value):
    """One argv token; the ``=`` keeps argparse from reading -1e-05 as an option."""
    if isinstance(value, list):
        value = ",".join(repr(v) for v in value)
    return f"--{name}={value!r}" if isinstance(value, float) else f"--{name}={value}"


def optional(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag(name, v)]))


def argv_of(head, *parts):
    return st.tuples(*parts).map(lambda ps: head + [tok for p in ps for tok in p])


SCALE_LISTS = st.lists(FLOATS, min_size=1, max_size=4)
SUBCOMMANDS = {
    "oscillator": argv_of(
        ["oscillator", "--samples", "16"],
        FLOATS.map(lambda v: [flag("m", v)]),
        FLOATS.map(lambda v: [flag("omega", v)]),
        UNITS.map(lambda u: ["--units", u]),
        FORMATS.map(lambda f: ["--format", f]),
    ),
    "field": argv_of(
        ["field", "scaling-run"],
        st.sampled_from(["8", "16"]).map(lambda g: ["--grid", g]),
        st.sampled_from(["1", "2"]).map(lambda d: ["--draws", d]),
        optional("box", FLOATS),
        optional("kappa", FLOATS),
        optional("k-max", FLOATS),
        optional("scales", SCALE_LISTS),
        st.sampled_from(["hann", "tophat"]).map(lambda w: ["--window", w]),
    ),
    "casimir": argv_of(
        ["casimir"],
        FLOATS.map(lambda v: [flag("area", v)]),
        FLOATS.map(lambda v: [flag("sep", v)]),
        UNITS.map(lambda u: ["--units", u]),
        st.sampled_from([[], ["--modesum"]]),
        optional("epsilons", st.lists(FLOATS, min_size=1, max_size=4)),
        FORMATS.map(lambda f: ["--format", f]),
    ),
    "lamb": argv_of(
        ["lamb"],
        st.sampled_from([["--n", "2"], ["--n", "2", "--ell", "1"], ["--n", "3"]]),
        optional("jitter", FLOATS),
        optional("omega-min", FLOATS),
        optional("omega-max", FLOATS),
        FORMATS.map(lambda f: ["--format", f]),
    ),
    "coil": argv_of(
        ["coil", "--turns", "3"],
        FLOATS.map(lambda v: [flag("area", v)]),
        FLOATS.map(lambda v: [flag("resistance", v)]),
        FLOATS.map(lambda v: [flag("scale", v)]),
        st.sampled_from(["gaussian", "natural"]).map(lambda u: ["--units", u]),
        st.sampled_from(["electron", "proton"]).map(lambda p: ["--particle", p]),
        FORMATS.map(lambda f: ["--format", f]),
    ),
}


def _reject_constant(name):
    raise AssertionError(f"non-JSON constant {name} in the output")


def assert_finite_numbers(value):
    if isinstance(value, float):
        assert math.isfinite(value)
    elif isinstance(value, dict):
        for v in value.values():
            assert_finite_numbers(v)
    elif isinstance(value, list):
        for v in value:
            assert_finite_numbers(v)


def assert_strict_output(text):
    """Each line is strict JSON, or a CSV row whose numeric cells are finite."""
    assert text.endswith("\n")
    for line in text.splitlines():
        if line[:1] in "{[":
            assert_finite_numbers(json.loads(line, parse_constant=_reject_constant))
            continue
        for cell in next(csv.reader(io.StringIO(line))):
            try:
                number = float(cell)
            except ValueError:
                continue
            assert math.isfinite(number), line


def check_dispatch(argv):
    out, err = io.StringIO(), io.StringIO()
    code = dispatch(argv, out, err)
    assert code in (0, 1, 2), (argv, code)
    if code == 0:
        assert_strict_output(out.getvalue())
    else:
        assert out.getvalue() == "", argv
        assert err.getvalue().strip() and err.getvalue().count("\n") == 1, argv


@pytest.mark.parametrize("subcommand", list(SUBCOMMANDS))
@settings(
    max_examples=150,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_every_input_ends_in_a_documented_way(subcommand, data):
    check_dispatch(data.draw(SUBCOMMANDS[subcommand], label="argv"))
