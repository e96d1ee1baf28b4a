"""Property test: every input the CLI accepts ends in one of three documented ways.

Exit 0 prints strict JSON or CSV whose numbers are all finite; exit 1
(bad input) and exit 2 (internal failure) print nothing on stdout.
No exception escapes ``dispatch``.
"""

import csv
import io
import json
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import per_mode
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from zpflab import field
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
    """Run argv, check it ended in a documented way, and return (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = dispatch(argv, out, err)
    assert code in (0, 1, 2), (argv, code)
    if code == 0:
        assert_strict_output(out.getvalue())
    else:
        assert out.getvalue() == "", argv
        assert err.getvalue().strip() and err.getvalue().count("\n") == 1, argv
    return code, out.getvalue(), err.getvalue()


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


# 10^e over the whole float range, its subnormals included
MAGNITUDES = st.integers(-320, 308).map(lambda e: float(f"1e{e}"))


def answered(argv):
    """The JSON result of argv if it exits 0, else None; either way a documented end."""
    code, out, _ = check_dispatch(argv + ["--format", "json"])
    return json.loads(out) if code == 0 else None


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(area=MAGNITUDES, sep=MAGNITUDES, units=UNITS)
@example(area=1e-300, sep=1.0, units="gaussian")
@example(area=1e-200, sep=1e-80, units="gaussian")
@example(area=1.0, sep=1e-78, units="gaussian")
def test_every_answered_casimir_force_keeps_the_area_over_l4_law(area, sep, units):
    # a force is answered only where every factor of it kept its digits
    force = answered(["casimir", flag("area", area), flag("sep", sep), "--units", units])
    if force is not None:
        unit = answered(["casimir", "--area=1", "--sep=1", "--units", units])["force_closed"]
        law = Fraction(unit) * Fraction(area) / Fraction(sep) ** 4
        assert force["force_closed"] == pytest.approx(float(law), rel=1e-12, abs=0)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(jitter=MAGNITUDES)
@example(jitter=1e-305)
def test_every_answered_lamb_shift_is_linear_in_the_jitter(jitter):
    shift = answered(["lamb", flag("jitter", jitter)])
    if shift is not None:
        unit = answered(["lamb", "--jitter=1e-20"])["delta_e_erg"]
        law = Fraction(unit) * Fraction(jitter) / Fraction(1e-20)
        assert shift["delta_e_erg"] == pytest.approx(float(law), rel=1e-12, abs=0)


def magnitude(name):
    return MAGNITUDES.map(lambda v: [flag(name, v)])


DIMENSIONED_RUNS = st.one_of(
    argv_of(["casimir"], magnitude("area"), magnitude("sep"), UNITS.map(lambda u: ["--units", u])),
    argv_of(
        ["coil", "--turns", "1"],
        magnitude("area"),
        magnitude("resistance"),
        magnitude("scale"),
        st.sampled_from(["gaussian", "natural"]).map(lambda u: ["--units", u]),
    ),
)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(argv=DIMENSIONED_RUNS)
@example(argv="coil --turns 1 --area 1e-300 --resistance 1e300 --scale 1e300".split())
@example(argv="casimir --area 1 --sep 1e100".split())
@example(argv="coil --turns 1 --area 1 --resistance 1 --scale 1e200".split())
def test_every_refused_force_or_current_names_the_normal_float_rule(argv):
    # an overflowing power is refused by the Quantity it would make, as a
    # product or quotient is, not by Python's OverflowError
    code, _, err = check_dispatch(argv + ["--format", "json"])
    if code != 0:
        assert code == 1 and "outside the normal float range" in err, (argv, err)
        assert "Numerical result out of range" not in err


# 10^k for k up to 400: from k = 309 an integer flag is past the largest float,
# where float(n) itself raises
POWERS_OF_TEN = st.integers(0, 400).map(lambda k: 10**k)
INTEGER_FLAG_RUNS = st.one_of(
    POWERS_OF_TEN.map(lambda n: ["lamb", f"--n={n}"]),
    POWERS_OF_TEN.map(
        lambda n: ["coil", f"--turns={n}", "--area=1", "--resistance=1", "--scale=1"]
    ),
    POWERS_OF_TEN.map(lambda n: ["field", "scaling-run", f"--grid={n}", "--draws=1"]),
)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(argv=INTEGER_FLAG_RUNS)
@example(argv=f"lamb --n {10**103}".split())
@example(argv=f"coil --turns {10**400} --area 1 --resistance 1 --scale 1".split())
@example(argv=f"field scaling-run --grid {2 * 10**400} --draws 1".split())
def test_every_refused_integer_flag_is_refused_by_the_normal_float_rule(argv):
    # an integer past the floats is refused where its record is built, not by
    # Python's OverflowError; with no memory to run in, no field run builds an array
    with mock.patch.object(field, "physical_memory_bytes", lambda: 0):
        code, _, err = check_dispatch(argv + ["--format", "json"])
    if code != 0:
        assert code == 1, (argv, err)
        assert "int too large to convert to float" not in err


LOG_UNIFORM = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


@st.composite
def cholesky_runs(draw):
    """A field run on a grid of 32 to 96 cells a side, where box/16..box/2 take the Cholesky route.

    1-5 scales box/d with d dividing N, box and kappa log-uniform over
    [1e-300, 1e300], k_max between the fundamental and Nyquist or the
    default, either window and 1-3 draws.
    """
    n = draw(st.sampled_from([32, 48, 64, 96]), label="grid")
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    blocks = draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=5, unique=True))
    box, kappa = draw(LOG_UNIFORM, label="box"), draw(LOG_UNIFORM, label="kappa")
    harmonic = draw(st.one_of(st.none(), st.floats(1.0, n / 2)), label="k_max / (2 pi / L)")
    args = {"grid": n, "box": box, "kappa": kappa, "scales": [box / d for d in blocks],
            "window": draw(st.sampled_from(["hann", "tophat"])),
            "draws": draw(st.integers(1, 3)), "seed": draw(st.integers(0, 2**32))}
    if harmonic is not None:
        args["k-max"] = 2 * math.pi * harmonic / box
    return args, blocks


@settings(max_examples=100, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(run=cholesky_runs())
def test_cholesky_route_ends_in_a_documented_way_with_the_unit_exponent(run):
    # every kappa and box is the lattice run at kappa 1 and box 1, scaled
    # after the fit, so an exit-0 run prints that run's exponent bit for bit
    args, blocks = run
    argv = ["field", "scaling-run", "--format=json"] + [flag(k, v) for k, v in args.items()]
    code, out, err = check_dispatch(argv)
    if code != 0:
        return
    manifest = json.loads(err.splitlines()[-1])
    # the run's cut in lattice units, clamped to the unit box's [2 pi, pi N]: it
    # rounds within the cut's slack of them, so the same shells are kept
    k_max = manifest["parameters"]["k_max"] * args["box"]
    unit = field.LatticeSpec(box_size=1.0, points_per_axis=args["grid"],
                             k_max=min(max(k_max, 2 * math.pi), math.pi * args["grid"]))
    _, fit = field.scaling_run(unit, [1 / d for d in blocks], args["draws"], args["seed"],
                               args["window"])
    assert json.loads(out)["exponent"] == (fit.exponent if fit else None)


@settings(max_examples=30, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_reordering_the_scales_leaves_stdout_alone(data):
    # a run reports its scales in increasing order, whatever order they came in
    args, _ = data.draw(cholesky_runs(), label="run")
    shuffled = {**args, "scales": data.draw(st.permutations(args["scales"]), label="order")}
    code, out, _ = check_dispatch(["field", "scaling-run"] + [flag(k, v) for k, v in args.items()])
    again = check_dispatch(["field", "scaling-run"] + [flag(k, v) for k, v in shuffled.items()])
    assert again[:2] == (code, out)


@pytest.mark.parametrize("route", ["modes", "cholesky"])
@settings(max_examples=50, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_exact_rms_is_the_per_mode_oracles(route, data):
    # the law's exact RMS, on the route a layout takes, against twice the
    # trace of the class covariance the oracle sums slab by slab from the
    # whole of sigma.  The modes are the factor exactly where the lcm L of
    # the cubes per axis is N, one mode a class, as a one-cell scale makes
    # it; without one, unless L is N, L <= N/2, at least 8 modes a class,
    # and the layout takes the Cholesky route.
    n = data.draw(st.sampled_from([8, 12, 16, 24, 32]), label="grid")
    divisors = [m for m in range(2, n // 2 + 1) if n % m == 0]
    cells = data.draw(st.lists(st.sampled_from(divisors), min_size=route == "cholesky",
                               max_size=3 if route == "modes" else 4, unique=True), label="cells")
    cells = sorted(cells + [1] if route == "modes" else cells)
    harmonic = data.draw(st.floats(1.0, n / 2), label="k_max / (2 pi)")
    window = data.draw(st.sampled_from(field.WINDOWS), label="window")
    spec = field.LatticeSpec(box_size=1.0, points_per_axis=n, k_max=2 * math.pi * harmonic)
    plans = field.scale_plans(n, cells, window)
    assume(field.class_layout(n, [p.blocks for p in plans])[1] == (route == "modes"))
    law = field.class_law(spec, plans)
    cov = per_mode.class_covariance(per_mode.mode_std(spec), plans)
    oracle = [2 * float(cov[a, a].real.sum()) for a in range(len(plans))]
    assert np.sqrt(law.mean_squares) == pytest.approx(np.sqrt(oracle), rel=1e-12, abs=0)


@settings(max_examples=40, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_run_bytes_bound_the_traced_peak_of_any_layout(data):
    # _run_bytes adds terms no phase holds at once, so it is at least the
    # peak on either route.  Only that side is checked: on a tiny layout its
    # fixed term for numpy's iterator buffers is many times the peak.
    n = data.draw(st.sampled_from(range(8, 49, 2)), label="grid")
    divisors = [m for m in range(1, n // 2 + 1) if n % m == 0]
    cells = data.draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=5, unique=True),
                      label="cells")
    window = data.draw(st.sampled_from(field.WINDOWS), label="window")
    spec = field.LatticeSpec(box_size=1.0, points_per_axis=n)
    scales = [m / n for m in cells]
    field.scaling_run(spec, scales, draws=2, seed=0, window=window)  # one-time lazy imports
    tracemalloc.start()
    try:
        field.scaling_run(spec, scales, draws=3, seed=1, window=window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert field._run_bytes(n, [n // m for m in cells], 3) >= peak
