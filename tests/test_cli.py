"""CLI dispatch: outputs, exit codes, manifests, and replay."""

import argparse
import gc
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import zpflab.cli as cli
from zpflab import field, oscillator, units
from zpflab.cli import argv_from_manifest, dispatch
from zpflab.errors import InvariantError


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = dispatch(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def manifest_of(err_text):
    return json.loads(err_text.strip().splitlines()[-1])


class Reached(Exception):
    """Raised by a stubbed draw to show that a run got that far."""


class StubStream:
    """Stands in for numpy's default_rng: ``normal`` returns ``draw(size)`` and logs the size."""

    def __init__(self, draw):
        self.draw, self.sizes = draw, []

    def default_rng(self, seed):
        return self

    def normal(self, loc, scale, size):
        self.sizes.append(size)
        return self.draw(size)


class TestCasimirCommand:
    def test_natural_closed_form(self):
        code, out, err = run(["casimir", "--area", "1", "--sep", "1", "--units", "natural"])
        assert code == 0
        payload = json.loads(out)
        assert payload["force_closed"] == pytest.approx(-0.0411234, abs=1e-7)
        assert manifest_of(err)["subcommand"] == "casimir"

    def test_modesum_payload(self):
        code, out, _ = run(
            ["casimir", "--area", "1", "--sep", "1", "--units", "natural", "--modesum"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["energy_coefficient"] == pytest.approx(math.pi**2 / 720, rel=1e-3)
        assert payload["zeta_check"] == pytest.approx(1 / 120, abs=1e-6)
        assert len(payload["diagnostics"]["epsilons"]) == 4

    def test_modesum_run_forms_the_closed_form_once(self, monkeypatch):
        # the mode sum takes its ladder and order only, so the force is the handler's alone
        from zpflab import casimir

        calls = []
        closed_form = casimir.casimir_force_closed

        def counted(*args):
            calls.append(args)
            return closed_form(*args)

        monkeypatch.setattr(casimir, "casimir_force_closed", counted)
        code, _, _ = run(["casimir", "--area", "1", "--sep", "1", "--modesum"])
        assert code == 0
        assert len(calls) == 1

    def test_negative_separation_exits_one_with_diagnostic(self):
        code, out, err = run(["casimir", "--area", "1", "--sep", "-2"])
        assert code == 1
        assert out == ""
        assert "separation" in err

    def test_convergence_failure_exits_two(self):
        code, _, err = run(
            ["casimir", "--area", "1", "--sep", "1", "--modesum",
             "--epsilons", "6,5", "--order", "1"]
        )
        assert code == 2
        assert "residual" in err

    def test_infinite_separation_exits_one(self):
        code, out, err = run(["casimir", "--area", "1", "--sep", "inf"])
        assert code == 1
        assert out == ""
        assert "--sep" in err and "finite" in err

    @pytest.mark.parametrize("ladder", ["1e300,0.4", "20,0.4"])
    def test_ladder_past_two_pi_exits_one_with_one_line(self, ladder):
        code, out, err = run(
            ["casimir", "--area", "1", "--sep", "1", "--units", "natural", "--modesum",
             "--epsilons", ladder, "--order", "1"]
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "2*pi" in err

    def test_infinite_epsilon_exits_one(self):
        code, out, err = run(
            ["casimir", "--area", "1", "--sep", "1", "--modesum", "--epsilons", "inf,0.4"]
        )
        assert code == 1
        assert out == ""
        assert "epsilon" in err


class TestLambCommand:
    def test_default_run_lands_in_band(self):
        code, out, _ = run(["lamb", "--n", "2"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "quantity,value,unit"
        mhz = float(next(l for l in lines if "MHz" in l).split(",")[1])
        assert 350.0 <= mhz <= 3000.0
        assert any("welton-estimate" in l for l in lines)

    def test_explicit_jitter_provenance(self):
        code, out, _ = run(["lamb", "--n", "2", "--jitter", "1e-23", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["jitter_provenance"] == "user-supplied"

    def test_jitter_and_cutoffs_conflict(self):
        code, _, err = run(["lamb", "--jitter", "1e-23", "--omega-min", "1e16"])
        assert code == 1
        assert "jitter" in err

    def test_2p_is_zero(self):
        code, out, _ = run(["lamb", "--n", "2", "--ell", "1", "--format", "json"])
        assert code == 0
        assert json.loads(out)["delta_e_erg"] == 0.0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_negative_zero_jitter_prints_a_positive_zero(self, fmt):
        code, out, err = run(["lamb", "--jitter", "-0", "--format", fmt])
        assert code == 0
        assert "-0" not in out
        if fmt == "json":
            assert math.copysign(1.0, json.loads(out)["jitter_cm2"]) == 1.0
        else:
            assert "jitter,0,cm^2" in out.splitlines()
        code2, out2, _ = run(argv_from_manifest(manifest_of(err)))
        assert code2 == 0
        assert out2 == out


class TestCoilCommand:
    def test_ratio_reported(self):
        code, out, _ = run(
            ["coil", "--turns", "100", "--area", "10", "--resistance", "1e-12",
             "--scale", "1"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ratio_exact_over_charge"] == pytest.approx(11.70623761435312, rel=1e-6)
        assert payload["inputs"]["particle"] == "electron"

    def test_proton_compton_time(self):
        code, out, _ = run(
            ["coil", "--turns", "1", "--area", "1", "--resistance", "1",
             "--scale", "1", "--particle", "proton"]
        )
        payload = json.loads(out)
        electron_tau = 1.2880886681975522e-21
        assert payload["inputs"]["tau"] == pytest.approx(electron_tau / 1836.15267344, rel=1e-8)

    def test_infinite_area_exits_one(self):
        code, out, err = run(["coil", "--turns", "1", "--area", "inf",
                              "--resistance", "1", "--scale", "1"])
        assert code == 1
        assert out == ""
        assert "--area" in err and "finite" in err

    def test_zero_resistance_exits_one(self):
        code, _, err = run(["coil", "--turns", "1", "--area", "1",
                            "--resistance", "0", "--scale", "1"])
        assert code == 1
        assert "resistance" in err

    @pytest.mark.parametrize("scale", ["0", "-1"])
    def test_nonpositive_scale_exits_one(self, scale):
        code, out, err = run(["coil", "--turns", "1", "--area", "1", "--resistance", "1",
                              "--scale", scale])
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        assert "scale" in err and repr(float(scale)) in err


class TestConstantsCommand:
    @pytest.mark.parametrize("system", ["gaussian", "si", "natural"])
    def test_csv_table(self, system):
        code, out, _ = run(["constants", "--system", system])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "name,value,unit"
        names = [l.split(",")[0] for l in lines[1:]]
        assert "hbar" in names and "tau_C" in names

    def test_values_roundtrip_17_digits(self):
        _, out, _ = run(["constants", "--system", "gaussian"])
        for line in out.strip().splitlines()[1:]:
            value = float(line.split(",")[1])
            assert float(repr(value)) == value

    def test_unknown_system_rejected(self):
        code, _, err = run(["constants", "--system", "imperial"])
        assert code == 1
        assert err.startswith("error: zpflab constants: ") and err.count("\n") == 1

    @pytest.fixture
    def snapshot_at(self, monkeypatch):
        """Point the snapshot at a path, with the tables read from it afresh."""
        def clear():
            units._snapshot_entries.cache_clear()
            units.constants_for.cache_clear()

        def point(path):
            monkeypatch.setattr(units, "SNAPSHOT_PATH", str(path))
            clear()

        yield point
        clear()  # the next test reads the shipped snapshot again

    @pytest.mark.parametrize(
        "text, message",
        [(None, "cannot read the constants snapshot {path}: "),
         ("gaussian.hbar = abc # erg s\n",
          "non-numeric value on constants line 1: 'gaussian.hbar = abc # erg s'"),
         ("gaussian.hbar 1.0\n", "malformed constants line 1: 'gaussian.hbar 1.0'")],
        ids=["missing", "non-numeric", "no-equals"],
    )
    def test_a_bad_snapshot_exits_two_with_one_line(self, snapshot_at, tmp_path, text, message):
        path = tmp_path / "codata2018.txt"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        snapshot_at(path)
        code, out, err = run(["constants"])
        assert code == 2 and out == ""
        assert err.startswith("internal error: " + message.format(path=path))
        assert err.count("\n") == 1

    def test_a_snapshot_without_the_proton_mass_exits_two_with_one_line(self, snapshot_at,
                                                                        tmp_path):
        shipped = Path(units.SNAPSHOT_PATH).read_text(encoding="utf-8").splitlines(keepends=True)
        path = tmp_path / "codata2018.txt"
        path.write_text("".join(line for line in shipped if ".m_p =" not in line),
                        encoding="utf-8")
        snapshot_at(path)
        code, out, err = run(["coil", "--turns", "1", "--area", "1", "--resistance", "1",
                              "--scale", "1", "--particle", "proton"])
        assert code == 2 and out == ""
        assert err == "internal error: constants snapshot missing gaussian.m_p\n"


class TestOscillatorCommand:
    def test_moments_output(self):
        code, out, _ = run(
            ["oscillator", "--m", "1", "--omega", "1", "--units", "natural",
             "--samples", "500", "--seed", "7"]
        )
        assert code == 0
        rows = dict(l.split(",") for l in out.strip().splitlines()[1:])
        assert float(rows["width"]) == 1.0
        assert float(rows["variance"]) == 0.5
        assert int(rows["sample_count"]) == 500

    def test_sampling_deterministic(self):
        a = run(["oscillator", "--m", "2", "--omega", "3", "--samples", "100", "--seed", "5"])
        b = run(["oscillator", "--m", "2", "--omega", "3", "--samples", "100", "--seed", "5"])
        assert a[1] == b[1]

    def test_invalid_mass_exits_one(self):
        code, _, err = run(["oscillator", "--m", "-1", "--omega", "1"])
        assert code == 1
        assert "m " in err or "m=" in err or "parameter m" in err

    @pytest.mark.parametrize("value", ["1e-300", "1e300"])
    def test_product_out_of_range_exits_one_with_one_line(self, value):
        code, out, err = run(["oscillator", "--m", value, "--omega", value])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "m*omega" in err

    def test_overflow_in_the_samples_exits_one_with_one_line(self, monkeypatch):
        # the twin of the field draw test: the float-error policy reaches this handler too
        draws = StubStream(lambda size: np.resize([1e200, -1e200], size))
        monkeypatch.setattr(np.random, "default_rng", draws.default_rng)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(["oscillator", "--m", "1", "--omega", "1", "--samples", "8"])
        assert code == 1
        assert out == ""
        assert err == "error: a number left the float range: overflow encountered in square\n"
        assert caught == []

    def test_an_overflow_in_the_samples_raises_without_dispatch(self, monkeypatch):
        # sample_moments holds numpy's raising state itself, so a library caller gets it too
        draws = StubStream(lambda size: np.resize([1e200, -1e200], size))
        monkeypatch.setattr(np.random, "default_rng", draws.default_rng)
        params = oscillator.OscillatorParams(m=1.0, omega=1.0, hbar=1.0)
        with pytest.raises(FloatingPointError, match="overflow encountered in square"):
            oscillator.sample_moments(params, seed=0, n=8)

    def test_samples_up_to_2_53_run_and_more_exit_one_with_one_line(self, monkeypatch):
        # 2**53 samples reach the first leaf's draw, which the stub stops;
        # one more is refused before any draw
        def stop(size):
            raise Reached

        draws = StubStream(stop)
        monkeypatch.setattr(np.random, "default_rng", draws.default_rng)
        argv = ["oscillator", "--m", "1", "--omega", "1", "--samples"]
        with pytest.raises(Reached):
            run(argv + [str(2**53)])
        assert draws.sizes == [oscillator._LEAF]
        code, out, err = run(argv + [str(2**53 + 1)])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "2**53" in err
        assert draws.sizes == [oscillator._LEAF]

    def test_manifest_records_the_z_scores_of_the_moments(self):
        argv = ["oscillator", "--m", "2", "--omega", "3", "--samples", "1000", "--seed", "4",
                "--units", "natural", "--format", "json"]
        code, out, err = run(argv)
        assert code == 0
        manifest = manifest_of(err)
        moments = json.loads(out)
        n, exact = moments["sample_count"], moments["variance"]
        assert manifest["convergence"] == {
            "oscillator": {
                "mean_z_score": moments["sample_mean"] / math.sqrt(exact) * math.sqrt(n),
                "variance_z_score":
                    (moments["sample_variance"] / exact - 1.0) / math.sqrt(2.0 / (n - 1)),
            }
        }
        assert all(abs(z) < 5 for z in manifest["convergence"]["oscillator"].values())
        assert "convergence" not in manifest["parameters"]
        assert run(argv_from_manifest(manifest))[1] == out

    def test_extreme_masses_record_finite_or_no_z_scores(self):
        # at m = 1e-300 the exact variance is near 5e272 and its square
        # overflows, so only ratios to it keep the z-scores finite; at
        # m = 1e300 it underflows to 0 and the run exits 1 (OUT_OF_FLOAT_RANGE)
        argv = ["oscillator", "--omega", "1", "--samples", "16", "--m"]
        code, _, err = run(argv + ["1e-300"])
        assert code == 0
        z_scores = manifest_of(err)["convergence"]["oscillator"].values()
        assert all(math.isfinite(z) for z in z_scores)

    @pytest.mark.parametrize("samples", ["-1", "0", "1"])
    def test_fewer_than_two_samples_exit_one_with_one_line(self, samples):
        code, out, err = run(["oscillator", "--m", "1", "--omega", "1", "--samples", samples])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--samples" in err


@pytest.mark.parametrize(
    "argv",
    [["oscillator", "--m", "1", "--omega", "1", "--samples", "8"],
     ["field", "scaling-run", "--grid", "8", "--draws", "1", "--scales", "0.5"]],
)
def test_negative_seed_exits_one(argv):
    code, out, err = run(argv + ["--seed=-1"])
    assert code == 1
    assert out == ""
    assert "--seed" in err and "non-negative" in err


class TestFieldCommand:
    ARGS = ["field", "scaling-run", "--grid", "16", "--box", "1", "--draws", "2",
            "--seed", "7", "--scales", "0.25,0.5"]

    def test_byte_identical_reruns(self):
        _, out1, _ = run(self.ARGS)
        _, out2, _ = run(self.ARGS)
        assert out1 == out2

    def test_an_overflow_in_a_draw_raises_without_dispatch(self, monkeypatch):
        # scaling_run holds numpy's raising state itself, so a library caller gets it too
        def overflowing(law, seed):
            return np.full(len(law.mean_squares), 1e200) * 1e200

        monkeypatch.setattr(field, "draw_mean_squares", overflowing)
        spec = field.LatticeSpec(box_size=1.0, points_per_axis=16)
        with pytest.raises(FloatingPointError, match="overflow encountered in multiply"):
            field.scaling_run(spec, [0.25, 0.5], draws=2, seed=7)

    @pytest.mark.parametrize("cells", [1, 2])
    def test_overflow_in_a_draw_exits_one_with_one_line(self, monkeypatch, cells):
        # the error state scaling_run sets holds in the draws, on either factor
        # route: a smallest scale of one cell makes L = N and takes the modes
        # as the factor's columns, one of two cells the Cholesky factor
        argv = self.ARGS[:-1] + [f"{cells / 16},0.5"]
        class_law = field.class_law

        def huge(spec, plans):  # a factor of 1e200: the class sums' folds square to inf
            law = class_law(spec, plans)
            columns = tuple(np.full_like(c, 1e200) for c in law.columns)
            return field.ClassLaw(law.blocks, columns, law.mean_squares)

        monkeypatch.setattr(field, "class_law", huge)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(argv)
        assert code == 1
        assert out == ""
        assert err == "error: a number left the float range: overflow encountered in square\n"
        assert caught == []

    def test_csv_and_json_sections(self):
        code, out, _ = run(self.ARGS)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "scale,rms,stderr"
        summary = json.loads(lines[-1])
        assert summary["fit_skipped_reason"] == "fewer than 3 scales"

    def test_three_scales_reports_fit(self):
        code, out, _ = run(
            ["field", "scaling-run", "--grid", "16", "--box", "1", "--draws", "4",
             "--seed", "3", "--scales", "0.0625,0.125,0.25,0.5"]
        )
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["exponent"] is not None
        assert 0.0 <= summary["r_squared"] <= 1.0

    def test_scale_beyond_half_the_box_exits_one_with_one_line(self):
        code, out, err = run(
            ["field", "scaling-run", "--grid", "16", "--draws", "4",
             "--scales", "0.125,0.25,0.5,1.0"]
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "half the box" in err

    def test_kmax_below_fundamental_exits_one_with_one_line(self):
        code, out, err = run(["field", "scaling-run", "--grid", "16", "--k-max", "5"])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "2*pi/L" in err

    @pytest.mark.parametrize("flag", ["--box", "--kappa", "--k-max"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_float_exits_one(self, flag, value):
        code, out, err = run(["field", "scaling-run", "--grid", "16", "--draws", "1",
                              f"{flag}={value}"])
        assert code == 1
        assert out == ""
        assert flag in err and "finite" in err

    @pytest.mark.parametrize("box", ["0", "1e-330"])  # 1e-330 parses to 0
    def test_zero_box_exits_one_with_one_line(self, box):
        code, out, err = run(["field", "scaling-run", "--grid", "16", "--draws", "1",
                              "--box", box])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "box_size" in err

    def test_unknown_window_exits_one_with_one_line(self):
        code, out, err = run(["field", "scaling-run", "--grid", "16", "--draws", "1",
                              "--window", "bogus"])
        assert code == 1
        assert out == ""
        assert err == f"error: unknown window 'bogus'; expected one of {field.WINDOWS}\n"

    def test_bad_scale_exits_one(self):
        code, _, err = run(
            ["field", "scaling-run", "--grid", "16", "--box", "1", "--draws", "1",
             "--seed", "0", "--scales", "0.3"]
        )
        assert code == 1
        assert "scale" in err

    @pytest.mark.parametrize("scales", ["0,0.5", "0.03125,0.5", "--scales=-0.25,0.5"])
    def test_scale_below_one_cell_exits_one_with_one_line(self, scales):
        # a list starting with a minus sign reaches the run only as --scales=...
        flag = [scales] if scales.startswith("--") else ["--scales", scales]
        code, out, err = run(["field", "scaling-run", "--grid", "16", "--draws", "1", *flag])
        first = flag[-1].removeprefix("--scales=").split(",")[0]
        assert code == 1
        assert out == ""
        assert err == f"error: scale {float(first)} is below one lattice cell (cell 0.0625)\n"

    def test_manifest_records_the_distance_from_the_exact_ensemble(self):
        code, out, err = run(self.ARGS + ["--scales", "0.125,0.25,0.5", "--draws", "5"])
        assert code == 0
        convergence = manifest_of(err)["convergence"]["field"]
        report, _ = field.scaling_run(
            field.LatticeSpec(box_size=1.0, points_per_axis=16), [0.125, 0.25, 0.5],
            draws=5, seed=7,
        )
        assert convergence == {
            "scales": [
                {"scale": s, "exact_rms": e, "z_score": z}
                for s, e, z in zip(report.scales, report.exact_rms, report.z_scores)
            ],
            "exact_exponent": report.exact_exponent,
        }
        assert all(math.isfinite(row["z_score"]) for row in convergence["scales"])
        # the record leaves the printed table alone
        row = (report.scales[0], report.rms[0], report.stderr[0])
        assert out.splitlines()[1] == ",".join(cli._fmt(v) for v in row)


# Each overflows a power of a dimensioned length, l^2 or l^4, which Quantity
# refuses as inf, as it does an overflowing product or quotient.
POWER_OVERFLOWS = [
    "coil --turns 1 --area 1e-300 --resistance 1e300 --scale 1e300",
    "casimir --area 1 --sep 1e100",
    "coil --turns 1 --area 1 --resistance 1 --scale 1e200",
]
# Each integer flag is past the largest float, where float(n) itself raises:
# refused by name where its record is built.
INTEGERS_PAST_THE_FLOATS = [
    f"lamb --n {10**103}",
    f"coil --turns {10**400} --area 1 --resistance 1 --scale 1",
    f"field scaling-run --grid {2 * 10**400} --draws 1",
]
OUT_OF_FLOAT_RANGE = POWER_OVERFLOWS + INTEGERS_PAST_THE_FLOATS + [
    "field scaling-run --grid 16 --draws 2 --box 1e-200",
    "field scaling-run --grid 16 --draws 2 --box 1e200 --scales 6.25e198,1.25e199,2.5e199,5e199",
    "casimir --area 1e-300 --sep 1e10",
    "casimir --area 1e-300 --sep 1e10 --modesum",
    "casimir --area 1 --sep 1e-300 --units si",
    "casimir --area 1e300 --sep 1e-100",
    "coil --turns 1 --area 1e300 --resistance 1e-300 --scale 1e-300",
    "coil --turns 1 --area 1e-300 --resistance 1e5 --scale 1e5",
    "lamb --jitter 1e308",
    "lamb --n 2 --jitter 1e-320",
    "oscillator --m 2.3e-308 --omega 1 --units natural --samples 64",
    "oscillator --omega 1 --samples 16 --m 1e300",
    "oscillator --m 1e300 --omega 1",
    # each passes a dimensioned intermediate, or the sample variance, through the
    # subnormal floats, where it keeps too few digits: the forces would print off
    # the A / l^4 law, the shifts 2.2 % off the jitter and n^-3 laws, and a
    # subnormal mass's variance 1.5e-12 off hbar / (2 m omega)
    "casimir --area 1e-300 --sep 1",
    "casimir --area 1e-200 --sep 1e-80",
    "lamb --jitter 1e-305",
    f"lamb --n {10**102}",
    "oscillator --m 2.2e307 --omega 1 --units natural --samples 16 --seed 1",
    "oscillator --m 1e-312 --omega 1e10",
]


@pytest.mark.parametrize("window", ["hann", "tophat"])
@pytest.mark.parametrize("kappa", ["1e-290", "1e-250", "1e-200"])
@pytest.mark.parametrize("grid", ["32", "64"])
def test_tiny_kappa_on_the_cholesky_route_draws_the_unit_exponent(grid, kappa, window):
    # classes whose covariance falls to the subnormal range stay in the
    # float range under scaling_run's raising error state
    argv = ["field", "scaling-run", "--grid", grid, "--draws", "2", "--window", window]
    code, out, err = run(argv + ["--kappa", kappa])
    assert code == 0, err
    unit = json.loads(run(argv)[1].splitlines()[-1])
    assert json.loads(out.splitlines()[-1])["exponent"] == unit["exponent"]


@pytest.mark.parametrize("flags", ["--kappa 1e308", "--kappa 1e300", "--kappa 1e-320",
                                   "--box 1e-100", "--box 1e70", "--box 0.7 --kappa 1e-320"])
def test_extreme_kappa_or_box_with_a_representable_result_draws_the_unit_exponent(flags):
    # the run is computed at box 1 and kappa 1, so these print the unit
    # run's exponent bit for bit, and their RMS values are normal floats;
    # the default k_max, pi N / L, goes through the manifest as a float and
    # its replay keeps the Nyquist shell, so it prints the same bytes
    argv = ["field", "scaling-run", "--grid", "16", "--draws", "2"]
    code, out, err = run(argv + flags.split())
    assert code == 0, err
    unit = run(argv + ["--format", "json"])[1]
    assert json.loads(out.splitlines()[-1])["exponent"] == json.loads(unit)["exponent"]
    manifest = manifest_of(err)
    assert manifest["parameters"]["k_max"] == math.pi * 16 / manifest["parameters"]["box"]
    assert run(argv_from_manifest(manifest))[1] == out


@pytest.mark.parametrize("fmt", ["csv", "json", "csv,json"])
@pytest.mark.parametrize(
    "argv",
    [a for a in OUT_OF_FLOAT_RANGE if a.startswith("field") and a not in INTEGERS_PAST_THE_FLOATS],
)
def test_field_result_past_the_float_range_exits_one_under_every_format(argv, fmt):
    # the run checks its reported values itself, not by rendering them
    formats = [] if fmt == "csv,json" else ["--format", fmt]
    code, out, err = run(argv.split() + formats)
    assert code == 1
    assert out == ""
    assert err.startswith("error: kappa and box put a result at ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", OUT_OF_FLOAT_RANGE)
def test_out_of_float_range_input_exits_one_with_one_line(argv):
    code, out, err = run(argv.split())
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", POWER_OVERFLOWS)
def test_an_overflowing_power_is_refused_by_the_normal_float_rule(argv):
    code, out, err = run(argv.split())
    assert code == 1
    assert out == ""
    assert err.startswith("error: a dimensioned quantity at inf, outside the normal float range")
    assert err.count("\n") == 1


def test_a_shift_at_large_n_keeps_the_n_cubed_law():
    # the control of OUT_OF_FLOAT_RANGE's n = 10^102: at n = 10^96 every factor is normal
    code, out, err = run(["lamb", "--n", str(10**96), "--format", "json"])
    assert code == 0, err
    at_two = json.loads(run(["lamb", "--n", "2", "--format", "json"])[1])["delta_e_erg"]
    law = at_two * (2 / 10**96) ** 3
    assert json.loads(out)["delta_e_erg"] == pytest.approx(law, rel=1e-12, abs=0)


# Each asks for more than can be run, so nothing is allocated: scaling_run
# refuses the first two grids, whose build's block alone is 0.96 TB and
# 96 TB, and the third's table of 3.2e16 bytes; the oscillator refuses a
# count above 2**53, past which it is not an exact float divisor.
OVERSIZED = [
    "field scaling-run --grid 100000 --draws 1",
    "field scaling-run --grid 1000000 --draws 1 --scales 0.25,0.5",
    "field scaling-run --grid 8 --draws 1000000000000000 --scales 0.25,0.5",
    "oscillator --m 1 --omega 1 --samples 100000000000000000",
]


@pytest.mark.parametrize("argv", OVERSIZED)
def test_oversized_request_exits_one_with_one_line(argv):
    code, out, err = run(argv.split())
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# Runs zpflab.cli as `python -m` does, with the field module's physical
# memory reported as 8.42e9 bytes whatever the host has.
BOUNDED_RUN = """
import runpy, sys
import zpflab.field
zpflab.field.physical_memory_bytes = lambda: 8.42e9
sys.argv = ['zpflab', *sys.argv[1:]]
runpy.run_module('zpflab.cli', run_name='__main__')
"""


@pytest.mark.skipif(resource is None, reason="needs the resource module to limit the child")
def test_a_one_cell_run_past_memory_exits_one_before_allocating():
    # At 512^3 a one-cell scale's factor alone is 4.3 GB and its first draw
    # needs about 10 GB more.  The child's address space is capped at 2 GB,
    # so a run that got past the bound would fail by numpy's "Unable to
    # allocate" (or, without the cap, reach the OOM killer).
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    argv = "field scaling-run --grid 512 --scales 0.001953125,0.0625,0.25,0.5 --draws 1"
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = subprocess.run(
        [sys.executable, "-c", BOUNDED_RUN, *argv.split()],
        # numpy loads with zpflab.field, before main() would cap the BLAS threads
        env=probe_env(OPENBLAS_NUM_THREADS="1"),
        preexec_fn=cap_address_space, capture_output=True, text=True, timeout=60,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert result.returncode == 1, result.stderr
    assert result.stdout == ""
    assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1
    assert "physical memory" in result.stderr and "Unable to allocate" not in result.stderr
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    assert cpu < 1.0


class TestDispatchPlumbing:
    def test_unknown_subcommand_usage_exit_one(self):
        code, _, err = run(["warpdrive"])
        assert code == 1
        assert err.startswith("error: zpflab: ") and err.count("\n") == 1

    def test_unknown_flag_exit_one(self):
        code, _, err = run(["casimir", "--area", "1", "--sep", "1", "--bogus"])
        assert code == 1
        assert err.startswith("error: zpflab: ") and err.count("\n") == 1

    def test_internal_invariant_maps_to_exit_two(self, monkeypatch):
        def boom(args):
            raise InvariantError("synthetic failure")

        monkeypatch.setattr(cli, "_cmd_casimir", boom)
        code, _, err = run(["casimir", "--area", "1", "--sep", "1"])
        assert code == 2
        assert "synthetic failure" in err

    def test_output_of_a_failing_run_stays_off_stdout(self, monkeypatch):
        # the default format renders the finite CSV table, then fails on the JSON
        def half_renderable(args):
            return "natural", {"exponent": math.nan}, [("scale", "rms"), (0.5, 1.0)]

        monkeypatch.setattr(cli, "_cmd_field_scaling", half_renderable)
        code, out, err = run(["field", "scaling-run"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: a number left the float range") and err.count("\n") == 1

    def test_non_finite_results_are_not_rendered(self):
        with pytest.raises(ArithmeticError):
            cli._fmt(math.inf)
        with pytest.raises(ArithmeticError):
            cli._json_dump({"force": math.nan})

    def test_help_exits_zero(self):
        code, _, _ = run(["--help"])
        assert code == 0

    def test_every_float_flag_rejects_non_finite_values(self):
        parser = cli.build_parser()
        parsers = [parser]
        types = set()
        while parsers:
            for action in parsers.pop()._actions:
                if isinstance(action, argparse._SubParsersAction):
                    parsers.extend(action.choices.values())
                types.add(action.type)
        assert float not in types and cli._finite in types



needs_dev_full = pytest.mark.skipif(
    not os.path.exists("/dev/full"), reason="needs /dev/full, a device every write to fails"
)


def cli_process(argv, stdout=subprocess.PIPE, unbuffered=True):
    """A ``python -m zpflab.cli`` process run to its end, its output as bytes."""
    env = probe_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "zpflab.cli", *argv],
        env=env, stdout=stdout, stderr=subprocess.PIPE,
    )


class TestManifest:
    def test_manifest_written_to_file(self, tmp_path):
        path = tmp_path / "m.json"
        code, _, err = run(
            ["casimir", "--area", "1", "--sep", "1", "--manifest", str(path)]
        )
        assert code == 0
        assert err == ""
        manifest = json.loads(path.read_text())
        assert manifest["constants_snapshot"] == "codata2018"
        assert manifest["version"]
        assert manifest["duration_seconds"] >= 0

    def test_unwritable_manifest_path_exits_one_before_computing(self, tmp_path):
        path = tmp_path / "missing" / "m.json"
        code, out, err = run(
            ["casimir", "--area", "1", "--sep", "1", "--manifest", str(path)]
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_manifest_contains_defaulted_parameters(self):
        _, _, err = run(["lamb"])
        manifest = manifest_of(err)
        assert manifest["parameters"]["n"] == 2
        assert manifest["parameters"]["omega_min"] is not None

    def test_dispatch_leaves_the_collector_unfrozen(self):
        # only main freezes it, at exit; a library caller keeps its own GC
        frozen = gc.get_freeze_count()
        assert run(["constants", "--system", "si"])[0] == 0
        assert gc.get_freeze_count() == frozen

    def test_a_process_writes_what_dispatch_writes(self, tmp_path):
        # main freezes the collector before the exit, after the manifest is
        # closed, and the exit still flushes stdout
        argv = ["constants", "--system", "si"]
        path = tmp_path / "m.json"
        result = subprocess.run(
            [sys.executable, "-m", "zpflab.cli", *argv, "--manifest", str(path)],
            env=probe_env(), capture_output=True, text=True, check=True,
        )
        code, out, err = run(argv)
        assert code == 0
        assert result.stdout == out
        assert result.stderr == ""
        assert json.loads(path.read_text()).keys() == manifest_of(err).keys()

    def test_a_result_that_cannot_be_written_empties_the_manifest_file(self, tmp_path):
        class ClosedPipe(io.StringIO):
            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        path = tmp_path / "m.json"
        err = io.StringIO()
        code = dispatch(["lamb", "--manifest", str(path)], ClosedPipe(), err)
        assert code == 1
        assert err.getvalue() == "error: cannot write the result: [Errno 32] Broken pipe\n"
        assert path.read_text() == ""

    @needs_dev_full
    def test_a_full_manifest_file_exits_one_with_nothing_on_stdout(self):
        result = cli_process(["constants", "--manifest", "/dev/full"])
        assert (result.returncode, result.stdout) == (1, b"")
        assert result.stderr.decode().startswith("error: cannot write manifest: ")
        assert result.stderr.count(b"\n") == 1

    @needs_dev_full
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_a_full_stdout_exits_one_with_one_line(self, unbuffered):
        # unbuffered, the write raised a traceback; buffered, the exit's flush exited 120
        with open("/dev/full", "w") as full:
            result = cli_process(["constants"], stdout=full, unbuffered=unbuffered)
        assert result.returncode == 1
        assert result.stderr.decode().startswith("error: cannot write the result: ")
        assert result.stderr.count(b"\n") == 1

    def test_a_closed_stdout_pipe_exits_one_with_one_line_and_no_manifest(self):
        # the manifest, on stderr, would record a run whose result was lost
        process = subprocess.Popen(
            [sys.executable, "-m", "zpflab.cli", *SUBCOMMAND_RUNS["field"]],
            env=probe_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        process.stdout.close()
        stderr = process.stderr.read()
        process.stderr.close()
        assert process.wait() == 1
        assert stderr == b"error: cannot write the result: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["casimir", "--area", "2", "--sep", "0.5", "--units", "natural", "--modesum"],
            ["lamb", "--n", "3"],
            ["coil", "--turns", "5", "--area", "2", "--resistance", "0.1", "--scale", "0.5"],
            ["oscillator", "--m", "1.5", "--omega", "0.5", "--samples", "64", "--seed", "9"],
            ["constants", "--system", "si"],
            ["field", "scaling-run", "--grid", "16", "--box", "1", "--draws", "2",
             "--seed", "13", "--scales", "0.125,0.25,0.5"],
        ],
    )
    def test_replay_from_manifest_is_byte_identical(self, argv):
        code, out1, err = run(argv)
        assert code == 0
        manifest = manifest_of(err)
        # numpy is loaded in this process; a fresh one is checked by the import guard below
        assert manifest["versions"] == {
            "python": "{}.{}.{}".format(*sys.version_info[:3]), "numpy": np.__version__
        }
        assert "versions" not in manifest["parameters"]
        replay_argv = argv_from_manifest(manifest)
        code2, out2, _ = run(replay_argv)
        assert code2 == 0
        assert out2 == out1

    @pytest.mark.parametrize("draws", [1, 3])
    def test_threads_and_peak_rss_leave_stdout_and_replay_alone(self, draws):
        # one draw has no z-scores, which the manifest records as null
        argv = ["field", "scaling-run", "--grid", "16", "--draws", str(draws), "--seed", "13"]
        code, out, err = run(argv)
        assert code == 0
        manifest = manifest_of(err)
        assert "threads" not in manifest  # the field run has no workers to count
        z_scores = [row["z_score"] for row in manifest["convergence"]["field"]["scales"]]
        assert len(z_scores) == 4
        assert all((z is None) == (draws == 1) for z in z_scores)
        assert manifest["peak_rss_kb"] > 1000  # the interpreter and numpy alone take more
        assert set(manifest["parameters"]) == {
            "box", "draws", "format", "grid", "k_max", "kappa", "scales", "seed", "window"
        }
        replay_argv = argv_from_manifest(manifest)
        assert "--threads" not in replay_argv and "--peak-rss-kb" not in replay_argv
        assert run(replay_argv)[1] == out

    def test_runs_without_a_field_record_no_convergence(self):
        _, _, err = run(["lamb"])
        manifest = manifest_of(err)
        assert manifest["convergence"] is None
        assert manifest["peak_rss_kb"] > 1000


# Runs argv lists through dispatch in one fresh interpreter and reports, as one
# JSON line: the non-stdlib top-level packages, the zpflab modules and every
# module that importing zpflab.cli and building its parser loaded; after each
# run, its exit code, whether numpy or platform is loaded, the zpflab modules
# it added and every module it added; the OPENBLAS_NUM_THREADS the process
# ends with; and whether OpenSSL's hash module _hashlib is loaded then.
IMPORT_PROBE = """
import io, json, os, sys
before = set(sys.modules)
import zpflab, zpflab.cli
zpflab.cli.build_parser()
added = {m.split('.')[0] for m in set(sys.modules) - before}
own = lambda: {m for m in sys.modules if m.startswith('zpflab.')}
report = {'loaded': sorted(added - set(sys.stdlib_module_names) - {'zpflab'}),
          'modules': sorted(own()), 'start_added': sorted(set(sys.modules) - before),
          'runs': [], 'run_modules': [], 'run_added': []}
for argv in json.loads(sys.argv[1]):
    modules, every = own(), set(sys.modules)
    code = zpflab.cli.dispatch(argv, io.StringIO(), io.StringIO())
    report['runs'].append([code, 'numpy' in sys.modules, 'platform' in sys.modules])
    report['run_modules'].append(sorted(own() - modules))
    report['run_added'].append(sorted(set(sys.modules) - every))
report['openblas'] = os.environ.get('OPENBLAS_NUM_THREADS')
report['openssl'] = sys.modules.get('_hashlib') is not None
print(json.dumps(report))
"""
# BLAS thread settings, dropped from a probe's environment unless a test sets one
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def probe_env(**preset):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    return {**env, "PYTHONPATH": str(Path(cli.__file__).parents[1]), **preset}


def probe_fresh_interpreter(argvs, *flags):
    result = subprocess.run(
        [sys.executable, *flags, "-c", IMPORT_PROBE, json.dumps(argvs)],
        env=probe_env(), capture_output=True, text=True, check=True,
    )
    return json.loads(result.stdout)


def test_numpy_free_subcommands_never_load_numpy(tmp_path):
    argvs = [
        ["constants"],
        ["constants", "--format", "json"],
        ["casimir", "--area", "1", "--sep", "1", "--modesum"],
        ["lamb"],
        ["coil", "--turns", "100", "--area", "10", "--resistance", "1e-12", "--scale", "1"],
    ]
    paths = [tmp_path / f"m{i}.json" for i in range(len(argvs))]
    report = probe_fresh_interpreter(
        [argv + ["--manifest", str(path)] for argv, path in zip(argvs, paths)]
    )
    assert report["loaded"] == []  # importing zpflab and zpflab.cli loads only the stdlib
    assert report["runs"] == [[0, False, False]] * len(argvs)
    python = "{}.{}.{}".format(*sys.version_info[:3])
    for path in paths:
        assert json.loads(path.read_text())["versions"] == {"python": python, "numpy": None}


def test_oscillator_without_samples_never_loads_numpy(tmp_path):
    # width and variance are plain math; only the sampling makes an array,
    # and a sample count past 2**53 is refused before numpy loads
    path = tmp_path / "m.json"
    argv = ["oscillator", "--m", "1.5", "--omega", "0.5", "--format", "json"]
    report = probe_fresh_interpreter(
        [argv + ["--manifest", str(path)], argv + ["--samples", str(2**53 + 1)]]
    )
    assert report["runs"] == [[0, False, False], [1, False, False]]
    # the first run reads hbar from units; the refused count loads nothing
    assert report["run_modules"] == [["zpflab.oscillator", "zpflab.units"], []]
    manifest = json.loads(path.read_text())
    assert manifest["versions"]["numpy"] is None
    assert manifest["parameters"]["samples"] is None
    assert manifest["convergence"] is None


@pytest.mark.parametrize(
    "argv",
    [["oscillator", "--m", "1", "--omega", "1", "--samples", "8"],
     ["field", "scaling-run", "--grid", "8", "--draws", "1", "--scales", "0.25,0.5"]],
)
def test_array_subcommands_load_numpy(argv, tmp_path):
    path = tmp_path / "m.json"
    report = probe_fresh_interpreter([argv + ["--manifest", str(path)]])
    assert report["runs"][0][:2] == [0, True]
    assert json.loads(path.read_text())["versions"]["numpy"] == np.__version__


SUBCOMMAND_RUNS = {
    "constants": ["constants"],
    "casimir": ["casimir", "--area", "1", "--sep", "1"],
    "lamb": ["lamb"],
    "coil": ["coil", "--turns", "100", "--area", "10", "--resistance", "1e-12", "--scale", "1"],
    "oscillator": ["oscillator", "--m", "1", "--omega", "1", "--samples", "8"],
    "field": ["field", "scaling-run", "--grid", "8", "--draws", "2", "--scales", "0.25,0.5"],
}


def test_each_subcommand_module_loads_only_with_its_run():
    report = probe_fresh_interpreter(list(SUBCOMMAND_RUNS.values()))
    # lamb imports units only inside its functions and is loaded with the cli,
    # so that perfbench/tracer.py, which wraps the modules loaded before a run,
    # traces it; units loads with the first run that builds a quantity
    assert report["modules"] == ["zpflab.cli", "zpflab.errors", "zpflab.lamb"]
    assert [code for code, _, _ in report["runs"]] == [0] * len(SUBCOMMAND_RUNS)
    assert dict(zip(SUBCOMMAND_RUNS, report["run_modules"])) == {
        "constants": ["zpflab.units"],
        "casimir": ["zpflab.casimir"],
        "lamb": [],
        "coil": ["zpflab.coil"],
        "oscillator": ["zpflab.oscillator"],
        "field": ["zpflab.field"],
    }
    assert report["openblas"] is None  # dispatch leaves a library caller's environment alone
    # nor does it hide OpenSSL: numpy.random's import of secrets loads it where it exists
    assert report["openssl"] == (importlib.util.find_spec("_hashlib") is not None)


# what units loads: a field run computes in lattice units and needs none of it
UNITS_IMPORTS = ("fractions", "decimal", "_decimal", "zpflab.units")


def test_a_field_run_loads_no_units():
    report = probe_fresh_interpreter([SUBCOMMAND_RUNS["field"]])
    assert report["runs"][0][:2] == [0, True]
    added = report["start_added"] + report["run_added"][0]
    assert [m for m in UNITS_IMPORTS if m in added] == []
    assert report["run_modules"] == [["zpflab.field"]]


# stdlib modules that cost a pure run more than its computation: dataclasses
# (with inspect, ast, dis and tokenize) and importlib.resources
HEAVY_STARTUP_IMPORTS = ("dataclasses", "inspect", "importlib.resources")


def heavy(modules):
    return sorted(m for m in modules if m.startswith(HEAVY_STARTUP_IMPORTS))


def test_pure_runs_load_none_of_the_heavy_imports_and_json_runs_no_csv():
    # -S: no site-packages .pth file can import one of them first and hide it
    argvs = {
        "constants": ["constants"],
        "lamb": ["lamb"],
        "casimir": ["casimir", "--area", "1", "--sep", "1", "--modesum"],
        "coil": ["coil", "--turns", "100", "--area", "10", "--resistance", "1e-12", "--scale", "1"],
        "oscillator": ["oscillator", "--m", "1", "--omega", "1"],
    }
    report = probe_fresh_interpreter(list(argvs.values()), "-S")
    assert report["runs"] == [[0, False, False]] * len(argvs)
    assert heavy(report["start_added"]) == []
    added = dict(zip(argvs, report["run_added"]))
    assert {name: heavy(modules) for name, modules in added.items()} == dict.fromkeys(argvs, [])
    # casimir and coil print JSON by default; only a CSV table needs csv
    assert "csv" not in report["start_added"] + added["casimir"] + added["coil"]
    assert "csv" in added["constants"]


def test_array_runs_load_no_dataclasses():
    report = probe_fresh_interpreter([SUBCOMMAND_RUNS["field"], SUBCOMMAND_RUNS["oscillator"]])
    assert [run[:2] for run in report["runs"]] == [[0, True]] * 2
    assert "dataclasses" not in report["start_added"] + sum(report["run_added"], [])


# Runs zpflab.cli.main() on an argv in a fresh interpreter, waits up to 2 s for
# the threads in /proc/self/task to fall to the expected count (a joined worker
# leaves the list at once, an idle BLAS pool never does) and reports, as the
# last stdout line, the exit code, that count and OPENBLAS_NUM_THREADS.
THREAD_PROBE = """
import json, os, sys, time
import zpflab.cli
argv, expected = json.loads(sys.argv[1]), int(sys.argv[2])
sys.argv = ['zpflab', *argv]
try:
    zpflab.cli.main()
except SystemExit as exc:
    code = exc.code
deadline = time.monotonic() + 2
while len(os.listdir('/proc/self/task')) > expected and time.monotonic() < deadline:
    time.sleep(0.01)
print(json.dumps({'code': code, 'threads': len(os.listdir('/proc/self/task')),
                  'openblas': os.environ.get('OPENBLAS_NUM_THREADS')}))
"""


def probe_threads(argv, expected, **preset):
    result = subprocess.run(
        [sys.executable, "-c", THREAD_PROBE, json.dumps(argv), str(expected)],
        env=probe_env(**preset), capture_output=True, text=True, check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


# With one CPU a BLAS library starts no pool, so a thread count shows nothing.
needs_linux_smp = pytest.mark.skipif(
    not sys.platform.startswith("linux")
    or min(os.cpu_count() or 1, len(os.sched_getaffinity(0))) < 2,
    reason="counts threads in /proc/self/task; needs Linux and two CPUs",
)


@needs_linux_smp
@pytest.mark.parametrize("subcommand", ["oscillator", "field"])
def test_a_cli_process_starts_no_blas_thread_pool(subcommand):
    report = probe_threads(SUBCOMMAND_RUNS[subcommand], 1)
    assert report == {"code": 0, "threads": 1, "openblas": "1"}


@needs_linux_smp
def test_a_preset_openblas_thread_count_is_kept():
    report = probe_threads(SUBCOMMAND_RUNS["oscillator"], 2, OPENBLAS_NUM_THREADS="2")
    assert report["code"] == 0 and report["openblas"] == "2"
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    if "openblas" in blas.get("name", ""):  # the probe sees the pool that the cap prevents
        assert report["threads"] == 2


# In a fresh interpreter, hides each module named with a leading "!" as a
# Python built without it would, imports the other named modules, runs
# zpflab.cli.main() on an argv and reports, as the last stdout line, the exit
# code, whether a real _hashlib is loaded and whether /proc/self/maps names
# libcrypto (null where there is no such file).
OPENSSL_PROBE = """
import json, os, sys
for name in sys.argv[2:]:
    if name.startswith('!'):
        sys.modules[name[1:]] = None
    else:
        __import__(name)
import zpflab.cli
sys.argv = ['zpflab', *json.loads(sys.argv[1])]
try:
    zpflab.cli.main()
except SystemExit as exc:
    code = exc.code
maps = '/proc/self/maps'
libcrypto = any('libcrypto' in line for line in open(maps)) if os.path.exists(maps) else None
print(json.dumps({'code': code, 'openssl': sys.modules.get('_hashlib') is not None,
                  'libcrypto': libcrypto}))
"""


def probe_openssl(argv, *modules):
    """The probe's report and its stderr."""
    result = subprocess.run(
        [sys.executable, "-c", OPENSSL_PROBE, json.dumps(argv), *modules],
        env=probe_env(), capture_output=True, text=True, check=True,
    )
    return json.loads(result.stdout.splitlines()[-1]), result.stderr


# Without them main leaves _hashlib loadable, and hashlib would use OpenSSL.
needs_builtin_digests = pytest.mark.skipif(
    not all(importlib.util.find_spec(name) for name in cli._BUILTIN_DIGESTS),
    reason="this Python has no built-in digests for hashlib to fall back to",
)


@needs_builtin_digests
@pytest.mark.parametrize("subcommand", ["oscillator", "field"])
def test_a_cli_process_never_loads_openssl(subcommand):
    # numpy.random imports secrets, whose hmac and hashlib would load libcrypto
    report, _ = probe_openssl(SUBCOMMAND_RUNS[subcommand])
    assert report["code"] == 0
    assert report["openssl"] is False
    if sys.platform.startswith("linux"):
        assert report["libcrypto"] is False


def test_openssl_loaded_before_main_is_kept():
    report, _ = probe_openssl(SUBCOMMAND_RUNS["oscillator"], "hashlib")
    assert report["code"] == 0
    assert report["openssl"] == (importlib.util.find_spec("_hashlib") is not None)


@pytest.mark.parametrize("digest", cli._BUILTIN_DIGESTS)
def test_a_python_without_a_built_in_digest_keeps_openssl(digest):
    # hiding _hashlib there would leave hashlib to log the digest as missing
    report, err = probe_openssl(SUBCOMMAND_RUNS["oscillator"], "!" + digest)
    assert report["code"] == 0
    assert report["openssl"] == (importlib.util.find_spec("_hashlib") is not None)
    assert err.count("\n") == 1 and json.loads(err)["subcommand"] == "oscillator"


@pytest.mark.parametrize("subcommand", ["oscillator", "field"])
def test_an_array_cli_process_writes_only_its_manifest_to_stderr(subcommand):
    # hashlib would log a traceback there for each digest it could not find
    result = subprocess.run(
        [sys.executable, "-m", "zpflab.cli", *SUBCOMMAND_RUNS[subcommand]],
        env=probe_env(), capture_output=True, text=True, check=True,
    )
    assert result.stderr.count("\n") == 1
    assert json.loads(result.stderr)["subcommand"].startswith(subcommand)
