"""Command-line entry point: subcommands, unit selection, run manifests.

Results go to standard output; a JSON run manifest (full post-default
parameter set, seed, unit system, constants snapshot, wall-clock
duration, peak resident memory, Python and numpy versions, and for a
field run its distance from the exact ensemble) goes to standard error
or to ``--manifest PATH``.  Reissuing the argv reconstructed from a
manifest reproduces the stdout bytes exactly.

Each ``_cmd_*`` handler returns ``(units, payload, rows)``: the unit
system, the ``--format json`` payload and the CSV table, header row
first.  ``dispatch`` renders and records them; only it reads the format.

Exit codes: 0 success, 1 usage or domain/validation error, a request too
large to allocate or a number outside the float range, 2 internal
invariant or convergence failure.  Every failure is one line on standard
error.  Stdout is written only on exit 0.

Each handler imports the module it runs, so a process loads no other
subcommand's code: ``_cmd_oscillator`` imports ``oscillator``,
``_cmd_field_scaling`` ``field``, ``_cmd_casimir`` ``casimir`` and
``_cmd_coil`` ``coil``.  ``constants`` needs only ``units``.  ``lamb`` is
the exception, imported with this module: it imports nothing that
``units`` has not, and ``perfbench/tracer.py`` traces only the modules
that importing this one loads.  Only the field run and the oscillator's
``--samples`` compute with arrays; they load numpy and run under numpy's
raising float-error state.  The rest is pure ``math``/``decimal`` and never
loads numpy, whose import would be most of its run time.  Its float errors
need no such state: Python raises ``OverflowError`` or
``ZeroDivisionError``, and a result that overflowed to inf is refused
when it is rendered.

No zpflab code calls BLAS, so ``main`` sets ``OPENBLAS_NUM_THREADS=1``
unless the caller has set it, before any handler loads numpy: OpenBLAS
then starts no worker threads, which would otherwise each spin for a
tenth of a second at load and never be used.  ``dispatch`` leaves the
environment alone, so library callers keep their own BLAS settings.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import resource
import sys
import time

from . import __version__
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DomainError,
    InvariantError,
)
from .units import (
    ERG_PER_EV,
    LENGTH,
    Quantity,
    SNAPSHOT,
    SYSTEMS,
    compton_time,
    constants_for,
    particle_mass,
)
from . import lamb as lamb_mod

# bad inputs; a MemoryError is a request for more memory than can be addressed
_VALIDATION_ERRORS = (DomainError, ConfigurationError, MemoryError)
_INTERNAL_ERRORS = (InvariantError, ConvergenceError)
# parsed or set by a handler, not replayed
_NOT_PARAMETERS = {"subcommand", "field_command", "manifest", "run", "convergence"}


def _fmt(value) -> str:
    """Full round-trip rendering: 17 significant digits for floats, which must be finite."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ArithmeticError(f"result {value!r} is not finite")
        return format(value, ".17g")
    return str(value)


def _versions() -> dict:
    """The Python and numpy that ran: numpy's only if this process has loaded it."""
    numpy = sys.modules.get("numpy")
    return {
        "python": "{}.{}.{}".format(*sys.version_info[:3]),
        "numpy": numpy.__version__ if numpy is not None else None,
    }


def _peak_rss_kb() -> int:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak // 1024 if sys.platform == "darwin" else peak  # macOS counts bytes


def argv_from_manifest(manifest: dict) -> list[str]:
    """Reconstruct the command line that reproduces a manifest's run."""
    argv = manifest["subcommand"].split()
    params = manifest["parameters"]
    for key, value in params.items():
        if value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif isinstance(value, (list, tuple)):
            argv.extend([flag, ",".join(_fmt(v) for v in value)])
        else:
            argv.extend([flag, _fmt(value)])
    return argv


def _csv(rows) -> str:
    """CSV text of the rows; only cells holding a comma, quote or newline get quoted."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([_fmt(cell) for cell in row] for row in rows)
    return buf.getvalue()


def _emit(text: str, stream) -> None:
    stream.write(text)
    if not text.endswith("\n"):
        stream.write("\n")


def _finite(raw: str) -> float:
    """argparse type of every float flag: a finite number, so no inf or nan reaches a handler."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {raw!r}")
    return value


def _finite_list(raw: str) -> list[float]:
    """argparse type of the comma-list flags: finite numbers, empty entries skipped."""
    return [_finite(tok) for tok in raw.split(",") if tok.strip()]


def _seed(raw: str) -> int:
    """argparse type of the --seed flags: a non-negative integer, as numpy seeds are."""
    if not raw.isdigit():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {raw!r}")
    return int(raw)


def _raising_float_errors():
    """numpy's overflow, division and invalid-value errors raised, inside a ``with`` block.

    numpy raises them as FloatingPointError, an ArithmeticError, which
    ``dispatch`` reports as a number that left the float range.
    """
    import numpy as np

    return np.errstate(over="raise", divide="raise", invalid="raise")


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors raise instead of exiting(2)."""

    def error(self, message):
        raise _UsageError(message, self)


class _UsageError(Exception):
    def __init__(self, message, parser):
        super().__init__(message)
        self.parser = parser


def _outputs(p, handler, default_format, help=None) -> None:
    """Add the flags every subcommand ends with, --format and --manifest, and set its handler."""
    p.add_argument("--format", choices=["csv", "json"], default=default_format, help=help)
    p.add_argument("--manifest", metavar="PATH", default=None)
    p.set_defaults(run=handler)


def build_parser() -> _Parser:
    parser = _Parser(prog="zpflab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("constants", help="Print the pinned constants table.")
    p.add_argument("--system", choices=SYSTEMS, default="gaussian")
    _outputs(p, _cmd_constants, "csv")

    p = sub.add_parser("oscillator", help="Ground-state width, variance and sample moments.")
    p.add_argument("--m", type=_finite, required=True, help="Oscillator mass.")
    p.add_argument("--omega", type=_finite, required=True, help="Angular frequency.")
    p.add_argument("--samples", type=int, default=None, help="Optional Monte Carlo draw count.")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--units", choices=SYSTEMS, default="gaussian")
    _outputs(p, _cmd_oscillator, "csv")

    p = sub.add_parser("field", help="Spectral field simulation.")
    fs = p.add_subparsers(dest="field_command", required=True, parser_class=_Parser)
    p = fs.add_parser("scaling-run", help="Measure the coarse-grained RMS scaling exponent.")
    p.add_argument("--grid", type=int, default=64, help="Lattice points per axis (even, >= 8).")
    p.add_argument("--box", type=_finite, default=1.0, help="Periodic box size.")
    p.add_argument("--draws", type=int, default=50,
                   help="Independent field realizations pooled at each scale (>= 1).")
    p.add_argument("--seed", type=_seed, default=0,
                   help="Non-negative master seed; each draw's stream is spawned from it.")
    p.add_argument("--scales", type=_finite_list, default=None,
                   help="Comma list; default box/16,box/8,box/4,box/2.  A list that starts "
                        "with a minus sign is read as an option: give it as --scales=-0.25,0.5.")
    p.add_argument("--kappa", type=_finite, default=1.0, help="Spectrum normalization.")
    p.add_argument("--k-max", type=_finite, default=None,
                   help="Wavenumber cutoff; default Nyquist.")
    # no choices here: scaling_run checks it against field.WINDOWS before any draw
    p.add_argument("--window", default="hann",
                   help="Coarse-graining window: hann (default) or tophat.")
    _outputs(p, _cmd_field_scaling, None,
             "csv: table only; json: summary only; default: both.")

    p = sub.add_parser("casimir", help="Closed-form Casimir force, optionally the mode sum.")
    p.add_argument("--area", type=_finite, required=True)
    p.add_argument("--sep", type=_finite, required=True)
    p.add_argument("--units", choices=SYSTEMS, default="gaussian")
    p.add_argument("--modesum", action="store_true")
    p.add_argument("--epsilons", type=_finite_list, default=None)  # None: the default ladder
    p.add_argument("--order", type=int, default=3)
    _outputs(p, _cmd_casimir, "json")

    p = sub.add_parser("lamb", help="Hydrogen level shift from positional jitter.")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--ell", type=int, default=0)
    p.add_argument("--jitter", type=_finite, default=None, help="Jitter variance in cm^2.")
    p.add_argument("--omega-min", type=_finite, default=None)
    p.add_argument("--omega-max", type=_finite, default=None)
    _outputs(p, _cmd_lamb, "csv")

    p = sub.add_parser("coil", help="Tap-current estimates for a coil in the field.")
    p.add_argument("--turns", type=int, required=True)
    p.add_argument("--area", type=_finite, required=True)
    p.add_argument("--resistance", type=_finite, required=True)
    p.add_argument("--scale", type=_finite, required=True, help="Fluctuation extent l.")
    p.add_argument("--particle", choices=["electron", "proton"], default="electron")
    p.add_argument("--units", choices=["gaussian", "natural"], default="gaussian")
    _outputs(p, _cmd_coil, "json")

    return parser


def _json_dump(payload) -> str:
    try:
        return json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # a non-finite float
        raise ArithmeticError(str(exc)) from exc


def _keyed(payload: dict) -> list:
    """CSV rows of a payload: a name,value header, then one row per key but the nested dicts."""
    return [("name", "value")] + [(k, v) for k, v in payload.items() if not isinstance(v, dict)]


def _cmd_constants(args):
    table = constants_for(args.system)
    rows = list(table.rows())
    payload = [{"name": n, "value": v, "unit": u} for n, v, u in rows]
    return table.system, payload, [("name", "value", "unit")] + rows


def _cmd_oscillator(args):
    from . import oscillator as osc_mod

    table = constants_for(args.units)
    params = osc_mod.OscillatorParams(m=args.m, omega=args.omega, hbar=table.hbar.value)
    payload = {
        "width": osc_mod.fluctuation_width(params),
        "variance": osc_mod.position_variance(params),
    }
    if args.samples is not None:
        if args.samples < 2:
            raise DomainError(f"--samples must be >= 2 for a sample variance, got {args.samples}")
        with _raising_float_errors():
            draws = osc_mod.sample_positions(params, seed=args.seed, n=args.samples)
            payload["sample_count"] = int(args.samples)
            payload["sample_mean"] = float(draws.mean())
            payload["sample_variance"] = float(draws.var(ddof=1))
    return table.system, payload, _keyed(payload)


def _cmd_field_scaling(args):
    from . import field as field_mod

    spec = field_mod.LatticeSpec(
        box_size=args.box,
        points_per_axis=args.grid,
        k_max=args.k_max,
        spectrum_normalization=args.kappa,
    )
    with _raising_float_errors():
        report, fit = field_mod.scaling_run(
            spec, args.scales, draws=args.draws, seed=args.seed, window=args.window
        )
        exact = report.exact_fit() if fit else None
    args.k_max = spec.k_max
    args.scales = list(report.scales)
    args.convergence = {
        "field": {
            "scales": [
                {"scale": s, "exact_rms": e, "z_score": z}
                for s, e, z in zip(report.scales, report.exact_rms, report.z_scores)
            ],
            "exact_exponent": exact.exponent if exact else None,
        }
    }
    rows = [("scale", "rms", "stderr")] + [
        (report.scales[i], report.rms[i], report.stderr(i)) for i in range(len(report.scales))
    ]
    summary = {
        "exponent": fit.exponent if fit else None,
        "stderr_exponent": fit.stderr_exponent if fit else None,
        "r_squared": fit.r_squared if fit else None,
        "amplitude": fit.amplitude if fit else None,
        "kappa": args.kappa,
        "seed": args.seed,
        "draws": args.draws,
        "grid": args.grid,
        "box": args.box,
        "window": args.window,
        "fit_skipped_reason": None if fit else "fewer than 3 scales",
    }
    return "natural", summary, rows


def _cmd_casimir(args):
    from . import casimir as casimir_mod

    if args.epsilons is None:  # resolved on every run, so the manifest lists the ladder
        args.epsilons = list(casimir_mod.DEFAULT_EPSILONS)
    table = constants_for(args.units)
    payload = {
        "force_closed": casimir_mod.casimir_force_closed(args.area, args.sep, table).value,
        "area": args.area,
        "separation": args.sep,
        "units": args.units,
    }
    if args.modesum:
        config = casimir_mod.CasimirConfig(
            plate_area=args.area,
            separation=args.sep,
            regulator_epsilons=args.epsilons,
            extrapolation_order=args.order,
        )
        result = casimir_mod.casimir_energy_modesum(config, table)
        payload.update(
            {
                "energy_coefficient": result.energy_coefficient,
                "energy_coefficient_expected": casimir_mod.ENERGY_COEFFICIENT_EXACT,
                "zeta_check": result.zeta_check,
                "diagnostics": {
                    "epsilons": list(result.diagnostics.epsilons),
                    "regulated_values": list(result.diagnostics.regulated_values),
                    "extrapolants": list(result.diagnostics.extrapolants),
                    "residuals": list(result.diagnostics.residuals),
                },
            }
        )
    return table.system, payload, _keyed(payload)


def _cmd_lamb(args):
    table = constants_for("gaussian")
    if args.jitter is not None:
        if args.omega_min is not None or args.omega_max is not None:
            raise DomainError("give either --jitter or the cutoff pair, not both")
        jitter = lamb_mod.JitterVariance(value=args.jitter)
    else:
        omega_min, omega_max = lamb_mod.default_cutoffs(table)
        if args.omega_min is None:
            args.omega_min = omega_min
        if args.omega_max is None:
            args.omega_max = omega_max
        jitter = lamb_mod.welton_jitter(args.omega_min, args.omega_max, table)
    state = lamb_mod.HydrogenState(n=args.n, ell=args.ell)
    shift = lamb_mod.hydrogen_s_shift(state, jitter, table)
    freq = lamb_mod.shift_to_frequency(shift, table)
    quantities = [  # (JSON key, CSV quantity, value, unit)
        ("delta_e_erg", "delta_e", shift.value, "erg"),
        ("delta_e_ev", "delta_e", shift.value / ERG_PER_EV, "eV"),
        ("shift_frequency_mhz", "shift_frequency", freq.value / 1e6, "MHz"),
        ("jitter_cm2", "jitter", jitter.value, "cm^2"),
        ("jitter_provenance", "jitter_provenance", jitter.provenance(), ""),
    ]
    payload = {key: value for key, _, value, _ in quantities}
    return table.system, payload, [("quantity", "value", "unit")] + [row[1:] for row in quantities]


def _cmd_coil(args):
    from . import coil as coil_mod

    table = constants_for(args.units)
    spec = coil_mod.CoilSpec(turns=args.turns, area=args.area, resistance=args.resistance)
    scale = Quantity(args.scale, LENGTH, args.units)
    tau = compton_time(particle_mass(args.particle, args.units))
    estimate = coil_mod.zpf_tap_estimate(spec, scale, tau, table)
    payload = {
        "current_via_charge": estimate.current_via_charge.value,
        "current_exact": estimate.current_exact.value,
        "ratio_exact_over_charge": estimate.ratio,
        "inputs": {
            "turns": args.turns,
            "area": args.area,
            "resistance": args.resistance,
            "scale": args.scale,
            "tau": tau.value,
            "particle": args.particle,
            "units": args.units,
        },
    }
    rows = _keyed(payload) + [(f"input_{k}", v) for k, v in payload["inputs"].items()]
    return table.system, payload, rows


def dispatch(argv, stdout=None, stderr=None) -> int:
    """Parse argv, run the subcommand, render its result and record the run manifest.

    Each handler resolves its defaults into ``args``; the manifest parameters
    are the parsed arguments after that, so every flag is replayed.  The CSV
    table is printed unless ``--format json``, then the JSON unless ``csv``.
    ``--manifest PATH`` is opened before the run: an unwritable path exits 1
    with nothing on stdout, and a run that then fails leaves the file empty.
    The result reaches stdout only if the run and its rendering both succeed.
    """
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _emit(f"error: {exc.parser.prog}: {exc}", err)
        return 1
    except SystemExit as exc:  # --help / --version
        return 0 if exc.code in (0, None) else 1

    try:
        manifest_out = (
            open(args.manifest, "w", encoding="utf-8")
            if args.manifest
            else contextlib.nullcontext(err)
        )
    except OSError as exc:
        _emit(f"error: cannot write manifest: {exc}", err)
        return 1
    with manifest_out as sink:
        start = time.perf_counter()
        try:
            units, payload, rows = args.run(args)
            text = ""
            if args.format != "json":
                text += _csv(rows)
            if args.format != "csv":
                text += _json_dump(payload) + "\n"
        except _VALIDATION_ERRORS as exc:
            _emit(f"error: {exc}", err)
            return 1
        except ArithmeticError as exc:
            _emit(f"error: a number left the float range: {exc}", err)
            return 1
        except _INTERNAL_ERRORS as exc:
            _emit(f"internal error: {exc}", err)
            return 2
        duration = time.perf_counter() - start
        out.write(text)

        subcommand = args.subcommand
        if subcommand == "field":
            subcommand += " " + args.field_command
        parameters = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
        manifest = {
            "subcommand": subcommand,
            "parameters": parameters,
            "units": units,
            "seed": parameters.get("seed"),
            "version": __version__,
            "constants_snapshot": SNAPSHOT,
            "duration_seconds": duration,
            "convergence": vars(args).get("convergence"),  # only the field run sets it
            "peak_rss_kb": _peak_rss_kb(),
            "versions": _versions(),
        }
        _emit(json.dumps(manifest, sort_keys=True), sink)
    return 0


def main() -> None:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before any handler loads numpy
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
