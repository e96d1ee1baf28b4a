"""The frozen value classes made by ``errors.frozen_record``, over every one of them."""

import inspect
import math
from fractions import Fraction

import pytest

from zpflab import casimir, coil, field, lamb, oscillator, units
from zpflab.units import LENGTH, Dimension, Quantity, compton_time, constants_for, particle_mass


def _samples():
    """One instance of each record class, its fields given by keyword."""
    table = constants_for("gaussian")
    spec = field.LatticeSpec(box_size=1.0, points_per_axis=8)
    plans = field.scale_plans(8, [2, 4], "hann")
    coil_spec = coil.CoilSpec(turns=3, area=1.0, resistance=2.0)
    diagnostics = casimir.CasimirDiagnostics(
        epsilons=(0.4, 0.2), regulated_values=(1.0, 2.0), extrapolants=(3.0,), residuals=(0.5,)
    )
    tau = compton_time(particle_mass("electron", "gaussian"))
    return [
        Dimension(length=Fraction(3, 2), mass=Fraction(1, 2)),
        Quantity(value=2.0, dim=LENGTH, system="si"),
        table,
        lamb.JitterVariance(value=1e-20, source="test", omega_min=1.0, omega_max=2.0),
        lamb.HydrogenState(n=2, ell=1),
        diagnostics,
        casimir.CasimirResult(
            energy_coefficient=1.0, zeta_check=2.0, diagnostics=diagnostics,
        ),
        coil_spec,
        coil.zpf_tap_estimate(coil_spec, Quantity(1.0, LENGTH), tau, table),
        oscillator.OscillatorParams(m=1.0, omega=2.0, hbar=1.0),
        spec,
        field.CoarseGrainReport(scales=(0.25, 0.5), rms=(1.0, 0.5), stderr=(0.1, 0.2)),
        plans[0],
        field.class_law(spec, plans),
        field.fit_scaling([0.125, 0.25, 0.5], [4.0, 1.0, 0.25]),
    ]


SAMPLES = _samples()
RECORDS = {type(sample): sample for sample in SAMPLES}


def fields(record):
    return {name: getattr(record, name) for name in type(record).__match_args__}


def test_every_record_class_has_a_sample():
    found = {
        cls
        for module in (units, lamb, casimir, coil, oscillator, field)
        for cls in vars(module).values()
        if inspect.isclass(cls) and cls.__module__ == module.__name__
        and "__match_args__" in vars(cls)
    }
    assert found == set(RECORDS) and len(found) == 15


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_fields_cannot_be_set_or_deleted(record):
    for name, value in fields(record).items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_positional_and_keyword_construction_with_defaults_agree(record):
    cls, values = type(record), fields(record)
    assert cls(*values.values()) == cls(**values) == record
    required = {name: value for name, value in values.items() if name not in vars(cls)}
    defaults = {name: vars(cls)[name] for name in values if name not in required}
    assert cls(**required) == cls(**required, **defaults)
    if list(required) == list(values)[: len(required)]:  # the defaults come last
        assert cls(*required.values()) == cls(**required)
    assert repr(record).startswith(f"{cls.__qualname__}({next(iter(values))}=")


def test_equality_compares_the_class_and_every_field():
    state = lamb.HydrogenState(2)
    assert state == lamb.HydrogenState(n=2, ell=0)
    assert state != lamb.HydrogenState(2, 1)
    assert state != (2, 0)
    assert repr(state) == "HydrogenState(n=2, ell=0)"


@pytest.mark.parametrize(
    "args, kwargs",
    [((), {}), ((2, 0, 1), {}), ((2,), {"n": 2}), ((2,), {"spin": 1})],
    ids=["missing", "too-many", "twice", "unknown"],
)
def test_bad_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError, match="HydrogenState takes the fields"):
        lamb.HydrogenState(*args, **kwargs)


def test_equal_dimensions_and_quantities_hash_equal():
    assert hash(Dimension(length=1)) == hash(Dimension(Fraction(1), Fraction(0)))
    assert hash(Quantity(1, LENGTH)) == hash(Quantity(1.0, Dimension(length=1), "gaussian"))
    assert len({LENGTH, Dimension(length=1), LENGTH**1}) == 1


def test_post_init_still_normalises():
    assert type(Dimension(length=1).length) is Fraction
    assert Dimension(length=1).length == Fraction(1)
    assert math.copysign(1.0, lamb.JitterVariance(value=-0.0).value) == 1.0
