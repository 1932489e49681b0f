"""Parameter bounds: each model field and scalar argument rejects NaN, infinities and values past its bounds."""

import math
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hcppnet
from hcppnet import (
    AntennaConfig,
    ChannelParams,
    EnergyModel,
    HcppParams,
    InterferenceScenario,
    ParameterError,
    TrafficModel,
    Window,
    energy_efficiency_mc,
    matern2_thin,
    mc_interference,
    mean_shadowing,
    required_link_power,
    sample_ppp,
    sample_shadowing,
    sample_zf_gains,
    spectral_efficiency_mc,
    subchannel_capacity,
    union_area,
)

_HCPP = HcppParams(1e-6, 500.0)
_CHANNEL = ChannelParams(1e-3, 3.8, 6.0)
_SCENARIO = InterferenceScenario(_HCPP, _CHANNEL, 300.0, 2.0)
_ANTENNAS = AntennaConfig(8, 4)
_TRAFFIC = TrafficModel(1.8, 2e4, 1e4)
_ENERGY = EnergyModel(0.38, 0.05, 45.5, 2.0, n_link=30.0)

# a valid instance of each model type with bounded fields; any in-bound n_t or s up to 1e3 keeps n_t >= s
_BASES = {type(m): m for m in (_HCPP, _CHANNEL, _SCENARIO, AntennaConfig(1000, 1), _TRAFFIC, _ENERGY)}
# set together with a field, so that only one link-count source is given
_ALSO = {"lambda_m": {"n_link": None}}
_BOUNDED_FIELDS = [
    pytest.param(model, f.name, f.metadata["bounds"], id=f"{model.__name__}.{f.name}")
    for model in vars(hcppnet).values()
    if isinstance(model, type) and is_dataclass(model)
    for f in fields(model)
    if "bounds" in f.metadata
]


def _past(op, bound):
    """The float next to ``bound`` on the side ``op`` excludes, or ``bound`` itself when ``op`` is strict."""
    if op in (">", "<"):
        return bound
    return math.nextafter(bound, -math.inf if op == ">=" else math.inf)


def _beyond(op, bound):
    """Finite floats that fail ``op bound``."""
    if op.startswith(">"):
        return st.floats(max_value=bound, exclude_max=op == ">=", allow_infinity=False)
    return st.floats(min_value=bound, exclude_min=op == "<=", allow_infinity=False)


def _inside(bounds):
    """Floats meeting every ``(op, bound)``, up to 1e3 where no upper bound is declared."""
    lo = next(b for op, b in bounds if op.startswith(">"))
    hi = next((b for op, b in bounds if op.startswith("<")), 1e3)
    return st.floats(lo, hi, exclude_min=(">", lo) in bounds, exclude_max=("<", hi) in bounds)


def test_the_model_types_have_bounded_fields():
    assert {p.values[0] for p in _BOUNDED_FIELDS} == set(_BASES)


@pytest.mark.parametrize("model, name, bounds", _BOUNDED_FIELDS)
@given(data=st.data())
def test_each_bounded_field_rejects_non_finite_and_out_of_bound_values(model, name, bounds, data):
    base, also = _BASES[model], _ALSO.get(name, {})
    beyond = st.one_of(*(_beyond(op, bound) for op, bound in bounds))
    for bad in (math.nan, math.inf, -math.inf, *(_past(op, bound) for op, bound in bounds), data.draw(beyond)):
        with pytest.raises(ParameterError, match=f"^{name} must be "):
            replace(base, **also, **{name: bad})
    replace(base, **also, **{name: data.draw(_inside(bounds))})  # an in-bound value constructs


def _rng():
    return np.random.default_rng(0)


# (argument name, call with that argument set to a value, its bounds)
_SCALAR_ARGUMENTS = {
    "sample_shadowing": ("sigma_s_db", lambda v: sample_shadowing(v, _rng(), 3), ((">=", 0),)),
    "mean_shadowing": ("sigma_s_db", mean_shadowing, ((">=", 0),)),
    "Window.square": ("side", Window.square, ((">", 0),)),
    "Window.expand": ("margin", Window.square(10.0).expand, ((">=", 0),)),
    "sample_ppp": ("intensity", lambda v: sample_ppp(v, Window.square(10.0), _rng()), ((">", 0),)),
    "matern2_thin": (
        "delta",
        lambda v: matern2_thin(np.zeros((1, 2)), v, marks=[0.5], window=Window.square(10.0)),
        ((">=", 0),),
    ),
    "union_area": ("delta", lambda v: union_area(1.0, v), ((">", 0),)),
    "subchannel_capacity b_w": (
        "b_w",
        lambda v: subchannel_capacity(_ANTENNAS, v, 1.0, _CHANNEL, 1.0, 100.0, 1.0, 1e-13),
        ((">", 0),),
    ),
    "subchannel_capacity p_ik": (
        "p_ik",
        lambda v: subchannel_capacity(_ANTENNAS, 1e4, v, _CHANNEL, 1.0, 100.0, 1.0, 1e-13),
        ((">=", 0),),
    ),
    "subchannel_capacity i_avg": (
        "i_avg",
        lambda v: subchannel_capacity(_ANTENNAS, 1e4, 1.0, _CHANNEL, 1.0, 100.0, 1.0, v),
        ((">", 0),),
    ),
    "required_link_power": (
        "i_avg",
        lambda v: required_link_power(1e5, _ANTENNAS, _TRAFFIC, _CHANNEL, 1.0, 100.0, 1.0, v),
        ((">", 0),),
    ),
    "energy_efficiency_mc": (
        "draws",
        lambda v: energy_efficiency_mc(_ANTENNAS, _TRAFFIC, _SCENARIO, _ENERGY, v, _rng(), 1e-13, 1e-6),
        ((">=", 1),),
    ),
    "sample_zf_gains": ("draws", lambda v: sample_zf_gains(_ANTENNAS, v, _rng()), ((">=", 1),)),
    "spectral_efficiency_mc": ("draws", lambda v: spectral_efficiency_mc(_ANTENNAS, 10.0, v, _rng()), ((">=", 1),)),
    "mc_interference": ("realizations", lambda v: mc_interference(_SCENARIO, v, _rng()), ((">=", 1),)),
}


@pytest.mark.parametrize("name, call, bounds", _SCALAR_ARGUMENTS.values(), ids=_SCALAR_ARGUMENTS)
def test_each_bounded_scalar_argument_rejects_non_finite_and_out_of_bound_values(name, call, bounds):
    for bad in (math.nan, math.inf, -math.inf, *(_past(op, bound) for op, bound in bounds)):
        with pytest.raises(ParameterError, match=f"^{name} must be "):
            call(bad)
