"""The canonical :class:`repro.system.config.SystemSpec`.

The API-unification contract: one frozen, JSON-round-trippable value
describes any system, builds exactly the paper's configuration for a
Table 1 array and one canonical configuration for any other geometry,
and every entry point (CLI, serve protocol, DSE, MPSoC) routes through
it.
"""

import dataclasses
import json

import pytest

from repro.cgra.shape import ArrayShape, default_immediate_slots
from repro.dim.params import DimParams
from repro.serve.protocol import (
    ProtocolError,
    _validate_config,
    validate_submission,
)
from repro.system.config import (
    PAPER_SHAPES,
    SystemSpec,
    custom_system,
    paper_system,
)

SHAPE = ArrayShape(rows=12, alus_per_row=6, mults_per_row=2,
                   ldsts_per_row=3,
                   immediate_slots=default_immediate_slots(12))


# ----------------------------------------------------------------------
# Construction and validation.
# ----------------------------------------------------------------------
def test_exactly_one_of_array_or_shape():
    with pytest.raises(ValueError):
        SystemSpec()
    with pytest.raises(ValueError):
        SystemSpec(array="C1", shape=SHAPE)


def test_unknown_array_rejected():
    with pytest.raises(ValueError):
        SystemSpec(array="C9")


def test_bad_slots_and_speculation_rejected():
    with pytest.raises(ValueError):
        SystemSpec(array="C1", slots=0)
    with pytest.raises(ValueError):
        SystemSpec(array="C1", slots=True)
    with pytest.raises(ValueError):
        SystemSpec(array="C1", speculation="yes")


def test_dim_extras_require_shape_form():
    with pytest.raises(ValueError):
        SystemSpec(array="C1", dim_extras=(("min_block_instructions", 6),))
    with pytest.raises(ValueError):
        SystemSpec(shape=SHAPE, dim_extras=(("bogus_knob", 1),))


def test_dim_extras_are_normalised_sorted():
    spec = SystemSpec(shape=SHAPE, dim_extras=(
        ("min_block_instructions", 6), ("max_blocks", 48)))
    assert spec.dim_extras == (("max_blocks", 48),
                               ("min_block_instructions", 6))


@pytest.mark.parametrize("bad", [
    {"shape": dataclasses.replace(SHAPE, rows=0)},
    {"shape": dataclasses.replace(SHAPE, alu_chain=True)},
    {"shape": dataclasses.replace(SHAPE, immediate_slots=2.0)},
    {"dim_extras": (("max_blocks", True),)},
    {"dim_extras": (("cache_policy", 1),)},
    {"dim_extras": (("cache_policy", "mru"),)},
    {"dim_extras": (("dynflow_mode", "all"),)},
    {"dim_extras": (("loop_max_body_blocks", 0),)},
    {"dim_extras": (("predictor_entries", 300),)},
])
def test_every_spec_that_exists_builds(bad):
    """Construction refuses a shape field that is not a positive int, an
    extra of the wrong type, and (through DimParams' own checks) a DIM
    value no engine can run."""
    with pytest.raises(ValueError):
        SystemSpec(**{"shape": SHAPE, **bad})


# ----------------------------------------------------------------------
# Building: SystemSpec reproduces the paper's systems exactly.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("array", sorted(PAPER_SHAPES))
@pytest.mark.parametrize("speculation", (False, True))
def test_array_form_matches_paper_system(array, speculation):
    spec = SystemSpec(array=array, slots=16, speculation=speculation)
    assert spec.build() == paper_system(array, 16, speculation)
    assert spec.name == paper_system(array, 16, speculation).name


def test_shape_form_matches_custom_system():
    dim = DimParams(cache_slots=32, speculation=True, min_block_instructions=6)
    spec = SystemSpec.of(SHAPE, dim)
    assert spec.slots == 32 and spec.speculation is True
    assert spec.dim() == dim
    assert spec.build() == custom_system(SHAPE, dim)
    assert spec.name == custom_system(SHAPE, dim).name


# ----------------------------------------------------------------------
# JSON round-trips.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", [
    SystemSpec(array="C1"),
    SystemSpec(array="ideal", speculation=True),
    SystemSpec(shape=SHAPE, slots=128),
    SystemSpec(shape=SHAPE, speculation=True,
               dim_extras=(("min_block_instructions", 6),)),
])
def test_json_round_trip(spec):
    assert SystemSpec.from_dict(spec.to_dict()) == spec
    assert SystemSpec.from_json(spec.to_json()) == spec
    # the wire form is plain JSON all the way down
    json.dumps(spec.to_dict())


def test_from_dict_rejects_malformed_payloads():
    with pytest.raises(ValueError):
        SystemSpec.from_dict("C1")
    with pytest.raises(ValueError):
        SystemSpec.from_dict({"array": "C1", "bogus": 1})
    with pytest.raises(ValueError):
        SystemSpec.from_dict({"array": "C1",
                              "shape": {"rows": 4, "alus_per_row": 2,
                                        "mults_per_row": 1,
                                        "ldsts_per_row": 1}})
    with pytest.raises(ValueError):
        SystemSpec.from_dict({"shape": {"rows": 4}})
    with pytest.raises(ValueError):
        SystemSpec.from_dict({"array": "C1",
                              "dim": {"min_block_instructions": 6}})


def test_from_dict_defaults_immediate_slots():
    spec = SystemSpec.from_dict({"shape": {
        "rows": 12, "alus_per_row": 6, "mults_per_row": 2,
        "ldsts_per_row": 3}})
    assert spec.shape.immediate_slots == default_immediate_slots(12)


# ----------------------------------------------------------------------
# The serve protocol routes through the same value.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", [
    SystemSpec(array="C1", slots=16, speculation=True),
    SystemSpec(shape=SHAPE, slots=32,
               dim_extras=(("min_block_instructions", 6),)),
])
def test_protocol_spec_round_trip_array_and_shape_forms(spec):
    validated = _validate_config(spec.to_dict(), 0)
    assert validated == spec
    assert SystemSpec.from_dict(validated.to_dict()) == spec
    assert validated.build() == spec.build()


# ----------------------------------------------------------------------
# The outcome of every kind of wire config object at the serve door.
# ----------------------------------------------------------------------
_SHAPE4 = {"rows": 12, "alus_per_row": 6, "mults_per_row": 2,
           "ldsts_per_row": 3}


def _shape(**fields):
    return {**_SHAPE4, **fields}


#: ``_SHAPE4`` as the wire writes it back: every field, defaults filled.
_WIRE_SHAPE4 = _shape(alu_chain=2, rf_read_ports=6, rf_write_ports=4,
                      immediate_slots=24)


#: (wire config object, outcome); an accepted outcome is
#: ``("ok", built name, as_dict wire config)``, a refused one
#: ``(code, field)``.
_CFG = "configs[0]"
_OUTCOMES = [
    # the array form
    ({}, ("ok", "C3/64/nospec",
          {"array": "C3", "slots": 64, "speculation": False})),
    ({"array": "C1"}, ("ok", "C1/64/nospec",
                       {"array": "C1", "slots": 64,
                        "speculation": False})),
    ({"array": "C2", "slots": 16, "speculation": True},
     ("ok", "C2/16/spec",
      {"array": "C2", "slots": 16, "speculation": True})),
    ({"array": "ideal", "speculation": True},
     ("ok", f"ideal/{1 << 20}/spec",
      {"array": "ideal", "slots": 64, "speculation": True})),
    ({"slots": 256, "speculation": True},
     ("ok", "C3/256/spec",
      {"array": "C3", "slots": 256, "speculation": True})),
    ({"array": "C9"}, ("unknown_array", _CFG)),
    ({"array": "c1"}, ("unknown_array", _CFG)),
    ({"array": 3}, ("bad_param", _CFG)),
    ({"array": None}, ("bad_param", _CFG)),
    ({"array": "C1", "slots": 0}, ("bad_param", _CFG)),
    ({"array": "C1", "slots": -4}, ("bad_param", _CFG)),
    ({"array": "C1", "slots": True}, ("bad_param", _CFG)),
    ({"array": "C1", "slots": 16.0}, ("bad_param", _CFG)),
    ({"array": "C1", "slots": "16"}, ("bad_param", _CFG)),
    ({"array": "C1", "speculation": 1}, ("bad_param", _CFG)),
    ({"array": "C1", "speculation": "yes"}, ("bad_param", _CFG)),
    ({"array": "C1", "speculation": None}, ("bad_param", _CFG)),
    ({"array": "C1", "bogus": 1}, ("bad_param", _CFG)),
    ({"array": "C1", "fast": True}, ("bad_param", _CFG)),
    ({"array": "C1", "dim": {"max_blocks": 4}}, ("bad_param", _CFG)),
    ({"array": "C1", "dim": {}}, ("bad_param", _CFG)),
    ({"array": "C1", "shape": _SHAPE4}, ("bad_param", _CFG)),
    ("C1", ("bad_param", _CFG)),
    (None, ("bad_param", _CFG)),
    (["C1"], ("bad_param", _CFG)),
    # the shape form
    ({"shape": _SHAPE4}, ("ok", "r12x6a2m3l/64/nospec",
                          {"shape": _WIRE_SHAPE4,
                           "slots": 64, "speculation": False})),
    ({"shape": _shape(immediate_slots=10), "slots": 16},
     ("ok", "r12x6a2m3l-i10/16/nospec",
      {"shape": _shape(alu_chain=2, rf_read_ports=6, rf_write_ports=4,
                       immediate_slots=10),
       "slots": 16, "speculation": False})),
    ({"shape": _shape(alu_chain=3, rf_read_ports=4, rf_write_ports=2),
      "speculation": True},
     ("ok", "r12x6a2m3l-c3-p4.2/64/spec",
      {"shape": _shape(alu_chain=3, rf_read_ports=4, rf_write_ports=2,
                       immediate_slots=24),
       "slots": 64, "speculation": True})),
    ({"shape": {"rows": 12, "alus_per_row": 6, "mults_per_row": 2}},
     ("bad_param", _CFG)),
    ({"shape": _shape(rows=0)}, ("bad_param", _CFG)),
    ({"shape": _shape(rows=-1)}, ("bad_param", _CFG)),
    ({"shape": _shape(rows=True)}, ("bad_param", _CFG)),
    ({"shape": _shape(rows=2.0)}, ("bad_param", _CFG)),
    ({"shape": _shape(rows="12")}, ("bad_param", _CFG)),
    ({"shape": _shape(rows=None)}, ("bad_param", _CFG)),
    ({"shape": _shape(mults_per_row=0)}, ("bad_param", _CFG)),
    ({"shape": _shape(immediate_slots=0)}, ("bad_param", _CFG)),
    ({"shape": _shape(alu_chain=True)}, ("bad_param", _CFG)),
    ({"shape": _shape(columns=11)}, ("bad_param", _CFG)),
    ({"shape": "r12"}, ("bad_param", _CFG)),
    ({"shape": [12, 6, 2, 3]}, ("bad_param", _CFG)),
    ({"shape": _SHAPE4, "slots": 0}, ("bad_param", _CFG)),
    ({"shape": _SHAPE4, "speculation": "no"}, ("bad_param", _CFG)),
    ({"shape": _SHAPE4, "bogus": 1}, ("bad_param", _CFG)),
    # dim extras ride on the shape form only
    ({"shape": _SHAPE4, "dim": {}},
     ("ok", "r12x6a2m3l/64/nospec",
      {"shape": _WIRE_SHAPE4,
       "slots": 64, "speculation": False})),
    ({"shape": _SHAPE4, "slots": 16, "dim": {"cache_policy": "lru"}},
     ("ok", "r12x6a2m3l/16/nospec+cache_policy=lru",
      {"shape": _WIRE_SHAPE4,
       "slots": 16, "speculation": False,
       "dim": {"cache_policy": "lru"}})),
    ({"shape": _SHAPE4, "dim": {"min_block_instructions": 6,
                                "max_blocks": 4}},
     ("ok", "r12x6a2m3l/64/nospec+max_blocks=4,min_block_instructions=6",
      {"shape": _WIRE_SHAPE4,
       "slots": 64, "speculation": False,
       "dim": {"max_blocks": 4, "min_block_instructions": 6}})),
    ({"shape": _SHAPE4, "speculation": True,
      "dim": {"dynflow_mode": "both"}},
     ("ok", "r12x6a2m3l/64/spec+dynflow_mode=both",
      {"shape": _WIRE_SHAPE4,
       "slots": 64, "speculation": True,
       "dim": {"dynflow_mode": "both"}})),
    ({"shape": _SHAPE4, "dim": {"cache_policy": "fifo"}},
     ("ok", "r12x6a2m3l/64/nospec",
      {"shape": _WIRE_SHAPE4,
       "slots": 64, "speculation": False,
       "dim": {"cache_policy": "fifo"}})),
    ({"shape": _SHAPE4, "dim": {"predictor_entries": 1024}},
     ("ok", "r12x6a2m3l/64/nospec+predictor_entries=1024",
      {"shape": _WIRE_SHAPE4,
       "slots": 64, "speculation": False,
       "dim": {"predictor_entries": 1024}})),
    ({"shape": _SHAPE4, "dim": {"misspec_penalty": 0}},
     ("ok", "r12x6a2m3l/64/nospec+misspec_penalty=0",
      {"shape": _WIRE_SHAPE4,
       "slots": 64, "speculation": False,
       "dim": {"misspec_penalty": 0}})),
    ({"shape": _SHAPE4, "dim": {"max_blocks": True}}, ("bad_param", _CFG)),
    ({"shape": _SHAPE4, "dim": {"max_blocks": 4.0}}, ("bad_param", _CFG)),
    ({"shape": _SHAPE4, "dim": {"cache_policy": 1}}, ("bad_param", _CFG)),
    ({"shape": _SHAPE4, "dim": {"cache_slots": 16}}, ("bad_param", _CFG)),
    ({"shape": _SHAPE4, "dim": {"speculation": True}},
     ("bad_param", _CFG)),
    ({"shape": _SHAPE4, "dim": {"bogus": 1}}, ("bad_param", _CFG)),
    ({"shape": _SHAPE4, "dim": "lru"}, ("bad_param", _CFG)),
    # DimParams values neither engine can run
    ({"shape": _SHAPE4, "dim": {"cache_policy": "mru"}},
     ("bad_param", _CFG)),
    ({"shape": _SHAPE4, "dim": {"dynflow_mode": "all"}},
     ("bad_param", _CFG)),
    ({"shape": _SHAPE4, "dim": {"loop_max_body_blocks": 0}},
     ("bad_param", _CFG)),
    ({"shape": _SHAPE4, "dim": {"dual_gate_cycles": -1}},
     ("bad_param", _CFG)),
    ({"shape": _SHAPE4, "dim": {"loop_carry_regs": -1}},
     ("bad_param", _CFG)),
    ({"shape": _SHAPE4, "dim": {"predictor_entries": 300}},
     ("bad_param", _CFG)),
    ({"shape": _SHAPE4, "dim": {"predictor_entries": 0}},
     ("bad_param", _CFG)),
]


def _outcome(config):
    try:
        request = validate_submission({"kind": "evaluate",
                                       "configs": [config]})
    except ProtocolError as exc:
        return (exc.code, exc.field)
    return ("ok", request.configs[0].build().name,
            request.as_dict()["configs"][0])


@pytest.mark.parametrize("config,expected", _OUTCOMES)
def test_wire_config_outcomes(config, expected):
    assert _outcome(config) == expected
