"""The canonical :class:`repro.system.config.SystemSpec`.

The API-unification contract: one frozen, JSON-round-trippable value
describes any system, builds exactly the paper's configuration for a
Table 1 array and one canonical configuration for any other geometry,
and every entry point (CLI, serve protocol, DSE, MPSoC) routes through
it.
"""

import json

import pytest

from repro.cgra.shape import ArrayShape, default_immediate_slots
from repro.dim.params import DimParams
from repro.serve.protocol import (
    _validate_config,
    config_spec_dict,
    system_spec,
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
    cs = _validate_config(spec.to_dict(), 0)
    assert system_spec(cs) == spec
    assert SystemSpec.from_dict(config_spec_dict(cs)) == spec
    assert system_spec(cs).build() == spec.build()
