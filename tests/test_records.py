"""The record contract: results are immutable NamedTuples, and dataclasses
remain only for the types whose construction validates its fields."""
import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import fibanyon
from fibanyon import anyon_model as am
from fibanyon import benchmark_suite as bench
from fibanyon import braid_compiler as bc
from fibanyon import cli
from fibanyon import noise_engine as ne
from fibanyon import robustness_lab as rob

RECORDS = {
    am.ConsistencyReport: (("name", "max_residual", "checked"), {}),
    am.FSymbolTable: (("fusion", "entries"), {}),
    am.RSymbolTable: (("fusion", "entries"), {}),
    bench.NoisyGate: (("unitary", "ptm"), {}),
    bench.GateSet: (("dim", "group", "ptms", "prep"), {}),
    bench.DecayFit: (("a", "b", "rate", "m_values", "means", "stddevs", "residual", "model"), {}),
    bench.InterleavedResult: (("fit", "f_rb", "warnings"), {"warnings": ()}),
    bench.PurityResult: (("fit", "incoherent_per_gate"), {}),
    bench.ErrorBudget: (("total_infidelity", "incoherent", "coherent", "warnings"), {"warnings": ()}),
    bench.ProtocolResults: (
        ("reference", "interleaved", "channel_oracle_fidelity", "pb_reference", "pb_interleaved", "budget",
         "warnings"),
        {**dict.fromkeys(("interleaved", "channel_oracle_fidelity", "pb_reference", "pb_interleaved",
                          "budget")), "warnings": ()},
    ),
    bc.SearchResult: (("word", "distance", "evaluated", "budget_exhausted"), {}),
    bc.CNOT: (("control", "target"), {}),
    bc.Rotation: (("qubit", "axis", "angle"), {}),
    bc.CircuitDecomposition: (("operation", "gates"), {}),
    rob.ScenarioResult: (("q", "matrix", "proportionality_deviation", "theta", "modulus"), {}),
    cli.Check: (("name", "residual", "tolerance"), {}),
}
"""Each record's fields in positional order, and its defaults; perfbench
builds ``SearchResult`` and ``NoisyGate`` positionally."""

VALIDATING = {am.FusionData, bench.PauliTransferMap, bc.BraidWord, ne.NoiseModel, ne.CalibrationResult}
"""The dataclasses kept: the first four validate in ``__post_init__``, which
``dataclasses.replace`` runs too; ``CalibrationResult`` is updated with
``dataclasses.replace`` by perfbench's harness test
``test_altered_calibration_counts_as_failed_task``, which a NamedTuple fails."""


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestRecordContract:
    def test_fields_and_defaults(self, cls):
        fields, defaults = RECORDS[cls]
        assert cls._fields == fields
        assert cls._field_defaults == defaults

    def test_fields_are_read_only(self, cls):
        record = cls._make(range(len(cls._fields)))
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None


def test_scenario_result_dict_has_the_dataclass_keys():
    assert list(rob.extract_M(1)._asdict()) == [
        "q", "matrix", "proportionality_deviation", "theta", "modulus"]


def test_dataclasses_only_where_construction_validates():
    found = set()
    for info in pkgutil.iter_modules(fibanyon.__path__):
        module = importlib.import_module(f"fibanyon.{info.name}")
        found |= {obj for obj in vars(module).values()
                  if inspect.isclass(obj) and obj.__module__ == module.__name__
                  and dataclasses.is_dataclass(obj)}
    assert found <= VALIDATING


@pytest.mark.parametrize("valid,change", [
    (am.FusionData.fibonacci(), {"labels": (am.VACUUM,)}),
    (bench.identity_ptm(2), {"dim": 4}),
    (bc.hadamard_word(), {"letters": (bc.BraidLetter(12, 0),)}),
    (ne.NoiseModel(), {"t2": (1.0,)}),
], ids=["FusionData", "PauliTransferMap", "BraidWord", "NoiseModel"])
def test_replace_validates(valid, change):
    with pytest.raises(ValueError):
        dataclasses.replace(valid, **change)
