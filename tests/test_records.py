"""Contract of the package's immutable records.

Every record class in ``dickeqfi.__all__``, and the command line's
``RunConfig``, is checked for immutability, equality and hashing by
field, a pickle round trip, and its ``repr`` and ``to_dict`` against
values recorded when the records were frozen dataclasses.  The
validation messages of ``__post_init__`` are pinned from the same
source.
"""
import copy
import math
import pickle

import pytest

import dickeqfi
from dickeqfi import BudgetEntry, DecayLadder, LossModel
from dickeqfi.cli import RunConfig

_ARM = dict(levels=2, rates=(0.1, 2.0), frequencies=(0.0, -0.3))
_PLATFORM = dict(quality_factor=1e6, group_index=10.0, wavelength=3e-7, gamma_1d=3.7699e7,
                 gamma_star=6.2832e5, n_photons=10)

# Fields of one instance of each record, every field given.
SAMPLES = {
    "DecayLadder": _ARM,
    "TwinConfiguration": dict(ladder_a=DecayLadder(**_ARM), ladder_b=DecayLadder(**_ARM),
                              delay=0.25),
    "ExchangeIntegral": dict(value=0.1, total_photons=4, method="oracle", exchanged_count=2,
                             imag_residual=1e-17),
    "DelayCheck": dict(exact=0.9, bound=0.7, reference=1.0),
    "RecurrenceState": dict(photons_per_arm=3, corner=8.2),
    "LadderFamily": dict(kind="anharmonic", gamma=2.0, u=0.5),
    "QfiReport": dict(qfi=12.0, phase_variance=1 / 12, n_total=4, snl_ratio=3.0, hl_ratio=0.75,
                      input_kind="twin", repetitions=2),
    "ParityCurve": dict(phi=(0.0, 0.1), expectation=(1.0, 0.9), curvature=-12.0,
                        integrals=(1.0, 0.9, 1.0)),
    "LossModel": dict(gamma_1d=1.0, gamma_star=0.01),
    "PopulationTrace": dict(times=(0.0, 1.0), populations=((0.0, 0.5), (1.0, 0.5)),
                            residence=(math.inf, 1.0), collection_probability=0.99,
                            sum_deficit=(0.0, 1e-16), converged=True, residual=0.0,
                            horizon=1.0),
    "CollectionEstimate": dict(exact=0.9, log_estimate=0.1),
    "SuperradianceTime": dict(exact=2.5, log_estimate=2.3),
    "PlatformParams": dict(_PLATFORM, pulse_error=0.01, delta_gamma=0.05, delay=1e-9,
                           interferometer_loss=0.02),
    "PropagationCheck": dict(l_prop_over_lambda=5e4, feasible=True, margin=5e3),
    "RetardationCheck": dict(n_max=101, feasible=False, n_cubed_bound=1.06e7),
    "PulseErrorEstimate": dict(infidelity=0.01, in_regime=True),
    "DelayCorrection": dict(bound_factor=0.9, first_order=0.95, single_mode_factor=0.99),
    "LossCorrection": dict(corrected_qfi=50.0, qfi_decrease=2.0, p_no_loss=0.9,
                           eta_threshold=0.05, heisenberg_ok=True, perturbative=False),
    "BudgetEntry": dict(channel="collection", kind="probability", value=0.96, feasible=True,
                        note="squared"),
    "ErrorBudget": dict(entries=(BudgetEntry("pulse_area", "probability", 1.0, True),
                                 BudgetEntry("retardation", "feasibility", 101.0, False, "N")),
                        ideal_qfi=52.7, combined_qfi_lower_bound=48.9,
                        effective_exchange_integral=0.85, collection_probability=0.96),
    "RunConfig": dict(subcommand="exchange", options={"n": "4,6", "jobs": 1}),
}

# Fields of the records that have defaults, only the required ones given.
REQUIRED_ONLY = {
    "TwinConfiguration": dict(ladder_a=DecayLadder(**_ARM), ladder_b=DecayLadder(**_ARM)),
    "ExchangeIntegral": dict(value=0.5, total_photons=2, method="recurrence"),
    "LadderFamily": dict(kind="dicke"),
    "QfiReport": dict(qfi=4.0, phase_variance=0.25, n_total=2, snl_ratio=2.0, hl_ratio=1.0,
                      input_kind="general"),
    "LossModel": dict(gamma_1d=2.0),
    "PlatformParams": _PLATFORM,
    "BudgetEntry": dict(channel="collection", kind="probability", value=0.5, feasible=False),
    "ErrorBudget": {},
    "RunConfig": dict(subcommand="verify"),
}

# Each check of a record's __post_init__: class, fields, ValueError message.
INVALID = [
    ("DecayLadder", dict(levels=0, rates=(), frequencies=()),
     "ladder needs at least one level, got 0"),
    ("DecayLadder", dict(levels=2, rates=(1.0,), frequencies=(0.0, 0.0)),
     "expected 2 rates, got 1"),
    ("DecayLadder", dict(levels=2, rates=(1.0, 2.0), frequencies=(0.0,)),
     "expected 2 frequencies, got 1"),
    ("DecayLadder", dict(levels=2, rates=(1.0, 0.0), frequencies=(0.0, 0.0)),
     "rate of level 2 must be positive and finite, got 0.0"),
    ("DecayLadder", dict(levels=1, rates=(math.inf,), frequencies=(0.0,)),
     "rate of level 1 must be positive and finite, got inf"),
    ("DecayLadder", dict(levels=2, rates=(1.0, 2.0), frequencies=(0.0, math.nan)),
     "frequency of level 2 must be finite, got nan"),
    ("TwinConfiguration", dict(ladder_a=DecayLadder(**_ARM),
                               ladder_b=DecayLadder(1, (1.0,), (0.0,))),
     "twin configuration requires equal photon numbers per arm; got 2 and 1"),
    ("TwinConfiguration", dict(ladder_a=DecayLadder(**_ARM), ladder_b=DecayLadder(**_ARM),
                               delay=-1),
     "delay must be nonnegative, got -1.0"),
    ("ExchangeIntegral", dict(value=0.5, total_photons=2, method="exact"),
     "unknown method 'exact'"),
    ("ExchangeIntegral", dict(value=0.5, total_photons=2, method="oracle", exchanged_count=-1),
     "exchanged_count must be nonnegative"),
    ("LadderFamily", dict(kind="kerr"), "unknown ladder family 'kerr'"),
    ("QfiReport", dict(qfi=4.0, phase_variance=0.25, n_total=2, snl_ratio=2.0, hl_ratio=1.0,
                       input_kind="fock"),
     "unknown input kind 'fock'"),
    ("LossModel", dict(gamma_1d=0), "gamma_1d must be positive, got 0"),
    ("LossModel", dict(gamma_1d=1.0, gamma_star=-1), "gamma_star must be nonnegative, got -1"),
    ("PlatformParams", dict(_PLATFORM, quality_factor=math.inf),
     "quality_factor must be finite, got inf"),
    ("PlatformParams", dict(_PLATFORM, delay=math.nan), "delay must be finite, got nan"),
    ("PlatformParams", dict(_PLATFORM, group_index=0.0), "group_index must be positive, got 0.0"),
    ("PlatformParams", dict(_PLATFORM, pulse_error=-0.5),
     "pulse_error must be nonnegative, got -0.5"),
    ("PlatformParams", dict(_PLATFORM, interferometer_loss=1.5),
     "interferometer_loss is a probability, must be <= 1"),
    ("PlatformParams", dict(_PLATFORM, delta_gamma=1),
     "delta_gamma must be below 1 (a positive second coupling), got 1"),
    ("PlatformParams", dict(_PLATFORM, n_photons=3), "n_photons must be an even total >= 2, got 3"),
]

# -- recorded from the dataclass records: repr(record) and dataclasses.asdict(record)

REPRS = {
    "DecayLadder": "DecayLadder(levels=2, rates=(0.1, 2.0), frequencies=(0.0, -0.3))",
    "TwinConfiguration": "TwinConfiguration(ladder_a=DecayLadder(levels=2, rates=(0.1, 2.0), "
                         "frequencies=(0.0, -0.3)), ladder_b=DecayLadder(levels=2, rates=(0.1, "
                         "2.0), frequencies=(0.0, -0.3)), delay=0.25)",
    "ExchangeIntegral": "ExchangeIntegral(value=0.1, total_photons=4, method='oracle', "
                        "exchanged_count=2, imag_residual=1e-17)",
    "DelayCheck": "DelayCheck(exact=0.9, bound=0.7, reference=1.0)",
    "RecurrenceState": "RecurrenceState(photons_per_arm=3, corner=8.2)",
    "LadderFamily": "LadderFamily(kind='anharmonic', gamma=2.0, u=0.5)",
    "QfiReport": "QfiReport(qfi=12.0, phase_variance=0.08333333333333333, n_total=4, "
                 "snl_ratio=3.0, hl_ratio=0.75, input_kind='twin', repetitions=2)",
    "ParityCurve": "ParityCurve(phi=(0.0, 0.1), expectation=(1.0, 0.9), curvature=-12.0, "
                   "integrals=(1.0, 0.9, 1.0))",
    "LossModel": "LossModel(gamma_1d=1.0, gamma_star=0.01)",
    "PopulationTrace": "PopulationTrace(times=(0.0, 1.0), populations=((0.0, 0.5), (1.0, 0.5)), "
                       "residence=(inf, 1.0), collection_probability=0.99, sum_deficit=(0.0, "
                       "1e-16), converged=True, residual=0.0, horizon=1.0)",
    "CollectionEstimate": "CollectionEstimate(exact=0.9, log_estimate=0.1)",
    "SuperradianceTime": "SuperradianceTime(exact=2.5, log_estimate=2.3)",
    "PlatformParams": "PlatformParams(quality_factor=1000000.0, group_index=10.0, "
                      "wavelength=3e-07, gamma_1d=37699000.0, gamma_star=628320.0, n_photons=10, "
                      "pulse_error=0.01, delta_gamma=0.05, delay=1e-09, interferometer_loss=0.02)",
    "PropagationCheck": "PropagationCheck(l_prop_over_lambda=50000.0, feasible=True, "
                        "margin=5000.0)",
    "RetardationCheck": "RetardationCheck(n_max=101, feasible=False, n_cubed_bound=10600000.0)",
    "PulseErrorEstimate": "PulseErrorEstimate(infidelity=0.01, in_regime=True)",
    "DelayCorrection": "DelayCorrection(bound_factor=0.9, first_order=0.95, "
                       "single_mode_factor=0.99)",
    "LossCorrection": "LossCorrection(corrected_qfi=50.0, qfi_decrease=2.0, p_no_loss=0.9, "
                      "eta_threshold=0.05, heisenberg_ok=True, perturbative=False)",
    "BudgetEntry": "BudgetEntry(channel='collection', kind='probability', value=0.96, "
                   "feasible=True, note='squared')",
    "ErrorBudget": "ErrorBudget(entries=(BudgetEntry(channel='pulse_area', kind='probability', "
                   "value=1.0, feasible=True, note=''), BudgetEntry(channel='retardation', "
                   "kind='feasibility', value=101.0, feasible=False, note='N')), ideal_qfi=52.7, "
                   "combined_qfi_lower_bound=48.9, effective_exchange_integral=0.85, "
                   "collection_probability=0.96)",
    "RunConfig": "RunConfig(subcommand='exchange', options={'n': '4,6', 'jobs': 1})",
}

REQUIRED_ONLY_REPRS = {
    "TwinConfiguration": "TwinConfiguration(ladder_a=DecayLadder(levels=2, rates=(0.1, 2.0), "
                         "frequencies=(0.0, -0.3)), ladder_b=DecayLadder(levels=2, rates=(0.1, "
                         "2.0), frequencies=(0.0, -0.3)), delay=0.0)",
    "ExchangeIntegral": "ExchangeIntegral(value=0.5, total_photons=2, method='recurrence', "
                        "exchanged_count=1, imag_residual=0.0)",
    "LadderFamily": "LadderFamily(kind='dicke', gamma=1.0, u=0.0)",
    "QfiReport": "QfiReport(qfi=4.0, phase_variance=0.25, n_total=2, snl_ratio=2.0, hl_ratio=1.0, "
                 "input_kind='general', repetitions=1)",
    "LossModel": "LossModel(gamma_1d=2.0, gamma_star=0.0)",
    "PlatformParams": "PlatformParams(quality_factor=1000000.0, group_index=10.0, "
                      "wavelength=3e-07, gamma_1d=37699000.0, gamma_star=628320.0, n_photons=10, "
                      "pulse_error=0.0, delta_gamma=0.0, delay=0.0, interferometer_loss=0.0)",
    "BudgetEntry": "BudgetEntry(channel='collection', kind='probability', value=0.5, "
                   "feasible=False, note='')",
    "ErrorBudget": "ErrorBudget(entries=(), ideal_qfi=0.0, combined_qfi_lower_bound=0.0, "
                   "effective_exchange_integral=0.0, collection_probability=1.0)",
    "RunConfig": "RunConfig(subcommand='verify', options={})",
}

# to_dict of the records whose dict is not their SAMPLES fields: DecayLadder
# has its own (lists), and nested records become dicts.
_ARM_DICT = {"levels": 2, "rates": (0.1, 2.0), "frequencies": (0.0, -0.3)}
DICTS = {
    "DecayLadder": {"levels": 2, "rates": [0.1, 2.0], "frequencies": [0.0, -0.3]},
    "TwinConfiguration": {"ladder_a": _ARM_DICT, "ladder_b": _ARM_DICT, "delay": 0.25},
    "ErrorBudget": {
        "entries": ({"channel": "pulse_area", "kind": "probability", "value": 1.0,
                     "feasible": True, "note": ""},
                    {"channel": "retardation", "kind": "feasibility", "value": 101.0,
                     "feasible": False, "note": "N"}),
        "ideal_qfi": 52.7, "combined_qfi_lower_bound": 48.9,
        "effective_exchange_integral": 0.85, "collection_probability": 0.96,
    },
}


def _class(name):
    return RunConfig if name == "RunConfig" else getattr(dickeqfi, name)


def _sample(name):
    return _class(name)(**SAMPLES[name])


def test_every_record_has_a_sample():
    records = {name for name in dickeqfi.__all__
               if isinstance(getattr(dickeqfi, name), type)
               and issubclass(getattr(dickeqfi, name), dickeqfi.ladder.Record)}
    assert records | {"RunConfig"} == set(SAMPLES)


@pytest.mark.parametrize("name", SAMPLES)
class TestRecordContract:
    def test_fields_cannot_be_assigned_or_deleted(self, name):
        record = _sample(name)
        for field in SAMPLES[name]:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
                setattr(record, field, 0)
            with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
                delattr(record, field)
        with pytest.raises(AttributeError):
            record.no_such_field = 0
        assert repr(record) == REPRS[name]

    def test_equal_fields_give_equal_records_and_hashes(self, name):
        record = _sample(name)
        twin = _class(name)(**copy.deepcopy(SAMPLES[name]))
        assert twin == record and not twin != record
        if name == "RunConfig":  # its options dict is unhashable, as the dataclass's was
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(twin) == hash(record)
        if name in REQUIRED_ONLY:
            assert record != _class(name)(**REQUIRED_ONLY[name])

    def test_pickle_round_trip(self, name):
        record = _sample(name)
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record) and back == record
        assert repr(back) == REPRS[name]

    def test_repr_and_to_dict(self, name):
        assert repr(_sample(name)) == REPRS[name]
        expected = DICTS.get(name, SAMPLES[name])
        assert list(_sample(name).to_dict().items()) == list(expected.items())
        if name in REQUIRED_ONLY:
            assert repr(_class(name)(**REQUIRED_ONLY[name])) == REQUIRED_ONLY_REPRS[name]


@pytest.mark.parametrize("name,fields,message", INVALID)
def test_validation_messages(name, fields, message):
    with pytest.raises(ValueError) as info:
        _class(name)(**fields)
    assert str(info.value) == message


def test_fields_by_position_and_keyword():
    assert LossModel(1.0, 0.5) == LossModel(gamma_star=0.5, gamma_1d=1.0)
    for args, kwargs in [((1.0, 0.5, 0.0), {}), ((1.0,), {"gamma_1d": 2.0}),
                         ((), {"gamma_1d": 1.0, "rate": 2.0}), ((), {"gamma_star": 0.5})]:
        with pytest.raises(TypeError, match="LossModel"):
            LossModel(*args, **kwargs)


def test_records_of_different_classes_differ():
    estimate = dickeqfi.CollectionEstimate(exact=1.0, log_estimate=2.0)
    assert estimate != dickeqfi.SuperradianceTime(exact=1.0, log_estimate=2.0)
    assert estimate != (1.0, 2.0)


def test_dict_default_is_fresh_per_instance():
    first, second = RunConfig("verify"), RunConfig("verify")
    first.options["jobs"] = 2
    assert second.options == {} and RunConfig._defaults["options"] == {}


def test_to_dict_copies_containers():
    config = _sample("RunConfig")
    config.to_dict()["options"]["jobs"] = 4
    assert config.options["jobs"] == 1
