"""The shared argument checks, and every public check that calls them: junk
in any scalar argument raises a ValueError subclass, never TypeError or
OverflowError, and no scenario file makes the CLI report an internal error.
Last, the read-only protocol that the three hand-written value types share."""

import copy
import json
import math
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphagate import cli, validators
from alphagate.battery import SMALL_ROWS
from alphagate.decisions import apply_bh, decide_conjunction, decide_disjunction, decide_individual
from alphagate.errors import DomainError, InvalidScenario
from alphagate.families import AdjustmentMethod, AlphaConfig, Design, Scenario, Sides, TestBattery, TestingMode
from alphagate.rates import (
    bonferroni_adjust,
    conjunction_power,
    conjunction_type2,
    error_rate_report,
    fwer_independent,
    per_family_rate,
    power_one_sided_z,
    sidak_adjust,
)
from alphagate.rng import derive_rep_seed
from alphagate.simulate import sample_statistics, simulate, wilson_ci

#: values no argument takes: None, a str, a bool (Python or numpy), a list,
#: nan, +-inf, an int too large for a double, and a float where an int belongs
JUNK = [None, "0.5", "", True, False, np.True_, np.False_, [0.5], {}, math.nan, math.inf, -math.inf, 10**400, 2.0,
        0.5, -1, 0, 1j]
junk = st.sampled_from(JUNK) | st.text(max_size=4) | st.floats() | st.integers(-(2**70), 2**70)


class TestInteger:
    def test_accepts_the_bounds(self):
        assert validators.integer(2, "n", 2, 3) == 2
        assert validators.integer(3, "n", 2, 3) == 3
        assert validators.integer(10**400, "reps", 1) == 10**400

    @pytest.mark.parametrize("value", [np.int64(2), np.uint64(3), np.int8(2)], ids=repr)
    def test_accepts_numpy_integers_as_ints(self, value):
        out = validators.integer(value, "n", 2, 3)
        assert out == value and type(out) is int

    def test_public_checks_take_numpy_integers(self):
        assert fwer_independent(0.05, np.int64(3)) == fwer_independent(0.05, 3)
        assert error_rate_report(np.uint64(4), np.int64(2), 0.05) == error_rate_report(4, 2, 0.05)
        assert derive_rep_seed(1, np.int64(3)) == derive_rep_seed(1, 3)
        assert derive_rep_seed(1, np.uint64(2**63)) == derive_rep_seed(1, 2**63)
        assert simulate(_scenario(), threads=np.int64(2)) == simulate(_scenario(), threads=1)

    @pytest.mark.parametrize("value", [1, 4, True, 2.0, "2", None, np.True_, np.int64(4), np.float64(2.0)], ids=repr)
    def test_message(self, value):
        with pytest.raises(InvalidScenario) as err:
            validators.integer(value, "n", 2, 3, error=InvalidScenario)
        assert str(err.value) == f"n must be an integer in [2, 3], got {value!r}"

    def test_lower_bound_only_and_power_of_two_bound(self):
        with pytest.raises(DomainError, match=r"^t must be an integer >= 1, got 0$"):
            validators.integer(0, "t", 1)
        with pytest.raises(DomainError, match=r"^n must be an integer in \[2, 2\*\*53\], got 1$"):
            validators.integer(1, "n", 2, validators.N_MAX)

    @settings(max_examples=300)
    @given(junk, st.integers(-5, 5), st.integers(-5, 5) | st.none())
    def test_returns_an_int_in_range_or_raises_the_error(self, value, lo, hi):
        try:
            out = validators.integer(value, "x", lo, hi, error=InvalidScenario)
        except InvalidScenario:
            return
        assert type(out) is int and lo <= out and (hi is None or out <= hi)


@pytest.mark.parametrize("check", [lambda v: derive_rep_seed(v, 0), lambda v: sample_statistics(_scenario(), v)],
                         ids=["derive_rep_seed", "sample_statistics"])
@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, "3", None], ids=repr)
def test_seeds_outside_64_bits_are_domain_errors(check, seed):
    with pytest.raises(DomainError, match=r"seed must be an integer in \[0, 18446744073709551615\]"):
        check(seed)
    assert check(2**64 - 1) == check(np.uint64(2**64 - 1))


class TestReal:
    @pytest.mark.parametrize("ends, accepted", [("()", []), ("[)", [0.0]), ("(]", [1.0]), ("[]", [0.0, 1.0])])
    def test_ends(self, ends, accepted):
        for x in (0.0, 1.0):
            if x in accepted:
                assert validators.real(x, "rho", 0, 1, ends) == x
            else:
                with pytest.raises(DomainError, match=rf"^rho must be a real in \{ends[0]}0, 1\{ends[1]}, got {x}$"):
                    validators.real(x, "rho", 0, 1, ends)

    @pytest.mark.parametrize("value", [None, "oops", [0.5], 10**400, 1j, True, False, np.True_, np.False_], ids=repr)
    def test_failed_conversion_raises_the_error(self, value):
        with pytest.raises(InvalidScenario) as err:
            validators.real(value, "rho", 0, 1, "[)", error=InvalidScenario)
        assert str(err.value) == f"rho must be a real in [0, 1), got {value!r}"

    def test_infinite_bound(self):
        assert validators.real("2.5", "delta", 0, math.inf, "[)") == 2.5
        for value in (math.inf, math.nan, -0.5):
            with pytest.raises(DomainError, match=r"delta must be a real in \[0, inf\)"):
                validators.real(value, "delta", 0, math.inf, "[)")

    @settings(max_examples=300)
    @given(junk, st.sampled_from(["()", "[)", "(]", "[]"]))
    def test_returns_a_float_in_range_or_raises_the_error(self, value, ends):
        try:
            out = validators.real(value, "x", 0, 1, ends, error=InvalidScenario)
        except InvalidScenario:
            return
        assert type(out) is float and 0.0 <= out <= 1.0
        assert (out != 0.0 or ends[0] == "[") and (out != 1.0 or ends[1] == "]")


def _scenario(**fields):
    base = dict(k=2, null_pattern=(True, True), deltas=(0.0, 0.0), n=8, design=Design.independent(),
                sides=Sides.ONE_SIDED, alpha_joint=0.05, method=AdjustmentMethod.HOLM, reps=10, seed=1)
    return Scenario(**{**base, **fields})


BATTERY = TestBattery((("a", 0.01), ("b", 0.2)))

#: every public check, fed a value in one argument
PUBLIC_CHECKS = {
    "fwer_independent.alpha": lambda v: fwer_independent(v, 3),
    "fwer_independent.k": lambda v: fwer_independent(0.05, v),
    "per_family_rate.alpha": lambda v: per_family_rate(v, 3),
    "per_family_rate.k": lambda v: per_family_rate(0.05, v),
    "sidak_adjust.alpha_joint": lambda v: sidak_adjust(v, 3),
    "sidak_adjust.k": lambda v: sidak_adjust(0.05, v),
    "bonferroni_adjust.alpha_joint": lambda v: bonferroni_adjust(v, 3),
    "bonferroni_adjust.k": lambda v: bonferroni_adjust(0.05, v),
    "conjunction_type2.beta": lambda v: conjunction_type2(v, 3),
    "conjunction_type2.k": lambda v: conjunction_type2(0.2, v),
    "conjunction_power.power": lambda v: conjunction_power(v, 3),
    "conjunction_power.k": lambda v: conjunction_power(0.8, v),
    "power_one_sided_z.alpha": lambda v: power_one_sided_z(v, 0.5, 16),
    "power_one_sided_z.delta": lambda v: power_one_sided_z(0.05, v, 16),
    "power_one_sided_z.n": lambda v: power_one_sided_z(0.05, 0.5, v),
    "error_rate_report.t": lambda v: error_rate_report(v, 2, 0.05),
    "error_rate_report.h": lambda v: error_rate_report(4, v, 0.05),
    "error_rate_report.alpha": lambda v: error_rate_report(4, 2, v),
    "AlphaConfig.alpha_joint": lambda v: AlphaConfig(v, AdjustmentMethod.NONE, TestingMode.CONJUNCTION),
    "Design.rho": lambda v: Design.equicorrelated(v),
    "Scenario.k": lambda v: _scenario(k=v),
    "Scenario.null_pattern": lambda v: _scenario(null_pattern=v),
    "Scenario.deltas": lambda v: _scenario(null_pattern=(True, False), deltas=(0.0, v)),
    "Scenario.deltas.whole": lambda v: _scenario(deltas=v),
    "Scenario.design": lambda v: _scenario(design=v),
    "Scenario.sides": lambda v: _scenario(sides=v),
    "Scenario.method": lambda v: _scenario(method=v),
    "Scenario.n": lambda v: _scenario(n=v),
    "Scenario.alpha_joint": lambda v: _scenario(alpha_joint=v),
    "Scenario.reps": lambda v: _scenario(reps=v),
    "Scenario.seed": lambda v: _scenario(seed=v),
    "wilson_ci.successes": lambda v: wilson_ci(v, 10, 0.95),
    "wilson_ci.trials": lambda v: wilson_ci(3, v, 0.95),
    "wilson_ci.level": lambda v: wilson_ci(3, 10, v),
    "simulate.threads": lambda v: simulate(_scenario(), threads=v),
    "derive_rep_seed.seed": lambda v: derive_rep_seed(v, 0),
    "derive_rep_seed.rep": lambda v: derive_rep_seed(1, v),
    "sample_statistics.rep_seed": lambda v: sample_statistics(_scenario(), v),
    "decide_individual.alpha": lambda v: decide_individual(BATTERY, v),
    "decide_disjunction.alpha": lambda v: decide_disjunction(BATTERY, v, AdjustmentMethod.HOLM),
    "decide_conjunction.alpha": lambda v: decide_conjunction(BATTERY, v),
    "apply_bh.q": lambda v: apply_bh(BATTERY, v),
    "TestBattery.p": lambda v: TestBattery((("a", v),)),
}


@pytest.mark.parametrize("check", PUBLIC_CHECKS.values(), ids=PUBLIC_CHECKS.keys())
@settings(max_examples=60)
@given(value=junk)
def test_junk_raises_only_value_errors(check, value):
    try:
        check(value)
    except ValueError:
        pass


#: a valid scenario document; the fuzz below breaks some of its parts
DOCUMENT = {
    "family": {"joint_id": "j", "constituents": ["a", "b"], "mode": "disjunction",
               "exchangeable": True, "independent": True},
    "alpha": {"alpha_joint": 0.05, "method": "holm", "mode": "disjunction"},
    "simulation": {"k": 2, "null_pattern": [True, False], "deltas": [0.0, 0.5], "n": 16, "sides": "two_sided",
                   "design": {"kind": "equicorrelated", "rho": 0.5}, "reps": 100, "seed": 1},
    "classification": {"statistical_claim": True, "joint_inference": True, "all_constituents_required": False,
                       "exchangeable": True, "family_theoretically_relevant": True},
}


def _paths(node, prefix=()):
    """Every key path and list index path in node."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


PATHS = list(_paths(DOCUMENT))
json_junk = (
    junk.filter(lambda v: not isinstance(v, (complex, np.bool_)))  # JSON holds neither
    | st.lists(st.integers(0, 3), max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "rho", "x"]), st.sampled_from(["equicorrelated", 0.5, None]), max_size=2)
)


@st.composite
def malformed_documents(draw):
    """DOCUMENT with one to three parts replaced by junk or removed."""
    document = json.loads(json.dumps(DOCUMENT))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(PATHS))
        parent = document
        try:
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier change removed or replaced this part
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(json_junk)
    return json.dumps(document, indent=2)


COMMANDS = [["simulate", "--scenario", "{path}", "--reps", "50", "--threads", "1"], ["classify", "--input", "{path}"]]


@settings(max_examples=300)
@given(malformed_documents(), st.sampled_from(COMMANDS))
def test_malformed_scenario_file_never_exits_3(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "scenario.json")
        path.write_text(text, encoding="utf-8")
        argv = [arg.format(path=path) for arg in command]
        assert cli.main([*argv, "--out", str(Path(tmp, "out.tsv"))]) in (0, 2)


def _pair():
    return TestBattery((("a", 0.01), ("b", 0.2)))


#: id -> (a builder of the value, every field it has, public and private,
#: properties and fields built on first access among them)
RECORDS = {
    "battery": (_pair, ("ids", "_column", "p", "entries", "pvalues")),
    "large-battery": (lambda: TestBattery.from_columns([f"h{i}" for i in range(SMALL_ROWS + 1)],
                                                      [i / (SMALL_ROWS + 1) for i in range(SMALL_ROWS + 1)]),
                      ("ids", "_column", "p", "entries", "pvalues")),
    "decision": (lambda: decide_disjunction(_pair(), 0.05, AdjustmentMethod.HOLM),
                 ("mode", "ids", "_rejected", "_thresholds", "rejected", "thresholds", "joint", "notes",
                  "per_hypothesis", "thresholds_used")),
    "report": (lambda: error_rate_report(20, 4, 0.05), ("t", "h", "alpha_per_test", "k", "per_family_rate", "fwer")),
}


class TestRecord:
    @pytest.mark.parametrize("make, fields", RECORDS.values(), ids=RECORDS)
    def test_no_field_can_be_assigned_or_deleted(self, make, fields):
        record, same = make(), make()
        for built in (False, True):  # before and after the fields built on first access exist
            if built:
                for name in fields:
                    getattr(record, name)
            for name in fields + ("other",):
                with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                    setattr(record, name, None)
                with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                    delattr(record, name)
            assert record == same
        assert all(getattr(record, name) is not None for name in fields)
        if isinstance(record, TestBattery):
            assert len(record) == len(same)

    @pytest.mark.parametrize("make, fields", RECORDS.values(), ids=RECORDS)
    def test_copies_are_equal_values_of_the_same_type(self, make, fields):
        record = make()
        for copied in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(copied) is type(record) and copied is not record and copied == record
            if type(record).__hash__ is not None:
                assert hash(copied) == hash(record)
        others = [other for other in (build() for build, _ in RECORDS.values()) if type(other) is not type(record)]
        assert all(record.__eq__(other) is NotImplemented and record != other for other in others)

    def test_a_report_unpickles_through_its_checks(self):
        data = pickle.dumps(error_rate_report(20, 4, 0.05))
        assert data.count(b"K\x14K\x04") == 1  # t = 20, h = 4 as one-byte ints
        with pytest.raises(DomainError, match="^h must divide t, got t=20, h=3$"):
            pickle.loads(data.replace(b"K\x14K\x04", b"K\x14K\x03"))
