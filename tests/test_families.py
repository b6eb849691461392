"""Family validation and the when-to-adjust classification cascade."""

import copy
import itertools
import math
import pickle
import re

import pytest

from alphagate.families import (
    AdjustmentMethod,
    AlphaConfig,
    ClassificationInput,
    FamilySpec,
    Rationale,
    Recommendation,
    TestBattery,
    TestingMode,
    classify_testing_mode,
    validate_family,
)
from alphagate.errors import DomainError, InvalidBattery


def _family(constituents, mode=TestingMode.DISJUNCTION, exchangeable=True, independent=True):
    return FamilySpec(
        joint_id="joint",
        constituents=tuple(constituents),
        mode=mode,
        exchangeable=exchangeable,
        independent=independent,
    )


class TestFamilySpec:
    def test_individual_mode_rejected(self):
        with pytest.raises(ValueError):
            _family(["a", "b"], mode=TestingMode.INDIVIDUAL)

    def test_blank_ids_rejected(self):
        with pytest.raises(ValueError):
            _family(["a", ""])
        with pytest.raises(ValueError):
            FamilySpec(
                joint_id="",
                constituents=("a",),
                mode=TestingMode.CONJUNCTION,
                exchangeable=True,
                independent=True,
            )

    @pytest.mark.parametrize("flag", ["exchangeable", "independent"])
    @pytest.mark.parametrize("value", ["no", 0, None, 1.0])
    def test_flags_must_be_booleans(self, flag, value):
        with pytest.raises(DomainError, match=f"^{flag} must be a boolean, got {re.escape(repr(value))}$") as err:
            _family(["a", "b"], **{flag: value})
        assert err.value.field == flag

    @pytest.mark.parametrize(
        "field, value, message",
        [("mode", "disjunction", "mode must be a TestingMode, got 'disjunction'"),
         ("mode", None, "mode must be a TestingMode, got None"),
         ("constituents", "abc", "constituents must be a sequence, got str"),
         ("constituents", 5, "constituents must be a sequence, got int")],
    )
    def test_mode_and_constituents_checked(self, field, value, message):
        spec = dict(joint_id="joint", constituents=("a", "b"), mode=TestingMode.DISJUNCTION,
                    exchangeable=False, independent=True)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$") as err:
            FamilySpec(**{**spec, field: value})
        assert err.value.field == field

    def test_numpy_bool_flags_accepted(self):
        import numpy as np

        family = _family(["a", "b"], exchangeable=np.False_, independent=np.True_)
        assert [issue.code for issue in validate_family(family).warnings] == ["NotExchangeable"]


class TestValidateFamily:
    def test_duplicate_constituent(self):
        report = validate_family(_family(["g", "g"]))
        assert not report.ok
        assert [issue.code for issue in report.errors] == ["DuplicateConstituent"]

    def test_empty_family(self):
        report = validate_family(_family([]))
        assert not report.ok
        assert [issue.code for issue in report.errors] == ["EmptyFamily"]

    def test_disjunction_without_exchangeability_warns(self):
        report = validate_family(_family(["g", "r"], exchangeable=False))
        assert report.ok  # a warning, not an error
        assert [issue.code for issue in report.warnings] == ["NotExchangeable"]
        assert "theoretically exchangeable" in report.warnings[0].message

    def test_conjunction_without_exchangeability_does_not_warn(self):
        report = validate_family(
            _family(["g", "r"], mode=TestingMode.CONJUNCTION, exchangeable=False)
        )
        assert report.ok and not report.warnings

    def test_clean_family(self):
        report = validate_family(_family(["g", "r"]))
        assert report.ok and not report.warnings and not report.errors

    def test_idempotent_and_pure(self):
        spec = _family(["g", "g"])
        first = validate_family(spec)
        second = validate_family(spec)
        assert first == second
        assert spec == _family(["g", "g"])  # input untouched


def _answers(**kwargs):
    defaults = dict(
        statistical_claim=True,
        joint_inference=True,
        all_constituents_required=False,
        exchangeable=True,
        family_theoretically_relevant=True,
    )
    defaults.update(kwargs)
    return ClassificationInput(**defaults)


class TestClassifyTestingMode:
    def test_per_colour_individual(self):
        """20 per-colour inferences, no joint claim: individual, unadjusted."""
        rec = classify_testing_mode(_answers(joint_inference=False))
        assert rec.mode is TestingMode.INDIVIDUAL
        assert rec.adjust_alpha is False

    def test_two_endpoint_conjunction(self):
        """Both endpoints must succeed: conjunction, unadjusted."""
        rec = classify_testing_mode(_answers(all_constituents_required=True))
        assert rec.mode is TestingMode.CONJUNCTION
        assert rec.adjust_alpha is False

    def test_any_colour_disjunction(self):
        """Joint claim where any colour suffices: disjunction, adjust alpha."""
        rec = classify_testing_mode(_answers())
        assert rec.mode is TestingMode.DISJUNCTION
        assert rec.adjust_alpha is True

    def test_no_statistical_claim(self):
        rec = classify_testing_mode(_answers(statistical_claim=False))
        assert rec.mode is None
        assert rec.adjust_alpha is False

    def test_heap_of_hypotheses_downgrade(self):
        rec = classify_testing_mode(_answers(family_theoretically_relevant=False))
        assert rec.mode is TestingMode.INDIVIDUAL
        assert rec.adjust_alpha is False
        assert "heap-of-hypotheses" in [r.code for r in rec.rationale]

    def test_disjunction_not_exchangeable_warns_in_rationale(self):
        rec = classify_testing_mode(_answers(exchangeable=False))
        assert rec.mode is TestingMode.DISJUNCTION
        assert "not-exchangeable" in [r.code for r in rec.rationale]

    def test_exhaustive_sweep_adjust_iff_disjunction(self):
        for bits in itertools.product([False, True], repeat=5):
            answers = ClassificationInput(
                statistical_claim=bits[0],
                joint_inference=bits[1],
                all_constituents_required=bits[2],
                exchangeable=bits[3],
                family_theoretically_relevant=bits[4],
            )
            rec = classify_testing_mode(answers)
            assert rec.adjust_alpha == (rec.mode is TestingMode.DISJUNCTION)
            assert (rec.mode is None) == (not answers.statistical_claim)
            # only a relevant joint claim that any one constituent can carry adjusts
            claim, joint, all_required, _, relevant = bits
            assert rec.adjust_alpha == (claim and joint and relevant and not all_required)

    def test_adjust_alpha_follows_the_mode(self):
        for mode in (None, *TestingMode):
            rec = Recommendation(mode, [Rationale("c", "t")])
            assert rec.adjust_alpha == (mode is TestingMode.DISJUNCTION)
            assert rec.rationale == (Rationale("c", "t"),)

    def test_pure_function(self):
        answers = _answers()
        assert classify_testing_mode(answers) == classify_testing_mode(answers)

    def test_explicit_booleans_required(self):
        with pytest.raises(ValueError):
            _answers(statistical_claim=1)
        with pytest.raises(TypeError):
            ClassificationInput(statistical_claim=True)  # missing answers


class TestAlphaConfig:
    def test_disjunction_requires_method(self):
        with pytest.raises(ValueError):
            AlphaConfig(0.05, AdjustmentMethod.NONE, TestingMode.DISJUNCTION)
        AlphaConfig(0.05, AdjustmentMethod.SIDAK, TestingMode.DISJUNCTION)

    def test_conjunction_and_individual_forbid_method(self):
        with pytest.raises(ValueError):
            AlphaConfig(0.05, AdjustmentMethod.BONFERRONI, TestingMode.CONJUNCTION)
        with pytest.raises(ValueError):
            AlphaConfig(0.05, AdjustmentMethod.HOLM, TestingMode.INDIVIDUAL)
        AlphaConfig(0.05, AdjustmentMethod.NONE, TestingMode.CONJUNCTION)
        AlphaConfig(0.05, AdjustmentMethod.NONE, TestingMode.INDIVIDUAL)

    def test_disjunction_refuses_bh(self):
        with pytest.raises(DomainError, match="false discovery rate") as err:
            AlphaConfig(0.05, AdjustmentMethod.BENJAMINI_HOCHBERG, TestingMode.DISJUNCTION)
        assert err.value.field == "method"

    @pytest.mark.parametrize(
        "method, mode, field",
        [("holm", TestingMode.DISJUNCTION, "method"), (None, TestingMode.CONJUNCTION, "method"),
         (AdjustmentMethod.HOLM, "disjunction", "mode"), (AdjustmentMethod.NONE, None, "mode")],
    )
    def test_method_and_mode_must_be_members(self, method, mode, field):
        with pytest.raises(DomainError, match=f"^{field} must be an? ") as err:
            AlphaConfig(0.05, method, mode)
        assert err.value.field == field

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            AlphaConfig(0.0, AdjustmentMethod.NONE, TestingMode.INDIVIDUAL)
        with pytest.raises(ValueError):
            AlphaConfig(1.0, AdjustmentMethod.NONE, TestingMode.INDIVIDUAL)


@pytest.mark.parametrize(
    "build",
    [
        lambda: _family(["a"], mode=TestingMode.INDIVIDUAL),
        lambda: _family(["a", ""]),
        lambda: AlphaConfig(1.0, AdjustmentMethod.NONE, TestingMode.INDIVIDUAL),
        lambda: AlphaConfig(0.05, AdjustmentMethod.NONE, TestingMode.DISJUNCTION),
        lambda: AlphaConfig(0.05, AdjustmentMethod.HOLM, TestingMode.CONJUNCTION),
        lambda: _answers(exchangeable=None),
    ],
    ids=["family-mode", "family-id", "alpha-range", "alpha-no-method", "alpha-method", "answers"],
)
def test_constructors_raise_domain_error(build):
    with pytest.raises(DomainError):
        build()


class TestTestBattery:
    def test_order_preserved(self):
        battery = TestBattery((("b", 0.2), ("a", 0.1)))
        assert battery.ids == ("b", "a")
        assert battery.pvalues == (0.2, 0.1)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidBattery):
            TestBattery((("a", 0.1), ("a", 0.2)))

    def test_p_range_enforced(self):
        with pytest.raises(InvalidBattery):
            TestBattery((("a", -0.01),))
        with pytest.raises(InvalidBattery):
            TestBattery((("a", 1.01),))
        TestBattery((("a", 0.0), ("b", 1.0)))  # closed interval

    def test_blank_id_rejected(self):
        with pytest.raises(InvalidBattery):
            TestBattery((("", 0.5),))

    @pytest.mark.parametrize("raw", ["oops", "", None, [0.1], 10**400])
    def test_p_not_a_number_names_entry(self, raw):
        with pytest.raises(InvalidBattery, match=f"p-value for 'x' is not a number: {re.escape(repr(raw))}") as err:
            TestBattery((("a", "0.5"), ("x", raw)))
        assert err.value.index == 1

    def test_checks_run_in_entry_order(self):
        # a duplicate is reported before its own bad p, and a bad p before a
        # later duplicate
        with pytest.raises(InvalidBattery, match="duplicate") as err:
            TestBattery((("a", 0.1), ("b", 0.2), ("a", "oops"), ("b", 5.0)))
        assert err.value.index == 2
        with pytest.raises(InvalidBattery, match="must lie in") as err:
            TestBattery((("a", 0.1), ("b", 5.0), ("a", "oops")))
        assert err.value.index == 1

    @pytest.mark.parametrize("raw", [-0.0, "-0", "-0.0"])
    def test_negative_zero_p_is_stored_as_zero(self, raw):
        for battery in (TestBattery((("a", raw), ("b", 0.5))), TestBattery.from_columns(["a", "b"], [raw, "0.5"])):
            assert math.copysign(1.0, battery.p[0]) == 1.0
            assert battery.entries == (("a", 0.0), ("b", 0.5))

    def test_columns_and_entries_agree(self):
        battery = TestBattery.from_columns(["b", "a"], ["0.2", 0.1])
        assert battery == TestBattery((("b", 0.2), ("a", 0.1)))
        assert hash(battery) == hash(TestBattery((("b", 0.2), ("a", 0.1))))
        assert battery.entries == (("b", 0.2), ("a", 0.1))
        assert battery.p.dtype == "float64" and battery.p.tolist() == [0.2, 0.1]
        assert len(battery) == 2

    def test_columns_are_read_only(self):
        battery = TestBattery((("a", 0.1),))
        with pytest.raises(ValueError):
            battery.p[0] = 0.5
        with pytest.raises(AttributeError):
            battery.ids = ("b",)
        assert copy.deepcopy(battery) == pickle.loads(pickle.dumps(battery)) == battery

    @pytest.mark.parametrize("entry", [5, None, ("a",), "ab", ("a", 0.1, 0.2), b"ab"],
                             ids=["int", "none", "single", "str", "triple", "bytes"])
    def test_malformed_entry_names_its_index(self, entry):
        with pytest.raises(InvalidBattery, match=re.escape(f"entry must be an (id, p-value) pair, got {entry!r}")) as err:
            TestBattery([("a", 0.1), ("b", 0.2), entry])
        assert err.value.index == 2

    def test_columns_must_match_in_length(self):
        with pytest.raises(InvalidBattery, match="2 hypothesis ids but 1 p-values"):
            TestBattery.from_columns(["a", "b"], [0.1])

    @pytest.mark.parametrize("hid", ["a\tb", "a\nb", "a\rb", "a\x0bb", "a\x85b", "a b", "a\n"])
    def test_id_with_tab_or_line_break_rejected(self, hid):
        with pytest.raises(InvalidBattery, match=re.escape(f"hypothesis id {hid!r} holds a tab or a line break")) as err:
            TestBattery.from_columns(["a0", hid, "a0"], [0.1, 0.2, 0.3])
        assert err.value.index == 1

    def test_whole_column_checks_name_the_same_entry_as_the_entry_loop(self):
        # every check failing somewhere: the first entry at fault in order wins
        ids = ["a", "b", "c", "b", "", "d\te"]
        raw = ["0.1", "0.2", "oops", "0.3", "0.4", "0.5"]
        with pytest.raises(InvalidBattery, match="not a number") as err:
            TestBattery.from_columns(ids, raw)
        assert err.value.index == 2
        with pytest.raises(InvalidBattery, match="not a number") as err:
            TestBattery(tuple(zip(ids, raw)))
        assert err.value.index == 2
