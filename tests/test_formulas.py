"""Closed-form exponent rules and the dispatcher, checked against the oracle."""

import random

import pytest

from companion_exponents import (
    CompanionSpec,
    NotPrimitiveError,
    PreconditionError,
    companion_matrix,
    cycle_lengths,
    exponent,
    gap_rule_local_exponent,
    is_primitive,
    is_special_vertex,
    local_exponent,
    longest_run,
    oracle_exponent,
    origin_local_exponent,
    positive_trace_exponent,
    reduce_to_support,
    row_exponent,
    smallest_cycle_two_exponent,
    two_cycle_exponent,
    vertex_partition,
    wielandt_bound,
)
from companion_exponents.formulas import (
    RULE_BLOCK_V1_PREFIX,
    RULE_ORACLE,
    RULE_POSITIVE_TRACE,
    RULE_SMALLEST_CYCLE_2,
    RULE_TWO_CYCLES,
    RULES,
    ExponentReport,
    block_prefix_exponent,
)
from helpers import irreducible_rows

WIDE_SPEC = CompanionSpec(16, "1101100100010010")


def primitive_specs(n):
    for row in irreducible_rows(n):
        spec = CompanionSpec(n, row)
        if is_primitive(spec):
            yield spec


class TestExponentReport:
    def test_rejects_unknown_rule(self):
        with pytest.raises(ValueError):
            ExponentReport(5, "MADE_UP")

    def test_rule_names(self):
        assert RULES == {
            "POSITIVE_TRACE", "TWO_CYCLES",
            "SMALLEST_CYCLE_2", "BLOCK_V1_PREFIX", "ORACLE",
        }


class TestPositiveTrace:
    def test_all_ones_row(self):
        for n in (2, 3, 5, 8):
            report = positive_trace_exponent(CompanionSpec(n, "1" * n))
            assert report.value == n
            assert report.rule == RULE_POSITIVE_TRACE

    def test_worked_example(self):
        spec = CompanionSpec(8, "10001111")
        report = positive_trace_exponent(spec)
        assert report.value == 11
        assert report.detail == {"longest_zero_run": 3}
        assert oracle_exponent(companion_matrix(spec)) == 11

    def test_top_of_interval(self):
        spec = CompanionSpec(10, "1000000001")
        assert positive_trace_exponent(spec).value == 18
        assert oracle_exponent(companion_matrix(spec)) == 18

    def test_zero_trace_rejected(self):
        with pytest.raises(PreconditionError):
            positive_trace_exponent(CompanionSpec(8, "10011000"))

    def test_exact_on_all_positive_trace_specs(self):
        for n in range(2, 9):
            for spec in primitive_specs(n):
                if spec.row[-1] != 1:
                    continue
                assert positive_trace_exponent(spec).value == oracle_exponent(companion_matrix(spec))

    def test_local_form(self):
        # positive trace: exp(i -> j) is n-i+1 on the support, plus the
        # forced march length on the zeros; the loop vertex n itself is
        # the one exception, reached directly in n-i steps and held there
        for n in range(3, 9):
            for spec in primitive_specs(n):
                if spec.row[-1] != 1:
                    continue
                part = vertex_partition(spec)
                m = companion_matrix(spec)
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        if j == n:
                            expected = max(n - i, 1)
                        elif j in part.support:
                            expected = n - i + 1
                        else:
                            expected = n - i + 1 + j - max(v for v in part.support if v <= j)
                        assert local_exponent(m, i, j) == expected


class TestTwoCycles:
    def test_short_cycle_two(self):
        spec = CompanionSpec(5, "10010")
        report = two_cycle_exponent(spec)
        assert report.value == 11
        assert report.rule == RULE_TWO_CYCLES
        assert oracle_exponent(companion_matrix(spec)) == 11

    def test_wielandt_attainment(self):
        report = two_cycle_exponent(CompanionSpec(8, "11000000"))
        assert report.value == 50 == wielandt_bound(8)

    def test_loop_case_excluded(self):
        with pytest.raises(PreconditionError):
            two_cycle_exponent(CompanionSpec(8, "10000001"))

    def test_three_cycles_rejected(self):
        with pytest.raises(PreconditionError):
            two_cycle_exponent(CompanionSpec(8, "10011000"))


class TestOriginLocalExponent:
    def test_worked_example(self):
        spec = CompanionSpec(8, "10011000")
        assert origin_local_exponent(spec) == 20
        assert local_exponent(companion_matrix(spec), 1, 1) == 20

    def test_wielandt_spec(self):
        assert origin_local_exponent(CompanionSpec(5, "11000")) == 17

    def test_imprimitive_rejected(self):
        with pytest.raises(PreconditionError):
            origin_local_exponent(CompanionSpec(8, "10101010"))

    def test_positive_trace_rejected(self):
        with pytest.raises(PreconditionError):
            origin_local_exponent(CompanionSpec(8, "10011001"))

    def test_exhaustive_small_orders(self):
        for n in range(3, 9):
            for spec in primitive_specs(n):
                if spec.row[-1] != 0:
                    continue
                assert origin_local_exponent(spec) == local_exponent(
                    companion_matrix(spec), 1, 1)

    def test_dominates_other_support_targets(self):
        for n in range(3, 9):
            for spec in primitive_specs(n):
                if spec.row[-1] != 0:
                    continue
                m = companion_matrix(spec)
                top = local_exponent(m, 1, 1)
                for j in vertex_partition(spec).support:
                    assert local_exponent(m, 1, j) <= top


class TestReduceToSupport:
    def test_offsets(self):
        spec = CompanionSpec(8, "10011000")
        assert reduce_to_support(spec, 7).offset == 2
        assert reduce_to_support(spec, 3).offset == 2

    def test_consistency_with_oracle(self):
        spec = CompanionSpec(8, "10011000")
        m = companion_matrix(spec)
        assert local_exponent(m, 1, 7) == local_exponent(m, 1, 5) + 2 == 18

    def test_support_vertex_rejected(self):
        with pytest.raises(PreconditionError):
            reduce_to_support(CompanionSpec(8, "10011000"), 5)

    def test_reduction_identity_everywhere(self):
        for n in range(3, 9):
            for spec in primitive_specs(n):
                if spec.row[-1] != 0:
                    continue
                m = companion_matrix(spec)
                for j in sorted(vertex_partition(spec).zeros):
                    q = reduce_to_support(spec, j)
                    assert local_exponent(m, 1, j) == local_exponent(m, 1, j - q.offset) + q.offset


class TestSpecialVertex:
    def test_wide_spec(self):
        assert is_special_vertex(WIDE_SPEC, 2)
        assert local_exponent(companion_matrix(WIDE_SPEC), 1, 2) == 16
        assert not is_special_vertex(WIDE_SPEC, 15)

    def test_window_leaving_range(self):
        # smallest cycle length 4: the window for j=1 sticks out past vertex 1
        spec = CompanionSpec(8, "10011000")
        assert not is_special_vertex(spec, 1)

    def test_special_forces_local_exponent_n(self):
        for n in range(4, 9):
            for spec in primitive_specs(n):
                if spec.row[-1] != 0:
                    continue
                m = companion_matrix(spec)
                for j in sorted(vertex_partition(spec).support):
                    if is_special_vertex(spec, j):
                        assert local_exponent(m, 1, j) == n


class TestGapRule:
    def test_exact_case(self):
        bound, exact = gap_rule_local_exponent(WIDE_SPEC, 4)
        assert bound == 17
        assert exact == 18
        assert local_exponent(companion_matrix(WIDE_SPEC), 1, 4) == 18

    def test_open_case(self):
        spec = CompanionSpec(8, "10011000")
        bound, exact = gap_rule_local_exponent(spec, 5)
        assert bound == 11
        assert exact is None
        assert local_exponent(companion_matrix(spec), 1, 5) == 16

    def test_shift_of_unrepresentable_values(self):
        # a local exponent that is not a cycle combination shifts up along
        # consecutive support vertices
        spec = CompanionSpec(8, "10011000")
        m = companion_matrix(spec)
        assert local_exponent(m, 1, 4) == 15
        assert local_exponent(m, 1, 5) == 16

    def test_special_vertex_rejected(self):
        with pytest.raises(PreconditionError):
            gap_rule_local_exponent(WIDE_SPEC, 2)

    def test_below_smallest_cycle_rejected(self):
        with pytest.raises(PreconditionError):
            gap_rule_local_exponent(CompanionSpec(8, "10011000"), 1)

    def test_sound_everywhere(self):
        for n in range(4, 9):
            for spec in primitive_specs(n):
                if spec.row[-1] != 0:
                    continue
                lengths = cycle_lengths(spec)
                m = companion_matrix(spec)
                for j in sorted(vertex_partition(spec).support):
                    if j < lengths[0] or is_special_vertex(spec, j):
                        continue
                    bound, exact = gap_rule_local_exponent(spec, j)
                    truth = local_exponent(m, 1, j)
                    assert truth >= bound
                    if exact is not None:
                        assert truth == exact


class TestBlockPrefix:
    def test_prefix_not_longest_falls_through(self):
        with pytest.raises(PreconditionError):
            block_prefix_exponent(CompanionSpec(5, "11000"))

    def test_worked_example_order_seven(self):
        spec = CompanionSpec(7, "1001100")
        report = block_prefix_exponent(spec)
        assert report.value == 15
        assert report.detail == {"conductor": 6, "longest_zero_run": 2}
        assert oracle_exponent(companion_matrix(spec)) == 15

    def test_worked_example_order_six(self):
        spec = CompanionSpec(6, "100110")
        report = block_prefix_exponent(spec)
        assert report.value == 10
        assert oracle_exponent(companion_matrix(spec)) == 10

    def test_exact_on_precondition(self):
        for n in range(4, 9):
            for spec in primitive_specs(n):
                if spec.row[-1] != 0:
                    continue
                part = vertex_partition(spec)
                run = longest_run(part.zeros)
                if not all(v in part.zeros for v in range(2, run + 2)):
                    continue
                assert block_prefix_exponent(spec).value == oracle_exponent(companion_matrix(spec))


class TestSmallestCycleTwo:
    def test_wide_spec(self):
        report = smallest_cycle_two_exponent(WIDE_SPEC)
        assert report.value == 22 == oracle_exponent(companion_matrix(WIDE_SPEC))
        assert report.detail == {"smallest_odd_cycle": 5}

    def test_odd_order_membership_witness(self):
        # support {1, 6, 14} realizes 33 = 2*15 - 1 + 2*2 at order 15
        spec = CompanionSpec(15, "100001000000010")
        report = smallest_cycle_two_exponent(spec)
        assert report.value == 33
        assert oracle_exponent(companion_matrix(spec)) == 33

    def test_even_orders_capped(self):
        for n in range(4, 11, 2):
            for spec in primitive_specs(n):
                if spec.row[-1] != 0 or cycle_lengths(spec)[0] != 2:
                    continue
                assert smallest_cycle_two_exponent(spec).value <= 2 * n - 2

    def test_requires_smallest_cycle_two(self):
        with pytest.raises(PreconditionError):
            smallest_cycle_two_exponent(CompanionSpec(8, "10011000"))

    def test_requires_order_four(self):
        with pytest.raises(PreconditionError):
            smallest_cycle_two_exponent(CompanionSpec(3, "110"))


class TestDispatch:
    def test_reported_rules(self):
        assert exponent(CompanionSpec(8, "11111111")).rule == RULE_POSITIVE_TRACE
        assert exponent(CompanionSpec(8, "11000000")).rule == RULE_TWO_CYCLES
        assert exponent(CompanionSpec(16, "1101100100010010")).rule == RULE_SMALLEST_CYCLE_2
        assert exponent(CompanionSpec(7, "1001100")).rule == RULE_BLOCK_V1_PREFIX
        assert exponent(CompanionSpec(8, "10011000")).rule == RULE_ORACLE

    def test_reported_values(self):
        assert exponent(CompanionSpec(8, "11111111")).value == 8
        assert exponent(CompanionSpec(8, "11000000")).value == 50
        assert exponent(CompanionSpec(8, "10011000")).value == 22

    def test_not_primitive(self):
        with pytest.raises(NotPrimitiveError):
            exponent(CompanionSpec(8, "10101010"))
        with pytest.raises(NotPrimitiveError):
            exponent(CompanionSpec(8, "01010101"))

    def test_rule_only_mode(self):
        with pytest.raises(PreconditionError):
            exponent(CompanionSpec(8, "10011000"), allow_oracle=False)
        assert exponent(CompanionSpec(8, "11111111"), allow_oracle=False).value == 8

    def test_matches_oracle_exhaustively_small(self):
        for n in range(3, 9):
            for spec in primitive_specs(n):
                assert exponent(spec).value == oracle_exponent(companion_matrix(spec))

    def test_matches_oracle_sampled_larger(self):
        rng = random.Random(20240817)
        for n in range(11, 17):
            for _ in range(40):
                row = "1" + "".join(rng.choice("01") for _ in range(n - 1))
                spec = CompanionSpec(n, row)
                if not is_primitive(spec):
                    continue
                assert exponent(spec).value == oracle_exponent(companion_matrix(spec))

    def test_range_invariant(self):
        for n in range(3, 9):
            for spec in primitive_specs(n):
                value = exponent(spec).value
                assert n <= value <= wielandt_bound(n)

    def test_zero_trace_top_row_dominates(self):
        for n in range(3, 11):
            for spec in primitive_specs(n):
                if spec.row[-1] != 0:
                    continue
                m = companion_matrix(spec)
                assert oracle_exponent(m) == row_exponent(m, 1)
