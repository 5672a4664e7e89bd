"""Closed-form exponent rules and the dispatcher, checked against the oracle."""

import hashlib
import random
import time

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from companion_exponents import (
    CompanionSpec,
    NotPrimitiveError,
    PreconditionError,
    companion_matrix,
    conductor,
    cycle_lengths,
    exponent,
    is_primitive,
    local_exponent,
    local_exponent_table,
    local_exponents_from_last,
    longest_run,
    oracle_exponent,
    vertex_partition,
    wielandt_bound,
)
from companion_exponents import formulas
from companion_exponents.formulas import (
    RULE_BLOCK_V1_PREFIX,
    RULE_ORACLE,
    RULE_POSITIVE_TRACE,
    RULE_SMALLEST_CYCLE_2,
    RULE_TWO_CYCLES,
    RULES,
    ExponentReport,
)
import helpers
from helpers import irreducible_rows

WIDE_SPEC = CompanionSpec(16, "1101100100010010")

# SHA-256 of report_line() over every primitive spec of each order, in
# row order, generated with the earlier set-based rules.
REPORT_DIGESTS = {
    3: "b9bafb0d297e86ccf1d019aa3b7890eac8a8eae3e486418b641637c9ebdef86d",
    4: "6a0eb3df8ffe5436773d597d65b50996679f1eec44494f1ab4f2a762ac585fb2",
    5: "0e9450b9ff51cb3527c27c20b4d448363dcd2ce7ef42952dd2cb8e754040355e",
    6: "85f41bf9f750c4c4ab37923bebf8ad78af1b24d36ddea7fcbbf8200827fa6972",
    7: "94b9d3326a91c10b83c1d545fba9ec1b75cb08a054d952e89cb7483576cd5668",
    8: "08b14ebb4051f73b9e4a7916e804e6abecfc170f59500928236c659ff09aed27",
    9: "daeb6f00e68f4c50ad1161cd3c3ac0dcaac4986b4695f6c659a064df5fe2e162",
    10: "3dc4aabdaa1048cabea4810cd97c3590d0095c84665ac9a70f731bf2cd59e22c",
    11: "e4e161dd3f545842aefc74e98731402c116de2d7936f1dad5d9f39cff64d023a",
    12: "4739e528b465b69d9d864892bb69885983a0f479dac46e3246ebee805f96d5dd",
    13: "a9b46212198b5924d7f0e696e1b1ec2422588473f90c861bb0e0927bcc89106b",
    14: "3ea71371add3812bc9a1edc443b0b48ab005832d494ebdd87299e0f5fa441e3f",
}
# The same over 60 seeded random irreducible rows per order 15..64, rules only.
SAMPLED_REPORT_DIGEST = "268eed384cd363502fddb53ba361f989f35c975b6d0396c26f6218ae6372cec4"


def facts(spec):
    """What `exponent` hands each rule body, for a primitive spec."""
    return formulas._SpecFacts.of(spec, formulas.require_primitive(spec))


def primitive_specs(n):
    for row in irreducible_rows(n):
        spec = CompanionSpec(n, row)
        if is_primitive(spec):
            yield spec


def report_line(spec, allow_oracle=True):
    try:
        report = exponent(spec, allow_oracle=allow_oracle)
    except (PreconditionError, NotPrimitiveError) as exc:
        return f"{spec.n} {spec.row_string} {type(exc).__name__}\n"
    detail = sorted((report.detail or {}).items())
    return f"{spec.n} {spec.row_string} {report.value} {report.rule} {detail}\n"


def from_vertex_1(spec):
    """j -> exp(1 -> j) = n - 1 + e(n -> j) from the residue fold, for a zero-trace primitive spec."""
    e = local_exponents_from_last(spec)
    return lambda j: spec.n - 1 + e[j - 1]


def assert_vertex_rules(row, j, exp_from_1):
    """The paper's rule at vertex j of a zero-trace primitive row, with the helpers' set-based
    predicates and exp_from_1(j) = exp(1 -> j): a zero vertex is its anchor's value plus the
    offset, a special vertex has exp n, and the gap bound holds at any other support vertex
    j >= l, with equality at its pin.  Returns which rule applied."""
    n = len(row)
    if row[j - 1] == "0":
        offset = helpers.support_offset(row, j)
        assert exp_from_1(j) == exp_from_1(j - offset) + offset
        return "zero"
    if helpers.special_vertex(row, j):
        assert exp_from_1(j) == n
        return "special"
    if j < helpers.smallest_cycle(row):
        return "below l"
    bound, pinned = helpers.gap_rule(row, j)
    assert exp_from_1(j) >= bound
    if pinned is None:
        return "gap"
    assert exp_from_1(j) == pinned
    return "pinned"


@st.composite
def zero_trace_primitive_specs(draw, max_n=24):
    n = draw(st.integers(4, max_n))
    middle = draw(st.integers(0, (1 << (n - 2)) - 1))
    spec = CompanionSpec(n, "1" + format(middle, f"0{n - 2}b") + "0")
    if not is_primitive(spec):
        # force a cycle of length n - 1, coprime to the length-n cycle
        spec = CompanionSpec(n, "11" + spec.row_string[2:])
    return spec


@st.composite
def smallest_cycle_two_rows(draw, min_order, max_order):
    """Zero-trace primitive rows with a 2-cycle: vertex n - 1 in the support, vertex n not."""
    n = draw(st.integers(min_order, max_order))
    row = "1" + format(draw(st.integers(0, (1 << (n - 3)) - 1)), f"0{n - 3}b") + "10"
    # only an even n can leave every cycle length even; vertex 2 then adds the odd length n - 1
    return row if helpers.row_cycle_gcd(row) == 1 else row[0] + "1" + row[2:]


@st.composite
def rule_shaped_rows(draw, min_order, max_order):
    """Rows shaped toward each rule: a loop at n, a 2-cycle, one extra support vertex, or a long zero run at 2."""
    n = draw(st.integers(min_order, max_order))
    rng = draw(st.randoms(use_true_random=False))

    def filler(length):
        return format(rng.getrandbits(length), f"0{length}b")

    shape = draw(st.sampled_from(("loop", "two_cycle", "one_extra", "prefix_run")))
    if shape == "loop":
        return "1" + filler(n - 2) + "1"
    if shape == "two_cycle":
        return "1" + filler(n - 3) + "10"
    if shape == "one_extra":
        i = draw(st.integers(2, n - 1))
        return "1" + "0" * (i - 2) + "1" + "0" * (n - i)
    run = draw(st.integers(6, 16))
    return "1" + "0" * run + filler(n - run - 2) + "0"


class TestRulesPastPowering:
    """Every rule against the per-row reach-set walk of tests/helpers.py, at orders powering cannot reach."""

    @pytest.mark.parametrize("row, rule", [
        ("1" + "01" * 299 + "1", RULE_POSITIVE_TRACE),
        ("1" + "0" * 592 + "1" + "0" * 6, RULE_TWO_CYCLES),
        ("1" + "0" * 596 + "110", RULE_SMALLEST_CYCLE_2),
        ("1" + "0" * 20 + "10" * 289 + "0", RULE_BLOCK_V1_PREFIX),
    ])
    def test_each_rule_at_order_600(self, row, rule):
        report = exponent(CompanionSpec(600, row), allow_oracle=False)
        assert (report.rule, report.value) == (rule, helpers.structural_exponent(row))

    @given(rule_shaped_rows(65, 600))
    @settings(max_examples=100, deadline=None)
    def test_rule_value_equals_structural_walk(self, row):
        try:
            report = exponent(CompanionSpec(len(row), row), allow_oracle=False)
        except (PreconditionError, NotPrimitiveError):
            assume(False)
        event(report.rule)
        assert report.value == helpers.structural_exponent(row)


@st.composite
def primitive_rows(draw, min_order, max_order):
    """Primitive rows, dense or thinned by ANDing up to three random masks; an imprimitive
    draw gets the cycle of length n - 1."""
    n = draw(st.integers(min_order, max_order))
    y = (1 << (n - 1)) - 1
    for _ in range(draw(st.integers(0, 3))):
        y &= draw(st.integers(0, (1 << (n - 1)) - 1))
    row = "1" + format(y, f"0{n - 1}b")
    return row if helpers.row_cycle_gcd(row) == 1 else "11" + row[2:]


@st.composite
def rows_with_short_cycle(draw, min_order, max_order, max_short):
    """Primitive rows whose smallest cycle length is at most max_short: the support ends at vertex
    n + 1 - a, with vertices 2 .. n - a drawn; an imprimitive draw gets the cycle of length n - 1."""
    n, a = draw(st.integers(min_order, max_order)), draw(st.integers(1, max_short))
    y = draw(st.integers(0, (1 << (n - a - 1)) - 1))
    row = "1" + format(y, f"0{n - a - 1}b") + "1" + "0" * (a - 1)
    return row if helpers.row_cycle_gcd(row) == 1 else "11" + row[2:]


@st.composite
def zero_trace_primitive_rows(draw, min_order, max_order):
    """`primitive_rows` with vertex n dropped from the support; an imprimitive draw gets the cycle of length n - 1."""
    row = draw(primitive_rows(min_order, max_order))[:-1] + "0"
    return row if helpers.row_cycle_gcd(row) == 1 else "11" + row[2:]


class TestLocalExponentsFromLast:
    """exp(i -> j) = max(1, n - i + e(n -> j)), with e read off the conductor's residue table."""

    @staticmethod
    def from_last(row):
        return formulas.local_exponents_from_last(CompanionSpec(len(row), row))

    def test_every_pair_of_small_orders(self):
        for n in range(2, 9):
            for spec in primitive_specs(n):
                table = local_exponent_table(companion_matrix(spec))
                e = self.from_last(spec.row_string)
                assert table.values == tuple(tuple(max(1, n - i + e_j) for e_j in e) for i in range(1, n + 1))

    @given(primitive_rows(2, 16))
    @settings(max_examples=200, deadline=None)
    def test_every_pair_against_the_table(self, row):
        n, e = len(row), self.from_last(row)
        table = local_exponent_table(companion_matrix(CompanionSpec(n, row)))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert table.get(i, j) == max(1, n - i + e[j - 1])

    @given(primitive_rows(65, 600), st.data())
    @settings(max_examples=60, deadline=None)
    def test_walk_from_n_past_powering(self, row, data):
        e = self.from_last(row)
        assert len(row) - 1 + max(e) == helpers.structural_exponent(row)
        for j in data.draw(st.lists(st.integers(1, len(row)), min_size=1, max_size=3)):
            assert e[j - 1] == helpers.local_exponent_from_last(row, j)

    def test_loop_at_n_counts_the_empty_walk(self):
        assert self.from_last("11")[-1] == self.from_last("10011001")[-1] == 0
        assert self.from_last("10011000")[-1] == 12  # without the loop: the conductor of {4, 5, 8}

    def test_not_primitive_before_the_conductor_cap(self):
        # support on the odd vertices below 10 000 of order 20 000: even cycle lengths, |support| * l = 5000 * 10 002
        with pytest.raises(NotPrimitiveError):
            self.from_last("10" * 5000 + "0" * 10_000)
        with pytest.raises(NotPrimitiveError):
            self.from_last("0" + "1" * 7)

    def test_conductor_cap(self):
        for row in (
            "1" * 2000 + "0" * 2000,  # lower half of order 4000: |support| * l = 2000 * 2001
            # l = 1001 and 98 000 cycle lengths in 1001 classes: the cap counts every length, not each class
            "1" + "0" * 1000 + "1" * 97_999 + "0" * 1000,
        ):
            with pytest.raises(ValueError, match="MAX_CONDUCTOR_WORK"):
                self.from_last(row)


class TestExponentFromLast:
    """e(n -> j) for one vertex: one residue pass started from the walks n -> s -> ... -> j."""

    def test_every_vertex_of_small_orders(self):
        for n in range(2, 11):
            for spec in primitive_specs(n):
                e = local_exponents_from_last(spec)
                assert [formulas.exponent_from_last(spec, j) for j in range(1, n + 1)] == list(e)

    @given(primitive_rows(65, 600), st.data())
    @settings(max_examples=60, deadline=None)
    def test_walk_from_n_past_powering(self, row, data):
        spec = CompanionSpec(len(row), row)
        for j in data.draw(st.lists(st.integers(1, len(row)), min_size=1, max_size=3)):
            assert formulas.exponent_from_last(spec, j) == helpers.local_exponent_from_last(row, j)

    @given(rows_with_short_cycle(65, 300, 6))
    @settings(max_examples=30, deadline=None)
    def test_every_vertex_with_many_lengths_per_class(self, row):
        spec = CompanionSpec(len(row), row)
        e = local_exponents_from_last(spec)
        assert [formulas.exponent_from_last(spec, j) for j in range(1, len(row) + 1)] == list(e)

    @given(primitive_rows(11, 16))
    @settings(max_examples=40, deadline=None)
    def test_every_vertex_against_powering(self, row):
        n, spec = len(row), CompanionSpec(len(row), row)
        m = companion_matrix(spec)
        for j in range(1, n + 1):
            assert max(1, formulas.exponent_from_last(spec, j)) == local_exponent(m, n, j)


class TestReportsPinned:
    @pytest.mark.parametrize("n", range(3, 15))
    def test_every_primitive_spec(self, n):
        digest = hashlib.sha256()
        for spec in primitive_specs(n):
            digest.update(report_line(spec).encode())
        assert digest.hexdigest() == REPORT_DIGESTS[n]

    def test_sampled_large_orders(self):
        rng = random.Random(20261018)
        digest = hashlib.sha256()
        for n in range(15, 65):
            for _ in range(60):
                spec = CompanionSpec(n, "1" + format(rng.getrandbits(n - 1), f"0{n - 1}b"))
                digest.update(report_line(spec, allow_oracle=False).encode())
        assert digest.hexdigest() == SAMPLED_REPORT_DIGEST


class TestBitmaskVertexRules:
    """The paper's vertex rules, through the set-based predicates in helpers, on the residue fold
    and on the bitmask reach-set walk from vertex n (exp(1 -> j) = n - 1 + e(n -> j))."""

    @settings(max_examples=200, deadline=None)
    @given(zero_trace_primitive_specs())
    def test_matches_set_based_rules(self, spec):
        row, n = spec.row_string, spec.n
        fold = from_vertex_1(spec)
        for j in range(1, n + 1):
            assert fold(j) == n - 1 + helpers.local_exponent_from_last(row, j)
            assert_vertex_rules(row, j, fold)
        assert fold(1) == n + conductor(cycle_lengths(spec))
        if helpers.smallest_cycle(row) == 2:
            assert formulas._smallest_cycle_two(facts(spec)).value == helpers.smallest_cycle_two_value(row)

    @given(zero_trace_primitive_rows(65, 600), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_set_based_rules_past_powering(self, row, data):
        # one vertex of each kind the row has; each walk from vertex n is checked against the fold
        spec = CompanionSpec(len(row), row)
        n, fold = spec.n, from_vertex_1(spec)

        def walk(j):
            value = n - 1 + helpers.local_exponent_from_last(row, j)
            assert value == fold(j)
            return value

        kinds = {}
        for j in range(1, n + 1):
            kinds.setdefault(assert_vertex_rules(row, j, fold), []).append(j)
        for vertices in kinds.values():
            event(assert_vertex_rules(row, data.draw(st.sampled_from(vertices)), walk))
        assert walk(1) == n + conductor(cycle_lengths(spec))


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
            report = formulas._positive_trace(facts(CompanionSpec(n, "1" * n)))
            assert report.value == n
            assert report.rule == RULE_POSITIVE_TRACE

    def test_worked_example(self):
        spec = CompanionSpec(8, "10001111")
        report = formulas._positive_trace(facts(spec))
        assert report.value == 11
        assert report.detail == {"longest_zero_run": 3}
        assert oracle_exponent(companion_matrix(spec)) == 11

    def test_top_of_interval(self):
        spec = CompanionSpec(10, "1000000001")
        assert formulas._positive_trace(facts(spec)).value == 18
        assert oracle_exponent(companion_matrix(spec)) == 18

    def test_zero_trace_rejected(self):
        assert formulas._positive_trace(facts(CompanionSpec(8, "10011000"))) == (
            "positive-trace rule needs a loop at vertex n (last bit 1)")

    def test_exact_on_all_positive_trace_specs(self):
        for n in range(2, 9):
            for spec in primitive_specs(n):
                if spec.row[-1] != 1:
                    continue
                assert formulas._positive_trace(facts(spec)).value == oracle_exponent(companion_matrix(spec))

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
        report = formulas._two_cycles(facts(spec))
        assert report.value == 11
        assert report.rule == RULE_TWO_CYCLES
        assert oracle_exponent(companion_matrix(spec)) == 11

    def test_wielandt_attainment(self):
        report = formulas._two_cycles(facts(CompanionSpec(8, "11000000")))
        assert report.value == 50 == wielandt_bound(8)

    def test_loop_case_excluded(self):
        assert formulas._two_cycles(facts(CompanionSpec(8, "10000001"))) == (
            "short cycle of length 1 is the positive-trace case")

    def test_three_cycles_rejected(self):
        assert formulas._two_cycles(facts(CompanionSpec(8, "10011000"))) == (
            "two-cycle rule needs n >= 3 and exactly two cycle lengths")


class TestOriginLocalExponent:
    """exp(1 -> 1) = n + conductor(cycle lengths) for zero trace: closed walks at vertex 1 have
    length n plus a cycle-length combination, so they fill up from n + conductor on."""

    def test_worked_example(self):
        spec = CompanionSpec(8, "10011000")
        assert 8 + conductor(cycle_lengths(spec)) == from_vertex_1(spec)(1) == 20
        assert local_exponent(companion_matrix(spec), 1, 1) == 20

    def test_wielandt_spec(self):
        spec = CompanionSpec(5, "11000")
        assert 5 + conductor(cycle_lengths(spec)) == from_vertex_1(spec)(1) == 17

    def test_imprimitive_rejected(self):
        with pytest.raises(NotPrimitiveError):
            local_exponents_from_last(CompanionSpec(8, "10101010"))

    def test_exhaustive_small_orders(self):
        for n in range(3, 9):
            for spec in primitive_specs(n):
                if spec.row[-1] != 0:
                    continue
                expected = n + conductor(cycle_lengths(spec))
                assert local_exponent(companion_matrix(spec), 1, 1) == from_vertex_1(spec)(1) == expected

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
    """A walk into a zero vertex j passes its anchor, the support vertex below it, `offset` steps
    earlier, so exp(1 -> j) = exp(1 -> j - offset) + offset."""

    def test_offsets(self):
        row = "10011000"
        assert helpers.support_offset(row, 7) == helpers.support_offset(row, 3) == 2
        fold = from_vertex_1(CompanionSpec(8, row))
        assert (fold(7), fold(3)) == (fold(5) + 2, fold(1) + 2) == (18, 22)

    def test_consistency_with_oracle(self):
        spec = CompanionSpec(8, "10011000")
        m = companion_matrix(spec)
        assert local_exponent(m, 1, 7) == local_exponent(m, 1, 5) + 2 == 18

    def test_reduction_identity_everywhere(self):
        for n in range(3, 9):
            for spec in primitive_specs(n):
                if spec.row[-1] != 0:
                    continue
                m, fold = companion_matrix(spec), from_vertex_1(spec)
                for j in sorted(vertex_partition(spec).zeros):
                    anchor = j - helpers.support_offset(spec.row_string, j)
                    assert local_exponent(m, 1, j) == fold(j) == fold(anchor) + j - anchor
                    assert local_exponent(m, 1, anchor) == fold(anchor)


class TestSpecialVertex:
    """A support vertex j is special when the window [j - l + 1, j] of smallest-cycle length l
    lies in the support; walks from vertex 1 then reach j at every length >= n."""

    # support {1..5} of order 8: smallest cycle length l = 4
    FRONT = CompanionSpec(8, "11111000")

    def test_window_boundaries(self):
        row = self.FRONT.row_string
        assert helpers.special_vertex(row, 4)  # j = l: the window starts at vertex 1
        assert not helpers.special_vertex(row, 3)  # j = l - 1: the window sticks out past vertex 1
        assert helpers.special_vertex(row, 5)
        assert not helpers.special_vertex(row, 6)  # vertex 6 is a zero
        assert not any(helpers.special_vertex(row, j) for j in (0, -1, -5))  # no window ends at or below 0
        fold = from_vertex_1(self.FRONT)
        assert [fold(j) for j in range(1, 9)] == [12, 12, 12, 8, 8, 9, 10, 11]

    def test_wide_spec(self):
        row = WIDE_SPEC.row_string
        assert helpers.special_vertex(row, 2)
        assert local_exponent(companion_matrix(WIDE_SPEC), 1, 2) == from_vertex_1(WIDE_SPEC)(2) == 16
        assert not helpers.special_vertex(row, 15)

    def test_window_leaving_range(self):
        # smallest cycle length 4: the window for j=1 sticks out past vertex 1
        assert not helpers.special_vertex("10011000", 1)

    def test_special_forces_local_exponent_n(self):
        for n in range(4, 9):
            for spec in primitive_specs(n):
                if spec.row[-1] != 0:
                    continue
                m, fold = companion_matrix(spec), from_vertex_1(spec)
                for j in sorted(vertex_partition(spec).support):
                    if helpers.special_vertex(spec.row_string, j):
                        assert local_exponent(m, 1, j) == fold(j) == n


class TestGapRule:
    """At a non-special support vertex j >= l, with gap the largest backstep p < l from j onto a
    zero vertex, exp(1 -> j) >= n + gap; when the vertex under the gap (backstep gap + 1) is
    special the value is pinned to n + gap + 1.

    A walk of length n + gap would have to make its final jump at a support vertex j - p with
    the leftover gap - p a positive cycle combination below l, which cannot exist, while the
    special vertex under the gap delivers every length from n + gap + 1 up.
    """

    def test_exact_case(self):
        assert helpers.gap_rule(WIDE_SPEC.row_string, 4) == (17, 18)
        assert local_exponent(companion_matrix(WIDE_SPEC), 1, 4) == from_vertex_1(WIDE_SPEC)(4) == 18

    def test_open_case(self):
        spec = CompanionSpec(8, "10011000")
        assert helpers.gap_rule(spec.row_string, 5) == (11, None)
        assert local_exponent(companion_matrix(spec), 1, 5) == from_vertex_1(spec)(5) == 16

    def test_shift_of_unrepresentable_values(self):
        # a local exponent that is not a cycle combination shifts up along
        # consecutive support vertices
        spec = CompanionSpec(8, "10011000")
        m = companion_matrix(spec)
        assert local_exponent(m, 1, 4) == 15
        assert local_exponent(m, 1, 5) == 16

    @pytest.mark.parametrize("row, j, expected", [
        ("10111000", 4, (10, None)),  # j = l; the vertex under the gap is 1, whose window sticks out
        ("10111000", 5, (11, None)),  # the lowest vertex under a gap: 1, since vertex 1 is never a zero
        ("111011100", 5, (10, 11)),  # the vertex under the gap is l = 3, its window starts at vertex 1
    ])
    def test_window_boundaries(self, row, j, expected):
        spec = CompanionSpec(len(row), row)
        assert helpers.gap_rule(row, j) == expected
        bound, exact = expected
        truth = local_exponent(companion_matrix(spec), 1, j)
        assert truth == from_vertex_1(spec)(j)
        assert truth == exact if exact else truth >= bound

    def test_sound_everywhere(self):
        for n in range(4, 9):
            for spec in primitive_specs(n):
                if spec.row[-1] != 0:
                    continue
                row, m, fold = spec.row_string, companion_matrix(spec), from_vertex_1(spec)
                for j in sorted(vertex_partition(spec).support):
                    assert local_exponent(m, 1, j) == fold(j)
                    assert_vertex_rules(row, j, fold)


class TestBlockPrefix:
    def test_prefix_not_longest_falls_through(self):
        assert formulas._block_prefix(facts(CompanionSpec(5, "11000"))) == (
            "the zero run starting at vertex 2 must be a longest one")

    def test_worked_example_order_seven(self):
        spec = CompanionSpec(7, "1001100")
        report = formulas._block_prefix(facts(spec))
        assert report.value == 15
        assert report.detail == {"conductor": 6, "longest_zero_run": 2}
        assert oracle_exponent(companion_matrix(spec)) == 15

    def test_worked_example_order_six(self):
        spec = CompanionSpec(6, "100110")
        report = formulas._block_prefix(facts(spec))
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
                assert formulas._block_prefix(facts(spec)).value == oracle_exponent(companion_matrix(spec))


class TestSmallestCycleTwo:
    def test_wide_spec(self):
        report = formulas._smallest_cycle_two(facts(WIDE_SPEC))
        assert report.value == 22 == oracle_exponent(companion_matrix(WIDE_SPEC))
        assert report.detail == {"smallest_odd_cycle": 5}

    def test_odd_order_membership_witness(self):
        # support {1, 6, 14} realizes 33 = 2*15 - 1 + 2*2 at order 15
        spec = CompanionSpec(15, "100001000000010")
        report = formulas._smallest_cycle_two(facts(spec))
        assert report.value == 33
        assert oracle_exponent(companion_matrix(spec)) == 33

    def test_even_orders_capped(self):
        for n in range(4, 11, 2):
            for spec in primitive_specs(n):
                if spec.row[-1] != 0 or cycle_lengths(spec)[0] != 2:
                    continue
                assert formulas._smallest_cycle_two(facts(spec)).value <= 2 * n - 2

    def test_requires_smallest_cycle_two(self):
        assert formulas._smallest_cycle_two(facts(CompanionSpec(8, "10011000"))) == "rule needs smallest cycle length 2"

    def test_requires_order_four(self):
        assert formulas._smallest_cycle_two(facts(CompanionSpec(3, "110"))) == "rule needs n >= 4"

    @given(smallest_cycle_two_rows(25, 200))
    @settings(max_examples=100, deadline=None)
    def test_matches_set_based_value_past_order_24(self, row):
        spec = CompanionSpec(len(row), row)
        assert formulas._smallest_cycle_two(facts(spec)).value == helpers.smallest_cycle_two_value(row)

    def test_parity_row_in_linear_time(self):
        # support {1} and the even vertices: every odd backstep from an even j
        # reaches back to vertex 1, the case a scan over backsteps makes cubic
        n = 8001
        row = "".join("1" if v == 1 or v % 2 == 0 else "0" for v in range(1, n + 1))
        start = time.perf_counter()
        report = exponent(CompanionSpec(n, row))
        assert time.perf_counter() - start < 0.5
        assert (report.rule, report.value) == (RULE_SMALLEST_CYCLE_2, 2 * n - 1)
        assert report.detail == {"smallest_odd_cycle": n}


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
                assert oracle_exponent(m) == max(local_exponent_table(m).values[0])
