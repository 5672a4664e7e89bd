"""Counting formulas, string statistics, and the exponent census."""

import hashlib
import json
from collections import Counter

import pytest

from companion_exponents import (
    CompanionSpec,
    DispatchMismatchError,
    companion_matrix,
    block_prefix_upper_count,
    census,
    count_imprimitive,
    count_positive_trace_with_exponent,
    count_primitive,
    exponent,
    f_strings,
    gap_progression_exponent_claim,
    is_primitive,
    list_imprimitive,
    longest_run,
    oracle_exponent,
    string_count_table,
    t_runs,
    two_coprime_exponent_claim,
    vertex_partition,
)
from companion_exponents import counting, formulas, oracle
from companion_exponents.counting import (
    MAX_IMPRIMITIVE_LIST_ORDER,
    MAX_IMPRIMITIVE_ORDER,
    MAX_RUN_AVOIDING_LENGTH,
    MAX_STRING_TABLE_LENGTH,
)
from helpers import (
    binary_strings,
    bit_slice,
    division_census_walk,
    irreducible_rows,
    longest_zero_run,
    longest_zero_run_histograms,
    row_cycle_gcd,
    with_row_exponent,
)

KNOWN_IMPRIMITIVE_TAILS_8 = {
    "0000000", "0100000", "0001000", "0000010",
    "0101000", "0100010", "0001010", "0101010",
}

# SHA-256 of census(n).to_csv() and .to_json() as the rule-dispatch census
# produced them; the JSON digest also pins tool_version.
CENSUS_DIGESTS = {
    3: (
        "38a15b2ed04ddaba24535b9d59c78d9bd6b9f9f9741dd63787c92be7dcc86403",
        "2404119c031e903f246e4c54694adf1d6f5aa2666746d4c2fd0dff5f545f23ca",
    ),
    4: (
        "c83edce62d6063baa4c97aa050985d7cc159f19a25a040cc8e471b0c91eaed12",
        "44e585b4efb51e3992c58de1e8882e8870f5b58383e1089f1ae7a195a2940fb6",
    ),
    5: (
        "7ff9af58d2cd805d2091973e702a0d05d47bcad87a489e3d099adf15c4e914b8",
        "20163c905d476b7cd5752a0c90843cc339c55b37896f968b92a5a37855591cb0",
    ),
    6: (
        "ff525b13e8ea57577fc7cfaaf270149d9f597c5ee314d94db41555d451e23b0e",
        "a49573f57ef839d3116d95142d8c799e0968771bf6fc60bb27e67352eca315d8",
    ),
    7: (
        "0a0e73e6ff850856c28a7ad4b7c152916f984574345c602f2b633414900c6eaa",
        "bf29a203dc2eb804e9d4f396490df67ec4b398d2604abf6fd6cb4d4ebc0e7d62",
    ),
    8: (
        "4912389883046063c8db678f5862d25778e94cbb77cbd7091ca6b00f6e820753",
        "96fe9bdfa1c9b66bede556516349032d4ef0c459ebb4ca1e4b97303fd33fc0e0",
    ),
    9: (
        "47aa6d47d0321969b89d24805dee1e7f9880fe84347445fefddf5832205fd54c",
        "6e36907cf48c741674f5f9bb260efad7a980c0f2bdf7960acea46ed12d788396",
    ),
    10: (
        "9f6abb13bf23ca14f31707102480adfc0cfd654711edc81025843e7f1265b03e",
        "edf52251460b0cd349f5b0890001ba44aecf0efda849b58f20b017fdd493d0ed",
    ),
    11: (
        "4bab991e4df9f5379979b280cc4dd55c7a9ded95faa0c9d83c47af558a6c8fa1",
        "8828d24bfc482a1ef21da50bc588e2f0aab86ece0a49fd866099c597653dd6c1",
    ),
    12: (
        "407acb01f956d42a0f8965ab3fa4111fe2b98902b9ea3188d73e3a9c0ec506df",
        "983dab7e1255b83c69d8ad8e88a2dcb1e584b7f80279ef491767d1b674fe5417",
    ),
    13: (
        "84917bac06a925ad315306e6b4cc057da820b493df39fe9462e13dc03b8d7109",
        "8fa5db5c28e74514a808b61cd5274cea7f9fd75964a030cdb21709e30c260516",
    ),
    14: (
        "caa69f078b183587935f726e9e64afa97d9ca306700ee46077b412adeaa07147",
        "0f0d0a69f22ed056709e8ff043879ddf7e62b56c05ff2b3e3c56f5086e86bf51",
    ),
    15: (
        "569a23c584c3964809e8939f79def409319b75606012147e626b7a035340dadb",
        "f0d79091338ee4ef312bcc843c3205fceeb78f51eab47bf047af9368ff27ed5b",
    ),
    16: (
        "fda41360558f477c0526e902c101035e681377e6812fd2310c9f7a7454863eb4",
        "1c13e3391b5bd0c6cb1826af8fcc756251f39db4cf6d063102e4ff364ae2671a",
    ),
}


class TestImprimitiveCounts:
    def test_inclusion_exclusion_values(self):
        assert count_imprimitive(8) == 8
        assert count_imprimitive(10) == 17
        assert count_imprimitive(7) == 1

    def test_rejects_small_order(self):
        with pytest.raises(ValueError):
            count_imprimitive(2)

    def test_order_cap(self):
        assert count_imprimitive(MAX_IMPRIMITIVE_ORDER) > 0
        assert len(str(count_imprimitive(MAX_IMPRIMITIVE_ORDER))) <= 4300
        for n in (MAX_IMPRIMITIVE_ORDER + 1, 10**12):
            with pytest.raises(ValueError, match="MAX_IMPRIMITIVE_ORDER"):
                count_imprimitive(n)

    def test_list_matches_gcd_filter(self):
        for n in range(3, 17):
            assert list_imprimitive(n) == [row for row in irreducible_rows(n) if row_cycle_gcd(row) > 1]

    def test_list_order_cap(self):
        assert len(list_imprimitive(MAX_IMPRIMITIVE_LIST_ORDER)) == count_imprimitive(MAX_IMPRIMITIVE_LIST_ORDER)
        with pytest.raises(ValueError, match=str(MAX_IMPRIMITIVE_LIST_ORDER)):
            list_imprimitive(MAX_IMPRIMITIVE_LIST_ORDER + 1)

    def test_list_order_eight(self):
        rows = list_imprimitive(8)
        assert len(rows) == 8
        assert all(row.startswith("1") for row in rows)
        assert {row[1:] for row in rows} == KNOWN_IMPRIMITIVE_TAILS_8

    def test_list_order_seven(self):
        assert list_imprimitive(7) == ["1000000"]

    def test_list_matches_formula(self):
        for n in range(3, 15):
            assert len(list_imprimitive(n)) == count_imprimitive(n)

    def test_count_primitive(self):
        assert count_primitive(8) == 120
        assert count_primitive(10) == 495
        assert count_primitive(3) == 3


class TestStringCounts:
    def test_exact_set_worked_example(self):
        members = {s for s in binary_strings(6)
                   if s.count("0") == 4 and longest_zero_run(s) == 2}
        assert members == {"100100", "010100", "010010", "001100", "001010", "001001"}
        assert f_strings(6, 4, 2) == 6

    def test_all_ones_bucket(self):
        assert f_strings(6, 0, 0) == 1
        assert f_strings(0, 0, 0) == 1

    def test_length_cap(self):
        for call in (lambda: string_count_table(MAX_STRING_TABLE_LENGTH + 1),
                     lambda: f_strings(MAX_STRING_TABLE_LENGTH + 1, 3, 2)):
            with pytest.raises(ValueError, match="MAX_STRING_TABLE_LENGTH"):
                call()

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError, match="length must be >= 0, got -1"):
            string_count_table(-1)

    def test_out_of_range_zero(self):
        assert f_strings(-1, 0, 0) == 0
        assert f_strings(6, 7, 2) == 0
        assert f_strings(6, 2, 3) == 0
        assert f_strings(6, 3, -1) == 0

    def test_sums_to_power_of_two(self):
        for n in range(0, 13):
            table = string_count_table(n)
            total = sum(table.count(x, k) for x in range(n + 1) for k in range(n + 1))
            assert total == 1 << n

    def test_matches_enumeration(self):
        for n in range(0, 13):
            brute = Counter(
                (s.count("0"), longest_zero_run(s)) for s in binary_strings(n)
            )
            for x in range(n + 1):
                for k in range(x + 1):
                    assert f_strings(n, x, k) == brute.get((x, k), 0)


class TestRunAvoidance:
    def test_exact_set_worked_example(self):
        members = {s for s in binary_strings(3) if "11" not in s}
        assert members == {"000", "101", "001", "100", "010"}
        assert t_runs(2, 3) == 5

    def test_fibonacci_step(self):
        assert t_runs(2, 4) == 8

    def test_short_strings_unconstrained(self):
        for r in range(2, 6):
            for n in range(0, r):
                assert t_runs(r, n) == 1 << n

    def test_rejects_run_below_two(self):
        with pytest.raises(ValueError):
            t_runs(1, 5)

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError, match="length must be >= 0, got -1"):
            t_runs(2, -1)

    def test_matches_enumeration(self):
        for n in range(0, 12):
            for r in range(2, max(6, n + 3)):
                brute = sum(1 for s in binary_strings(n) if "1" * r not in s)
                assert t_runs(r, n) == brute

    def test_matches_trailing_ones_dp(self):
        # counts[c]: strings so far ending in exactly c ones, c < r
        for r in range(2, 45):
            counts = [1] + [0] * (r - 1)
            for n in range(60):
                assert t_runs(r, n) == sum(counts)
                counts = [sum(counts)] + counts[:-1]

    def test_length_cap(self):
        assert t_runs(2, MAX_RUN_AVOIDING_LENGTH) > 0
        assert t_runs(MAX_RUN_AVOIDING_LENGTH + 1, MAX_RUN_AVOIDING_LENGTH) == 1 << MAX_RUN_AVOIDING_LENGTH
        for r in (2, MAX_RUN_AVOIDING_LENGTH + 2):
            with pytest.raises(ValueError, match="MAX_RUN_AVOIDING_LENGTH"):
                t_runs(r, MAX_RUN_AVOIDING_LENGTH + 1)


class TestPositiveTraceCounts:
    def test_worked_example(self):
        assert count_positive_trace_with_exponent(8, 11) == 12
        assert sum(f_strings(6, x, 3) for x in range(3, 7)) == 12

    def test_minimum_exponent_unique(self):
        for n in range(3, 9):
            assert count_positive_trace_with_exponent(n, n) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            count_positive_trace_with_exponent(8, 15)
        with pytest.raises(ValueError):
            count_positive_trace_with_exponent(8, 7)

    def test_rejects_small_order(self):
        with pytest.raises(ValueError, match="order must be >= 3, got 2"):
            count_positive_trace_with_exponent(2, 2)

    def test_order_cap(self):
        n = MAX_RUN_AVOIDING_LENGTH + 2
        assert count_positive_trace_with_exponent(n, 2 * (n - 1)) == 1
        with pytest.raises(ValueError, match="MAX_RUN_AVOIDING_LENGTH"):
            count_positive_trace_with_exponent(n + 1, n + 1)

    def test_matches_longest_zero_run_scan(self):
        hists = longest_zero_run_histograms(MAX_STRING_TABLE_LENGTH)
        for m in range(0, 13):
            assert hists[m] == Counter(longest_zero_run(s) for s in binary_strings(m))
        for m in range(0, 25):
            table = string_count_table(m)
            assert hists[m] == Counter({k: sum(table.count(x, k) for x in range(k, m + 1)) for k in range(m + 1)})
        for n in range(3, MAX_STRING_TABLE_LENGTH + 3):
            for t in range(n, 2 * (n - 1) + 1):
                assert count_positive_trace_with_exponent(n, t) == hists[n - 2][t - n]

    def test_matches_census_slice(self, census_cache):
        for n in range(3, 11):
            actual = Counter(
                exponent(spec).value
                for spec in (CompanionSpec(n, row) for row in irreducible_rows(n))
                if spec.row[-1] == 1 and is_primitive(spec)
            )
            for t in range(n, 2 * (n - 1) + 1):
                assert count_positive_trace_with_exponent(n, t) == actual.get(t, 0)
            assert sum(actual.values()) == sum(
                count_positive_trace_with_exponent(n, t)
                for t in range(n, 2 * (n - 1) + 1)
            )


class TestBlockPrefixUpperCount:
    def test_order_three_single_term(self):
        assert block_prefix_upper_count(3) == 1

    def test_bounds_enumeration(self):
        # the sum stays an upper bound; it is not attained even at prime
        # orders because it ignores the fixed zero at vertex n
        for n in range(5, 12):
            qualifying = 0
            for row in irreducible_rows(n):
                spec = CompanionSpec(n, row)
                if not is_primitive(spec) or spec.row[-1] != 0:
                    continue
                part = vertex_partition(spec)
                run = longest_run(part.zeros)
                if all(v in part.zeros for v in range(2, run + 2)):
                    qualifying += 1
            assert block_prefix_upper_count(n) >= qualifying

    def test_known_values(self):
        assert block_prefix_upper_count(7) == 13
        assert block_prefix_upper_count(8) == 23

    def test_rejects_small_order(self):
        with pytest.raises(ValueError, match="order must be >= 3, got 2"):
            block_prefix_upper_count(2)


class TestCensus:
    def test_order_three(self, census_cache):
        record = census_cache(3)
        assert record.exponent_set == (3, 4, 5)
        assert record.histogram == {3: 1, 4: 1, 5: 1}
        assert record.primitive_count == 3
        assert record.imprimitive_count == 1

    def test_order_eight_totals(self, census_cache):
        record = census_cache(8)
        assert record.primitive_count == 120
        assert record.imprimitive_count == 8
        assert record.total_irreducible == 128
        assert record.histogram[50] == 1
        assert record.witnesses[50] == "11000000"
        assert record.histogram[8] == 1
        assert record.witnesses[8] == "11111111"

    def test_histogram_accounts_for_everything(self, census_cache):
        for n in (5, 8, 10):
            record = census_cache(n)
            assert record.primitive_count + record.imprimitive_count == 1 << (n - 1)
            assert record.total_irreducible == 1 << (n - 1)
            assert record.exponent_set[0] == n

    def test_witnesses_attain_their_exponent(self, census_cache):
        record = census_cache(8)
        for value, row in record.witnesses.items():
            assert oracle_exponent(companion_matrix(CompanionSpec(8, row))) == value

    def test_witnesses_are_lexicographic_minima(self, census_cache):
        record = census_cache(6)
        by_value: dict[int, str] = {}
        for row in irreducible_rows(6):
            spec = CompanionSpec(6, row)
            if not is_primitive(spec):
                continue
            value = exponent(spec).value
            by_value.setdefault(value, row)
        assert record.witnesses == by_value

    def test_membership(self, census_cache):
        record = census_cache(10)
        assert record.membership(10) == (True, "1111111111")
        assert record.membership(20) == (False, None)
        assert record.membership(82) == (True, "1100000000")
        assert record.membership(83) == (False, None)

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            census(2)
        with pytest.raises(ValueError):
            census(21)

    def test_check_oracle_passes(self):
        # walk, dispatcher and powering oracle on every primitive row
        for n in range(3, 13):
            census(n, check_oracle=True)

    def test_check_oracle_mismatch_raises(self, monkeypatch):
        real_rules, real_oracle = formulas.exponent, oracle.batch_exponents

        def bumped(spec, allow_oracle=True):
            report = real_rules(spec, allow_oracle)
            return report._replace(value=report.value + 1)

        monkeypatch.setattr(formulas, "exponent", bumped)
        with pytest.raises(DispatchMismatchError,
                           match="walk gave 6, dispatch rule POSITIVE_TRACE gave 7, oracle gave 6 "):
            census(6, check_oracle=True)
        # rules and oracle agree, the walk does not
        monkeypatch.setattr(oracle, "batch_exponents",
                            lambda batch: {e + 1: mask for e, mask in real_oracle(batch).items()})
        with pytest.raises(DispatchMismatchError,
                           match="walk gave 6, dispatch rule POSITIVE_TRACE gave 7, oracle gave 7 "):
            census(6, check_oracle=True)

    @staticmethod
    def move_row(monkeypatch, row, value):
        """Make the batch oracle give `value` (None: not primitive) for one order-6 row."""
        real = oracle.batch_exponents
        y = int(row[1:], 2)
        monkeypatch.setattr(oracle, "batch_exponents", lambda batch: with_row_exponent(real(batch), y, value))

    def test_check_oracle_compares_uncovered_rows_with_walk(self, monkeypatch):
        self.move_row(monkeypatch, "101100", 14)
        with pytest.raises(DispatchMismatchError,
                           match="^walk gave 13, no closed-form rule applies, oracle gave 14 for spec 6 101100$"):
            census(6, check_oracle=True)

    def test_check_oracle_row_powering_calls_imprimitive(self, monkeypatch):
        self.move_row(monkeypatch, "101100", None)
        with pytest.raises(DispatchMismatchError,
                           match="^walk gave 13, no closed-form rule applies, oracle gave None for spec 6 101100$"):
            census(6, check_oracle=True)

    def test_check_oracle_row_only_powering_calls_primitive(self, monkeypatch):
        self.move_row(monkeypatch, "100100", 13)
        with pytest.raises(DispatchMismatchError,
                           match="^walk gave no exponent, oracle gave 13 for spec 6 100100$"):
            census(6, check_oracle=True)

    def test_check_oracle_powers_each_row_once(self, monkeypatch):
        # one batch powering per order, and no oracle.exponent call
        calls = Counter()
        real = oracle.batch_exponents

        def counted(batch):
            calls["batch", len(batch)] += 1
            return real(batch)

        monkeypatch.setattr(oracle, "batch_exponents", counted)
        monkeypatch.setattr(oracle, "exponent", lambda m: calls.update([("exponent", m.n)]))
        for n in range(3, 13):
            census(n, check_oracle=True)
        assert calls == {("batch", n): 1 for n in range(3, 13)}

    @pytest.mark.parametrize("n", range(3, 15))
    def test_powered_census_matches_walk(self, n):
        assert counting.powered_census(n) == counting._walk(n)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_powered_census_matches_batch_of_companion_matrices(self, n):
        # the row-string batch against one built entry by entry from each companion matrix
        matrices = [companion_matrix(CompanionSpec(n, row)) for row in irreducible_rows(n)]
        assert counting.powered_census(n) == oracle.batch_exponents(bit_slice(matrices))

    @pytest.mark.parametrize("n", (17, 18, 19))
    def test_walk_matches_division_masks(self, n):
        # the census digests pin orders up to 16; above that the reference walk does
        assert counting._walk(n) == division_census_walk(n)

    @pytest.mark.parametrize("n", range(3, 21))
    def test_imprimitive_count_matches_inclusion_exclusion(self, census_cache, n):
        assert census_cache(n).imprimitive_count == count_imprimitive(n)


class TestCensusSerialization:
    def test_csv_schema(self, census_cache):
        record = census_cache(6)
        lines = record.to_csv().splitlines()
        assert lines[0] == "n,exponent,count,witness_row"
        assert lines[1] == "6,6,1,111111"
        assert lines[-1] == "6,26,1,110000"
        exponents = [int(line.split(",")[1]) for line in lines[1:]]
        assert exponents == sorted(exponents)

    @pytest.mark.parametrize("n", sorted(CENSUS_DIGESTS))
    def test_bytes_pinned(self, census_cache, n):
        record = census_cache(n)
        digests = tuple(
            hashlib.sha256(text.encode()).hexdigest() for text in (record.to_csv(), record.to_json()))
        assert digests == CENSUS_DIGESTS[n]

    def test_csv_deterministic(self, census_cache):
        assert census(6).to_csv() == census_cache(6).to_csv()

    def test_json_round_trip(self, census_cache):
        record = census_cache(6)
        text = record.to_json()
        assert text.endswith("\n")
        data = json.loads(text)
        assert (data["n"], data["imprimitive_count"], tuple(data["exponent_set"])) == (
            record.n, record.imprimitive_count, record.exponent_set)
        assert {int(e): c for e, c in data["histogram"].items()} == record.histogram
        assert {int(e): w for e, w in data["witnesses"].items()} == record.witnesses

    def test_json_fields(self, census_cache):
        data = json.loads(census_cache(6).to_json())
        assert set(data) == {
            "n", "total_irreducible", "imprimitive_count", "histogram",
            "exponent_set", "witnesses", "tool_version",
        }
        assert data["n"] == 6
        assert data["total_irreducible"] == 32
        assert data["histogram"]["26"] == 1


class TestMembershipClaims:
    def test_two_coprime_values(self):
        assert two_coprime_exponent_claim(10, 4, 3) == 21
        assert two_coprime_exponent_claim(12, 5, 2) == 22
        assert two_coprime_exponent_claim(11, 4, 3) == 23

    def test_two_coprime_preconditions(self):
        with pytest.raises(ValueError):
            two_coprime_exponent_claim(10, 4, 2)          # not coprime
        with pytest.raises(ValueError, match="order 10 below the conductor"):
            two_coprime_exponent_claim(10, 5, 4)          # n - s = 5 dominates, but the conductor is 12
        with pytest.raises(ValueError, match="n - s = 3 must dominate s - t and t"):
            two_coprime_exponent_claim(10, 7, 2)          # s - t = 5 > n - s
        with pytest.raises(ValueError):
            two_coprime_exponent_claim(10, 4, 5)          # s <= t

    def test_gap_progression_values(self):
        assert gap_progression_exponent_claim(10, 4, 5) == 21

    def test_gap_progression_preconditions(self):
        with pytest.raises(ValueError):
            gap_progression_exponent_claim(10, 4, 4)      # start below smallest cycle + 1
        with pytest.raises(ValueError):
            gap_progression_exponent_claim(10, 4, 7)      # divisor would vanish
        with pytest.raises(ValueError, match=r"order 11 below q\*l = 20"):
            gap_progression_exponent_claim(11, 5, 6)      # q = 3 // 1 + 1 = 4

    def test_claims_are_census_members(self, census_cache):
        assert two_coprime_exponent_claim(10, 4, 3) in census_cache(10).histogram
        assert two_coprime_exponent_claim(11, 4, 3) in census_cache(11).histogram
        assert two_coprime_exponent_claim(12, 5, 2) in census_cache(12).histogram
        assert gap_progression_exponent_claim(10, 4, 5) in census_cache(10).histogram
