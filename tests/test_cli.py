"""CLI surface: output formats, exit codes, file emission."""

import contextlib
import hashlib
import io
import json
import os
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from companion_exponents import (
    BoolMatrix, CompanionSpec, companion_matrix, core, counting, formulas, frobenius, oracle, verify,
)
from companion_exponents.counting import (
    MAX_CENSUS_ORDER,
    MAX_CHECKED_CENSUS_ORDER,
    MAX_IMPRIMITIVE_LIST_ORDER,
    MAX_IMPRIMITIVE_ORDER,
    MAX_RUN_AVOIDING_LENGTH,
    MAX_STRING_TABLE_LENGTH,
)
from companion_exponents.frobenius import MAX_CONDUCTOR_WORK
from companion_exponents.cli import main
from companion_exponents.oracle import MAX_POWERING_ORDER
from helpers import (
    as_lists,
    first_repeated_power,
    irreducible_rows,
    local_exponent_from_last,
    longest_zero_run,
    row_cycle_gcd,
    with_row_exponent,
)

# SHA-256 of `verify --n-max n` stdout, taken before dispatch-soundness became
# a loop over the census check (order 12: before powering became one batch per
# order): its PASS lines must not change by a byte.
VERIFY_STDOUT_DIGESTS = {
    3: "2c4883de5b6f4fed73132a3046bae27ccb969e67104fd91c3770796c7c9679ef",
    4: "73c7c64f75bfac1da6ec657842d0d430434c1b0589f3980b40935bc2ad1d3140",
    5: "7a9f6e5083b3f555b22e5767079e3ef75cd87f53cc2b71729d577e8cc9458bb0",
    6: "a477b9309f48e3c5646670cf1c2dc8f76d58ef7b84e09c56fb54ad97978ed3bf",
    7: "bf99e23ee3a4956add54f73f35506fb85fe47f8167d740842ba35744d1b262e7",
    8: "e63869f9ca7f602cf63bae79a23a59fb91a43fd6175332ad1522b9f3fa3a5f54",
    9: "fff130f6546a5d3bb7ead85d841c5d972c928d166a50312ebc64c50524e3cc31",
    10: "a5f74ad7b433b26d0469168e0231105c4f81340119498f174a85d055998783c9",
    11: "9609328839c76cf402fb80085d128c4dffa1e8add180334fb9f7c2a467714b83",
    12: "348de8951d7409c41b5aec7dbf0a00f51ca8f044f30442ff17aaf742c311fcba",
}

# SHA-256 of `count-imprimitive n --list` stdout, taken while the list was
# still a gcd scan over all 2**(n-1) rows.
IMPRIMITIVE_LIST_DIGESTS = {
    3: "89ecad28e25479d2eb946d14e8d4633847426160e819333dbfb8ae7417515d06",
    4: "f4a685888cfb580202acbd00e626e1aedcc1aec2f3e38b53604298e585264771",
    5: "29c9eb9e82e1525a19a6c43edb201921c22cbaecf16b71b51d01c0e5c6c6584f",
    6: "3a0169adcb9f78a3be0efcb8eaf875ec6997b08af827e77acde49cebd9e2fabc",
    7: "2d71fd9250e00bd67405d89c8ed5b29827e63cbdbd279b2c8161ef83a790d8bc",
    8: "80a4b80939eb5da0d7c8087e234cbd39404c9e0f194758068878d52fa8dbeead",
    9: "84b6f563036238203d48089baca80bdd99438ce2828bdacac2cbd4a9173afaad",
    10: "e343164cae6b65909e5aa5ed0e6d97c82fcc46988b6b01dd09e8923bd58dbafa",
    11: "603dee76a43a4252fd94c23163ba5adb20e4f350cb30c0a8c2deb2f3b345cb9d",
    12: "352d60a4eb2f547e29c20ceb47b13cdf89970c03e35dee5cc7072419d701a829",
    13: "af28a2f73ab5f67906d35082a91ccafe7cf6a7eb8bb65906e34c1a1d0745ebdf",
    14: "35f60f3a3cf54370a5138d1d9fba94dc2d1db65fc024e42af1a2815f9df68d4b",
    15: "59ac38ffcd0de94ab72de87593e78e8437c83e8c2213533ddfaaaf97e7280efd",
    16: "baa82154c84c9d6ed66af12c0132ac63be35e0b99ce6a2c2ec905cc73dd84a25",
    17: "eac22af906aa41f0113c24a12104b5eb58390401f9cba2f1a7e63be7f4075974",
    18: "e6d57367ee579457d1b98f43554482a6a566d8f2523ea4ab3a146de277d17bfb",
    19: "c825fa0c23f31d19a898b85229a1c7be262b64f707a2f402f033a7eabb79da51",
    20: "6d1b35b0e052955380929e57f9f3a01e36b9e845e8d3a51e6317424768a814cd",
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExp:
    def test_two_cycles(self, capsys):
        code, out, _ = run(capsys, "exp", "8", "11000000")
        assert code == 0
        assert out == "exp=50 rule=TWO_CYCLES\n"

    def test_positive_trace(self, capsys):
        code, out, _ = run(capsys, "exp", "8", "11111111")
        assert code == 0
        assert out == "exp=8 rule=POSITIVE_TRACE\n"

    def test_imprimitive_exit_three(self, capsys):
        code, _, err = run(capsys, "exp", "8", "10101010")
        assert code == 3
        assert "imprimitive: gcd(L)=2" in err
        assert "2, 4, 6, 8" in err

    def test_reducible_exit_three(self, capsys):
        code, _, err = run(capsys, "exp", "8", "01111111")
        assert code == 3
        assert "reducible" in err

    @pytest.mark.parametrize("mode", ([], ["--rule-only"], ["--oracle-only"]))
    def test_not_primitive_same_in_every_mode(self, capsys, mode):
        assert run(capsys, "exp", "8", "10101010", *mode) == (
            3, "", "imprimitive: gcd(L)=2 cycle lengths {2, 4, 6, 8}\n")
        assert run(capsys, "exp", "8", "01111111", *mode) == (3, "", "reducible: last row starts with 0\n")

    @pytest.mark.parametrize("row", ("11111111", "11000000", "10011000"))
    def test_cycle_lengths_computed_once(self, capsys, monkeypatch, row):
        calls = Counter()
        original = formulas.cycle_lengths

        def counted(spec):
            calls["cycle_lengths"] += 1
            return original(spec)

        for module in (core, formulas):  # core's own callers, is_primitive among them, count too
            monkeypatch.setattr(module, "cycle_lengths", counted)
        code, _, _ = run(capsys, "exp", "8", row)
        assert code == 0
        assert calls == Counter(cycle_lengths=1)

    def test_parse_failure_exit_two(self, capsys):
        code, _, _ = run(capsys, "exp", "8", "1100")
        assert code == 2
        code, _, _ = run(capsys, "exp", "8", "1100000x")
        assert code == 2

    def test_oracle_only(self, capsys):
        code, out, _ = run(capsys, "exp", "8", "10011000", "--oracle-only")
        assert code == 0
        assert out == "exp=22 rule=ORACLE\n"

    def test_rule_only_success(self, capsys):
        code, out, _ = run(capsys, "exp", "8", "11000000", "--rule-only")
        assert code == 0
        assert out == "exp=50 rule=TWO_CYCLES\n"

    def test_rule_only_failure(self, capsys):
        code, _, err = run(capsys, "exp", "8", "10011000", "--rule-only")
        assert code == 4
        assert "no closed-form rule" in err

    def test_tail_form(self, capsys):
        code, out, _ = run(capsys, "exp", "8", "0011000", "--y")
        assert code == 0
        assert out.startswith("exp=22")

    def test_above_the_powering_cap_only_rules_answer(self, capsys):
        n = MAX_POWERING_ORDER + 1
        assert run(capsys, "exp", str(n), "11" + "0" * (n - 2)) == (0, f"exp={(n - 1) ** 2 + 1} rule=TWO_CYCLES\n", "")
        uncovered = "1101" + "0" * (n - 4)
        code, out, err = run(capsys, "exp", str(n), uncovered)
        assert (code, out) == (2, "")
        assert "MAX_POWERING_ORDER" in err
        assert run(capsys, "exp", str(n), uncovered, "--rule-only") == (4, "", "no closed-form rule applies\n")

    def test_block_prefix_row_with_repeated_classes_answers(self, capsys):
        # 98 000 cycle lengths, but only 1001 residue classes modulo a = 1001 reach the conductor:
        # every length from 1001 to 98 999 is one, so the conductor is 1001
        n = 100_000
        row = "1" + "0" * 1000 + "1" * (n - 2001) + "0" * 1000
        assert run(capsys, "exp", str(n), row) == (0, "exp=102001 rule=BLOCK_V1_PREFIX\n", "")

    def test_conductor_cap_refuses_a_rule_covered_row(self, capsys):
        # a = 2002 with all 2002 residue classes present: 2002 * 2002 is over the cap
        n = 10_000
        row = "1" + "0" * 2001 + "1" * (n - 4003) + "0" * 2001
        assert 2002 * 2002 > MAX_CONDUCTOR_WORK
        assert run(capsys, "exp", str(n), row) == (
            2, "", f"smallest generator 2002 times 2002 generators exceeds the limit {MAX_CONDUCTOR_WORK} "
            "(MAX_CONDUCTOR_WORK)\n")


class TestLocalExp:
    def test_worked_values(self, capsys):
        assert run(capsys, "local-exp", "8", "10011000", "1", "4") == (0, "15\n", "")
        assert run(capsys, "local-exp", "8", "10011000", "1", "1") == (0, "20\n", "")
        assert run(capsys, "local-exp", "16", "1101100100010010", "1", "12") == (0, "20\n", "")

    def test_vertex_out_of_range(self, capsys):
        code, _, _ = run(capsys, "local-exp", "8", "10011000", "0", "4")
        assert code == 2

    def test_imprimitive(self, capsys):
        code, _, _ = run(capsys, "local-exp", "8", "10101010", "1", "1")
        assert code == 3

    @given(st.integers(181, 400).flatmap(lambda n: st.tuples(
        st.integers(0, (1 << (n - 1)) - 1).map(lambda y: "1" + format(y, f"0{n - 1}b")),
        st.integers(1, n), st.integers(1, n))))
    @settings(max_examples=30, deadline=None)
    def test_large_orders_match_the_walk_from_n(self, drawn):
        # orders the powering oracle refuses; an imprimitive draw gets the cycle of length n - 1
        row, i, j = drawn
        n = len(row)
        if row_cycle_gcd(row) != 1:
            row = "11" + row[2:]
        code, out, err, seconds = timed_run("local-exp", str(n), row, str(i), str(j))
        assert (code, out, err) == (0, f"{max(1, n - i + local_exponent_from_last(row, j))}\n", "")
        assert seconds < 1

    def test_wielandt_row_at_order_20001(self, capsys):
        n = 20_001
        assert run(capsys, "local-exp", str(n), "11" + "0" * (n - 2), "1", "1") == (0, f"{(n - 1) ** 2 + 1}\n", "")

    def test_repeated_classes_answer(self, capsys):
        # a = 1001 and 98 000 cycle lengths in 1001 classes: the one residue pass counts classes
        n = 100_000
        row = "1" + "0" * 1000 + "1" * (n - 2001) + "0" * 1000
        for j, expected in ((1, 101_001), (50_000, 100_000), (100_000, 101_000)):
            assert run(capsys, "local-exp", str(n), row, "1", str(j)) == (0, f"{expected}\n", "")

    def test_conductor_cap_counts_classes(self, capsys):
        # a = 2001 with 2000 classes: 2001 * 2000 is over the cap
        assert run(capsys, "local-exp", "4000", "1" * 2000 + "0" * 2000, "1", "1") == (
            2, "", f"smallest generator 2001 times 2000 generators exceeds the limit {MAX_CONDUCTOR_WORK} "
            "(MAX_CONDUCTOR_WORK)\n")


class TestCensusCommand:
    def test_csv_file(self, capsys, tmp_path):
        out_path = tmp_path / "c8.csv"
        code, out, _ = run(capsys, "census", "8", "--out", str(out_path))
        assert code == 0
        assert "primitive=120" in out and "imprimitive=8" in out
        lines = out_path.read_text().splitlines()
        assert lines[0] == "n,exponent,count,witness_row"
        assert "8,50,1,11000000" in lines

    def test_json_file(self, capsys, tmp_path):
        out_path = tmp_path / "c3.json"
        code, _, _ = run(capsys, "census", "3", "--format", "json", "--out", str(out_path))
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["exponent_set"] == [3, 4, 5]

    def test_default_output_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("COMPANION_EXP_OUTDIR", str(tmp_path))
        code, _, _ = run(capsys, "census", "3")
        assert code == 0
        assert (tmp_path / "census_n3.csv").exists()

    def test_check_oracle(self, capsys, tmp_path):
        code, _, _ = run(capsys, "census", "6", "--check-oracle", "--out", str(tmp_path / "c6.csv"))
        assert code == 0

    def test_check_oracle_mismatch_exit_four(self, capsys, tmp_path, monkeypatch):
        real = formulas.exponent
        monkeypatch.setattr(
            formulas, "exponent",
            lambda spec, allow_oracle=True: real(spec, allow_oracle)._replace(
                value=real(spec, allow_oracle).value + 1))
        out_path = tmp_path / "c6.csv"
        code, _, err = run(capsys, "census", "6", "--check-oracle", "--out", str(out_path))
        assert code == 4
        assert "walk gave" in err and "oracle gave" in err
        assert not out_path.exists()

    def test_bad_order(self, capsys):
        code, _, _ = run(capsys, "census", "2")
        assert code == 2

    def test_out_into_missing_directory_exit_two(self, capsys, tmp_path, monkeypatch):
        out_path = tmp_path / "missing" / "x.csv"
        calls = []
        monkeypatch.setattr(counting, "census", lambda *args, **kwargs: calls.append(args))
        code, out, err = run(capsys, "census", "5", "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and str(out_path) in err
        assert calls == []  # refused before the walk

    def test_out_onto_a_directory_exit_two(self, capsys, tmp_path):
        # the parent exists, so the census runs; the write's OSError becomes exit 2
        code, out, err = run(capsys, "census", "3", "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith(f"cannot write {tmp_path}: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestCountImprimitive:
    def test_count(self, capsys):
        assert run(capsys, "count-imprimitive", "8") == (0, "8\n", "")

    def test_list(self, capsys):
        code, out, _ = run(capsys, "count-imprimitive", "7", "--list")
        assert code == 0
        assert out == "1\n1000000\n"

    @pytest.mark.parametrize("n", sorted(IMPRIMITIVE_LIST_DIGESTS))
    def test_list_stdout_pinned(self, capsys, n):
        code, out, _ = run(capsys, "count-imprimitive", str(n), "--list")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == IMPRIMITIVE_LIST_DIGESTS[n]



class TestFrobenius:
    def test_both_conventions_labeled(self, capsys):
        code, out, _ = run(capsys, "frobenius", "4", "5", "8")
        assert code == 0
        assert out == "conductor=12 classical_frobenius=11\n"

    def test_not_coprime_exit_two(self, capsys):
        code, _, err = run(capsys, "frobenius", "4", "6")
        assert code == 2
        assert "gcd" in err

    def test_large_pair_is_fast(self, capsys):
        code, out, _ = run(capsys, "frobenius", "30000", "30001")
        assert code == 0
        assert out == "conductor=899970000 classical_frobenius=899969999\n"

    def test_over_the_limit_exit_two(self, capsys):
        code, out, err = run(capsys, "frobenius", str(MAX_CONDUCTOR_WORK), str(MAX_CONDUCTOR_WORK + 1))
        assert code == 2
        assert out == ""
        assert str(MAX_CONDUCTOR_WORK) in err

    def test_repeated_classes_answer(self, capsys):
        # 2000 .. 4001 and 8000 leave 2000 classes modulo a = 2000, 2000 * 2000 at the cap
        assert run(capsys, "frobenius", *map(str, range(2000, 4002)), "8000") == (
            0, "conductor=2000 classical_frobenius=1999\n", "")


class TestStrings:
    def test_zero_run_counts(self, capsys):
        assert run(capsys, "strings", "f", "6", "4", "2") == (0, "6\n", "")

    def test_run_avoidance_counts(self, capsys):
        assert run(capsys, "strings", "t", "2", "3") == (0, "5\n", "")

    def test_run_longer_than_strings(self, capsys):
        assert run(capsys, "strings", "t", "1000000000", "5") == (0, "32\n", "")

    def test_lengths_over_the_caps_exit_two(self, capsys):
        for argv, cap in ((("t", "2", str(MAX_RUN_AVOIDING_LENGTH + 1)), "MAX_RUN_AVOIDING_LENGTH"),
                          (("t", str(MAX_RUN_AVOIDING_LENGTH + 2), str(MAX_RUN_AVOIDING_LENGTH + 1)),
                           "MAX_RUN_AVOIDING_LENGTH"),
                          (("f", str(MAX_STRING_TABLE_LENGTH + 1), "3", "2"), "MAX_STRING_TABLE_LENGTH")):
            code, out, err = run(capsys, "strings", *argv)
            assert (code, out) == (2, "")
            assert cap in err

    def test_longest_run_avoidance_answer_prints(self, capsys):
        code, out, _ = run(capsys, "strings", "t", "2", str(MAX_RUN_AVOIDING_LENGTH))
        assert code == 0
        assert len(out.strip()) <= 4300

    def test_wrong_arity(self, capsys):
        code, _, _ = run(capsys, "strings", "f", "6", "4")
        assert code == 2
        code, _, _ = run(capsys, "strings", "t", "2", "3", "4")
        assert code == 2


def timed_run(*argv):
    """(exit code, stdout, stderr, seconds) of one CLI call; usable under Hypothesis."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def above(cap):
    return st.one_of(st.integers(cap + 1, cap + 100), st.integers(cap + 1, 10**18))


class TestCountingCapsExitTwo:
    """Just above each counting cap the CLI exits 2 at once, naming the constant."""

    @given(above(MAX_IMPRIMITIVE_ORDER), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_count_imprimitive(self, n, listed):
        code, out, err, seconds = timed_run("count-imprimitive", str(n), *(["--list"] if listed else []))
        assert (code, out) == (2, "")
        assert "MAX_IMPRIMITIVE_ORDER" in err
        assert seconds < 1

    @given(st.integers(MAX_IMPRIMITIVE_LIST_ORDER + 1, MAX_IMPRIMITIVE_ORDER))
    @settings(max_examples=30, deadline=None)
    def test_list_imprimitive(self, n):
        code, out, err, seconds = timed_run("count-imprimitive", str(n), "--list")
        assert (code, out) == (2, "")
        assert f"[3, {MAX_IMPRIMITIVE_LIST_ORDER}]" in err
        assert seconds < 1

    @given(st.integers(2, 10**18), above(MAX_RUN_AVOIDING_LENGTH))
    @settings(max_examples=30, deadline=None)
    def test_t_runs(self, r, n):
        code, out, err, seconds = timed_run("strings", "t", str(r), str(n))
        assert (code, out) == (2, "")
        assert "MAX_RUN_AVOIDING_LENGTH" in err
        assert seconds < 1

    @given(above(MAX_STRING_TABLE_LENGTH), st.integers(-5, 10**18), st.integers(-5, 10**18))
    @settings(max_examples=30, deadline=None)
    def test_f_strings(self, n, x, k):
        code, out, err, seconds = timed_run("strings", "f", str(n), str(x), str(k))
        assert (code, out) == (2, "")
        assert "MAX_STRING_TABLE_LENGTH" in err
        assert seconds < 1


def primitive_rows(min_order):
    """(n, row) above min_order with a positive trace, so the row is primitive."""
    return st.integers(min_order, min_order + 200).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << (n - 2)) - 1).map(
            lambda y: "1" + format(y, f"0{n - 2}b") + "1")))


class TestOracleCensusAndConductorCapsExitTwo:
    """Just above the oracle, census and conductor caps the CLI exits 2 at once, naming the constant."""

    @given(primitive_rows(MAX_POWERING_ORDER + 1))
    @settings(max_examples=30, deadline=None)
    def test_powering(self, spec):
        n, row = spec
        code, out, err, seconds = timed_run("exp", str(n), row, "--oracle-only")
        assert (code, out) == (2, "")
        assert "MAX_POWERING_ORDER" in err
        assert seconds < 1

    @given(st.integers(MAX_CHECKED_CENSUS_ORDER + 1, MAX_CENSUS_ORDER), st.sampled_from(("csv", "json")))
    @settings(max_examples=30, deadline=None)
    def test_checked_census(self, n, fmt):
        code, out, err, seconds = timed_run("census", str(n), "--check-oracle", "--format", fmt, "--out", os.devnull)
        assert (code, out) == (2, "")
        assert "MAX_CHECKED_CENSUS_ORDER" in err
        assert seconds < 1

    @given(above(MAX_CENSUS_ORDER), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_census(self, n, checked):
        code, out, err, seconds = timed_run("census", str(n), *(["--check-oracle"] if checked else []),
                                            "--out", os.devnull)
        assert (code, out) == (2, "")
        assert "MAX_CENSUS_ORDER" in err
        assert seconds < 1

    @given(st.integers(2, 4).flatmap(lambda u: st.tuples(st.just(u), above(MAX_CONDUCTOR_WORK // u))))
    @settings(max_examples=30, deadline=None)
    def test_conductor(self, drawn):
        u, a = drawn
        code, out, err, seconds = timed_run("frobenius", *(str(a + d) for d in range(u)))
        assert (code, out) == (2, "")
        assert "MAX_CONDUCTOR_WORK" in err
        assert seconds < 1


class TestRefusalsBuildNoMatrix:
    """Above the powering and conductor caps the CLI refuses before it builds the O(n**2)-bit matrix."""

    N = 20_000
    LOWER_HALF = "1" * (N // 2) + "0" * (N // 2)  # no rule covers it

    @staticmethod
    def peak_run(*argv):
        tracemalloc.start()
        try:
            code, out, err, _ = timed_run(*argv)
            return code, out, err, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("argv, cap", [
        (("exp", str(N), LOWER_HALF), f"MAX_POWERING_ORDER = {MAX_POWERING_ORDER}"),
        (("exp", str(N), LOWER_HALF, "--oracle-only"), f"MAX_POWERING_ORDER = {MAX_POWERING_ORDER}"),
    ])
    def test_small_peak(self, argv, cap):
        code, out, err, peak = self.peak_run(*argv)
        assert (code, out, err) == (2, "", f"order {self.N} above {cap}\n")
        assert peak < 2_000_000

    def test_local_exp_over_the_conductor_cap_small_peak(self):
        # |support| * l = 10 000 * 10 001: refused before the residue table is allocated
        code, out, err, peak = self.peak_run("local-exp", str(self.N), self.LOWER_HALF, "1", str(self.N))
        assert (code, out, err) == (2, "", f"smallest generator {self.N // 2 + 1} times {self.N // 2} generators "
                                    f"exceeds the limit {MAX_CONDUCTOR_WORK} (MAX_CONDUCTOR_WORK)\n")
        assert peak < 2_000_000

    def test_gcd_refusal_comes_first(self, capsys):
        n, row = str(self.N), "10" * (self.N // 2)
        message = f"imprimitive: gcd(L)=2 cycle lengths {{{', '.join(map(str, range(2, self.N + 1, 2)))}}}\n"
        for argv in (("exp", n, row), ("exp", n, row, "--oracle-only"), ("local-exp", n, row, "1", "1")):
            assert run(capsys, *argv) == (3, "", message)

    def test_local_exp_gcd_refusal_comes_before_the_conductor_cap(self, capsys):
        # support on the odd vertices below N / 2: every cycle length is even, and |support| * l = 5000 * 10 002
        row = "10" * (self.N // 4) + "0" * (self.N // 2)
        lengths = range(self.N // 2 + 2, self.N + 1, 2)
        assert run(capsys, "local-exp", str(self.N), row, "1", "1") == (
            3, "", f"imprimitive: gcd(L)=2 cycle lengths {{{', '.join(map(str, lengths))}}}\n")


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 8
        assert all(line.startswith("PASS ") for line in lines)

    def test_rejects_large_order(self, capsys):
        code, _, _ = run(capsys, "verify", "--n-max", "13")
        assert code == 2

    @staticmethod
    def failed_families(out):
        lines = out.strip().splitlines()
        assert len(lines) == 8
        return [line for line in lines if not line.startswith("PASS ")]

    def test_dispatch_failure_exit_four(self, capsys, monkeypatch):
        real = formulas.exponent

        def off_by_one(spec, allow_oracle=True):
            report = real(spec, allow_oracle)
            if (spec.n, spec.row_string) != (6, "110000"):
                return report
            return report._replace(value=report.value + 1)

        monkeypatch.setattr(formulas, "exponent", off_by_one)
        code, out, _ = run(capsys, "verify", "--n-max", "6")
        assert code == 4
        assert self.failed_families(out) == [
            "FAIL dispatch-soundness: walk gave 26, dispatch rule TWO_CYCLES gave 27, "
            "oracle gave 26 for spec 6 110000"]

    def test_local_exponent_maxima_failure_exit_four(self, capsys, monkeypatch):
        real = formulas.local_exponents_from_last

        def off_by_one(spec):
            values = real(spec)
            return values if (spec.n, spec.row_string) != (6, "110000") else tuple(e + 1 for e in values)

        monkeypatch.setattr(formulas, "local_exponents_from_last", off_by_one)
        code, out, _ = run(capsys, "verify", "--n-max", "6")
        assert code == 4
        assert self.failed_families(out) == [
            "FAIL local-exponent-maxima: 6 110000: exp=26 max_local=26 from_last=27"]

    def test_published_local_exponent_failure_exit_four(self, capsys, monkeypatch):
        real = oracle.local_exponent
        monkeypatch.setattr(oracle, "local_exponent", lambda m, i, j: real(m, i, j) + (m.n == 16 and j == 12))
        code, out, _ = run(capsys, "verify", "--n-max", "3")
        assert code == 4
        assert self.failed_families(out) == [
            "FAIL local-exponent-maxima: 16 1101100100010010: exp(1 -> 12) in [20, 21], published 20"]

    @staticmethod
    def move_row(monkeypatch, row, value):
        """Make the batch oracle give `value` for one row of its order."""
        real = oracle.batch_exponents
        y = int(row[1:], 2)
        monkeypatch.setattr(
            oracle, "batch_exponents",
            lambda batch: with_row_exponent(real(batch), y, value) if len(batch) == len(row) else real(batch))

    def test_oracle_failure_on_uncovered_row_exit_four(self, capsys, monkeypatch):
        self.move_row(monkeypatch, "101100", 14)
        code, out, _ = run(capsys, "verify", "--n-max", "6")
        assert code == 4
        assert ("FAIL dispatch-soundness: walk gave 13, no closed-form rule applies, "
                "oracle gave 14 for spec 6 101100") in self.failed_families(out)

    @pytest.mark.parametrize("n_max", sorted(VERIFY_STDOUT_DIGESTS))
    def test_stdout_pinned(self, capsys, n_max):
        code, out, _ = run(capsys, "verify", "--n-max", str(n_max))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_STDOUT_DIGESTS[n_max]

    def test_primitivity_failure_exit_four(self, capsys, monkeypatch):
        # the census check shares the batch, so dispatch-soundness sees the extra row too
        self.move_row(monkeypatch, "100100", 13)
        code, out, _ = run(capsys, "verify", "--n-max", "6")
        assert code == 4
        assert self.failed_families(out) == [
            "FAIL primitivity: gcd test and power test disagree on 6 100100",
            "FAIL dispatch-soundness: walk gave no exponent, oracle gave 13 for spec 6 100100"]

    @staticmethod
    def move_walk_row(monkeypatch, row, value):
        """Make the census walk give `value` for one row of its order."""
        real = counting._walk
        y = int(row[1:], 2)
        monkeypatch.setattr(
            counting, "_walk", lambda n: with_row_exponent(real(n), y, value) if n == len(row) else real(n))

    def test_counting_reads_the_walk(self, capsys, monkeypatch):
        # a positive-trace row of exponent 10 (longest zero run 4) moved to 9
        self.move_walk_row(monkeypatch, "100001", 9)
        code, out, _ = run(capsys, "verify", "--n-max", "6")
        assert code == 4
        assert self.failed_families(out) == [
            "FAIL dispatch-soundness: walk gave 9, dispatch rule POSITIVE_TRACE gave 10, "
            "oracle gave 10 for spec 6 100001",
            "FAIL counting: positive-trace count off at n=6, t=9"]

    def test_membership_reads_the_walk(self, capsys, monkeypatch):
        # two smallest-cycle-2 rows (exponents 17 and 12) moved past the top of [7, 17]:
        # membership names the lower row, dispatch-soundness the lower exponent
        self.move_walk_row(monkeypatch, "1000010", 19)
        self.move_walk_row(monkeypatch, "1000110", 18)
        code, out, _ = run(capsys, "verify", "--n-max", "7")
        assert code == 4
        assert self.failed_families(out) == [
            "FAIL dispatch-soundness: walk gave 18, dispatch rule SMALLEST_CYCLE_2 gave 12, "
            "oracle gave 12 for spec 7 1000110",
            "FAIL membership: smallest-cycle-2 exponent 19 outside [7, 17] at 1000010"]

    def test_cycle_lengths_failure_exit_four(self, capsys, monkeypatch):
        # the smallest length dropped: the largest is still n, but there is one length fewer than support vertices
        real = verify.cycle_lengths
        monkeypatch.setattr(verify, "cycle_lengths",
                            lambda spec: real(spec)[1:] if spec.row_string == "110010" else real(spec))
        code, out, _ = run(capsys, "verify", "--n-max", "6")
        assert code == 4
        assert self.failed_families(out) == ["FAIL cycle-structure: bad lengths for 6 110010"]

    @pytest.mark.parametrize("row", ["100100", "110010"])
    def test_is_primitive_failure_exit_four(self, capsys, monkeypatch, row):
        # the walk counter's repeated power is all-positive exactly on primitive rows; primitivity
        # reads the cycle lengths instead, so only cycle-structure sees the flipped answer
        real = verify.is_primitive
        monkeypatch.setattr(verify, "is_primitive", lambda spec: real(spec) != (spec.row_string == row))
        code, out, _ = run(capsys, "verify", "--n-max", "7")
        assert code == 4
        assert self.failed_families(out) == [f"FAIL cycle-structure: is_primitive disagrees with the walk on 6 {row}"]

    @pytest.mark.parametrize("r, n", [(2, 0), (3, 7), (5, 10)])
    def test_run_avoidance_failure_exit_four(self, capsys, monkeypatch, r, n):
        real = counting.t_runs
        monkeypatch.setattr(counting, "t_runs", lambda *args: real(*args) + (args == (r, n)))
        code, out, _ = run(capsys, "verify", "--n-max", str(max(n, 3)))
        assert code == 4
        assert self.failed_families(out) == [f"FAIL counting: run-avoidance count off at r={r}, n={n}"]

    def test_block_prefix_failure_exit_four(self, capsys, monkeypatch):
        # the order-8 primitive rows with zero trace whose zero run at vertex 2 is a longest one:
        # the bound passes at that count and fails one below it
        enumerated = sum(1 for row in irreducible_rows(8) if row_cycle_gcd(row) == 1 and row[-1] == "0"
                         and row[1:].startswith("0" * longest_zero_run(row)))
        real = counting.block_prefix_upper_count
        for bound, failed in ((enumerated, []), (enumerated - 1, [
                "FAIL membership: block-prefix bound below enumeration at order 8"])):
            monkeypatch.setattr(counting, "block_prefix_upper_count", lambda n: bound if n == 8 else real(n))
            code, out, _ = run(capsys, "verify", "--n-max", "8")
            assert (code, self.failed_families(out)) == (4 if failed else 0, failed)

    def test_one_walk_and_one_batch_per_order(self, monkeypatch):
        calls = Counter()
        real_walk, real_batch = counting._walk, oracle.batch_exponents

        def walk(n):
            calls["walk", n] += 1
            return real_walk(n)

        def batch(m):
            calls["batch", len(m)] += 1
            return real_batch(m)

        monkeypatch.setattr(counting, "_walk", walk)
        monkeypatch.setattr(oracle, "batch_exponents", batch)
        assert all(result.passed for result in verify.run_all(11))
        assert calls == {(name, n): 1 for name in ("walk", "batch") for n in range(3, 12)}

    def test_no_per_spec_powering_outside_local_exponent_maxima(self, monkeypatch):
        # dispatch-soundness and primitivity read the batch; local-exponent-maxima
        # (orders 3..8) powers each primitive spec once, in local_exponent_table
        calls = Counter()
        real = oracle.exponent

        def counted(m):
            calls[m.n] += 1
            return real(m)

        monkeypatch.setattr(oracle, "exponent", counted)
        assert all(result.passed for result in verify.run_all(11))
        assert calls == {}

    def test_walk_counter_stops_at_the_first_repeated_power(self, monkeypatch):
        # once a power repeats, its frontiers repeat too, so every later step was already checked
        calls = Counter()
        real = oracle.bool_product

        def counted(x, y):
            calls[x.n] += 1
            return real(x, y)

        monkeypatch.setattr(oracle, "bool_product", counted)
        irreducible = {n: tuple(CompanionSpec(n, row) for row in irreducible_rows(n)) for n in range(3, 7)}
        lengths = {n: tuple(map(core.cycle_lengths, specs)) for n, specs in irreducible.items()}
        assert verify._check_cycle_structure(irreducible, lengths).passed
        assert calls == {n: sum(first_repeated_power(as_lists(companion_matrix(spec))) for spec in specs)
                         for n, specs in irreducible.items()}
        assert sum(calls.values()) == 541  # 1204 when every spec is stepped to the Wielandt bound

    def test_walk_counter_catches_a_fault_before_the_repeat(self, capsys, monkeypatch):
        # 6 100100 (cycles 6 and 3) first repeats a power at step 9: flip entry (2, 5) of its
        # power at step 8, the last step before the repeat
        target = companion_matrix(CompanionSpec(6, "100100"))
        assert first_repeated_power(as_lists(target)) == 9
        real, steps = oracle.bool_product, Counter()

        def faulty(x, y):
            product = real(x, y)
            if y != target:
                return product
            steps[y] += 1
            if steps[y] != 8:
                return product
            return BoolMatrix(6, (product.rows[0], product.rows[1] ^ 1 << 4) + product.rows[2:])

        monkeypatch.setattr(oracle, "bool_product", faulty)
        code, out, _ = run(capsys, "verify", "--n-max", "6")
        assert code == 4
        assert self.failed_families(out) == ["FAIL cycle-structure: walk mismatch at 6 100100 (2,5,8)"]

    def test_one_spec_per_irreducible_row(self, monkeypatch):
        # dispatch-soundness reads the specs run_all holds instead of building its own;
        # local-exponent-maxima adds one for each row with published local exponents, and
        # conductors one for each certified set, at its largest generator
        made = Counter()
        real = CompanionSpec.__new__

        def counted(cls, n, row):
            made[n] += 1
            return real(cls, n, row)

        monkeypatch.setattr(CompanionSpec, "__new__", counted)
        assert all(result.passed for result in verify.run_all(11))
        certified = Counter([3, 5, 8, 7, 15, 11, 13])
        assert made == {n: (1 << (n - 1)) + (n == 8) + certified[n] for n in range(3, 12)} | {13: 1, 15: 1, 16: 1}
        assert sum(made.values()) == 2044 + 2 + 7

    @pytest.mark.parametrize("name, target, line", [
        ("pair_conductor", (7, 11), "pair formula off at (7, 11)"),
        ("progression_conductor", (5, 1, 2), "progression formula off at (5, 6, 7)"),
        ("conductor", ((6, 10, 15),), "(6, 10, 15): conductor 31, exp(15 -> 15) = 30"),
    ])
    def test_conductors_failure_exit_four(self, capsys, monkeypatch, name, target, line):
        real = getattr(frobenius, name)
        monkeypatch.setattr(frobenius, name, lambda *args: real(*args) + (args == target))
        code, out, _ = run(capsys, "verify", "--n-max", "3")
        assert code == 4
        assert self.failed_families(out) == [f"FAIL conductors: {line}"]

    def test_specs_enumerated_once_per_order(self, monkeypatch):
        calls = Counter()
        real = verify.cycle_lengths

        def counted(spec):
            calls[spec.n] += 1
            return real(spec)

        monkeypatch.setattr(verify, "cycle_lengths", counted)
        assert all(result.passed for result in verify.run_all(11))
        assert calls == {n: 1 << (n - 1) for n in range(3, 12)}


class TestParser:
    def test_unknown_command(self, capsys):
        assert main(["no-such-command"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
