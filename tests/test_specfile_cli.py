import io
import json
import os
from contextlib import redirect_stdout

import pytest

from gradedvb.cli import main
from gradedvb.specfile import (
    SpecParseError,
    parse_polynomial,
    parse_spec,
    serialize_spec,
)
from gradedvb import multiply
from conftest import random_chart, random_nonneg_system, rank1_chart

HERE = os.path.dirname(__file__)


def data(name):
    return os.path.join(HERE, "data", name)


def golden(name):
    with open(os.path.join(HERE, "golden", name), "r", encoding="utf-8") as fh:
        return fh.read()


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


class TestSpecFile:
    def test_round_trip_is_stable(self):
        for name in ("m2.spec", "m3.spec", "b2pos.spec", "a2pos.spec"):
            with open(data(name), "r", encoding="utf-8") as fh:
                text = fh.read()
            spec = parse_spec(text)
            once = serialize_spec(spec)
            assert serialize_spec(parse_spec(once)) == once

    def test_malformed_integer_located(self):
        with pytest.raises(SpecParseError) as err:
            parse_spec("rank 1; parities 1\n0\nx\n")
        assert err.value.line == 3

    def test_header_required(self):
        with pytest.raises(SpecParseError):
            parse_spec("0,0\n1,0\n")

    def test_wrong_row_length(self):
        with pytest.raises(SpecParseError) as err:
            parse_spec("rank 2; parities 0 1\n0,0\n1\n")
        assert err.value.line == 3

    def test_dim_for_non_element_rejected(self):
        with pytest.raises(SpecParseError):
            parse_spec("rank 1; parities 1\n0\n1\n\nchart\ndim 2: 1\n")


class TestPolynomialText:
    def test_round_trip_randomized(self, rng):
        for _ in range(20):
            ws = random_nonneg_system(rng, max_rank=2, max_mult=2)
            chart = random_chart(rng, ws)
            coords = list(chart.coordinates)
            p = chart.zero()
            for _k in range(3):
                p = p + chart.gen(rng.choice(coords), rng.randint(-3, 3))
            q = multiply(p, chart.gen(rng.choice(coords)))
            assert parse_polynomial(chart, q.text()) == q

    def test_plain_names_default_coefficient(self):
        chart = rank1_chart(2, [1, 1, 1])
        p = parse_polynomial(chart, "xi{a1}_1 * x1")
        assert p.text() == "1 * x1 * xi{a1}_1"


class TestGolden:
    def test_degree_two_fiber_table(self):
        code, out = run_cli("linearize", data("m2.spec"), "--fibers")
        assert code == 0
        assert out == golden("m2_linearize.txt")

    def test_rank_two_fiber_table(self):
        code, out = run_cli("linearize", data("b2pos.spec"), "--fibers")
        assert code == 0
        assert out == golden("b2pos_linearize.txt")

    def test_degree_three_generator_table(self):
        code, out = run_cli("linearize", data("m3.spec"), "--fibers")
        assert code == 0
        assert out == golden("m3_linearize.txt")

    def test_output_is_deterministic(self):
        outs = {run_cli("linearize", data("m3.spec"), "--fibers")[1]
                for _ in range(3)}
        assert len(outs) == 1


# (golden file, CLI arguments after "--json"); every case exits 0
JSON_GOLDENS = [
    (f"{stem}_validate.json", ["validate", f"{stem}.spec"])
    for stem in ("a1a1", "a2pos", "b2pos", "m2", "m3")
] + [
    ("m2_check.json", ["check", "m2.spec"]),
    ("m3_check.json", ["check", "m3.spec"]),
    ("m2_invert.json", ["invert", "m2.spec", "--lam", "b2_1",
                        "--rhs", "xi{2a1}_1[b2_1] + 2 * x1 * xi{2a1}_1[b2_1]"]),
    ("m3_invert.json", ["invert", "m3.spec", "--lam", "b3_1,b2_1",
                        "--rhs", "xi{2a1}_1[b2_1,b3_1]"]),
    ("a1a1_dualize.json", ["dualize", "a1a1.spec", "--base", "0,0;1,0"]),
    ("a2pos_dualize.json", ["dualize", "a2pos.spec", "--base", "0,0;1,0"]),
    ("b2pos_dualize.json", ["dualize", "b2pos.spec", "--base", "0,0;1,0"]),
    ("m2_reconstruct.json", ["reconstruct", "m2.spec"]),
] + [
    (f"{stem}_linearize.json", ["linearize", f"{stem}.spec", "--fibers"])
    for stem in ("m2", "m3", "b2pos")
]


class TestJsonGolden:
    @pytest.mark.parametrize("name,argv", JSON_GOLDENS,
                             ids=[g[0] for g in JSON_GOLDENS])
    def test_byte_exact(self, name, argv):
        cmd, spec, *rest = argv
        code, out = run_cli("--json", cmd, data(spec), *rest)
        assert code == 0
        assert out == golden(name)


class TestTextGolden:
    # the same invocations without --json; goldens share the stem, ".txt"
    @pytest.mark.parametrize("name,argv", JSON_GOLDENS,
                             ids=[g[0][:-len(".json")] for g in JSON_GOLDENS])
    def test_byte_exact(self, name, argv):
        cmd, spec, *rest = argv
        code, out = run_cli(cmd, data(spec), *rest)
        assert code == 0
        assert out == golden(name[:-len(".json")] + ".txt")


class TestValidateCommand:
    def test_valid_file(self):
        code, out = run_cli("validate", data("m2.spec"))
        assert code == 0
        assert "valid: yes" in out
        assert "multiplicity-free: no" in out

    def test_missing_zero_exits_one(self, tmp_path):
        bad = tmp_path / "bad.spec"
        bad.write_text("rank 1; parities 1\n1\n")
        code, out = run_cli("validate", str(bad))
        assert code == 1
        assert "condition 2" in out and "FAIL" in out

    def test_parse_error_exits_two(self, tmp_path):
        bad = tmp_path / "bad.spec"
        bad.write_text("rank 1; parities 1\n0\noops\n")
        with pytest.raises(SystemExit) as err:
            run_cli("validate", str(bad))
        assert err.value.code == 2

    def test_json_mode(self):
        code, out = run_cli("--json", "validate", data("m2.spec"))
        assert code == 0
        payload = json.loads(out)
        assert payload["valid"] is True
        assert payload["max_multiplicities"] == {"a1": 2}


class TestCheckCommand:
    def test_degree_three_all_pass(self):
        code, out = run_cli("check", data("m3.spec"))
        assert code == 0
        assert "result: ALL PASS" in out
        for k in range(1, 7):
            assert f"property {k} " in out

    def test_json_payload(self):
        code, out = run_cli("--json", "check", data("m3.spec"))
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert len(payload["properties"]) == 6


class TestInvertCommand:
    def test_generator_inverse(self):
        code, out = run_cli("invert", data("m3.spec"), "--lam", "b2_1",
                            "--rhs", "xi{2a1}_1[b2_1]")
        assert code == 0
        assert "solution: 1 * xi{2a1}_1" in out

    def test_two_step_inverse_both_orders(self):
        # the composition applies its rightmost operator first, so the two
        # orders differ by the anticommutation sign
        code, out = run_cli("invert", data("m3.spec"), "--lam", "b3_1,b2_1",
                            "--rhs", "xi{2a1}_1[b2_1,b3_1]")
        assert code == 0
        assert "solution: 1 * xi{2a1}_1" in out
        code, out = run_cli("invert", data("m3.spec"), "--lam", "b2_1,b3_1",
                            "--rhs", "xi{2a1}_1[b2_1,b3_1]")
        assert code == 0
        assert "solution: -1 * xi{2a1}_1" in out

    def test_off_kernel_exits_one(self):
        code, out = run_cli("invert", data("m3.spec"), "--lam", "b2_1",
                            "--rhs", "xi{a1}_1 * xi{a1}_1[b2_1]")
        assert code == 1
        assert "error" in out

    # an --rhs that does not parse is a usage error: exit 2, one stderr line
    def test_zero_denominator_is_an_error_not_a_traceback(self, capsys):
        code, out = run_cli("invert", data("m2.spec"), "--lam", "b2_1",
                            "--rhs", "1/0")
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err == "error: --rhs: malformed coefficient '1/0'\n"

    def test_zero_denominator_json(self, capsys):
        code, out = run_cli("--json", "invert", data("m2.spec"), "--lam",
                            "b2_1", "--rhs", "1/0")
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err == "error: --rhs: malformed coefficient '1/0'\n"

    @pytest.mark.parametrize("rhs,msg", [
        ("9" * 5000 + " * x1", "coefficient of 5000 characters is too large"),
        ("1/" + "9" * 5000, "coefficient of 5002 characters is too large"),
    ])
    def test_long_coefficient_exits_two(self, capsys, rhs, msg):
        code, out = run_cli("invert", data("m2.spec"), "--lam", "b2_1",
                            "--rhs", rhs)
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err == f"error: --rhs: {msg}\n"

    def test_malformed_factor_exits_two(self, capsys):
        code, out = run_cli("invert", data("m2.spec"), "--lam", "b2_1",
                            "--rhs", "zz")
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err == "error: --rhs: malformed factor 'zz'\n"

    # a term above the truncation is refused before its factors are
    # expanded, so a huge exponent costs nothing
    @pytest.mark.parametrize("rhs,msg", [
        ("x1^3000000", "term degree 3000000 exceeds truncation 3"),
        ("x1^5", "term degree 5 exceeds truncation 3"),
        ("x1^2 * x1^2", "term degree 4 exceeds truncation 3"),
        ("x1^" + "9" * 5000, "exponent of x1 is too large"),
    ])
    def test_over_degree_term_exits_two(self, capsys, rhs, msg):
        code, out = run_cli("invert", data("m2.spec"), "--lam", "b2_1",
                            "--rhs", rhs)
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err == f"error: --rhs: {msg}\n"

    def test_unknown_operator_exits_two(self):
        code, out = run_cli("invert", data("m3.spec"), "--lam", "b9_9",
                            "--rhs", "xi{2a1}_1[b2_1]")
        assert code == 2


class TestDualizeCommand:
    def test_short_fiber_example(self):
        code, out = run_cli("dualize", data("a2pos.spec"), "--base", "0,0;1,0")
        assert code == 0
        assert "elements (4): 0, -a1-a2, a1, -a2" in out
        assert "suggested basis: a1, -a1-a2 (valid: yes)" in out

    def test_long_fiber_example(self):
        code, out = run_cli("dualize", data("b2pos.spec"), "--base", "0,0;1,0")
        assert code == 0
        assert "elements (5): 0, -2a1-a2, -a1-a2, a1, -a2" in out
        assert "suggested basis: a1, -2a1-a2 (valid: yes)" in out

    def test_bad_base_exits_one(self):
        code, out = run_cli("dualize", data("m3.spec"), "--base", "0")
        assert code == 1


class TestReconstructCommand:
    def test_round_trip(self):
        code, out = run_cli("reconstruct", data("m2.spec"))
        assert code == 0
        assert "round trip dims match: yes" in out
        assert "isomorphism verified: yes" in out

    def test_wrong_shape_exits_two(self):
        code = run_cli("reconstruct", data("m3.spec"))[0]
        assert code == 2


class TestFlagPlacement:
    def test_flags_accepted_after_subcommand(self):
        code, out = run_cli("check", data("m3.spec"), "--seed", "7")
        assert code == 0 and "# seed: 7" in out
        code, out = run_cli("dualize", data("a2pos.spec"),
                            "--base", "0,0;1,0", "--json")
        assert code == 0
        json.loads(out)
        code, out = run_cli("linearize", data("m2.spec"), "--trunc", "4")
        assert code == 0 and "# truncation: 4" in out

    def test_flag_before_subcommand_still_works(self):
        code, out = run_cli("--seed", "5", "check", data("m3.spec"))
        assert code == 0 and "# seed: 5" in out


# one command line per subcommand that takes --trunc and a chart
TRUNC_COMMANDS = [
    ["linearize", "m2.spec"],
    ["check", "m2.spec"],
    ["invert", "m3.spec", "--lam", "b2_1", "--rhs", "xi{2a1}_1[b2_1]"],
    ["reconstruct", "m2.spec"],
]


class TestTruncFlag:
    @pytest.mark.parametrize("argv", TRUNC_COMMANDS, ids=lambda a: a[0])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_below_one_rejected(self, argv, value, capsys):
        cmd, spec, *rest = argv
        code, out = run_cli(cmd, data(spec), *rest, "--trunc", value)
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err == f"error: --trunc must be >= 1, got {value}\n"

    def test_one_is_honoured(self):
        code, out = run_cli("linearize", data("m2.spec"), "--trunc", "1")
        assert code == 0 and "# truncation: 1" in out

    def test_chart_block_value_used_without_flag(self, tmp_path):
        spec = tmp_path / "m2t4.spec"
        with open(data("m2.spec"), "r", encoding="utf-8") as fh:
            spec.write_text(fh.read().replace("trunc 3", "trunc 4"))
        code, out = run_cli("reconstruct", str(spec))
        assert code == 0 and "# truncation: 4" in out

    def test_chart_block_below_one_is_a_parse_error(self):
        with pytest.raises(SpecParseError) as err:
            parse_spec("rank 1; parities 1\n0\n1\n\nchart\ntrunc 0\n")
        assert err.value.line == 6


NEGATIVE_SPEC = "rank 1; parities 1\n0\n1\n-1\n\nchart\nbase_dim 1\ndim 1: 1\n"


class TestInvalidSystem:
    @pytest.mark.parametrize("argv", [
        ["invert", "--lam", "b2_1", "--rhs", "x1"],
        ["invert", "--json", "--lam", "b2_1", "--rhs", "x1"],
        ["reconstruct"],
        ["linearize"],
        ["check"],
    ], ids=["invert", "invert-json", "reconstruct", "linearize", "check"])
    def test_negative_weight_is_an_error_not_a_traceback(self, argv, tmp_path,
                                                         capsys):
        spec = tmp_path / "neg.spec"
        spec.write_text(NEGATIVE_SPEC)
        cmd, *rest = argv
        code, out = run_cli(cmd, str(spec), *rest)
        assert code == 1
        assert out == ""
        err = capsys.readouterr().err
        assert err == "error: input system is not valid; run validate\n"
