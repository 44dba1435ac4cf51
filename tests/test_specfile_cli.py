import io
import json
import os
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from gradedvb.cli import dump_json, main
from gradedvb.specfile import (
    SpecParseError,
    parse_polynomial,
    parse_spec,
    serialize_spec,
)
from gradedvb import AlgebraError, multiply
from conftest import (parse_reference, random_chart, random_nonneg_system,
                      rank1_chart)

HERE = os.path.dirname(__file__)
BAD_HEADER = "expected header 'rank r; parities p1 .. pr'"
RANK1 = "rank 1; parities 1\n"


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

    # the column of a malformed coefficient is its own, in the file's line
    @pytest.mark.parametrize("line,column,token", [
        ("-1,-", 4, "-"),
        ("  0,x", 5, "x"),
        ("0, x", 4, "x"),
        ("0 ,  x ", 6, "x"),
    ])
    def test_malformed_integer_column_in_a_row(self, line, column, token):
        with pytest.raises(SpecParseError) as err:
            parse_spec(f"rank 2; parities 0 1\n0,0\n{line}\n")
        assert (err.value.line, err.value.column) == (3, column)
        assert str(err.value) == \
            f"line 3, column {column}: malformed integer {token!r}"

    @pytest.mark.parametrize("line,column", [("dim 1,-: 1", 7),
                                             ("  dim  1 , -: 1", 12)])
    def test_malformed_integer_column_in_a_dim_line(self, line, column):
        with pytest.raises(SpecParseError) as err:
            parse_spec(f"rank 2; parities 0 1\n0,0\n1,0\n\nchart\n{line}\n")
        assert (err.value.line, err.value.column) == (6, column)

    # a chart block gives each of its values once
    @pytest.mark.parametrize("block,message", [
        ("dim 2: 1\ndim 2: 5", "dim for 2a1 repeats line 7"),
        ("trunc 3\ntrunc 4", "trunc repeats line 7"),
        ("base_dim 1\nbase_dim 2", "base_dim repeats line 7"),
        ("base_dim 1\ndim 0: 2", "dim for 0 repeats line 7"),
        ("dim 0: 2\nbase_dim 1", "base_dim repeats line 7"),
    ], ids=["dim", "trunc", "base_dim", "base_dim-then-dim-0",
            "dim-0-then-base_dim"])
    def test_duplicate_chart_line_rejected(self, block, message):
        with pytest.raises(SpecParseError) as err:
            parse_spec(f"rank 1; parities 1\n0\n1\n2\n\nchart\n{block}\n")
        assert err.value.line == 8
        assert str(err.value) == f"line 8, column 1: {message}"

    # a chart keyword is a whole word: a longer word is no keyword
    @pytest.mark.parametrize("line", ["truncation 4", "base_dimension 2",
                                      "trunc4", "dims 1: 1"])
    def test_chart_keywords_match_whole_words(self, line):
        with pytest.raises(SpecParseError) as err:
            parse_spec(f"rank 1; parities 1\n0\n1\n\nchart\n{line}\n")
        assert str(err.value) == \
            f"line 6, column 1: unrecognized chart line {line!r}"

    # a chart line's error names the column of its value when the value
    # is at fault, else the column where the line starts
    @pytest.mark.parametrize("block,line,column,message", [
        ("trunc 0x", 7, 7, "malformed trunc line"),
        ("trunc   0", 7, 9, "trunc must be >= 1"),
        ("  trunc", 7, 3, "malformed trunc line"),
        (" base_dim 1x", 7, 11, "malformed base_dim line"),
        ("base_dim -1", 7, 10, "base_dim must be >= 0"),
        ("dim 1: " + "9" * 5000, 7, 8, "malformed dim line"),
        ("  dim 1: x", 7, 3, "unrecognized chart line 'dim 1: x'"),
        ("  dim 3: 1", 7, 3, "dim for 3a1, which is not an element"),
        ("trunc 3\n  trunc 4", 8, 3, "trunc repeats line 7"),
        ("dim 2: 1\n\t dim 2: 5", 8, 3, "dim for 2a1 repeats line 7"),
        ("   dim 1,0: 1", 7, 8, "expected 1 coefficients, got 2"),
    ], ids=["trunc-value", "trunc-range", "trunc-missing", "base_dim-value",
            "base_dim-range", "dim-count", "unrecognized", "non-element",
            "repeat", "tab-repeat", "coefficients"])
    def test_chart_line_errors_name_their_column(self, block, line, column,
                                                 message):
        with pytest.raises(SpecParseError) as err:
            parse_spec(f"rank 1; parities 1\n0\n1\n2\n\nchart\n{block}\n")
        assert (err.value.line, err.value.column) == (line, column)
        assert str(err.value) == f"line {line}, column {column}: {message}"

    def test_base_dim_without_zero_weight_names_its_column(self):
        with pytest.raises(SpecParseError) as err:
            parse_spec("rank 1; parities 1\n1\n\nchart\n  base_dim 1\n")
        assert str(err.value) == ("line 5, column 3: base_dim given but "
                                  "zero weight missing")

    def test_each_chart_value_once_is_accepted(self):
        spec = parse_spec("rank 1; parities 1\n0\n1\n2\n\nchart\n"
                          "dim 1: 2\ntrunc 4\ndim 2: 1\nbase_dim 3\n")
        assert spec.truncation == 4
        assert sorted(spec.dims.values()) == [1, 2, 3]

    # a spec integer is ASCII: an optional "-" and the digits 0-9; each
    # other spelling that int() reads, and a rank of more digits than it
    # converts, gets the message and the column that a letter in its
    # place gets
    @pytest.mark.parametrize("text,line,column,message", [
        (RANK1 + "0\n+1", 3, 1, "malformed integer '+1'"),
        (RANK1 + "0\n1_0", 3, 1, "malformed integer '1_0'"),
        (RANK1 + "0\n\u0661", 3, 1, "malformed integer '\u0661'"),
        (RANK1 + "0\n  +1", 3, 3, "malformed integer '+1'"),
        (RANK1 + "0\n1\n\nchart\ntrunc +3", 6, 7, "malformed trunc line"),
        (RANK1 + "0\n1\n\nchart\ntrunc \uff13", 6, 7, "malformed trunc line"),
        (RANK1 + "0\n1\n\nchart\nbase_dim 0_1", 6, 10,
         "malformed base_dim line"),
        (RANK1 + "0\n1\n\nchart\ntrunc -3", 6, 7, "trunc must be >= 1"),
        (RANK1 + "0\n1\n\nchart\nbase_dim -2", 6, 10, "base_dim must be >= 0"),
        (RANK1 + "0\n1\n\nchart\ndim \u0661: \u0662", 6, 1,
         "unrecognized chart line 'dim \u0661: \u0662'"),
        (RANK1 + "0\n1\n\nchart\ndim 1: \u0662", 6, 1,
         "unrecognized chart line 'dim 1: \u0662'"),
        ("rank \u0661; parities 1\n0", 1, 1, BAD_HEADER),
        ("rank " + "1" * 5000 + "; parities 1\n0", 1, 1, BAD_HEADER),
    ], ids=["plus", "underscore", "arabic-indic", "plus-column", "trunc-plus",
            "trunc-fullwidth", "base_dim-underscore", "trunc-negative",
            "base_dim-negative", "dim-arabic-indic", "dim-count",
            "rank-arabic-indic", "rank-too-long"])
    def test_spec_integers_are_ascii_digits(self, text, line, column,
                                            message):
        with pytest.raises(SpecParseError) as err:
            parse_spec(text + "\n")
        assert str(err.value) == f"line {line}, column {column}: {message}"

    # a header error names the column where the header starts, and a rank
    # that the parities do not match names the column of the rank
    @pytest.mark.parametrize("text,line,column,message", [
        ("rnak 1; parities 1\n0", 1, 1, BAD_HEADER),
        ("  rnak 1; parities 1\n0", 1, 3, BAD_HEADER),
        ("# note\n\t rank x; parities 1\n0", 2, 3, BAD_HEADER),
        ("rank 1; parities 1", 1, 1, "no weight rows"),
        ("   rank 1; parities 1\n# no row", 1, 4, "no weight rows"),
        ("rank 2; parities 1\n0", 1, 6, "rank 2 but 1 parities"),
        ("  rank  2 ; parities 1\n0", 1, 9, "rank 2 but 1 parities"),
    ], ids=["unindented", "indented", "tab-after-comment", "no-rows",
            "no-rows-indented", "rank", "rank-indented"])
    def test_header_errors_name_their_column(self, text, line, column,
                                             message):
        with pytest.raises(SpecParseError) as err:
            parse_spec(text + "\n")
        assert (err.value.line, err.value.column) == (line, column)
        assert str(err.value) == f"line {line}, column {column}: {message}"


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


def term_text(coeff, factors):
    if not factors:
        return str(coeff)
    body = " * ".join(factors)
    if coeff == 1:
        return body
    if coeff == -1:
        return "-" + body
    return f"{coeff} * {body}"


def random_polynomial_text(rng, chart, n_terms, kinds):
    """Terms of at most the truncation degree, some repeated, some
    cancelling an earlier one, some constant and some with a repeated odd
    factor; ``kinds`` counts each kind made."""
    names = [c.name for c in chart.coordinates]
    odd = [c.name for c in chart.coordinates if c.parity]
    terms = []
    for _ in range(n_terms):
        roll = rng.random()
        if terms and roll < 0.2:
            kind, term = "repeated", rng.choice(terms)
        elif terms and roll < 0.4:
            coeff, factors = rng.choice(terms)
            kind, term = "cancelling", (-coeff, factors)
        elif roll < 0.5:
            kind, term = "constant", (Fraction(rng.randint(-3, 3)), [])
        else:
            kind, size = "plain", rng.randint(1, chart.truncation)
            if odd and roll < 0.6:
                kind, size = "odd square", size - 2
            factors = [rng.choice(names) for _ in range(max(size, 0))]
            if kind == "odd square":
                factors += [odd[0], odd[0]]
                rng.shuffle(factors)
            term = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)), factors)
        kinds[kind] += 1
        terms.append(term)
    return " + ".join(term_text(c, f) for c, f in terms)


class TestPolynomialSum:
    """``parse_polynomial`` sums its terms in one dict; the term-by-term
    sum it replaced (``parse_reference``) is the reference."""

    def test_matches_the_term_by_term_sum(self, rng):
        kinds = Counter()
        charts = [rank1_chart(3, [2, 2, 1, 1]), rank1_chart(4, [2, 2, 2, 1, 1])]
        for _ in range(6):
            charts.append(random_chart(rng, random_nonneg_system(rng)))
        for chart in charts:
            for _ in range(15):
                text = random_polynomial_text(rng, chart, rng.randint(1, 30),
                                              kinds)
                got = parse_polynomial(chart, text)
                ref = parse_reference(chart, text)
                assert list(got.terms.items()) == list(ref.terms.items())
                assert not got.truncated
        assert set(kinds) == {"repeated", "cancelling", "constant", "plain",
                              "odd square"}

    def test_errors_are_raised_at_the_same_term(self):
        chart = rank1_chart(2, [1, 1, 1])
        for text, message in (("x1 + x1^4 + y1", "exceeds truncation"),
                              ("x1 + y1 + x1^4", "malformed factor"),
                              ("x1 + + 2", "empty term"),
                              ("1/0 * x1 + x1^4", "malformed coefficient")):
            with pytest.raises(AlgebraError, match=message):
                parse_polynomial(chart, text)


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


JSON_TEXT = ["a", "Z", "0", " ", '"', "\\", "/", "\n", "\t", "\x00", "\x1f",
             "\x7f", "é", "ß", "λ", "\u2028", "\ud83d", "😀", "{", "]"]


def random_json_value(rng, depth=0):
    """A seeded nested value of the kinds the CLI writes, with edge cases:
    non-ASCII text, quotes, backslashes, control characters, negative and
    beyond-64-bit ints, the three constants, empty containers."""
    def text():
        return "".join(rng.choice(JSON_TEXT) for _ in range(rng.randint(0, 6)))

    roll = rng.random()
    if depth >= 4 or roll < 0.45:
        return rng.choice([
            text,
            lambda: rng.randint(-10**6, 10**6),
            lambda: rng.choice([-1, 1]) * rng.randint(2**63, 2**80),
            lambda: rng.choice([True, False, None, 0, ""]),
        ])()
    n = rng.randint(0, 4)
    if roll < 0.7:
        return [random_json_value(rng, depth + 1) for _ in range(n)]
    return {text() + f"k{k}": random_json_value(rng, depth + 1)
            for k in range(n)}


class TestJsonWriter:
    def test_seeded_values_match_json_dumps(self, rng):
        values = [{}, [], {"a": {}}, {"a": []}, [[], {}], [[[]]],
                  {"": {"": []}}, (1, (2, ())), "", -(2**100)]
        values += [random_json_value(rng) for _ in range(400)]
        for v in values:
            assert dump_json(v) == json.dumps(v, indent=2)
        text = json.dumps(values, indent=2)
        assert dump_json(values) == text
        for probe in ('\\u00e9', '\\ud83d\\ude00', '\\"', '\\\\', '\\n',
                      '\\u0000', '"k0": {}', '"k0": []', "true", "null",
                      str(-(2**100))):
            assert probe in text

    def test_every_golden_is_rewritten_byte_for_byte(self):
        names = sorted(n for n in os.listdir(os.path.join(HERE, "golden"))
                       if n.endswith(".json"))
        assert len(names) == len(JSON_GOLDENS) + 1  # + analysis_paths.json
        for name in names:
            value = json.loads(golden(name))
            assert dump_json(value) == json.dumps(value, indent=2)
            if name != "analysis_paths.json":
                assert dump_json(value) + "\n" == golden(name)

    @pytest.mark.parametrize("value", [
        Fraction(1, 2), 1.5, float("nan"), {1, 2}, object(), b"x",
        type("Label", (str,), {})("x"), [type("Count", (int,), {})(1)],
        [1, Fraction(1)], {"a": [{"b": 2.0}]}, {1: "int key"}, {None: 1},
        {(1, 2): 3}])
    def test_other_values_raise_type_error(self, value):
        with pytest.raises(TypeError):
            dump_json(value)


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

    def test_duplicate_chart_line_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "dup.spec"
        bad.write_text("rank 1; parities 1\n0\n1\n2\n\nchart\n"
                       "dim 2: 1\ndim 2: 5\n")
        with pytest.raises(SystemExit) as err:
            run_cli("check", str(bad))
        assert err.value.code == 2
        assert capsys.readouterr().err == \
            f"error: {bad}: line 8, column 1: dim for 2a1 repeats line 7\n"

    def test_longer_chart_keywords_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "words.spec"
        bad.write_text("rank 1; parities 1\n0\n1\n2\n\nchart\n"
                       "truncation 4\nbase_dimension 2\ndim 1: 1\n")
        with pytest.raises(SystemExit) as err:
            run_cli("check", str(bad))
        assert err.value.code == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: line 7, column 1: unrecognized chart line "
            "'truncation 4'\n")

    def test_base_dim_without_zero_weight_names_its_line(self, tmp_path,
                                                         capsys):
        bad = tmp_path / "nozero.spec"
        bad.write_text("rank 1; parities 1\n1\n2\n\nchart\n"
                       "trunc 3\ndim 1: 1\nbase_dim 1\n")
        with pytest.raises(SystemExit) as err:
            run_cli("check", str(bad))
        assert err.value.code == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: line 8, column 1: base_dim given but zero "
            "weight missing\n")

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

    # a --base row keeps its row number and its column within the row
    def test_base_row_column(self, capsys):
        code, out = run_cli("dualize", data("a2pos.spec"),
                            "--base", "0,0; -1,-")
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == \
            "error: --base: line 2, column 4: malformed integer '-'\n"

    def test_base_integers_are_ascii_digits(self, capsys):
        code, out = run_cli("dualize", data("a2pos.spec"),
                            "--base", "0,0; 0,+1")
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == \
            "error: --base: line 2, column 3: malformed integer '+1'\n"


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
