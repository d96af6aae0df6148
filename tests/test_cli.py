"""CLI behavior: exit codes, JSON schema, fixture diffing."""

import contextlib
import io
import json
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

from barkfib import cli
from barkfib.cli import main
from barkfib.crust import STELLAR_MODELS, crust_to_json, enumerate_simple_crusts
from barkfib.kodaira import euler, parse_fiber
from barkfib.sl2z import word
from barkfib.splitting import FactorizationWitness, all_witnesses, parse_identity, verify_witness


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_classify_matrix(capsys):
    assert main(["classify", "--mat", "1,1,0,1"]) == 0
    assert capsys.readouterr().out.strip() == "I1"


def test_classify_word(capsys):
    assert main(["classify", "--word", "s0 s2"]) == 0
    assert capsys.readouterr().out.strip() == "II"


def test_classify_identity(capsys):
    assert main(["classify", "--mat", "1,0,0,1"]) == 0
    assert capsys.readouterr().out.strip() == "I0"


def test_classify_no_class_exits_3(capsys):
    assert main(["classify", "--mat", "2,1,1,1"]) == 3
    assert capsys.readouterr().out.strip() == "none"


def test_classify_json_schema(capsys):
    code, record = run_json(capsys, ["classify", "--mat", "0,1,-1,1"])
    assert code == 0
    assert record == {"schema": "barkfib/1", "class": "II"}


def test_parse_errors_exit_2(capsys):
    assert main(["classify", "--mat", "1,2,3"]) == 2
    assert main(["classify", "--mat", "1,0,0,2"]) == 2  # determinant
    assert main(["classify", "--word", "s1 s2"]) == 2
    assert main(["classify"]) == 2  # missing input
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["euler", "²I1"], "cannot parse fiber string '²I1'"),
        (["euler", "I²"], "cannot parse fiber string 'I²'"),
        (
            ["classify", "--mat", "1,2,3,x"],
            "--mat wants four comma-separated integers, got '1,2,3,x'",
        ),
        (
            ["classify", "--mat", "1,2,3"],
            "--mat wants four comma-separated integers, got '1,2,3'",
        ),
        (["euler", ""], "cannot parse fiber string ''"),
        (["euler", "2II"], "cannot parse fiber string '2II'"),
        (["obstruct", "II", "1II"], "cannot parse fiber string '1II'"),
        # more digits than int() converts (4,300 by default)
        pytest.param(
            ["euler", "I" + "1" * 5000],
            "cannot parse fiber string 'I%s'" % ("1" * 5000),
            id="index-of-5000-digits",
        ),
        pytest.param(
            ["euler", "1" * 5000 + "I2"],
            "cannot parse fiber string '%sI2'" % ("1" * 5000),
            id="multiplicity-of-5000-digits",
        ),
    ],
)
def test_parse_error_names_the_input(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: " + message]


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--mat=--"],
        ["classify", "--word=--"],
        ["factorize", "II", "I1", "I1", "--budget=--"],
        ["localcheck", "--m=--", "--n", "1"],
        ["localcheck", "--m", "3", "--n", "1", "--t=--"],
        ["predict", "II*", "--crust=--"],
        ["crusts", "IV", "-l=--"],
        ["report", "--case=--"],
    ],
)
def test_double_dash_option_value_exits_2(capsys, argv):
    # argparse hands `--opt=--` over as an empty list instead of failing
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: an option's value cannot be '--'"]


def test_euler(capsys):
    code, record = run_json(capsys, ["euler", "I5", "II*"])
    assert code == 0
    assert record["eulers"] == {"I5": 5, "II*": 10}


def test_obstruct_forbidden(capsys):
    code, record = run_json(capsys, ["obstruct", "II*", "I8", "II"])
    assert code == 0
    assert record["verdict"] == "forbidden"
    assert record["reasons"]


def test_obstruct_undecided(capsys):
    code, record = run_json(capsys, ["obstruct", "IV", "I2", "II"])
    assert code == 0
    assert record["verdict"] == "undecided"


def test_factorize_found(capsys):
    code, record = run_json(capsys, ["factorize", "II", "I1", "I1", "--max-conj-len", "2"])
    assert code == 0
    assert record["found"] is True
    assert len(record["factors"]) == 2


def test_factorize_text_is_a_verifying_identity(capsys):
    assert main(["factorize", "II", "I1", "I1"]) == 0
    [line] = capsys.readouterr().out.splitlines()
    assert line == "II = I1^(s2^-1) . I1"
    assert verify_witness(parse_identity(line))


def test_factorize_not_found_exits_1(capsys):
    code, record = run_json(capsys, ["factorize", "IV", "I2", "I2", "--max-conj-len", "2"])
    assert code == 1
    assert record["found"] is False
    _, obstruct = run_json(capsys, ["obstruct", "IV", "I2", "I2"])
    assert record["verdict"] == obstruct["verdict"] == "forbidden"
    assert record["reasons"] == obstruct["reasons"]


def test_factorize_undecided_not_found_json(capsys):
    code, record = run_json(capsys, ["factorize", "II", "I1", "I1", "--max-conj-len", "0"])
    assert code == 1
    assert record["found"] is False
    assert record["verdict"] == "undecided"
    assert record["reasons"] == ["trace shift rule passed for I_1 factor"] * 2


_III_WITNESS = {
    "factors": [{"class": "I1", "conjugator": ""}, {"class": "II", "conjugator": "s0^-1"}],
    "found": True,
    "schema": "barkfib/1",
    "target": "III",
}


@pytest.mark.parametrize("length", ["1", "3"])
def test_factorize_takes_the_parts_in_canonical_order(capsys, length):
    # III = II . I1 holds with standard matrices, but only the canonical
    # order I1, II is searched, and its first witness needs length 1
    argv = ["factorize", "III", "II", "I1", "--max-conj-len", length]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == ["III = I1 . II^(s0^-1)"]
    assert run_json(capsys, argv) == (0, _III_WITNESS)


def test_factorize_canonical_order_finds_nothing_at_length_0(capsys):
    argv = ["factorize", "III", "II", "I1", "--max-conj-len", "0"]
    assert main(argv) == 1
    assert capsys.readouterr().out.splitlines() == ["no factorization found"]
    code, record = run_json(capsys, argv)
    assert code == 1
    assert record == {
        "found": False,
        "reasons": ["trace shift rule passed for I_1 factor"],
        "schema": "barkfib/1",
        "target": "III",
        "verdict": "undecided",
    }


_SHIFT_PROOF = (
    "no factorization exists: trace shift rule: trace(IV)-trace(I2) = -3"
    " admits no valid multiple of 2"
)


@pytest.mark.parametrize(
    "argv,line",
    [
        (["IV", "I2", "I2", "--max-conj-len", "4"], _SHIFT_PROOF),
        # a forbidden decomposition is proved, never searched: no budget error
        (["IV", "I2", "I2", "--max-conj-len", "99"], _SHIFT_PROOF),
        (
            ["I0*", "I3", "I2", "I1", "--max-conj-len", "2"],
            "no factorization exists: central triple rule: 3 does not divide"
            " trace(I2)+trace(I1)",
        ),
        (["II", "I1", "I1", "--max-conj-len", "0"], "no factorization found"),
    ],
)
def test_factorize_not_found_text(capsys, argv, line):
    assert main(["factorize"] + argv) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [line]
    assert captured.err == ""


@pytest.mark.parametrize("flag", [["--exp-cap", "-1"], ["--budget", "-5"]])
def test_factorize_negative_bound_exits_2(capsys, flag):
    assert main(["factorize", "II", "I1", "I1"] + flag) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "must be nonnegative" in lines[0]


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_factorize_budget_exceeded_exits_1(capsys, json_flag):
    # Euler-matched (8 = 6 + 2) and undecided, so the search runs, and it has
    # no witness with conjugators of length <= 5
    argv = ["factorize", "I2*", "I0*", "II", "--max-conj-len", "6", "--budget", "50"]
    assert main(argv + json_flag) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: search exceeded 50 nodes"]


def test_factorize_charges_only_the_lengths_it_reads(capsys):
    # the witness has empty conjugators, so lengths 1..6 are never built:
    # the pass of length 0 costs 5 nodes, as README says
    argv = ["factorize", "IV", "II", "II", "--max-conj-len", "6"]
    assert main(argv) == 0
    assert main(argv + ["--budget", "5"]) == 0
    assert capsys.readouterr().out.splitlines() == ["IV = II . II"] * 2
    assert main(argv + ["--budget", "4"]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: search exceeded 4 nodes"]


@pytest.mark.parametrize("length", ["0", "50"])
def test_factorize_without_exponents_runs_one_pass(capsys, length):
    # with --exp-cap 0 the empty word is the only conjugator, so the pass of
    # length 0 is the only one at any length bound: 5 nodes either way
    argv = ["factorize", "II", "I1", "I1", "--exp-cap", "0", "--max-conj-len", length]
    assert main(argv + ["--budget", "5"]) == 1
    assert capsys.readouterr().out.splitlines() == ["no factorization found"]
    assert main(argv + ["--budget", "4"]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: search exceeded 4 nodes"]


_EULER_PROOF = (
    "Euler number mod 12 rule: e(II*) = 10 is 10 mod 12, but the factors'"
    " Euler numbers sum to 5, which is 5 mod 12"
)


def test_euler_mismatch_is_forbidden_at_any_length(capsys):
    # five I1 factors sum to 5, not 10 mod 12: proved, never searched, so
    # neither the length nor the budget is reached
    parts = ["II*"] + ["I1"] * 5
    assert main(["obstruct"] + parts) == 0
    assert capsys.readouterr().out.splitlines() == ["forbidden", "  " + _EULER_PROOF]
    assert main(["factorize"] + parts + ["--max-conj-len", "6", "--budget", "50"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["no factorization exists: " + _EULER_PROOF]
    assert captured.err == ""


def test_crusts_enumeration(capsys):
    code, record = run_json(capsys, ["crusts", "I0*"])
    assert code == 0
    assert record["count"] == 11
    assert len(record["crusts"]) == 11


def test_crusts_unknown_model(capsys):
    assert main(["crusts", "I3*"]) == 2
    assert "no stellar model" in capsys.readouterr().err


def test_predict(capsys):
    crust = json.dumps({"n0": 5, "subbranches": [[5], [3, 1], [2]], "l": 1})
    code, record = run_json(capsys, ["predict", "II*", "--crust", crust])
    assert code == 0
    assert record["num_fibers"] == 5
    assert record["sings_per_fiber"] == 1
    assert record["location"] == "near_core"


def test_predict_hypothesis_failure_exits_1(capsys):
    crust = json.dumps({"n0": 1, "subbranches": [[1], [1], []], "l": 1})
    code, record = run_json(capsys, ["predict", "IV", "--crust", crust])
    assert code == 1
    assert record["condition"] == "tau_zero_degree"


@pytest.mark.parametrize(
    "crust,problem",
    [
        ("[1]", "must be a JSON object"),
        ('{"n0":1}', "lacks 'subbranches'"),
        ('{"n0":1,"subbranches":5}', "must be a list of lists"),
        ("nope", "Expecting value"),
        ('{"n0":"1","subbranches":[[],[],[]]}', "n0 must be an integer"),
    ],
)
def test_predict_malformed_crust_exits_2(capsys, crust, problem):
    assert main(["predict", "II*", "--crust", crust]) == 2
    assert problem in capsys.readouterr().err


@pytest.mark.parametrize("subbranches", [[[], [], []], [[1], [1], []]])
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_predict_bad_bark_multiplicity_exits_2(capsys, subbranches, json_flag):
    # the first crust also admits no core section; l is checked before it
    crust = json.dumps({"n0": 1, "subbranches": subbranches, "l": 0})
    assert main(["predict", "II", "--crust", crust] + json_flag) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: bark multiplicity must be positive"]


def test_localcheck(capsys):
    code, record = run_json(capsys, ["localcheck", "--m", "6", "--n", "4", "--t", "1+0i"])
    assert code == 0
    assert record["ok"] is True
    assert (record["m"], record["n"], record["l"], record["t"]) == (6, 4, 1, [1.0, 0.0])
    assert len(record["singular_values"]) == 2  # nbar = 4/gcd(6,4)
    for row in record["singular_values"]:
        assert len(row["points"]) == 2  # gcd(6,4)


def test_localcheck_negative_complex_with_equals(capsys):
    # "--t -2+1i" would read "-2+1i" as an option; the "=" form does not
    assert main(["localcheck", "--m", "3", "--n", "1", "--t=-2+1i"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("ok:")


_NOT_FINITE = "t must be finite"
_OUT_OF_RANGE = "singular values out of floating-point range"


@pytest.mark.parametrize(
    "args,message",
    [
        pytest.param(args, message, id="flag%d" % i)
        for i, (args, message) in enumerate(
            [
                (["--m", "3", "--t", "nan"], _NOT_FINITE),
                (["--m", "3", "--t", "inf"], _NOT_FINITE),
                (["--m", "3", "--t=-inf"], _NOT_FINITE),
                (["--m", "3", "--t=1+nani"], _NOT_FINITE),
                # finite t whose singular values overflow, or underflow to 0
                (["--m", "3", "--t=1e308+1e308i"], _OUT_OF_RANGE),
                (["--m", "24", "--t=1e200"], _OUT_OF_RANGE),
                (["--m", "24", "--t=1e13"], _OUT_OF_RANGE),
                (["--m", "24", "--t=1e-200"], _OUT_OF_RANGE),
                # s = -1.57e-314 is subnormal: underflow, not a singular value
                (["--m", "24", "--t=1e-13"], _OUT_OF_RANGE),
            ]
        )
    ],
)
def test_localcheck_non_finite_exits_2(capsys, args, message):
    assert main(["localcheck", "--n", "1"] + args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: " + message]


def test_localcheck_has_no_c_option(capsys):
    # t stands for t*h(0, 0): there is no separate unit value to pass
    assert main(["localcheck", "--m", "3", "--n", "1", "--c", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: barkfib ")
    assert captured.err.splitlines()[-1] == "barkfib: error: unrecognized arguments: --c 1"
    assert "Traceback" not in captured.err


def test_report_full_catalog(capsys):
    assert main(["report"]) == 0
    out = capsys.readouterr().out
    assert "35/35 case(s) match" in out


def test_report_single_case_json(capsys):
    code, record = run_json(capsys, ["report", "--case", "4.8"])
    assert code == 0
    case = record["cases"][0]
    assert case["ok"] is True
    assert case["ambiguous"] is True
    assert sorted(map(sorted, case["determined"])) == sorted(
        map(sorted, [["II", "I1"], ["I2", "I1"], ["I1", "I1", "I1"]])
    )


def test_report_missing_case_exits_2(capsys):
    assert main(["report", "--case", "9.9"]) == 2
    assert "no case" in capsys.readouterr().err


def test_report_mismatch_exits_1(tmp_path, capsys):
    fixture = {
        "schema": "barkfib/1",
        "stellar_models": {},
        "cases": [
            {
                "id": "x.1",
                "original": "II*",
                "main": "I8",
                "crust": None,
                "expected": [["I2"]],
            }
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(fixture))
    assert main(["report", "--fixture", str(path)]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_report_mismatch_shows_an_empty_multiset(tmp_path, capsys):
    fixture = {"cases": [{"id": "a", "original": "II", "main": "I1", "expected": [[]]}]}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(fixture))
    assert main(["report", "--fixture", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "case a  II -> I1: MISMATCH expected (none), got I1",
        "0/1 case(s) match",
    ]


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_report_deficit_above_the_limit_exits_2(tmp_path, capsys, json_flag):
    """Deficit 60 has 9,189,072 candidates; the case fails before any is built."""
    fixture = {"cases": [{"id": "big", "original": "I54*", "main": "I0", "expected": [[]]}]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(fixture))
    assert main(["report", "--fixture", str(path)] + json_flag) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "error: case big: deficit 60 has more than 10**6 candidate multisets; "
        "the largest deficit enumerated is 47"
    ]


@pytest.mark.parametrize(
    "fixture,problem",
    [
        ([1], "catalog must be a JSON object"),
        ({"cases": 5}, "catalog cases must be a list of objects"),
        ({"stellar_models": [1], "cases": []}, "stellar_models must be an object"),
        ({"cases": [{"id": "a"}]}, "case a lacks 'original'"),
        (
            {"cases": [{"id": "b", "original": "II", "main": "I1", "expected": 5}]},
            "case b: 'expected' must be a list of lists of strings",
        ),
        (
            {"stellar_models": {"II": {"core_mult": 6, "branches": 5}}, "cases": []},
            "stellar branches must be a list of lists",
        ),
        (
            {"cases": [{"id": "c", "original": "II", "main": "I1", "expected": [["I1x"]]}]},
            "case c: 'expected': cannot parse fiber string 'I1x'",
        ),
        (
            {
                "stellar_models": {"IV": {"core_mult": 6, "branches": [[4], [2], [1]]}},
                "cases": [
                    {
                        "id": "d",
                        "original": "IV",
                        "main": "I1",
                        "crust": {"n0": 1, "subbranches": [[1], [1], []], "l": 1},
                        "expected": [["I1", "I1", "I1"]],
                    }
                ],
            },
            "violates the chain condition",
        ),
        (
            {
                "stellar_models": {
                    "II": {"core_mult": 6, "core_genus": 1, "branches": [[3], [2], [1]]}
                },
                "cases": [
                    {
                        "id": "e",
                        "original": "II",
                        "main": "I1",
                        "crust": {"n0": 1, "subbranches": [[], [], [1]], "l": 1},
                        "expected": [["I1"]],
                    }
                ],
            },
            "error: stellar core_genus must be 0: only rational cores are supported",
        ),
        ({"cases": [{"id": "a\nb"}]}, "case a b lacks 'original'"),
        (
            {"cases": [{"id": "a\nb", "original": "II", "main": "I1", "expected": [["I1"]]}]},
            "case a b: 'id' must be one line",
        ),
        (
            {"cases": [{"id": 7, "original": "II", "main": "I1", "expected": [["I1"]]}]},
            "case 7: 'id' must be a string",
        ),
        (
            {"cases": [{"id": "f", "original": "IIx", "main": "I1", "expected": [["I1"]]}]},
            "error: case f: cannot parse fiber string 'IIx'",
        ),
        (
            {
                "stellar_models": {"II": {"core_mult": 6, "branches": [[3], [2], [1]]}},
                "cases": [
                    {
                        "id": "g",
                        "original": "II",
                        "main": "I1",
                        "crust": {"n0": 1},
                        "expected": [["I1"]],
                    }
                ],
            },
            "error: case g: crust lacks 'subbranches'",
        ),
        (
            {"cases": [{"id": "h", "original": "II", "main": "I3", "expected": [[]]}]},
            "error: case h: invalid main fiber: euler(I3) = 3 exceeds euler(II) = 2",
        ),
    ],
)
def test_report_malformed_fixture_exits_2(tmp_path, capsys, fixture, problem):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(fixture))
    assert main(["report", "--fixture", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert problem in captured.err


@pytest.mark.parametrize("command", ["predict", "report"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command):
    deep = "[" * 100000
    if command == "predict":
        argv = ["predict", "II", "--crust", deep]
    else:
        path = tmp_path / "deep.json"
        path.write_text(deep)
        argv = ["report", "--fixture", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: JSON nests too deeply to decode"]


def test_report_fixture_keeps_its_own_models(tmp_path, capsys):
    """A --fixture file is not topped up with the packaged models."""
    case = {
        "id": "y.1",
        "original": "II",
        "main": "I1",
        "crust": {"n0": 1, "subbranches": [[], [], [1]], "l": 1},
        "expected": [["I1"]],
    }
    path = tmp_path / "no_models.json"
    path.write_text(json.dumps({"stellar_models": {}, "cases": [case]}))
    assert main(["report", "--fixture", str(path)]) == 2
    assert "case y.1 names no stellar model" in capsys.readouterr().err


@pytest.mark.parametrize(
    "case,line",
    [
        (  # the one candidate, I1, is trace-forbidden
            {"id": "a", "original": "I1*", "main": "I6", "expected": [["I1"]]},
            "case a  I1* -> I6: MISMATCH expected I1, got (impossible)",
        ),
        (  # deficit 0 between two classes: the empty candidate is forbidden
            {"id": "b", "original": "II", "main": "I2", "expected": [[]]},
            "case b  II -> I2: MISMATCH expected (none), got (impossible)",
        ),
    ],
)
def test_report_mismatch_shows_an_impossible_splitting(tmp_path, capsys, case, line):
    path = tmp_path / "impossible.json"
    path.write_text(json.dumps({"cases": [case]}))
    assert main(["report", "--fixture", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [line, "0/1 case(s) match"]


def test_report_infeasible_crust_is_one_case(tmp_path, capsys):
    """A crust predicting more singular points than the Euler deficit is
    reported as its case's survivors; the other cases still run."""
    fixture = {
        "stellar_models": {"II": {"core_mult": 6, "branches": [[3], [2], [1]]}},
        "cases": [
            {"id": "z.1", "original": "II", "main": "I0", "expected": [["II"], ["I1", "I1"]]},
            {
                "id": "z.2",
                "original": "II",
                "main": "I1",
                "crust": {"n0": 4, "subbranches": [[2], [1], [1]], "l": 1},
                "expected": [["I1"]],
            },
        ],
    }
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps(fixture))
    assert main(["report", "--fixture", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "case z.1  II -> I0: I1+I1 or II",
        "case z.2  II -> I1: I1",
        "2/2 case(s) match",
    ]
    assert main(["report", "--json", "--fixture", str(path)]) == 0
    case = json.loads(capsys.readouterr().out)["cases"][1]
    assert case["evidence"][-1] == (
        "counting result infeasible (deficit 1 below the 2 predicted singularities);"
        " keeping the survivors"
    )


def test_verify_words_all_pass(capsys):
    assert main(["verify-words"]) == 0
    out = capsys.readouterr().out
    assert "26/26 identities verified" in out


def test_verify_words_negative_control(capsys, monkeypatch):
    rows = all_witnesses()
    label, w = rows[3]
    (base, conjugator), rest = w.factors[0], w.factors[1:]
    bad = FactorizationWitness(w.target, ((base, conjugator * word(("s0", 1))),) + rest)
    rows[3] = (label + " [corrupted]", bad)
    monkeypatch.setattr(cli, "all_witnesses", lambda: rows)
    assert main(["verify-words"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  %s [corrupted]" % label in out
    assert "25/26 identities verified" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--mat", "1,1,0,1"],
        ["euler", "I5", "II"],
        ["factorize", "II", "I1", "I1"],
        ["factorize", "IV", "I2", "I2"],
        ["obstruct", "II*", "I8", "II"],
        ["crusts", "II"],
        ["predict", "II*", "--crust", '{"n0": 5, "subbranches": [[5], [3, 1], [2]], "l": 1}'],
        ["localcheck", "--m", "3", "--n", "1"],
        ["report"],
        ["report", "--case", "2.4"],
        ["verify-words"],
    ],
    ids=" ".join,
)
def test_json_output_is_one_sorted_object_with_schema(capsys, argv):
    main(argv + ["--json"])
    out = capsys.readouterr().out
    record = json.loads(out)
    assert out == json.dumps(record, indent=2, sort_keys=True) + "\n"
    assert record["schema"] == "barkfib/1"


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    # a one-part decomposition is decided by the class rule, not a trace rule
    assert "obstructions for a decomposition" in out
    assert "trace obstructions" not in out


def _assert_one_error_line_or(codes, argv):
    """Exit 2 with one `error:` line and no output, or a code in `codes`
    with nothing on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 2:
        assert out.getvalue() == ""
        [line] = err.getvalue().splitlines()
        assert line.startswith("error: ")
    else:
        assert code in codes and err.getvalue() == ""


# Text for the fuzz: arbitrary strings, near-misses built from the pieces
# the parsers look for, numbers, and JSON: any value, and crust-shaped
# objects.
_PIECES = st.sampled_from(
    ["s0", "s2", "^", "-", "I", "II", "*", "1", "0", ",", " ", "e3", "j", "+", "[", "{"]
)
_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(0, 6) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n0", "subbranches", "l"]), inner),
    max_leaves=12,
)
_CRUST = st.fixed_dictionaries(
    {
        "n0": st.integers(1, 3),
        "subbranches": st.lists(st.sampled_from([[], [1]]), min_size=3, max_size=4),
    },
    optional={"l": st.integers(1, 2)},
)
_FUZZ = st.one_of(
    st.text(),
    st.lists(_PIECES | st.text(max_size=3)).map("".join),
    (st.integers(-9, 9) | st.floats() | st.complex_numbers()).map(str),
    (_JSON_VALUE | _CRUST).map(json.dumps),
)


@pytest.mark.parametrize(
    "argv,codes",
    [
        (["classify", "--mat={}"], {0, 3}),
        (["classify", "--word={}"], {0, 3}),
        (["euler", "--", "{}"], {0}),
        (["factorize", "--max-conj-len", "0", "--", "{}", "I1"], {0, 1}),
        (["factorize", "--max-conj-len", "0", "--", "II", "{}"], {0, 1}),
        (["predict", "II", "--crust={}"], {0, 1}),
        (["predict", "I0*", "--crust={}"], {0, 1}),
        (["localcheck", "--m", "3", "--n", "2", "--t={}"], {0, 1}),
    ],
    ids=[
        "classify-mat",
        "classify-word",
        "euler",
        "factorize-target",
        "factorize-part",
        "predict-II",
        "predict-I0*",
        "localcheck-t",
    ],
)
@given(text=_FUZZ)
def test_cli_fuzz_fails_with_one_error_line(argv, codes, text):
    _assert_one_error_line_or(codes, [arg.replace("{}", text) for arg in argv])


# Fixture contents for the fuzz: the packaged stellar models and cases
# whose fiber names keep the Euler deficit at most 6, because the number
# of candidate multisets grows exponentially with the deficit; a case of
# a packaged model may carry one of its simple crusts.  One level of the
# file is also drawn malformed: small models that may break the chain
# condition, crusts of any shape, and at that level objects with one key
# dropped or given any JSON value, so every check of its reader is reached.
def _spoiled(well_formed):
    """`well_formed`, or one of its objects with one key dropped or given
    any JSON value."""

    @st.composite
    def spoil(draw):
        obj = dict(draw(well_formed))
        key = draw(st.sampled_from(sorted(obj)))
        if draw(st.booleans()):
            del obj[key]
        else:
            obj[key] = draw(_JSON_VALUE)
        return obj

    return well_formed | spoil()


_EULER = {
    name: euler(parse_fiber(name)) for name in ("I0", "I1", "I2", "I3", "II", "III", "IV", "I0*")
}
_NAME = st.sampled_from(sorted(_EULER))
_CATALOG_MODELS = json.loads(
    resources.files("barkfib").joinpath("fixtures/catalog.json").read_text()
)["stellar_models"]
_PACKAGED = {name: _CATALOG_MODELS[name] for name in ("II", "III", "IV", "I0*")}
_SIMPLE_CRUSTS = {
    name: [
        crust_to_json(c)
        for l in (1, 2)
        for c in enumerate_simple_crusts(STELLAR_MODELS[name], l)
    ]
    for name in _PACKAGED
}
_SMALL_MODEL = st.fixed_dictionaries(
    {
        "core_mult": st.integers(-1, 6),
        "branches": st.lists(st.lists(st.integers(0, 6), max_size=3), min_size=1, max_size=4),
    },
    optional={"core_genus": st.integers(-1, 1)},
)
_SMALL_CRUST = st.fixed_dictionaries(
    {
        "n0": st.integers(0, 4),
        "subbranches": st.lists(
            st.sampled_from([[], [1], [2], [1, 1], [2, 1], [0]]), min_size=3, max_size=4
        ),
        "l": st.integers(0, 3),
    }
)


@st.composite
def _fixture(draw, malformed):
    models = dict(_PACKAGED)
    if malformed == "models":
        models.update(draw(st.dictionaries(_NAME, _spoiled(_SMALL_MODEL), min_size=1, max_size=2)))
    cases = []
    for _ in range(draw(st.integers(1, 3))):
        original = draw(st.sampled_from(sorted(_PACKAGED)) | _NAME)
        below = [name for name, e in _EULER.items() if e <= _EULER[original]]
        simple = _SIMPLE_CRUSTS.get(original)
        if malformed == "crust":
            shapes = _SMALL_CRUST | st.sampled_from(simple) if simple else _SMALL_CRUST
            crust = draw(_spoiled(shapes))
        else:
            crust = draw(st.none() | st.sampled_from(simple)) if simple else None
        case = {
            "id": draw(st.text(max_size=3)),
            "original": original,
            "main": draw(st.sampled_from(below)),
            "crust": crust,
            "expected": draw(st.lists(st.lists(_NAME, max_size=6), max_size=3)),
        }
        cases.append(draw(_spoiled(st.just(case))) if malformed == "case" else case)
    fixture = {"stellar_models": models, "cases": cases}
    if malformed == "fixture":
        return draw(_spoiled(st.just(fixture)) | _JSON_VALUE)
    return fixture


@pytest.mark.parametrize("malformed", ["fixture", "models", "case", "crust"])
@given(data=st.data(), as_json=st.booleans())
def test_report_fixture_fuzz_fails_with_one_error_line(tmp_path_factory, malformed, data, as_json):
    path = tmp_path_factory.getbasetemp() / "fuzzed_fixture.json"
    path.write_text(json.dumps(data.draw(_fixture(malformed))))
    argv = ["report", "--fixture", str(path)] + (["--json"] if as_json else [])
    _assert_one_error_line_or({0, 1}, argv)
