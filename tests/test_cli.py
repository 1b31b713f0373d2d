import argparse
import contextlib
import functools
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spectacle
from spectacle import cli, exact_arith, periods, qseries, shintani_lift, theta11
from spectacle.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_theta11_json(capsys):
    code, out = run_cli(capsys, "theta11", "--k", "3", "--nmax", "4")
    assert code == 0
    d = json.loads(out)
    assert d["coeffs"][0] == [0, "1/120"]
    assert d["coeffs"][1] == [1, "2"]


def test_eisenstein_table(capsys):
    code, out = run_cli(capsys, "eisenstein", "--weight", "4", "--nmax", "2", "--format", "table")
    assert code == 0
    assert "q^0" in out and "240" in out


@pytest.mark.parametrize(
    "argv, head",
    [
        (["theta11", "--k", "3", "--nmax", "4"],
         ["# theta series, k=3", "# exponent denominator 1", "q^0     1/120"]),
        (["lift", "--k", "3", "--h", "half", "--nmax", "8"],
         ["# lift report k=3 h=half n_max=8", "equal: True", "# theta side",
          "# exponent denominator 4", "q^1/4   -1/60"]),
        (["cohen", "--r", "2", "--nmax", "5"],
         ["# H(2, N)", "# exponent denominator 1", "q^0     1/120"]),
        (["intersect", "--x", "1,0,1", "--y", "0,1,0"],
         ["epsilon = 1, numeric sign = 1, point = 0 + 1 i"]),
    ],
)
def test_table_header(argv, head, capsys):
    code, out = run_cli(capsys, *argv, "--format", "table")
    assert code == 0
    assert out.splitlines()[: len(head)] == head


@pytest.mark.parametrize(
    "argv",
    [
        ["theta11", "--k", "3", "--nmax", "4"],
        ["lift", "--k", "1", "--h", "0", "--nmax", "6"],
        ["cohen", "--r", "2", "--nmax", "5"],
        ["eisenstein", "--weight", "4", "--nmax", "2"],
    ],
)
def test_json_call_renders_no_table(argv, capsys, monkeypatch):
    def refuse(*_):
        raise AssertionError("a JSON call rendered its table")

    monkeypatch.setattr(cli, "_series_table", refuse)
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)


def test_cohen_json(capsys):
    code, out = run_cli(capsys, "cohen", "--r", "2", "--nmax", "5")
    assert code == 0
    d = json.loads(out)
    coeffs = dict((n, v) for n, v in d["coeffs"])
    assert coeffs[0] == "1/120"
    assert coeffs[4] == "-7/12"


def test_lift_check_passes(capsys):
    code, out = run_cli(capsys, "lift", "--k", "1", "--h", "0", "--nmax", "20", "--check")
    assert code == 0
    d = json.loads(out)
    assert d["equal_to"] == 20
    assert d["sign_convention"]["sigma_glob"] in (-1, 1)


@pytest.mark.parametrize(
    "k, flags, want",
    [
        (1, ["--cohen"], {"lambda": "10", "target": "Cohen r = 2"}),
        (3, ["--cohen"], {"lambda": "-2", "target": "Cohen r = 4"}),
        (2, ["--cohen"], None),  # even k: no Cohen target
        (5, ["--cohen"], None),  # dim M_12 = 2: the series is not a multiple of H(6, .)
        (1, [], None),  # the comparison runs only on request
    ],
)
def test_lift_cohen_proportionality(capsys, k, flags, want):
    code, out = run_cli(capsys, "lift", "--k", str(k), "--h", "0", "--nmax", "8", *flags)
    assert code == 0
    assert json.loads(out)["proportionality"] == want


@pytest.mark.parametrize(
    "k, h, nmax", [(3, "half", "40"), (1, "0", "10")], ids=["k3-half", "k1-0"]
)
def test_lift_cohen_builds_each_coset_once(capsys, monkeypatch, k, h, nmax):
    # --cohen reads its own coset from the plus-space pair: two cosets, each
    # side built once, not the requested coset a second time
    calls = {"lift_theta_side": 0, "lift_geometric_side": 0}
    for name in calls:
        side = getattr(shintani_lift, name)

        def counted(cfg, name=name, side=side):
            calls[name] += 1
            return side(cfg)

        monkeypatch.setattr(shintani_lift, name, counted)
    code, out = run_cli(capsys, "lift", "--k", str(k), "--h", h, "--nmax", nmax, "--cohen")
    assert code == 0
    assert json.loads(out)["proportionality"] is not None
    assert calls == {"lift_theta_side": 2, "lift_geometric_side": 2}


def test_lift_half_coset(capsys):
    code, out = run_cli(capsys, "lift", "--k", "1", "--h", "half", "--nmax", "12")
    assert code == 0
    d = json.loads(out)
    assert d["exp_den"] == 4
    assert d["theta_side"]["coeffs"][0] == [1, "-5/6"]


def test_caps_assemble(capsys):
    code, out = run_cli(capsys, "caps", "--k", "1", "--x", "0,1,0", "--level", "3")
    assert code == 0
    d = json.loads(out)
    assert d["caps"]["cap_first"] == ["1", "1", "1/6"]
    assert d["caps"]["cap_second"] == ["-1/2", "1", "-1/3"]


def test_caps_closed_form(capsys):
    code, out = run_cli(capsys, "caps", "--k", "2", "--i", "1", "--r", "1/2", "--M", "2")
    assert code == 0
    d = json.loads(out)
    assert len(d["cap"]) == 5


def test_lvalue(capsys):
    code, out = run_cli(capsys, "lvalue", "--weight", "4", "--j", "0", "--T", "3,10")
    assert code == 0
    d = json.loads(out)
    assert abs(float(d["value"]) + 5 / 3) < 1e-8
    assert float(d["t_spread"]) < 1e-8


def test_intersect(capsys):
    code, out = run_cli(capsys, "intersect", "--x", "1,0,1", "--y", "0,1,0")
    assert code == 0
    d = json.loads(out)
    assert d["epsilon"] == 1 and d["numeric_sign"] == 1 and d["agree"]
    assert d["point"] == ["0", "1"]


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["caps", "--k", "2", "--x", "0,0,0"],
        ["caps", "--k", "1", "--x", "1,2"],
        ["lift", "--k", "0"],
        ["cohen", "--r", "0"],
        ["eisenstein", "--weight", "3"],
        ["lvalue", "--weight", "4", "--T", "3,x"],
        ["lvalue", "--weight", "4", "--T", "0.5,3"],
        ["caps", "--k", "1", "--x", "1/0,1,0"],
        ["intersect", "--x", "1,0,1", "--y", "0,1/0,0"],
        ["theta11", "--k", "3", "--wu", "1/0"],
        ["caps", "--k", "1", "--r", "1/0"],
        ["lvalue", "--weight", "4", "--T", "inf,3"],
        ["lvalue", "--weight", "4", "--T", "nan,3"],
        ["intersect", "--x", "1e400,0,1", "--y", "0,1,0"],
        ["lvalue", "--weight", "4", "--j=1/2"],
        ["lift", "--k", "x"],
        ["cohen", "--r", "1.5"],
        ["lvalue", "--weight", "60", "--j=1", "--T", "3,10"],
        ["lvalue", "--weight", "48", "--T", "3,10"],
    ],
    ids=" ".join,
)
def test_bad_input_is_one_line_error(argv, capsys):
    # bad values end in a return of 2, argparse's usage errors in SystemExit(2)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("spectacle: error: ")
    assert "Traceback" not in captured.err


_BAD_HEIGHT = "truncation heights must be finite and exceed 1"


@pytest.mark.parametrize(
    "heights, message",
    [
        ("1,3", _BAD_HEIGHT),
        ("0.5,3", _BAD_HEIGHT),
        ("nan,3", _BAD_HEIGHT),
        ("inf,3", _BAD_HEIGHT),
        ("3,x", "could not convert string to float: 'x'"),
    ],
    ids=["1,3", "0.5,3", "nan,3", "inf,3", "3,x"],
)
def test_lvalue_bad_height_has_one_message(heights, message, capsys):
    # lvalue checks --T itself: one message for every height that is not finite and > 1
    assert main(["lvalue", "--weight", "4", "--T", heights]) == 2
    assert capsys.readouterr() == ("", f"spectacle: error: {message}\n")


def _first_call(capsys, argv):
    """Exit code and stdout of ``argv`` as the first call of a process."""
    cli._parser.cache_clear()
    cli._table.cache_clear()
    code = main(argv)
    return code, capsys.readouterr().out


_LVALUE_4 = ["lvalue", "--weight", "4"]


@pytest.mark.parametrize(
    "before, argv, defaults",
    [
        # j = 1 is out of range at weight 4: parsed, then rejected by the handler
        (["lvalue", "--weight", "4", "--j=1", "--format", "table"], _LVALUE_4, {"j": 0}),
        (["lvalue", "--weight", "6", "--j=1", "--format", "table"], _LVALUE_4, {"j": 0}),
        # the closed form, not the assembled cycle: --x is back to None
        (["caps", "--k", "1", "--x", "0,1,0", "--level", "5"], ["caps", "--k", "1", "--i", "0"],
         {"i": 0, "M": "1"}),
    ],
    ids=["lvalue rejected j", "lvalue j and format", "caps x"],
)
def test_shared_parser_keeps_no_state_between_calls(before, argv, defaults, capsys):
    code, want = _first_call(capsys, argv)
    assert code == 0
    _first_call(capsys, before)
    assert main(argv) == 0
    assert capsys.readouterr().out == want
    payload = json.loads(want)  # JSON, not the table of the call before
    assert {name: payload[name] for name in defaults} == defaults


def test_shared_parser_recovers_from_a_usage_error(capsys):
    _, want = _first_call(capsys, _LVALUE_4)
    with pytest.raises(SystemExit) as exc:
        main([*_LVALUE_4, "--j=1/2"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(_LVALUE_4) == 0
    assert capsys.readouterr() == (want, "")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["caps", "--k", "0", "--i", "0"], "k must be >= 1"),
        (["caps", "--k", "2", "--i", "3"], "weight index i=3 out of range [-1, 2]"),
    ],
    ids=["k=0", "i out of range"],
)
def test_caps_closed_form_names_the_bad_argument(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"spectacle: error: {message}\n"


def test_caps_takes_no_format_flag(capsys):
    # caps prints JSON only, so a --format would be a no-op
    with pytest.raises(SystemExit) as exc:
        main(["caps", "--k", "1", "--x", "0,1,0", "--format", "table"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_lvalue_large_finite_height_is_accepted(capsys):
    code, out = run_cli(capsys, "lvalue", "--weight", "4", "--T", "1000,3")
    assert code == 0
    assert json.loads(out)["heights"] == [1000.0, 3.0]


@pytest.mark.parametrize("heights", ["1e300,3", "1e200,3"])
def test_lvalue_height_past_float_range_is_accepted(heights, capsys):
    # no height reaches the float sum, so not even T^(2k) past the float range
    want = json.loads(run_cli(capsys, "lvalue", "--weight", "4", "--T", "3,10")[1])["value"]
    code, out = run_cli(capsys, "lvalue", "--weight", "4", "--T", heights)
    assert code == 0
    assert json.loads(out)["value"] == want


def test_lvalue_weight8_at_height_1e10(capsys):
    # the exact a_0 mode leaves nothing of size T^(2k) to cancel in floats
    code, out = run_cli(capsys, "lvalue", "--weight", "8", "--T", "1e10,3")
    assert code == 0
    d = json.loads(out)
    assert abs(float(d["value"]) + 2 / 15) < 1e-8
    assert float(d["t_spread"]) < 1e-8


@pytest.mark.parametrize("flags", [["--out", "report.txt"], ["--format", "table"]])
def test_verify_all_rejects_output_flags(flags, tmp_path, monkeypatch, capsys):
    # verify-all prints its criteria to stdout; it takes no output options
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["verify-all", *flags])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "report.txt").exists()


@pytest.mark.parametrize("argv", [["--help"], ["lvalue", "--help"]], ids=" ".join)
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: spectacle" in capsys.readouterr().out


_COMMAND_NAMES = [
    "theta11", "lift", "caps", "cohen", "eisenstein", "lvalue", "intersect", "verify-all"
]


@pytest.fixture
def registered(monkeypatch):
    """Names of the subcommand argparse parsers each call builds, starting
    from an empty parser cache, as in a fresh process."""
    cli._parser.cache_clear()
    names = []
    fill = cli._fill

    def counting(parser, name):
        names.append(name)
        return fill(parser, name)

    monkeypatch.setattr(cli, "_fill", counting)
    return names


@pytest.fixture
def tables(monkeypatch):
    """Names of the subcommand tables each call builds, starting from an
    empty table cache, as in a fresh process."""
    names = []
    build = cli._table.__wrapped__

    def counting(name):
        names.append(name)
        return build(name)

    monkeypatch.setattr(cli, "_table", functools.cache(counting))
    return names


@pytest.fixture
def no_argparse_parse(monkeypatch):
    """Make every argparse parse fail the test."""
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"argparse parsed for {self.prog}")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)


@pytest.mark.parametrize(
    "argv",
    [["eisenstein", "--weight", "4", "--nmax", "2"], ["lvalue", "--weight", "4"]],
    ids=" ".join,
)
def test_known_subcommand_registers_only_its_parser(argv, registered, tables, no_argparse_parse,
                                                   capsys):
    # its own table, and no argparse parser at all
    assert main(argv) == 0
    assert (tables, registered) == ([argv[0]], [])


def test_repeat_call_builds_no_parser(registered, tables, no_argparse_parse, capsys):
    assert main(_LVALUE_4) == 0
    first = capsys.readouterr().out
    assert (tables, registered) == (["lvalue"], [])
    tables.clear()
    assert main(_LVALUE_4) == 0
    assert capsys.readouterr().out == first
    assert (tables, registered) == ([], [])


@pytest.mark.parametrize("argv", [["--help"], ["-h"], [], ["bogus"], ["--format", "json"]])
def test_help_and_bad_argv_register_every_subcommand(argv, registered, tables, capsys):
    with pytest.raises(SystemExit):
        main(argv)
    assert (registered, tables) == (_COMMAND_NAMES, [])


@pytest.mark.parametrize("name", _COMMAND_NAMES)
def test_subcommand_help_matches_the_all_commands_parser(name, registered, tables, capsys):
    with pytest.raises(SystemExit):
        main([name, "--help"])
    alone = capsys.readouterr().out
    assert (registered, tables) == ([name], [name])
    with pytest.raises(SystemExit):
        cli._parser(None).parse_args([name, "--help"])
    assert capsys.readouterr().out == alone
    assert registered[1:] == _COMMAND_NAMES


# one argv per subcommand; verify-all runs with an empty criteria list
_ONE_ARGV = [
    ["theta11", "--k", "1", "--nmax", "2"],
    ["lift", "--k", "1", "--nmax", "2"],
    ["caps", "--k", "1", "--i", "0"],
    ["cohen", "--r", "1", "--nmax", "2"],
    ["eisenstein", "--weight", "4", "--nmax", "2"],
    _LVALUE_4,
    ["intersect", "--x", "1,0,1", "--y", "0,1,0"],
    ["verify-all"],
]


@pytest.mark.parametrize("argv", _ONE_ARGV, ids=" ".join)
def test_a_call_parses_its_argv_once(argv, no_argparse_parse, monkeypatch, capsys):
    from spectacle import verify

    monkeypatch.setattr(verify, "CRITERIA", [])
    walks = []
    parse = cli._parse

    def counting(name, args):
        walks.append((name, args))
        return parse(name, args)

    monkeypatch.setattr(cli, "_parse", counting)
    assert main(argv) == 0
    assert walks == [(argv[0], argv[1:])]


def _readme_commands():
    """The argv of every ``spectacle ...`` line in README's "Command line" block."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text().split("## Command line", 1)[1].split("\n```\n", 1)[0]
    return [line.split("#")[0].split()[1:] for line in block.splitlines()
            if line.startswith("spectacle ")]


_README_ARGV = _readme_commands()


# one argv of each op kind the benchmark's workloads generate, in their spelling
_BENCHMARK_ARGV = [
    ["lift", "--k", "3", "--h", "half", "--nmax", "40", "--check"],
    ["theta11", "--k", "2", "--nmax", "30"],
    ["cohen", "--r", "2", "--nmax", "200"],
    ["caps", "--k", "3", "--x=1,-2,5", "--level", "4"],
    ["caps", "--k", "5", "--i=-2", "--r=-7/3", "--M=11/8"],
    ["intersect", "--x=1,0,1", "--y=0,1,0"],
    ["eisenstein", "--weight", "10", "--nmax", "62"],
    ["lvalue", "--weight", "12", "--j=-3", "--T", "3,10"],
]


@pytest.mark.parametrize("argv", _README_ARGV + _BENCHMARK_ARGV, ids=" ".join)
def test_standalone_parse_equals_the_all_commands_parse(argv):
    assert len(_README_ARGV) >= 10  # the README block was found
    alone = cli._parser(argv[0]).parse_args(argv[1:])
    assert vars(alone) == vars(cli._parser(None).parse_args(argv))
    assert vars(cli._parse(argv[0], argv[1:])) == vars(alone)


def _outcome(parse, argv):
    """(namespace dict or exit code, stdout, stderr) of ``parse(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _argparse_reading(name):
    """argparse's parse of a subcommand's argv, where a value that argparse
    strips to [] (``--x=--``) is refused as missing."""
    parser = cli._parser(name)

    def parse(argv):
        args = parser.parse_args(argv)
        for dest, value in vars(args).items():
            if isinstance(value, list):
                parser.error(f"argument --{dest}: expected one argument")
        return args

    return parse


_WORDS = [
    "1", "0", "-1", "-0.5", "-7/3", "--", "-", "", "x", "1.5", "json", "table", "half",
    "1,0,1", "3,10", " 2", "a b", "1_0", "\u0663", "-hx", "-a b", "--x=--",
    "-x", "---", "--bogus", "-1\n",
]


def _tokens(name):
    """Argv pieces for subcommand ``name``: an option and a word, as two
    tokens or as ``option=word``; an option string or a prefix of one; a
    word."""
    options = [flag for flag, _ in cli._COMMANDS[name][1]] or ["--help"]
    flags = ["-h", "--help", *options]
    prefixes = sorted({f[:n] for f in flags if f.startswith("--") for n in range(2, len(f))})
    words = st.sampled_from(_WORDS)
    return st.one_of(
        st.tuples(st.sampled_from(options), words).map(list),
        st.builds("{}={}".format, st.sampled_from(options), words).map(lambda t: [t]),
        st.sampled_from(flags + prefixes).map(lambda t: [t]),
        words.map(lambda t: [t]),
    )


def _required(name):
    """A value for every required option of subcommand ``name``."""
    return [token for flag, spec in cli._COMMANDS[name][1] if spec.get("required")
            for token in (flag, "1")]


_SUBCOMMAND_ARGV = st.sampled_from(_COMMAND_NAMES).flatmap(lambda name: st.tuples(
    st.just(name),
    st.builds(lambda head, pieces: head + sum(pieces, []),
              st.sampled_from([[], _required(name)]), st.lists(_tokens(name), max_size=4)),
))


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(case=_SUBCOMMAND_ARGV)
@example(case=("lift", ["--k", "3", "--c"]))  # an ambiguous prefix
@example(case=("theta11", ["--k", "1", "--w", "1"]))
@example(case=("lvalue", ["--wei", "4"]))  # a unique prefix
@example(case=("lvalue", ["--weight=4", "--j", "-1", "--T", "-0.5"]))  # negative numbers are values
@example(case=("caps", ["--k", "2", "--i=0", "--r", "-7/3"]))  # ... but -7/3 is an option
@example(case=("lvalue", ["--weight", "4", "--", "--j", "1"]))
@example(case=("lvalue", ["--weight", "4", "-"]))
@example(case=("caps", ["--k", "1", "--x", ""]))
@example(case=("caps", ["--k", "1", "--x=--"]))  # argparse strips the value to []
@example(case=("lift", ["--k=--", "--nmax", "4"]))
@example(case=("intersect", ["--y=--", "--x=--"]))
@example(case=("lvalue", ["--weight", "4", "--weight", "6", "--j=1", "--j=2"]))  # the last wins
@example(case=("lift", ["--k", "1", "--nmax", "2", "--check=1"]))
@example(case=("lift", ["--k", "x", "--h", "third"]))
@example(case=("lift", ["--h", "third", "--k", "x"]))
@example(case=("intersect", ["leftover", "--bogus"]))  # required before unrecognized
@example(case=("lift", ["--help", "--k", "x"]))
@example(case=("lift", ["--k", "x", "--help"]))
@example(case=("lift", ["--help", "--c"]))  # an ambiguity anywhere comes first
@example(case=("lift", ["--k", "x", "--nmax", "4", "--c"]))
@example(case=("lvalue", ["-hh"]))
@example(case=("lvalue", ["-hhx"]))
@example(case=("lvalue", ["--weight", "4", "-h="]))
@example(case=("verify-all", ["--=x"]))
@example(case=("verify-all", ["--he=x"]))
def test_table_parse_equals_argparse(case):
    name, argv = case
    assert _outcome(functools.partial(cli._parse, name), argv) == _outcome(
        _argparse_reading(name), argv)


def _dumps(value):
    return json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("argv", _README_ARGV + _BENCHMARK_ARGV, ids=" ".join)
def test_json_writer_equals_json_dumps_on_the_payload(argv, monkeypatch, capsys):
    payloads = []
    emit = cli._emit

    def recording(args, payload, table=None):
        payloads.append(payload)
        emit(args, payload, table)

    monkeypatch.setattr(cli, "_emit", recording)
    assert main(argv) == 0
    out = capsys.readouterr().out
    (payload,) = payloads
    assert cli._json_text(payload) == _dumps(payload)
    if "table" not in argv:
        assert out == _dumps(payload) + "\n"


class _Str(str):
    pass


class _Int(int):
    pass


_EDGE_VALUES = [
    {}, [], (), "", {"a": {}}, {"a": []}, [[]], [{}], [[], {}, [[], {"b": {}}]],
    {"\u00e9t\u00e9": "\u2713 \U0001d11e \u2028", "q\"uote": "back\\slash\n\ttab\x00\x1f\x7f"},
    -0.0, 0.0, 1e300, -1e-300, 1.5, float("inf"), float("-inf"), float("nan"),
    True, False, 1, 0, -1, 10**40, None,
    [True, 1, False, 0, None], {"one": 1, "true": True, "zero": 0, "false": False},
    {"b": [1.0, -0.0, (2, "x")], "a": None, "B": "", "": 3},
    [_Str("sub\u00e9"), _Int(7)], {_Str("key"): _Int(-2)},
    5e-324, -5e-324, 1.7976931348623157e308, 1e16, 1e-7, 0.1,
    {"heights": [-0.0, 5e-324, 1e300, float("nan"), float("inf"), float("-inf")],
     "flags": [True, False, None]},
]


@pytest.mark.parametrize("value", _EDGE_VALUES, ids=repr)
def test_json_writer_equals_json_dumps_on_edge_values(value):
    assert cli._json_text(value) == _dumps(value)


def test_json_writer_refuses_what_it_cannot_encode():
    for value in (Fraction(1, 2), {1: "int key"}, {"a": {2, 3}}):
        with pytest.raises(TypeError):
            cli._json_text(value)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(value=_JSON_VALUES)
def test_json_writer_equals_json_dumps(value):
    assert cli._json_text(value) == _dumps(value)


def _fresh_env(**environ):
    """The test's environment with this package first on PYTHONPATH, no
    SPECTACLE_LOG unless given, and ``environ`` added."""
    src = str(Path(spectacle.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("SPECTACLE_LOG", None)
    return dict(env, **environ)


def _fresh_process(argv, **environ):
    """(exit code, stdout, stderr) of ``python -m spectacle argv`` in a new
    interpreter, with ``environ`` added to its environment."""
    done = subprocess.run([sys.executable, "-m", "spectacle", *argv], env=_fresh_env(**environ),
                          capture_output=True, check=False)
    return done.returncode, done.stdout, done.stderr


def test_module_entry_point_prints_what_main_prints(capsys):
    argv = ["lvalue", "--weight", "4", "--j", "0", "--T", "3,10"]
    code, out = run_cli(capsys, *argv)
    assert _fresh_process(argv) == (code, out.encode(), b"")


def test_lvalue_reads_no_cap(capsys):
    # with every cap formula refusing, before any module reads it, lvalue
    # prints the same bytes: the float layer sums the axis halves alone
    argv = ["lvalue", "--weight", "12", "--j=2", "--T", "2,4,7.1"]
    code, out = run_cli(capsys, *argv)
    assert _fresh_process(argv) == (code, out.encode(), b"")
    probe = (
        "import sys\n"
        "from spectacle import caps\n"
        "def refuse(*args): raise AssertionError('a cap was read')\n"
        "caps.cap_closed_form = caps.cap_solve = refuse\n"
        "from spectacle import cli\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe, *argv], env=_fresh_env(),
                          capture_output=True, check=False)
    assert (done.returncode, done.stdout, done.stderr) == (code, out.encode(), b"")


def test_periods_import_leaves_caps_unloaded():
    # the float layer reads no cap: the caps' cancellation is checked in verify
    probe = "import sys, spectacle.periods; print('spectacle.caps' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=_fresh_env(),
                          capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


def test_cli_import_leaves_scipy_integrate_unloaded():
    # the package has no runtime dependency: neither the CLI nor completed_L
    # (its incomplete gamma is written with the standard library) loads scipy.
    # Nor does a CLI call's start-up (the benchmark's set-up probe, then one
    # call) load dataclasses, logging or the acceptance matrix.
    probe = (
        "import os, sys, spectacle.cli\n"
        "from spectacle import shintani_lift, theta11\n"
        "def loaded(): return [m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "                      or m in ('dataclasses', 'logging', 'spectacle.verify')]\n"
        "print(loaded())\n"
        "shintani_lift.arbitrate_signs()\n"
        "theta11.global_sign()\n"
        "print(loaded())\n"
        "assert spectacle.cli.main(['lift', '--k', '1', '--nmax', '4', '--out', os.devnull]) == 0\n"
        "print(loaded())\n"
        "from spectacle.periods import HolomorphicFormSpec, completed_L\n"
        "completed_L(HolomorphicFormSpec.eisenstein(6), 2)\n"
        "print(loaded())\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=_fresh_env(),
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == ["[]"] * 4


def test_a_call_imports_no_argparse_and_help_does():
    # argparse (with gettext and locale) costs milliseconds of start-up, and
    # only help and the top-level errors use it
    probe = (
        "import sys\n"
        "from spectacle import cli\n"
        "watched = ('argparse', 'gettext', 'locale')\n"
        "assert cli.main(['eisenstein', '--weight', '4', '--nmax', '2']) == 0\n"
        "print('loaded', [m for m in watched if m in sys.modules])\n"
        "try:\n"
        "    cli.main(['lvalue', '--help'])\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, 'argparse' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=_fresh_env(),
                          capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    assert "loaded []" in lines and lines[-1] == "0 True"


def test_cli_main_leaves_the_host_root_logger_alone(tmp_path):
    # SPECTACLE_LOG unset means error, which configures nothing: the host's
    # root logger keeps its level and handlers, and its warnings still print
    probe = (
        "import logging\n"
        "from spectacle import cli\n"
        "root = logging.getLogger()\n"
        "before = (root.level, list(root.handlers))\n"
        f"argv = ['eisenstein', '--weight', '4', '--nmax', '1', '--out', {str(tmp_path / 'e.json')!r}]\n"
        "assert cli.main(argv) == 0\n"
        "print(root.level, root.handlers, (root.level, list(root.handlers)) == before)\n"
        "logging.getLogger('host').warning('host warning')\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=_fresh_env(),
                          capture_output=True, text=True, check=True)
    assert done.stdout == "30 [] True\n"
    assert done.stderr == "host warning\n"


def test_byte_identical_output(capsys):
    _, out1 = run_cli(capsys, "theta11", "--k", "3", "--nmax", "30")
    _, out2 = run_cli(capsys, "theta11", "--k", "3", "--nmax", "30")
    assert out1 == out2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "series.json"
    code, out = run_cli(capsys, "eisenstein", "--weight", "6", "--nmax", "3", "--out", str(target))
    assert code == 0 and out == ""
    d = json.loads(target.read_text())
    assert d["coeffs"][0] == [0, "1"]


def test_out_file_rewrite_drops_a_longer_earlier_output(tmp_path, capsys):
    target = tmp_path / "series.json"
    run_cli(capsys, "eisenstein", "--weight", "6", "--nmax", "40", "--out", str(target))
    long_bytes = target.read_bytes()
    code, _ = run_cli(capsys, "eisenstein", "--weight", "6", "--nmax", "3", "--out", str(target))
    _, expected = run_cli(capsys, "eisenstein", "--weight", "6", "--nmax", "3")
    assert code == 0 and len(long_bytes) > len(expected)
    assert target.read_bytes() == expected.encode("utf-8")


def test_out_to_a_device_writes_without_truncating(capsys):
    code, out = run_cli(capsys, "eisenstein", "--weight", "6", "--nmax", "3", "--out", os.devnull)
    assert code == 0 and out == ""


def test_out_file_unwritable_is_one_line_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    assert main(["eisenstein", "--weight", "4", "--nmax", "2", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"spectacle: error: cannot write {target}: ")
    assert "Traceback" not in captured.err


def test_spectacle_log_env(monkeypatch, capsys):
    monkeypatch.setenv("SPECTACLE_LOG", "bogus")
    assert main(["eisenstein", "--weight", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "spectacle: error: SPECTACLE_LOG must be one of "
        "['debug', 'error', 'info'], got 'bogus'"
    ]
    monkeypatch.setenv("SPECTACLE_LOG", "info")
    code, _ = run_cli(capsys, "eisenstein", "--weight", "4", "--nmax", "2")
    assert code == 0


_SIGN_LINES = [
    "spectacle.theta11: calibrated theta global sign: -1",
    "spectacle.lift: arbitrated signs: sigma_glob=-1 interior_relative=-1 incidence=+1",
]


@pytest.mark.parametrize("level, lines", [
    ("error", []),
    ("info", _SIGN_LINES),
    ("debug", ["spectacle.cli: dispatching lift", *_SIGN_LINES]),
])
def test_spectacle_log_prints_exactly_its_lines(level, lines):
    # a fresh process pins the signs itself, so each level shows all it prints
    code, out, err = _fresh_process(["lift", "--k", "1", "--nmax", "4"], SPECTACLE_LOG=level)
    assert code == 0 and json.loads(out)["equal_to"] == 4
    assert err == "".join(f"{line}\n" for line in lines).encode()


_RATIONAL_TEXT = st.one_of(
    st.fractions(min_value=-1000, max_value=1000, max_denominator=1000).map(str),
    st.decimals(min_value=-1000, max_value=1000, places=4).map(str),
    st.sampled_from(["1/0", "inf", "nan", ""]),
    st.text(alphabet="0123456789/-.e,", max_size=8),
)


def _parses_as_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


# text that the int options must refuse with argparse's one-line error
_NON_INT_TEXT = _RATIONAL_TEXT.filter(lambda t: not _parses_as_int(t))
_VECTOR_TEXT = st.one_of(
    _RATIONAL_TEXT, st.lists(_RATIONAL_TEXT, min_size=3, max_size=3).map(",".join)
)
_ARGV = st.one_of(
    st.builds(lambda x: ["caps", "--k", "1", f"--x={x}"], _VECTOR_TEXT),
    st.builds(
        lambda r, m: ["caps", "--k", "2", "--i=0", f"--r={r}", f"--M={m}"],
        _RATIONAL_TEXT,
        _RATIONAL_TEXT,
    ),
    st.builds(
        lambda wu, wup: ["theta11", "--k", "3", "--nmax", "6", f"--wu={wu}", f"--wup={wup}"],
        _RATIONAL_TEXT,
        _RATIONAL_TEXT,
    ),
    st.builds(lambda x, y: ["intersect", f"--x={x}", f"--y={y}"], _VECTOR_TEXT, _VECTOR_TEXT),
    st.builds(
        lambda w, j, t: ["lvalue", f"--weight={w}", f"--j={j}", f"--T={t}"],
        st.one_of(st.integers(min_value=-2, max_value=40).map(str), _NON_INT_TEXT),
        st.one_of(st.integers(min_value=-20, max_value=20).map(str), _NON_INT_TEXT),
        st.lists(_RATIONAL_TEXT, min_size=1, max_size=3).map(",".join),
    ),
    st.builds(lambda k: ["lift", f"--k={k}", "--nmax", "4"], _NON_INT_TEXT),
    st.builds(lambda r: ["cohen", f"--r={r}", "--nmax", "4"], _NON_INT_TEXT),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=_ARGV)
@example(argv=["caps", "--k", "1", "--x=--"])  # a "--" value is refused as missing
@example(argv=["lift", "--k=--", "--nmax", "4"])
def test_fuzzed_rational_argv_never_tracebacks(argv):
    # an exception escaping main() is the traceback a shell user would see
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())


@pytest.mark.parametrize("r", range(1, 7))
def test_cohen_negative_nmax_has_one_message_for_every_route(r, capsys):
    # the ring route (r = 2..5) and the Bernoulli route (r = 1, 6) fail alike
    assert main(["cohen", "--r", str(r), "--nmax=-3"]) == 2
    assert capsys.readouterr() == ("", "spectacle: error: n_max must be >= 0\n")


@pytest.mark.parametrize(
    "argv, index",
    [
        (["eisenstein", "--weight", "100000", "--nmax", "1"], 100000),
        (["eisenstein", "--weight", "100000", "--nmax", "5000"], 100000),
        (["cohen", "--r", "100000", "--nmax", "1"], 200000),
        (["theta11", "--k", "99999", "--nmax", "1"], 100000),
        (["lift", "--k", "99999", "--nmax", "1"], 100000),
        (["theta11", "--k", "99999", "--h1", "1/2", "--nmax", "1"], 100000),
    ],
    ids=["eisenstein", "eisenstein-nmax-5000", "cohen", "theta11", "lift", "theta11-h1"],
)
def test_huge_valid_request_is_refused_before_its_triangle(argv, index, monkeypatch, capsys):
    # B_n past 2048 takes seconds to hours; the refusal must come before any
    # tangent triangle, also where B_0..B_n are filled (B_n(1/2) with --h1 1/2),
    # and before any divisor-sum sieve, which at --nmax 5000 would take minutes.
    # The sign convention is a fixed small-weight probe, cached before the patch.
    shintani_lift.arbitrate_signs()

    def boom(*args):
        raise AssertionError(f"computed before the refusal: {args}")

    monkeypatch.setattr(exact_arith, "_tangent_numbers", boom)
    for mod in (exact_arith, qseries, periods):
        if hasattr(mod, "divisor_sums"):
            monkeypatch.setattr(mod, "divisor_sums", boom)
    assert main(argv) == 2
    message = f"Bernoulli index {index} exceeds 2048, the largest computed"
    assert capsys.readouterr() == ("", f"spectacle: error: {message}\n")


def test_huge_odd_bernoulli_index_is_zero_at_once(capsys):
    assert main(["theta11", "--k", "100000", "--nmax", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["coeffs"] == []


def test_huge_weight_console_refusal_is_one_line_within_10_s():
    # as the CI loop runs it: an --nmax whose sieve would take minutes must
    # not run before the refusal of B_100000
    argv = ["eisenstein", "--weight", "100000", "--nmax", "5000"]
    done = subprocess.run([sys.executable, "-m", "spectacle", *argv], env=_fresh_env(),
                          capture_output=True, check=False, timeout=10)
    message = "Bernoulli index 100000 exceeds 2048, the largest computed"
    assert (done.returncode, done.stdout, done.stderr) == (2, b"", f"spectacle: error: {message}\n".encode())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lvalue", "--weight", "100000"], "weight 100000 exceeds 46, the largest with accurate periods"),
        (["eisenstein", "--weight", "1600", "--nmax", "-1"], "n_max must be >= 0"),
        (["theta11", "--k", "1600", "--nmax", "-1"], "n_max must be >= 0"),
    ],
    ids=["lvalue", "eisenstein", "theta11"],
)
def test_refusal_comes_before_any_bernoulli_number(argv, message, monkeypatch, capsys):
    # B_w of a large weight takes minutes, so bad input must be refused first:
    # every module-level name through which a command reaches B_n raises
    def boom(*args):
        raise AssertionError(f"Bernoulli number computed before the refusal: {args}")

    for mod in (exact_arith, qseries, theta11, periods):
        for name in ("bernoulli_number", "bernoulli_poly"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, boom)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"spectacle: error: {message}\n")
