import hashlib
import json
import math
import os
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import totpos.__main__ as totpos_main
import totpos.cli as cli
import totpos.polygon as polygon
from totpos.flags import Configuration, DecoratedFlag
from totpos.rational import DigitLimitError

from conftest import run_cli, run_totpos

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _exits_two(capsys, argv, stdin=""):
    """Run the CLI in process: exit 2, empty stdout and a JSON error."""
    code, out = run_cli(argv, stdin)
    assert (code, out) == (2, "")
    assert "error" in json.loads(capsys.readouterr().err)


def test_dim():
    code, out = run_cli(["dim", "8", "4"])
    assert (code, out) == (0, "57\n")


def test_gen_is_deterministic():
    a = run_cli(["gen", "4", "2", "--seed", "7"])
    b = run_cli(["gen", "4", "2", "--seed", "7"])
    assert a == b and a[0] == 0
    c = run_cli(["gen", "4", "2", "--seed", "8"])
    assert c[1] != a[1]


def test_delta_v_configuration(v_config):
    text = json.dumps(v_config.to_json())
    code, out = run_cli(["delta", "-", "--index", "0,1,0,1"], text)
    assert (code, out) == (0, "2\n")


def test_pipeline_round_trip():
    _, cfg = run_cli(["gen", "4", "2", "--seed", "7"])
    _, chart = run_cli(["charts", "-", "--diagonals", "1-3"], cfg)
    code, flipped = run_cli(["flip", "-", "--diagonal", "1-3"], chart)
    assert code == 0
    code, back = run_cli(["flip", "-", "--diagonal", "2-4"], flipped)
    assert code == 0
    assert json.loads(back) == json.loads(chart)
    code, transported = run_cli(["transport", "-", "--diagonals", "2-4"], chart)
    assert json.loads(transported) == json.loads(flipped)


def test_act_on_configuration_and_chart():
    _, cfg = run_cli(["gen", "4", "2", "--seed", "9"])
    code, once = run_cli(["act", "-", "--word", "[[2,4]]"], cfg)
    assert code == 0
    code, twice = run_cli(["act", "-", "--word", "[[2,4],[2,4]]"], cfg)
    assert code == 0
    _, chart0 = run_cli(["charts", "-"], cfg)
    _, chart2 = run_cli(["charts", "-"], twice)
    assert json.loads(chart0) == json.loads(chart2)
    code, acted = run_cli(["act", "-", "--word", "[[2,4]]"], chart0)
    assert code == 0
    assert "triangulation" in json.loads(acted)


def test_verify_commands_pass():
    code, out = run_cli(["verify-axioms", "--axiom", "7", "--m", "2",
                         "--trials", "5", "--seed", "3"])
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["axiom"] == 7 and reports[0]["passes"] == 5
    code, out = run_cli(["verify-cactus", "--n", "4", "--m", "2",
                         "--trials", "3", "--seed", "3"])
    assert code == 0
    assert [r["relation"] for r in json.loads(out)] == ["R1", "R2", "R3"]
    code, out = run_cli(["verify-axioms", "--axiom", "glue", "--trials", "2"])
    assert code == 0
    assert [(r["axiom"], r["passes"]) for r in json.loads(out)] == [("glue", 2)]


def test_verify_axioms_exit_one_on_failure(monkeypatch):
    def failing(k, m, trials, seed):
        return {"axiom": k, "trials": trials, "passes": trials - 1,
                "counterexample": {"m": m}}
    monkeypatch.setattr(cli, "check_axiom", failing)
    code, out = run_cli(["verify-axioms", "--axiom", "5", "--trials", "4"])
    assert code == 1
    assert json.loads(out)[0]["counterexample"] is not None


def test_usage_errors_exit_two(capsys):
    assert run_cli(["gen", "4"])[0] == 2
    assert run_cli(["delta", "-", "--index", "9,9"], '{"bad": 1}')[0] == 2
    _, cfg = run_cli(["gen", "4", "2", "--seed", "7"])
    assert run_cli(["delta", "-", "--index", "9,9"], cfg)[0] == 2
    capsys.readouterr()
    assert run_cli(["delta", "-", "--index", "1,x"], cfg) == (2, "")
    assert json.loads(capsys.readouterr().err) == {"error": "bad index '1,x'"}
    assert run_cli(["delta", "-", "--index", "1,1,0,0"], "not json")[0] == 2
    assert run_cli(["nonsense"])[0] == 2
    _, chart = run_cli(["charts", "-"], cfg)
    for pairs in ("1-3,2-4", "", "1-3,"):
        assert run_cli(["flip", "-", "--diagonal", pairs], chart) == (2, "")


@pytest.mark.parametrize("word", ['[[1,2,3]]', '[[1]]', '"x"', '{"1":2}', '5',
                                  '[[1.5,3]]', '[[true,3]]'])
def test_malformed_word_exits_two(capsys, word):
    _, cfg = run_cli(["gen", "5", "2", "--seed", "7"])
    _exits_two(capsys, ["act", "-", "--word", word], cfg)


@pytest.mark.parametrize("data", ['5', 'null', 'true', '"x"'])
def test_act_on_non_object_exits_two(capsys, data):
    _exits_two(capsys, ["act", "-", "--word", "[[1,2]]"], data)


def _with_zero_denominator(data, key):
    data = json.loads(data)
    if key == "values":
        data["values"][min(data["values"])] = "1/0"
    else:
        data["flags"][0][0][0] = "1/0"
    return json.dumps(data)


@pytest.mark.parametrize("args", [["flip", "-", "--diagonal", "1-3"],
                                  ["transport", "-", "--diagonals", "2-4,2-5"],
                                  ["act", "-", "--word", "[[1,3]]"]])
@pytest.mark.parametrize("bad", ["zero denominator", "values not an object"])
def test_malformed_chart_values_exit_two(capsys, args, bad):
    _, cfg = run_cli(["gen", "5", "2", "--seed", "3"])
    _, chart = run_cli(["charts", "-"], cfg)
    if bad == "zero denominator":
        chart = _with_zero_denominator(chart, "values")
    else:
        chart = json.dumps(dict(json.loads(chart), values=[]))
    _exits_two(capsys, args, chart)


def _with_non_integer(chart, field):
    data = json.loads(chart)
    if field == "m":
        data["m"] = 2.9
    elif field == "n":
        data["triangulation"]["n"] = 5.5
    else:
        data["triangulation"]["diagonals"][0] = [1, 3.7]
    return json.dumps(data)


@pytest.mark.parametrize("field", ["m", "n", "diagonal end"])
def test_non_integer_chart_sizes_exit_two(capsys, field):
    # int() would truncate 2.9, 5.5 and 3.7 to a valid chart
    _, cfg = run_cli(["gen", "5", "2", "--seed", "1"])
    _, chart = run_cli(["charts", "-"], cfg)
    _exits_two(capsys, ["flip", "-", "--diagonal", "1-3"], _with_non_integer(chart, field))


@pytest.mark.parametrize("args", [["delta", "-", "--index", "1,1,0,0"],
                                  ["act", "-", "--word", "[[1,3]]"]])
def test_zero_denominator_in_flag_exits_two(capsys, args):
    _, cfg = run_cli(["gen", "4", "2", "--seed", "3"])
    _exits_two(capsys, args, _with_zero_denominator(cfg, "flags"))


def test_non_unimodular_flag_exits_two(capsys):
    # the rebuilt flags are wrapped unchecked, but a flag read from input
    # still has its det checked
    from totpos.flags import FlagError
    _, cfg = run_cli(["gen", "5", "3", "--seed", "1"])
    data = json.loads(cfg)
    data["flags"][2][-1] = [str(2 * Fraction(x)) for x in data["flags"][2][-1]]
    with pytest.raises(FlagError, match="det 2 != 1"):
        Configuration.from_json(data)
    _exits_two(capsys, ["act", "-", "--word", "[[1,3]]"], json.dumps(data))


def test_row_moved_flags_are_read_as_their_canonical_rows():
    # gen 5 3 --seed 7 with 2 x row 1 added to row 3 of flag 3 is the same
    # point, written with rows that are not orthogonal; only the empty word
    # prints the flags as read, and it prints gen's canonical rows
    _, cfg = run_cli(["gen", "5", "3", "--seed", "7"])
    data = json.loads(cfg)
    flag = data["flags"][2]
    flag[2] = [str(Fraction(c) + 2 * Fraction(a)) for a, c in zip(flag[0], flag[2])]
    moved = json.dumps(data)
    assert run_cli(["act", "-", "--word", "[]"], moved) == (0, cfg)
    assert hashlib.md5(cfg.encode()).hexdigest() == "5b3e5aebc7c29e1f8f951587d23ad5ca"
    for argv, digest in ((["act", "-", "--word", "[[1,3]]"], "f3551533b6660c4ab1f916f0df41c1ef"),
                         (["charts", "-"], "3146d23d65984c4e2ffa449e24b689b8")):
        code, out = run_cli(argv, moved)
        assert code == 0 and hashlib.md5(out.encode()).hexdigest() == digest


def test_flag_rows_that_are_not_arrays_exit_two(capsys):
    # a string row is not read as its digits, nor a flag string as its rows
    _exits_two(capsys, ["act", "-", "--word", "[]"], '{"flags": "11", "n": 2, "m": 1}')
    _, cfg = run_cli(["gen", "3", "2", "--seed", "1"])
    data = json.loads(cfg)
    data["flags"][0] = ["10", "01"]
    _exits_two(capsys, ["act", "-", "--word", "[]"], json.dumps(data))


def test_parser_is_built_once_and_reused():
    assert cli._parser() is cli._parser()
    first = run_cli(["--help"])
    assert first[0] == 0 and first[1].startswith("usage: totpos")
    assert run_cli(["gen", "x", "2"])[0] == 2
    assert run_cli(["flip", "-"])[0] == 2
    assert run_cli(["--help"]) == first
    assert run_cli(["dim", "8", "4"]) == (0, "57\n")


@pytest.mark.parametrize("args", [["dim", "0", "-1"], ["dim", "2", "5"],
                                  ["gen", "5", "2", "--bound", "0"],
                                  ["verify-axioms", "--trials", "-2"],
                                  ["verify-axioms", "--trials", "0"],
                                  ["verify-axioms", "--axiom", "9"],
                                  ["verify-axioms", "--axiom", "x"],
                                  ["verify-cactus", "--trials", "-2"],
                                  ["verify-cactus", "--trials", "0"]])
def test_out_of_range_sizes_exit_two(capsys, args):
    _exits_two(capsys, args)


def test_reading_a_file_closes_it(tmp_path, v_config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(v_config.to_json()))
    out = run_totpos(["delta", str(path), "--index", "0,1,0,1"],
                     python_flags=["-X", "dev", "-W", "error::ResourceWarning"])
    assert out.returncode == 0, out.stderr
    assert (out.stdout, out.stderr) == ("2\n", "")


def test_act_at_m5(capsys):
    code, cfg = run_cli(["gen", "5", "5", "--seed", "1"])
    assert code == 0, capsys.readouterr().err
    code, _ = run_cli(["act", "-", "--word", "[[1,3]]"], cfg)
    assert code == 0, capsys.readouterr().err


def test_svg_output(tmp_path):
    n, m = 5, 3
    cfg, chart = _gen_chart(n, m)
    corners = [(200 + 170 * math.cos(a), 200 + 170 * math.sin(a))
               for a in (-math.pi / 2 + 2 * math.pi * v / n for v in range(n))]
    svg = tmp_path / "chart.svg"
    for args, stdin in ((["charts", "-"], cfg), (["flip", "-", "--diagonal", "1-3"], chart)):
        code, out = run_cli(args + ["--svg", str(svg)], stdin)
        assert code == 0
        text = svg.read_text(encoding="utf-8")
        assert text.startswith("<svg")
        # one bullet per chart coordinate, at the barycentre of its weights
        # on the vertices, which sit on the circle of radius 170 about (200, 200)
        t = polygon.ChartPoint.from_json(json.loads(out)).triangulation
        bullets = sorted('<circle cx="%.1f" cy="%.1f" r="3"/>' % tuple(
            sum(w * corner[k] for w, corner in zip(idx, corners)) / m for k in (0, 1))
            for idx in polygon.chart_indices(t, m))
        assert len(bullets) == polygon.chart_dimension(n, m)
        assert sorted(line for line in text.splitlines()
                      if line.startswith("<circle")) == bullets


def test_console_script_end_to_end():
    out1 = run_totpos(["gen", "4", "2", "--seed", "7"])
    out2 = run_totpos(["gen", "4", "2", "--seed", "7"])
    assert out1.returncode == 0, out1.stderr
    assert out1.stdout == out2.stdout
    dim = run_totpos(["dim", "8", "4"])
    assert dim.returncode == 0, dim.stderr
    assert dim.stdout == "57\n"
    # `python -m totpos` and the installed `totpos` script are one entry point.
    # Checked last so that the runs above still happen where tomllib is absent.
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["totpos"] == "totpos.cli:main"
    assert totpos_main.main is cli.main


# sha256 of the act stdout on a configuration and on its fan chart, for
# `gen N M --seed S | [charts - |] act - --word W`, recorded from the
# flag-level action that the chart-level one replaced
GOLDEN_ACT = [
    (6, 3, 1, "[[1,6]]",
     "757c8c7738907430e905201846864ec48c83ca1bee85326d5cd6f985fbfe70d3",
     "f381efd3959cbae67badea0921b3bf7485d635426d9c5d09655546512e4e11fb"),
    (6, 3, 2, "[[3,2]]",
     "a693f4bef190773e0a8239ea139128b45cf48be2d3d4815079cd04295bef3e63",
     "8879c7c3ef03540433526199c5b67e3ba27732d1968829aefd83d824a5499f2c"),
    (8, 3, 1, "[[8,1]]",
     "5b3037ed7bb551f73c77447637a219b74e6caa9606d725aa0785cd17f779506c",
     "1d769188d88d4730e914abf7376169e32364aecffc6a01ccca19ebfb7b8e1c07"),
    (8, 3, 2, "[[2,5],[1,6]]",
     "e55875a8a778b574a96f8be2eb893890800e59673604433ae83e9b2724399a1a",
     "d205798d54ea9ae63696787355df92a4e28f2292aaf4ee48e54c64f7ad96d331"),
    (7, 4, 1, "[[2,4]]",
     "e3f6292241ba3b9ac48364126ccd8b0b946e6ac767a48bea9b36e33b0ffb47ed",
     "9dc48183057766599974a13ed7be238feef5848e393d175620902517ea582312"),
    (7, 4, 3, "[[1,2],[2,7]]",
     "775a4e1e8d21f73e7a5b09d1e9fe94aaab4a896d951657334d8834625f082fb2",
     "8c6a10cedb363d2ce8064fb34f569b321ec6bd7b9ccbd7ddd4dedf3c88a4d325"),
]


@pytest.mark.parametrize("n,m,seed,word,on_config,on_chart", GOLDEN_ACT)
def test_act_stdout_matches_recorded_digests(n, m, seed, word, on_config, on_chart):
    code, cfg = run_cli(["gen", str(n), str(m), "--seed", str(seed)])
    assert code == 0
    code, chart = run_cli(["charts", "-"], cfg)
    assert code == 0
    for stdin, digest in ((cfg, on_config), (chart, on_chart)):
        code, out = run_cli(["act", "-", "--word", word], stdin)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("spellings", [{"00,0,1,1": "999", " 0 ,0 ,1 ,1": "5"},
                                       {"0,+0,1,1": "5/19"}])
def test_chart_index_spellings_exit_two(capsys, spellings):
    # each key parses to the index (0, 0, 1, 1); only "0,0,1,1" is its form
    _, cfg = run_cli(["gen", "4", "2", "--seed", "1"])
    _, chart = run_cli(["charts", "-"], cfg)
    data = json.loads(chart)
    if len(spellings) == 1:
        del data["values"]["0,0,1,1"]
    data["values"].update(spellings)
    _exits_two(capsys, ["flip", "-", "--diagonal", "1-3"], json.dumps(data))


def _rekeyed(values, old, new):
    return {new if k == old else k: v for k, v in values.items()}


_MALFORMED_CHARTS = {
    # keys: read by one lookup, and only a key not in the map is parsed
    "00,": lambda v, k: _rekeyed(v, k, "0" + k),
    " 1,": lambda v, k: _rekeyed(v, "1,0,0,0,2", " 1,0,0,0,2"),
    "+1,": lambda v, k: _rekeyed(v, "1,0,0,0,2", "+1,0,0,0,2"),
    "missing key": lambda v, k: {x: y for x, y in v.items() if x != k},
    "extra key": lambda v, k: dict(v, **{"0,1,0,1,1": "1"}),
    "not a chart index": lambda v, k: _rekeyed(v, k, "0,1,0,1,1"),
    # values, which the checked constructor coerces and checks
    "zero": lambda v, k: dict(v, **{k: "0"}),
    "negative": lambda v, k: dict(v, **{k: "-1/2"}),
    "float": lambda v, k: dict(v, **{k: 1.5}),
    "bool": lambda v, k: dict(v, **{k: True}),
    "zero over 5": lambda v, k: dict(v, **{k: "0/5"}),
    "over 0": lambda v, k: dict(v, **{k: "1/0"}),
    "over 00": lambda v, k: dict(v, **{k: "1/00"}),
    "null": lambda v, k: dict(v, **{k: None}),
}

_KEYED = "chart values must be keyed by exactly the %d chart indices"
_NOT_POSITIVE = "chart value at (0, 0, 1, 2, 0) is %s, not positive"
_FORM = "chart index %r is not in the form %r"
# the message of each fault, keyed by its name or its declared m
_CHART_MESSAGES = {
    "00,": _FORM % ("00,0,1,2,0", "0,0,1,2,0"),
    " 1,": _FORM % (" 1,0,0,0,2", "1,0,0,0,2"),
    "+1,": _FORM % ("+1,0,0,0,2", "1,0,0,0,2"),
    "missing key": _KEYED % 17, "extra key": _KEYED % 17, "not a chart index": _KEYED % 17,
    "zero": _NOT_POSITIVE % "0", "zero over 5": _NOT_POSITIVE % "0",
    "negative": _NOT_POSITIVE % "-1/2",
    "float": "floats are not exact; got 1.5", "bool": "booleans are not numbers; got True",
    "over 0": "zero denominator in '1/0'", "over 00": "zero denominator in '1/00'",
    "null": "argument should be a string or a Rational instance",
    3.0: "m must be an integer, got 3.0", "3": "m must be an integer, got '3'",
    1: "need n >= 3 and m >= 2", 2: _KEYED % 7, 4: _KEYED % 30,
    "values a list": "chart values must be an object keyed by chart indices",
}


@pytest.mark.parametrize("fault,error", [
    *[(name, TypeError if name in ("float", "bool", "null") else
       ValueError if name.startswith("over") else polygon.PolygonError)
      for name in _MALFORMED_CHARTS],
    *[(m, polygon.PolygonError) for m in (3.0, "3", 1, 2, 4)],
    ("values a list", polygon.PolygonError)])
def test_malformed_chart_documents_raise_and_exit_two(capsys, fault, error):
    # the exception classes and messages of the reader that parsed every key
    # and every value with Fraction(str), in process and on stderr; on the
    # fan at 1, "0,0,1,2,0" and "1,0,0,0,2" are keys and (0, 1, 0, 1, 1) is
    # no chart index
    data = json.loads(_gen_chart(5, 3)[1])
    values, key = data["values"], "0,0,1,2,0"
    assert {key, "1,0,0,0,2"} <= set(values) and "0,1,0,1,1" not in values
    if fault in _MALFORMED_CHARTS:
        data["values"] = _MALFORMED_CHARTS[fault](values, key)
    elif fault == "values a list":
        data["values"] = list(values)
    else:
        data["m"] = fault
    with pytest.raises(error) as info:
        polygon.ChartPoint.from_json(data)
    message = _CHART_MESSAGES[fault]
    assert type(info.value) is error and str(info.value) == message
    assert run_cli(["flip", "-", "--diagonal", "1-3"], json.dumps(data)) == (2, "")
    assert json.loads(capsys.readouterr().err) == {"error": "not a ChartPoint: " + message}


# sha256 of the `gen N M --seed 1` stdout, recorded from the reconstruction
# that walked the dual tree of the chart's triangulation; the digests pin
# the gauge, which the `act` digests above do not see
GOLDEN_GEN = [
    (3, 2, "645e284473efe5ebb793a28eab8ce08161da9cc8fd476780a6e8f0aef7e4527e"),
    (3, 3, "b231e6244727f6e42ee4225b659109f5598cbf6e2ba97c098700790e9b0fd890"),
    (3, 4, "babc359c8bb3cf7e0c5f2daa1277dc7db75d7712452df49c10350dd8a6b5f12e"),
    (3, 5, "718e38ee5b06a3158514901efe4337b53ba71742bef663da2952fb355822f867"),
    (4, 2, "4ab8042e1f012f1fe1a481382b3e1fab76564466abff9a5bf4932c2523e3d9ac"),
    (4, 3, "21bea8e77a3b3cb112da52c3a833bbc4c70331bd71b9cd230f5da765bc32556f"),
    (4, 4, "b2bff099ec73a5ba11fc180c09af52e61cc1ba3c74985b76495c0de8e63d5aed"),
    (4, 5, "5bfa51e186ce38136722bb95327d0572087fa46fe54e88189218d32c33bc8ba0"),
    (5, 2, "ed9eef609eb9011cd8d282392feb91dfbd32c60150cd674f8eaf460b79285123"),
    (5, 3, "dc8f5c146241918c72b13290f19f1b1a84ba3dea6570dec3662f6c2e2349619c"),
    (5, 4, "73230f6e1c4efc295df761807f3a5a25c1af5e594c238c067debba50952c9a83"),
    (5, 5, "631accdf7abacfdd2473d25e671b057d8b207a1cb19d4ade09cc1033369dfa45"),
    (6, 2, "6c9a0f9b5870c841f4a3b4f8596997490b79fb325608e00b84fc6ed84cb3ef39"),
    (6, 3, "015b0268f1cdc7a22fd69db27d29c8c29ade863d40cae4c09e2e089c2ce23d6b"),
    (6, 4, "4f2e03a722becf292cca4b1b3514949c91cf5e5e487055de3c6d0bab92b603f1"),
    (6, 5, "654590e51c9b4538578475df9a8009837c1ed41df98c10ec5e40c08025a94811"),
    (7, 2, "fea059690269feab5a2557cf4d6e5284f353b55a3f44796b2f1ab70191112356"),
    (7, 3, "07b7c5a99b662363739284798ce52428cfa494abdaf94e0e40b1d7b41192ffa5"),
    (7, 4, "687d99824f866248f14f26c0b2b0b5f1ab0d2875359f363d1839721d65b47df6"),
    (7, 5, "d5c808a24bb70f8c529b9e089ff21db650d7057357de62d2a8da7f3ad0e30374"),
    (8, 2, "01091081fa6bc2fbcfe1a7047c4d53a9ab283ae45e245e6af6d10760394bf452"),
    (8, 3, "5b3037ed7bb551f73c77447637a219b74e6caa9606d725aa0785cd17f779506c"),
    (8, 4, "29895abee14685fe6e1b2cfee1b6eb8e688f7030c050b5396562ab550c802f4f"),
    (8, 5, "96c4521848a71e3c2261598edbc5ee6e5af803b7b91755ba3bd369f1f4041361"),
    (9, 2, "da50c8a82cfa7898d8a67df54ee9df657ba9839af39c58f8503be7d947e69086"),
    (9, 3, "55194f86b2e610b30d9d659fecd1d2f61b367a772e150d79780a1edb496eac0a"),
    (9, 4, "11b8e353579f6990491e12c5391fdfda9d8cedc3d3c5eca7a8babd9e35562fee"),
    (9, 5, "c0e7320a41e070641639762d2972ccec97bdd5374eee66407d6105d4a6099330"),
    (10, 2, "940b959041f0a3eba686c38c944af8d8ba5691119a65745d5c81979146da71d6"),
    (10, 3, "2aad7fadc099f6b176df6252d004a10370fc392f22850bcadce6f4334118102a"),
    (10, 4, "4ffbebfa56ff6c99b4c8d6d40952eb206db1658e05ab0c1260b4095a7c125657"),
    (10, 5, "03d642399c2a2eda4f9eb747035a2cd2de13e27f1a559235523d6672c672fdc2"),
]


@pytest.mark.parametrize("n,m,digest", GOLDEN_GEN)
def test_gen_stdout_matches_recorded_digests(n, m, digest):
    code, out = run_cli(["gen", str(n), str(m), "--seed", "1"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _gen_chart(n, m):
    """The stdout of `gen N M --seed 1` and of `charts -` on it."""
    _, cfg = run_cli(["gen", str(n), str(m), "--seed", "1"])
    _, chart = run_cli(["charts", "-"], cfg)
    return cfg, chart


def test_huge_declared_m_exits_two_before_enumerating(monkeypatch):
    # the declared m = 100000 would enumerate about 5 * 10**9 indices; the
    # closed-form count rejects the 5 values first
    def refuse(t, m):
        raise RuntimeError("chart indices enumerated for m = %d" % m)

    _, chart = _gen_chart(4, 2)
    data = dict(json.loads(chart), m=100000)
    monkeypatch.setattr(polygon, "chart_indices", refuse)
    assert run_cli(["flip", "-", "--diagonal", "1-3"], json.dumps(data)) == (2, "")


def _chart_with_true_value():
    _, chart = _gen_chart(4, 2)
    data = json.loads(chart)
    data["values"]["0,0,1,1"] = True
    return json.dumps(data)


def _config_with_float_n():
    cfg, _ = _gen_chart(4, 2)
    return json.dumps(dict(json.loads(cfg), n=4.0))


@pytest.mark.parametrize("args,data", [
    (["delta", "-", "--index", "1,1"],
     '{"m":2,"n":2,"flags":[[[true,0],[0,true]],[[0,1],[-1,0]]]}'),
    (["transport", "-", "--diagonals", "2-4"], _chart_with_true_value),
    (["charts", "-"], _config_with_float_n),
])
def test_json_booleans_and_float_sizes_exit_two(capsys, args, data):
    # a JSON true is not the number 1, and 4.0 is not the size 4
    _exits_two(capsys, args, data if isinstance(data, str) else data())


# values put into a valid document, as JSON text so that each use is a new
# object: values of the wrong type, a zero denominator, and a size no input
# may make the program enumerate
ATOMS = ("true", "false", "null", "0", "-1", "1.5", '"1/0"', '"x"', "[]", "{}",
         str(10 ** 30))
KEYS = ("m", "n", "x", "flags", "values", "triangulation", "diagonals", "0,0,1,1")


def _mutate(doc, data):
    """The document with one drawn change at a drawn place: a value
    swapped for an atom, a key or entry dropped, or one added.  The place
    is found by descending from the root, stopping at each level with
    probability one half, so the top-level sizes are hit often."""
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
        parent, key = node, data.draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node))))
        node = node[key]
    op = data.draw(st.sampled_from(("swap", "drop", "add")))
    atom = json.loads(data.draw(st.sampled_from(ATOMS)))
    if parent is None and op != "add":
        return atom
    if op == "swap":
        parent[key] = atom
    elif op == "drop":
        del parent[key]
    elif isinstance(node, dict):
        node[data.draw(st.sampled_from(KEYS))] = atom
    elif isinstance(node, list):
        node.insert(data.draw(st.integers(0, len(node))), atom)
    return doc


# each subcommand that reads JSON, with the output it reads: 0 for `gen`,
# 1 for `charts`
FUZZ_RUNS = (
    (["delta", "-", "--index", "1,%d,0,0"], 0),
    (["charts", "-"], 0),
    (["flip", "-", "--diagonal", "1-3"], 1),
    (["transport", "-", "--diagonals", "2-4"], 1),
    (["act", "-", "--word", "[[1,3]]"], 0),
    (["act", "-", "--word", "[[1,3]]"], 1),
    (["verify-axioms", "-", "--trials", "1"], 0),
)


# files that fail before they are a document, so no mutation of a parsed
# document reaches them: bytes that are not UTF-8, nesting deeper than the
# recursion limit, and an integer longer than Python converts from text
UNDECODABLE = {
    "not utf-8": b"\xff\xfe{}",
    "too deep": b"[" * 100000 + b"]" * 100000,
    "too many digits": b'{"m": ' + b"9" * 5000 + b"}",
}


@pytest.mark.parametrize("kind", sorted(UNDECODABLE))
@pytest.mark.parametrize("run", FUZZ_RUNS, ids=["%s-%d" % (a[0], k) for a, k in FUZZ_RUNS])
def test_undecodable_input_files_exit_two(tmp_path, capsys, run, kind):
    path = tmp_path / "input.json"
    path.write_bytes(UNDECODABLE[kind])
    args, _ = run
    _exits_two(capsys, [str(path) if a == "-" else a.replace("%d", "1") for a in args])


@pytest.mark.parametrize("inline", [False, True])
def test_deeply_nested_word_exits_two(tmp_path, capsys, inline):
    word = "[" * 5000 + "]" * 5000
    if not inline:
        path = tmp_path / "word.json"
        path.write_text(word, encoding="utf-8")
        word = str(path)
    cfg, _ = _gen_chart(4, 2)
    _exits_two(capsys, ["act", "-", "--word", word], cfg)


@settings(deadline=None, max_examples=300)
@given(st.integers(2, 3), st.sampled_from(FUZZ_RUNS), st.integers(0, 3), st.data())
def test_json_commands_exit_zero_or_two_on_mutated_input(m, run, changes, data):
    """Every subcommand that reads JSON, on a mutated `gen` or `charts`
    output of the square: exit 0, or exit 2 with empty stdout; never 1,
    never a raise."""
    args, kind = run
    doc = json.loads(_gen_chart(4, m)[kind])
    for _ in range(changes):
        doc = _mutate(doc, data)
    code, out = run_cli([a.replace("%d", str(m - 1)) for a in args], json.dumps(doc))
    assert code in (0, 2)
    if code == 2:
        assert out == ""


RUN_LENGTHS = st.sampled_from((1, 10, 100, 1000, 4300, 5000))
NEST_DEPTHS = st.sampled_from((1, 10, 100, 1000, 10000, 100000))


def _mutate_bytes(text, other, data):
    """``text`` with one drawn change to its bytes: cut short, spliced onto a
    tail of ``other``, one byte flipped, or a run of up to 5,000 digits or
    100,000 "[" put in, at a drawn place."""
    at = data.draw(st.integers(0, len(text)))
    op = data.draw(st.sampled_from(("truncate", "splice", "flip", "digits", "nest")))
    if op == "truncate":
        return text[:at]
    if op == "splice":
        return text[:at] + other[data.draw(st.integers(0, len(other))):]
    if op == "flip":  # the byte at ``at``; at the end there is none
        return (text[:at] + bytes(b ^ data.draw(st.integers(1, 255)) for b in text[at:at + 1])
                + text[at + 1:])
    if op == "digits":  # on both sides of the 4,300 digits Python converts
        run = b"%d" % data.draw(st.integers(0, 9)) * data.draw(RUN_LENGTHS)
    else:  # on both sides of the recursion limit
        run = b"[" * data.draw(NEST_DEPTHS)
    return text[:at] + run + text[at:]


@settings(deadline=None, max_examples=200)
@given(st.integers(2, 3), st.sampled_from(FUZZ_RUNS), st.integers(1, 3), st.data())
def test_json_commands_exit_zero_or_two_on_mutated_text(tmp_path_factory, m, run,
                                                         changes, data):
    """Every subcommand that reads JSON, on the bytes of a `gen` or `charts`
    output of the square mutated as text and read from a file: exit 0, or
    exit 2 with empty stdout; never 1, never a raise."""
    args, kind = run
    docs = [text.encode() for text in _gen_chart(4, m)]
    text = docs[kind]
    for _ in range(changes):
        text = _mutate_bytes(text, docs[1 - kind], data)
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_bytes(text)
    code, out = run_cli([str(path) if a == "-" else a.replace("%d", str(m - 1))
                         for a in args])
    assert code in (0, 2)
    if code == 2:
        assert out == ""


@pytest.mark.parametrize("word,reason", [
    # deep enough that every supported json decoder refuses it: Python 3.13's
    # reaches about 10,000 levels, where 3.11's stopped near 1,000
    ("[" * 100000 + "]" * 100000, "malformed JSON"),
    ("[[1,3]", "malformed JSON"),
    ("x" * 10000, "File name too long"),
], ids=["nested", "unclosed", "long path"])
def test_word_errors_are_short(capsys, word, reason):
    # text that starts with "[" is read as JSON only, never as a file path,
    # and no message echoes more than a short prefix of a long argument
    cfg, _ = _gen_chart(4, 2)
    code, out = run_cli(["act", "-", "--word", word], cfg)
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert reason in json.loads(err)["error"]
    assert len(err.encode()) < 200


def test_output_over_the_digit_limit_exits_two(capsys):
    # 4,001-digit values are within the input limit, but a flip multiplies
    # them past the 4,300 digits Python converts to text; so does the chart
    # dimension of 2,200-digit n and m, and a flag entry whose numerator or
    # reduced denominator has 4,401 digits
    big = 10 ** 4400
    for rows in ([[big, 0], [0, Fraction(1, big)]], [[Fraction(1, big), 0], [0, big]]):
        c = Configuration([DecoratedFlag(rows), DecoratedFlag([[1, 0], [0, 1]])])
        with pytest.raises(DigitLimitError, match="4300 digits"):
            c.to_json()
    data = json.loads(_gen_chart(4, 2)[1])
    for s, k in enumerate(sorted(data["values"])):
        data["values"][k] = "%d/%d" % (10 ** 4000 + 10 * s + 1, 10 ** 3999)
    big = str(10 ** 2199)
    for argv, stdin in [(["flip", "-", "--diagonal", "1-3"], json.dumps(data)),
                        (["dim", big, big], "")]:
        code, out = run_cli(argv, stdin)
        assert (code, out) == (2, "")
        assert "4300 digits" in json.loads(capsys.readouterr().err)["error"]


def test_value_with_an_exponent_over_the_digit_limit_exits_two_at_once(capsys):
    # "1e9999999" would be an int of 33 million bits, formed in seconds
    # before the flip; it is refused as it is read
    data = json.loads(_gen_chart(5, 2)[1])
    data["values"][min(data["values"])] = "1e9999999"
    start = time.perf_counter()
    assert run_cli(["flip", "-", "--diagonal", "1-3"], json.dumps(data)) == (2, "")
    assert time.perf_counter() - start < 1
    assert "Exceeds the limit (4300)" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("args", [
    ["gen", "4", str(10 ** 23)],
    ["verify-axioms", "--m", str(10 ** 23), "--trials", "1"],
    ["gen", str(10 ** 23), "2"],
    ["verify-cactus", "--n", str(10 ** 23), "--m", "2", "--trials", "1"],
], ids=["gen huge m", "verify-axioms huge m", "gen huge n", "verify-cactus huge n"])
def test_sizes_too_large_to_enumerate_exit_two(capsys, args):
    # the closed-form chart dimension exceeds sys.maxsize: refused before any
    # enumeration, which would overflow or run without end
    assert run_cli(args) == (2, "")
    err = capsys.readouterr().err
    assert "too many chart coordinates" in json.loads(err)["error"]
    assert len(err.encode()) < 200


def test_the_wide_module_imports():
    # tests/wide.py, the checks at sizes Tier-1 does not reach, runs only
    # when named on the command line: importing it here fails Tier-1 at once
    # when a helper it imports is renamed
    import wide
    assert any(name.startswith("test_") and callable(f) for name, f in vars(wide).items())
