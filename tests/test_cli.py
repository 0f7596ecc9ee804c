import hashlib
import io
import json
import os
import sys

import pytest

import totpos.__main__ as totpos_main
import totpos.cli as cli

from conftest import run_totpos

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(argv, stdin=""):
    """Run the CLI in process, capturing stdout."""
    old_in, old_out = sys.stdin, sys.stdout
    sys.stdin = io.StringIO(stdin)
    sys.stdout = io.StringIO()
    try:
        code = cli.run(argv)
        return code, sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = old_in, old_out


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


def test_verify_axioms_exit_one_on_failure(monkeypatch):
    def failing(k, m, trials, seed):
        return {"axiom": k, "trials": trials, "passes": trials - 1,
                "counterexample": {"m": m}}
    monkeypatch.setattr(cli, "check_axiom", failing)
    code, out = run_cli(["verify-axioms", "--axiom", "5", "--trials", "4"])
    assert code == 1
    assert json.loads(out)[0]["counterexample"] is not None


def test_usage_errors_exit_two():
    assert run_cli(["gen", "4"])[0] == 2
    assert run_cli(["delta", "-", "--index", "9,9"], '{"bad": 1}')[0] == 2
    _, cfg = run_cli(["gen", "4", "2", "--seed", "7"])
    assert run_cli(["delta", "-", "--index", "9,9"], cfg)[0] == 2
    assert run_cli(["delta", "-", "--index", "1,1,0,0"], "not json")[0] == 2
    assert run_cli(["nonsense"])[0] == 2


@pytest.mark.parametrize("word", ['[[1,2,3]]', '[[1]]', '"x"', '{"1":2}', '5',
                                  '[[1.5,3]]', '[[true,3]]'])
def test_malformed_word_exits_two(word):
    _, cfg = run_cli(["gen", "5", "2", "--seed", "7"])
    out = run_totpos(["act", "-", "--word", word], cfg)
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    assert "error" in json.loads(out.stderr)


@pytest.mark.parametrize("data", ['5', 'null', 'true', '"x"'])
def test_act_on_non_object_exits_two(data):
    out = run_totpos(["act", "-", "--word", "[[1,2]]"], data)
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    assert "error" in json.loads(out.stderr)


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
def test_malformed_chart_values_exit_two(args, bad):
    _, cfg = run_cli(["gen", "5", "2", "--seed", "3"])
    _, chart = run_cli(["charts", "-"], cfg)
    if bad == "zero denominator":
        chart = _with_zero_denominator(chart, "values")
    else:
        chart = json.dumps(dict(json.loads(chart), values=[]))
    out = run_totpos(args, chart)
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    assert "error" in json.loads(out.stderr)


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
def test_non_integer_chart_sizes_exit_two(field):
    # int() would truncate 2.9, 5.5 and 3.7 to a valid chart
    _, cfg = run_cli(["gen", "5", "2", "--seed", "1"])
    _, chart = run_cli(["charts", "-"], cfg)
    out = run_totpos(["flip", "-", "--diagonal", "1-3"], _with_non_integer(chart, field))
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    assert "error" in json.loads(out.stderr)


@pytest.mark.parametrize("args", [["delta", "-", "--index", "1,1,0,0"],
                                  ["act", "-", "--word", "[[1,3]]"]])
def test_zero_denominator_in_flag_exits_two(args):
    _, cfg = run_cli(["gen", "4", "2", "--seed", "3"])
    out = run_totpos(args, _with_zero_denominator(cfg, "flags"))
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    assert "error" in json.loads(out.stderr)


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
                                  ["verify-cactus", "--trials", "-2"],
                                  ["verify-cactus", "--trials", "0"]])
def test_out_of_range_sizes_exit_two(args):
    out = run_totpos(args)
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    assert "error" in json.loads(out.stderr)


def test_reading_a_file_closes_it(tmp_path, v_config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(v_config.to_json()))
    out = run_totpos(["delta", str(path), "--index", "0,1,0,1"],
                     python_flags=["-X", "dev", "-W", "error::ResourceWarning"])
    assert out.returncode == 0, out.stderr
    assert (out.stdout, out.stderr) == ("2\n", "")


def test_act_at_m5():
    cfg = run_totpos(["gen", "5", "5", "--seed", "1"])
    assert cfg.returncode == 0, cfg.stderr
    acted = run_totpos(["act", "-", "--word", "[[1,3]]"], cfg.stdout)
    assert acted.returncode == 0, acted.stderr


def test_svg_output(tmp_path):
    _, cfg = run_cli(["gen", "5", "3", "--seed", "1"])
    svg = tmp_path / "chart.svg"
    code, _ = run_cli(["charts", "-", "--svg", str(svg)], cfg)
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<svg") and "<circle" in text
    # one bullet per chart coordinate
    from totpos.polygon import chart_dimension
    assert text.count("<circle") == chart_dimension(5, 3)


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
