"""Checks at sizes the Tier-1 tests do not reach, run on their own with
every warning an error:

    PYTHONPATH=src python -X dev -W error -m pytest -q tests/wide.py

The file name does not match `test_*.py`, so Tier-1's collection leaves it
out; pytest collects it when it is named on the command line. The CLI runs
in process, each `|` of a pipeline passing one stage's stdout to the next
stage's stdin, as in a shell."""

import functools
import hashlib
import json
import random

import pytest

from totpos import flags
from totpos.cactus import _reversal_program, act_word, word_from_json
from totpos.flags import (Configuration, DecoratedFlag, admissible_indices, reverse,
                          rotate, rotate_inv, theta)
from totpos.mutation import _run_program
from totpos.polygon import Triangulation
from totpos.rational import scalar
from totpos.reconstruct import charts_to_flags, random_chart_point, random_positive

from conftest import (SCALAR_ALPHABET, _reversal_program_reference, clearings,
                      reversal_sign_cases, run_cli, scalar_outcome, scalar_reference)
import test_cli

ZIGZAG_14 = "2-14,2-13,3-13,3-12,4-12,4-11,5-11,5-10,6-10,6-9,7-9"


@functools.cache
def pipe(pipeline, stdin=""):
    """The stdout of a CLI pipeline such as `gen 8 3 | charts -`, each
    stage of which must exit 0. The CLI's stdout is a function of its
    arguments and stdin, so a pipeline that several checks start from runs
    once."""
    out = stdin
    for stage in pipeline.split("|"):
        code, out = run_cli(stage.split(), out)
        assert code == 0, stage
    return out


# the reversal layer takes every sign in closed form, with no search: at
# m = 10 and 11 reverse, rotate, rotate_inv and the three faces hold the int
# rows, row scales and det that the GF(2) sign search of the test oracles
# finds
@pytest.mark.parametrize("m", [10, 11])
@pytest.mark.parametrize("seed", [0, 1])
def test_reversal_signs(m, seed):
    for name, out, oracle in reversal_sign_cases(random_positive(3, m, seed)):
        assert clearings(out) == clearings(oracle), name


# the triangle reversal's exchange program is written down in closed form:
# at m = 15..24 it is step for step the program the test oracle's quiver
# mutations give
@pytest.mark.parametrize("m", range(15, 25))
def test_reversal_program_is_the_quiver_program(m):
    assert _reversal_program(m) == _reversal_program_reference(m)


# at m = 8 and 10 the same program takes a triangle's values to those of its
# reversal theta
@pytest.mark.parametrize("m", [8, 10])
def test_reversal_program_gives_the_reversal(m):
    c = charts_to_flags(random_chart_point(Triangulation.fan(3), m, m))
    pts = admissible_indices(3, m)
    x = [c.delta(w) for w in pts]
    _run_program(x, _reversal_program(m))
    after, rev = dict(zip(pts, x)), theta(c)
    for i, j, k in pts:
        if i and j and k:
            assert rev.delta((i, j, k)) == after[j, k, i], (i, j, k)


def _refuse(*args):
    raise AssertionError("a determinant was computed")


# the global action of -I, which lies in SL_m at even m only: at m = 10
# reversal conjugates rotation to its inverse on clearings that differ by
# -I, which same_point decides with no determinant, and all coordinates
# agree; at m = 11 the negated configuration is another point
@pytest.mark.parametrize("seed", [0, 1])
def test_center_of_sl_m(monkeypatch, seed):
    c = random_positive(3, 10, seed)
    a, b = theta(rotate(c)), rotate_inv(theta(c))
    for f, g in zip(a.flags, b.flags, strict=True):
        assert [tuple(-x for x in r) for r in f._ints] == list(g._ints)
        assert f._scales == g._scales
    with monkeypatch.context() as patch:
        patch.setattr(flags, "_det_cleared", _refuse)
        assert a.same_point(b) and b.same_point(a)
    assert a.all_deltas() == b.all_deltas()
    c = random_positive(3, 11, seed)
    negated = Configuration([f.scale_rows([-1] * 11) for f in c.flags])
    assert not c.same_point(negated) and not negated.same_point(c)


# the action puts the chord {p, q} in by flips on a chart off the fan:
# acting and then charting equals charting and then acting, byte for byte;
# the chord {1, 8} crosses all 11 diagonals of the zigzag, so at
# (n, m) = (14, 4) the action on the zigzag chart puts it in by 11 flips
@pytest.mark.parametrize("gen, word, diagonals", [
    ("gen 8 3 --seed 2", "[[2,6],[7,3],[1,8]]", "2-4,2-5,5-7,5-8,2-8"),
    ("gen 14 4 --seed 6", "[[1,8],[3,12]]", ZIGZAG_14),
], ids=["off the fan", "across a zigzag at n = 14"])
def test_chord_insertion(gen, word, diagonals):
    act, charts = f"act - --word {word}", f"charts - --diagonals {diagonals}"
    assert pipe(f"{gen} | {act} | {charts}") == pipe(f"{gen} | {charts} | {act}")


# a word followed by its reverse gives back gen's representatives, byte for
# byte. same_point decides on identical representatives at once, which
# holds because charts_to_flags fixes its gauge from the point alone. At
# (n, m) = (10, 6) each row's cofactor vectors are read off one elimination
# and the row met by back substitution and a projection, each flag
# completed in closed form; (9, 7) takes the same rebuild to m = 7; at
# (12, 7) each flag is rebuilt from the cached per-(n, m) plan of fan chart
# keys and cofactor signs, and gen's bytes there are pinned below
@pytest.mark.parametrize("gen, word", [
    ("gen 8 3 --seed 2", [[2, 6], [7, 3], [1, 8]]),
    ("gen 8 3 --seed 2", [[3, 5]]),
    ("gen 10 6 --seed 5", [[3, 8], [9, 2]]),
    ("gen 9 7 --seed 3", [[2, 7]]),
    ("gen 12 7 --seed 4", [[2, 6], [9, 12]]),
], ids=str)
def test_word_then_its_reverse_gives_back_gen(gen, word):
    start = pipe(gen)
    there, back = (json.dumps(w, separators=(",", ":")) for w in (word, word[::-1]))
    assert pipe(f"act - --word {there} | act - --word {back}", start) == start


# the CLI loads every configuration from JSON, so it never acts on a held
# fan chart: here a configuration rebuilt at (n, m) = (10, 6) acts on the
# fan chart it holds, and the same flags loaded from JSON act on the chart
# read off them, to the same held int rows, row scales and dets; the word's
# result, acted on by the reversed word, holds no flags until they are
# read, and then holds the start's, clearing for clearing
def test_held_fan_chart():
    c = random_positive(10, 6, 5)
    assert c._fan is not None
    loaded = Configuration.from_json(c.to_json())
    assert loaded._fan is None
    word = word_from_json([[3, 8], [9, 2]])
    assert clearings(act_word(c, word)) == clearings(act_word(loaded, word))
    back = act_word(act_word(c, word), word[::-1])
    assert back._flags is None
    assert clearings(back) == clearings(c)


def _clearing(f):
    return [list(r) for r in f._ints], list(f._scales), f._det


# the checked constructor holds each flag's orthogonal-row clearing, here at
# m = 8: for every flag of a configuration, of its reversal and of its
# rotation, the Fraction input moved by a fixed lower-unitriangular L has
# rows that are not orthogonal, and the flag constructed from it holds the
# flag's own clearing, compares equal to it and has its hash
@pytest.mark.parametrize("seed", [0, 1])
def test_canonical_representative(seed):
    m = 8
    lower = [[j - i if j < i else int(i == j) for j in range(m)] for i in range(m)]
    c = random_positive(3, m, seed)
    for f in (*c.flags, *reverse(c).flags, *rotate(c).flags):
        cols = list(zip(*f.rep.entries))
        rows = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in lower]
        assert any(sum(a * b for a, b in zip(rows[i], rows[j]))
                   for j in range(m) for i in range(j))
        moved = DecoratedFlag(rows)
        assert _clearing(moved) == _clearing(f)
        assert moved == f and hash(moved) == hash(f)


# a flag is held as its integer clearing, and its Fraction rows are formed
# only when they are read: gen and act print the bytes they printed when
# every flag also stored its Fraction rows, on each Python; the fourth pin
# is act on a chart off the fan, chart in and chart out, with no flag
# formed; the next two cover a triangle and a quadrilateral, the sizes the
# axiom harness rebuilds at; the next two are gen at (12, 7) above and the
# two-digit chart keys below; the last two are the relation harness at CI's
# sizes, whose reports compare both sides of each relation on the fan at 1
@pytest.mark.parametrize("pipeline, digest", [
    ("gen 10 6 --seed 5", "7c0b7a9d79170ba886c8d511b0c4be73"),
    ("gen 9 4 --seed 8 | act - --word [[2,7],[8,3]]", "6fb5550aa3362883f7817b60ff9dae03"),
    ("gen 7 5 --seed 1 | act - --word [[1,7]]", "3b57b5b7c83952980beefdae4b6f6282"),
    ("gen 8 3 --seed 2 | charts - --diagonals 2-4,2-5,5-7,5-8,2-8"
     " | act - --word [[2,6],[7,3],[1,8]]", "8a392b803792dafef6f47b8f94580882"),
    ("gen 3 4 --seed 1", "0f14ed6a3f9a5560dd1a43b54fc8f6d4"),
    ("gen 4 6 --seed 2", "ba7c8f8c12d39fa0276b1059f45db1ce"),
    ("gen 12 7 --seed 4", "75b295e2bf2a6ff59eac1967dd277fc8"),
    ("gen 6 11 --seed 2 | charts -", "0bdb83ca5b0fb4f3277e89d1495426e5"),
    ("verify-cactus --n 12 --m 6 --trials 10", "af4c7d19466ae6b7ed142221b0ab6662"),
    ("verify-cactus --n 7 --m 4 --trials 2", "a5eb1b51885a9521c79107afa4f906af"),
])
def test_stdout_digest(pipeline, digest):
    assert hashlib.md5(pipe(pipeline).encode()).hexdigest() == digest


# transport lands on the chart taken directly on the target, and transport
# back gives its input, byte for byte: between triangulations that share
# the diagonals 1-5, 1-9, 5-9 and 9-12, which stay in place (5 flips); at
# (n, m) = (14, 5) from a zigzag to the fan at 8 (11 flips); at m = 8, where
# each flip deletes and makes the positions of its per-m plan, and its many
# intermediate weights, with all four entries positive, never enter the
# chart, from a zigzag to the fan at 1 (6 flips)
@pytest.mark.parametrize("gen, source, target", [
    ("gen 12 4 --seed 3", "1-3,3-5,1-5,5-9,6-8,6-9,1-9,9-12,10-12",
     "1-5,1-9,5-9,2-5,2-4,5-7,7-9,9-11,9-12"),
    ("gen 14 5 --seed 4", ZIGZAG_14, "1-8,2-8,3-8,4-8,5-8,6-8,8-10,8-11,8-12,8-13,8-14"),
    ("gen 9 8 --seed 6", "2-9,2-8,3-8,3-7,4-7,4-6", "1-3,1-4,1-5,1-6,1-7,1-8"),
], ids=["across shared diagonals", "n = 14, m = 5", "n = 9, m = 8"])
def test_transport_there_and_back(gen, source, target):
    start = pipe(f"{gen} | charts - --diagonals {source}")
    there = pipe(f"transport - --diagonals {target}", start)
    assert there == pipe(f"{gen} | charts - --diagonals {target}")
    assert pipe(f"transport - --diagonals {source}", there) == start


# one flip and its inverse at (n, m) = (11, 5) give back the chart byte for
# byte: 5-8, whose quadrilateral (5, 7, 8, 4) wraps around, and 3-9
@pytest.mark.parametrize("diagonal, back", [("5-8", "4-7"), ("3-9", "4-10")])
def test_single_flip_and_back(diagonal, back):
    chart = pipe("gen 11 5 --seed 7 | charts - --diagonals 2-11,2-10,3-10,3-9,4-9,4-8,5-8,5-7")
    assert pipe(f"flip - --diagonal {diagonal} | flip - --diagonal {back}", chart) == chart


# a chart document's keys are read by one lookup of their spelling: at
# m = 11, where a weight of 10 makes two-digit keys, whose JSON order is not
# tuple order, and which the Tier-1 tests do not take through the CLI, a fan
# chart sent to the fan at 2 and back gives back its bytes; a misspelled
# two-digit key, an extra key and a zero value each exit 2 with empty stdout
def test_two_digit_chart_keys_to_the_fan_at_2_and_back():
    chart = pipe("gen 6 11 --seed 2 | charts -")
    assert pipe("transport - --diagonals 2-4,2-5,2-6 | transport - --diagonals 1-3,1-4,1-5",
                chart) == chart


@pytest.mark.parametrize("fault", ["misspelled", "extra", "zero"])
def test_a_bad_two_digit_chart_key_exits_two(fault):
    chart = json.loads(pipe("gen 6 11 --seed 2 | charts -"))
    values, key, extra = chart["values"], "0,0,0,0,1,10", "0,1,0,1,0,9"
    assert key in values and extra not in values
    bad = {"misspelled": {"0,0,0,0,1,010" if k == key else k: v for k, v in values.items()},
           "extra": dict(values, **{extra: "1"}),
           "zero": dict(values, **{key: "0"})}[fault]
    document = json.dumps(dict(chart, values=bad))
    assert run_cli(["flip", "-", "--diagonal", "1-3"], document) == (2, "")


# a value p, -p, p/q or -p/q in decimal digits is read with int() alone and
# every other string by Fraction(str), whose accepted set differs between
# Pythons: on 200,000 random strings over the characters where the two reads
# could part, scalar gives this Python's Fraction value, or its exception
# class and message, once a decimal exponent over the digit limit is refused
# as scalar refuses it
def test_scalar_fast_path_agrees_with_fraction():
    rng = random.Random(0)
    for _ in range(200000):
        s = "".join(rng.choices(SCALAR_ALPHABET, k=rng.randrange(13)))
        assert scalar_outcome(scalar, s) == scalar_outcome(scalar_reference, s), ascii(s)


# a chart value "1e9999999" is refused as it is read, before Fraction forms
# an int of 33 million bits: Tier-1 already runs this check from test_cli on
# each Python; collected here too, it runs under -X dev -W error
test_exponent_bound_at_read = test_cli.test_value_with_an_exponent_over_the_digit_limit_exits_two_at_once
