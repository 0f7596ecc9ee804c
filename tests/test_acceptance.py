"""Acceptance gate: nine exact-arithmetic criteria, one verdict line each.

Every check is an exact rational equality; there are no tolerances
anywhere.  Each test prints a single PASS/FAIL line for its criterion on
the real terminal (bypassing capture) and fails loudly on any violation.
"""

import json
import time
from contextlib import contextmanager
from itertools import combinations

from totpos.flags import theta, face, iota, rotate, rotate_inv
from totpos.polygon import Triangulation, chart_indices, chart_dimension
from totpos.mutation import flip_transport, transport
from totpos.reconstruct import (flags_to_charts, charts_to_flags,
                                random_positive, random_chart_point)
from totpos.cactus import verify_relations
from totpos.axioms import check_axiom, check_glue

from conftest import random_triangulation, run_totpos
from test_calibration import (closed_form_convention, perp_with,
                              search_conventions)
from test_mutation import check_exchange_on


@contextmanager
def verdict(capsys, num, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print("[PRIMARY %d] %s: FAIL" % (num, label))
        raise
    with capsys.disabled():
        print("[PRIMARY %d] %s: PASS" % (num, label))


def test_criterion_1_exchange_identity(capsys):
    with verdict(capsys, 1, "exchange identity, zero residual"):
        for (m, n) in [(2, 4), (2, 6), (3, 4), (3, 5), (4, 4)]:
            for trial in range(200):
                c = random_positive(n, m, 1000 * m + 10 * n + trial)
                for positions in combinations(range(1, n + 1), 4):
                    assert check_exchange_on(c, positions) > 0


def test_criterion_2_chart_dimension(capsys):
    with verdict(capsys, 2, "chart dimension formula"):
        for n in range(3, 11):
            for m in range(2, 6):
                count = len(chart_indices(Triangulation.fan(n), m))
                assert count == chart_dimension(n, m)
                assert count == (n - 2) * (m + 1) * m // 2 + (m + 1) - n
        assert chart_dimension(8, 4) == 57


def test_criterion_3_flip_vs_oracle(capsys):
    with verdict(capsys, 3, "flip transport equals reconstruction oracle"):
        for m in (2, 3, 4):
            for n in (4, 5, 6):
                t = Triangulation.fan(n)
                for trial in range(100):
                    p = random_chart_point(t, m, 3000 + 100 * m + 10 * n + trial)
                    q = flip_transport(p, (1, 3))
                    assert q == flags_to_charts(charts_to_flags(p), t.flip((1, 3)))
                    back = flip_transport(q, (2, 4) if n > 4 else (2, 4))
                    assert back == p


def test_criterion_4_round_trips(capsys):
    with verdict(capsys, 4, "chart/flag round trips exact"):
        grid = [(n, m) for n in range(3, 9) for m in (2, 3, 4)]
        for trial in range(100):
            n, m = grid[trial % len(grid)]
            t = random_triangulation(n, trial)
            p = random_chart_point(t, m, 4000 + trial)
            c = charts_to_flags(p)
            assert flags_to_charts(c, t).values == p.values
            assert charts_to_flags(flags_to_charts(c, t)).same_point(c)


def test_criterion_5_pentagon_and_path_independence(capsys):
    with verdict(capsys, 5, "pentagon cycle and path independence"):
        cycle = [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)]
        for m in (2, 3):
            t = Triangulation.fan(5)
            for trial in range(100):
                p = random_chart_point(t, m, 5000 + 100 * m + trial)
                q = p
                for d in cycle:
                    q = flip_transport(q, d)
                assert q == p
        for trial in range(50):
            n = 4 + trial % 5
            t1 = random_triangulation(n, 3 * trial)
            t2 = random_triangulation(n, 3 * trial + 1)
            t3 = random_triangulation(n, 3 * trial + 2)
            p = random_chart_point(t1, 2, 5500 + trial)
            assert transport(p, t2) == transport(transport(p, t3), t2)


def test_criterion_6_theta_suite(capsys):
    with verdict(capsys, 6, "reversal suite and calibration"):
        for m in (2, 3, 4):
            # the first passer of the oracle search is the shipped closed form
            first = next(search_conventions(m), None)
            assert first == closed_form_convention(m)
            for trial in range(100):
                c = random_positive(3, m, 6000 + 100 * m + trial)
                for f in c.flags:
                    assert f.orthogonal().rep == perp_with(f, *first).rep
                tc = theta(c)
                assert tc.is_positive()
                assert theta(tc).same_point(c)
                for i in (1, 2, 3):
                    assert face(tc, i).same_point(iota(face(c, 4 - i)))
                assert theta(rotate(c)).same_point(rotate_inv(theta(c)))


def test_criterion_7_square_suite(capsys):
    with verdict(capsys, 7, "square axioms and gluing"):
        for m in (2, 3):
            for k in (1, 2, 3, 8):
                r = check_axiom(k, m, 100, 7000 + m)
                assert r["passes"] == r["trials"] == 100, r
            g = check_glue(m, 100, 7000 + m)
            assert g["passes"] == g["trials"] == 100, g


def test_criterion_8_cactus_relations(capsys):
    with verdict(capsys, 8, "cactus relations on the hexagon"):
        for m in (2, 3):
            reports = verify_relations(6, m, 50, 8000 + m)
            assert [r["relation"] for r in reports] == ["R1", "R2", "R3"]
            for r in reports:
                assert set(r) == {"relation", "trials", "passes", "counterexample"}
                assert r["trials"] == 50
                assert r["passes"] == r["trials"], r
                assert r["counterexample"] is None


def test_criterion_9_cli_pipeline(capsys):
    with verdict(capsys, 9, "deterministic CLI pipeline"):
        start = time.time()

        run = run_totpos

        def pipeline():
            cfg = run(["gen", "5", "2", "--seed", "7"])
            assert cfg.returncode == 0, cfg.stderr
            chart = run(["charts", "-"], cfg.stdout)
            assert chart.returncode == 0, chart.stderr
            flipped = run(["flip", "-", "--diagonal", "1-3"], chart.stdout)
            assert flipped.returncode == 0, flipped.stderr
            acted = run(["act", "-", "--word", "[[2,4],[2,4]]"], cfg.stdout)
            assert acted.returncode == 0, acted.stderr
            va = run(["verify-axioms", "--axiom", "7", "--trials", "5",
                      "--seed", "3"])
            assert va.returncode == 0, va.stderr
            vc = run(["verify-cactus", "--n", "4", "--m", "2", "--trials", "3",
                      "--seed", "3"])
            assert vc.returncode == 0, vc.stderr
            return cfg.stdout + chart.stdout + flipped.stdout + acted.stdout \
                + va.stdout + vc.stdout

        first = pipeline()
        second = pipeline()
        assert first == second
        # round trip: acting twice with the same generator is the identity
        acted = run(["act", "-", "--word", "[[2,4],[2,4]]"],
                    run(["gen", "5", "2", "--seed", "7"]).stdout)
        same = run(["charts", "-"], acted.stdout)
        orig = run(["charts", "-"], run(["gen", "5", "2", "--seed", "7"]).stdout)
        assert json.loads(same.stdout) == json.loads(orig.stdout)
        assert run(["dim", "8", "4"]).stdout == "57\n"
        usage = run(["gen", "4"])
        assert usage.returncode == 2, usage.stderr
        assert time.time() - start <= 30
