"""End-to-end acceptance gate.

Each test covers one numbered criterion, prints a single pass/fail line even
under output capture, and enforces the stated runtime budget.  Expected
values are either properties checked against the independent oracles in
helpers.py or constants frozen from earlier runs of those oracles.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from dyncolor import (
    bounds_report,
    build_hypergraph,
    candidate_family,
    chi_exact,
    construction_report,
    degree_stats,
    dynamic_coloring_via_sublists,
    experiment_random_graphs,
    generate,
    greedy_r_dynamic,
    has_small_transversal,
    is_k_choosable,
    is_r_dynamic,
    is_transversal,
    random_list_assignment,
    resample_until_clear,
    sample_sublists,
)
from .helpers import oracle_chi, oracle_has_small_transversal, oracle_valid, oracle_validator


@contextmanager
def criterion(capsys, num, label, budget_s):
    """Time the body, print one verdict line, then assert the outcome."""
    outcome = {"ok": False, "detail": ""}
    start = time.monotonic()
    try:
        yield outcome
    except BaseException as exc:
        with capsys.disabled():
            print(f"\ncriterion {num} ({label}): FAIL [{type(exc).__name__}: {exc}]")
        raise
    elapsed = time.monotonic() - start
    ok = outcome["ok"] and elapsed < budget_s
    with capsys.disabled():
        print(
            f"\ncriterion {num} ({label}): {'PASS' if ok else 'FAIL'}"
            f" [{outcome['detail']}; {elapsed:.2f}s of {budget_s}s budget]"
        )
    assert outcome["ok"], f"criterion {num} ({label}): {outcome['detail']}"
    assert elapsed < budget_s, f"criterion {num} over budget: {elapsed:.2f}s"


def test_transversal_equivalence(capsys):
    # 500 seeded uniform hypergraphs (n <= 10, m <= 6, k <= 4), r in {1,2,3}:
    # the direct decision, the candidate-family decision and brute force must
    # agree everywhere, and the family must stay within k^r members of size <= r
    with criterion(capsys, 1, "transversal equivalence", 5.0) as out:
        agree = 0
        for seed in range(500):
            rng = random.Random(seed)
            n = rng.randint(2, 10)
            k = rng.randint(1, min(4, n))
            m = rng.randint(1, 6)
            h = build_hypergraph(n, [set(rng.sample(range(n), k)) for _ in range(m)])
            r = seed % 3 + 1
            fam = candidate_family(h, r)
            assert len(fam.sets) <= k**r, f"family size {len(fam.sets)} > {k}^{r}"
            assert all(len(s) <= r for s in fam.sets)
            want = any(is_transversal(h, s) for s in candidate_family(h, min(r, n)))
            assert has_small_transversal(h, r) == want
            assert want == oracle_has_small_transversal(h, r)
            agree += 1
        out["ok"] = agree == 500
        out["detail"] = f"{agree}/500 instances agree, family sizes within k^r"


def test_greedy_floor(capsys):
    # 200 seeded binomial graphs (n <= 40, p in {.1,.3,.5}), r in {2,3},
    # random lists of size exactly r*maxdeg+1: greedy must succeed and
    # validate every time
    with criterion(capsys, 2, "greedy list-size floor", 10.0) as out:
        good = 0
        for i in range(200):
            rng = random.Random(i)
            n = rng.randint(2, 40)
            p = (0.1, 0.3, 0.5)[i % 3]
            r = 2 + (i % 2)
            g = generate("gnp", seed=rng.randrange(2**32), n=n, p=p)
            size = r * degree_stats(g).max_degree + 1
            lists = random_list_assignment(g.n, size, 2 * size, rng)
            c = greedy_r_dynamic(g, lists, r)
            assert is_r_dynamic(g, c, r)
            assert oracle_valid(g, c, r)
            assert all(c[v] in lists[v] for v in range(g.n))
            good += 1
        out["ok"] = good == 200
        out["detail"] = f"{good}/200 graphs colored from lists of size r*maxdeg+1"


def test_exact_values(capsys):
    with criterion(capsys, 3, "exact small-instance values", 60.0) as out:
        c5, c6 = generate("cycle", n=5), generate("cycle", n=6)
        assert chi_exact(c5, mode="dynamic", r=2) == 5
        assert chi_exact(c6, mode="dynamic", r=2) == 3
        # frozen values double-checked against the product-search oracle
        assert oracle_chi(c5, 2) == 5
        assert oracle_chi(c6, 2) == 3
        for n in range(1, 7):
            for r in (1, 2, 3):
                assert chi_exact(generate("complete", n=n), mode="dynamic", r=r) == n
        k4 = generate("complete", n=4)
        assert is_k_choosable(k4, 3) is False
        assert is_k_choosable(k4, 4) is True
        assert is_k_choosable(generate("complete_bipartite", a=3, b=3), 2) is False
        out["ok"] = True
        out["detail"] = (
            "chi_2(C5)=5, chi_2(C6)=3, chi_r(K_n)=n for n<=6 r<=3, "
            "K4 choosability 3/4 false/true, K33 2-choosability false"
        )


def test_sublist_clearing_soundness(capsys):
    # wherever resampling reports clear (tiny graphs, min degree >= r), every
    # proper coloring drawn from the surviving sublists must be r-dynamic;
    # enumeration is exhaustive, the counts are frozen
    with criterion(capsys, 4, "clearing implies dynamic", 60.0) as out:
        shapes = [
            generate("cycle", n=4),
            generate("cycle", n=5),
            generate("cycle", n=6),
            generate("cycle", n=7),
            generate("cycle", n=8),
            generate("complete_bipartite", a=2, b=3),
            generate("complete_bipartite", a=3, b=3),
            generate("complete_bipartite", a=4, b=4),
        ]
        cleared = colorings = violations = 0
        for si, g in enumerate(shapes):
            for t in range(20):
                attempt = si * 20 + t
                rng = random.Random(10_000 + attempt)
                lists = [sorted(rng.sample(range(1, 10), 3)) for _ in range(g.n)]
                state = sample_sublists(lists, 2, seed=attempt, r=2)
                state, log = resample_until_clear(g, state, max_iters=300)
                if log.status != "clear":
                    continue
                cleared += 1
                edges, valid = g.edges, oracle_validator(g, 2)
                for combo in itertools.product(*state.sublists):
                    if any(combo[u] == combo[v] for u, v in edges):
                        continue
                    colorings += 1
                    if not valid(combo):
                        violations += 1
        k33 = generate("complete_bipartite", a=3, b=3)
        k33_edges, k33_valid = k33.edges, oracle_validator(k33, 3)
        for t in range(25):
            rng = random.Random(20_000 + t)
            lists = [sorted(rng.sample(range(1, 10), 5)) for _ in range(6)]
            state = sample_sublists(lists, 2, seed=t, r=3)
            state, log = resample_until_clear(k33, state, max_iters=300)
            if log.status != "clear":
                continue
            cleared += 1
            for combo in itertools.product(*state.sublists):
                if any(combo[u] == combo[v] for u, v in k33_edges):
                    continue
                colorings += 1
                if not k33_valid(combo):
                    violations += 1
        assert cleared == 175  # frozen: 150 of 160 at r=2 plus 25 of 25 at r=3
        assert colorings == 5266  # frozen count of enumerated proper colorings
        out["ok"] = violations == 0 and cleared >= 100
        out["detail"] = (
            f"{cleared} cleared instances, {colorings} proper colorings "
            f"enumerated, {violations} dynamic violations"
        )


def test_pipeline_postcondition(capsys):
    # every coloring the pipeline returns is re-validated, both through the
    # package checker and the inline oracle, across direct calls and the
    # experiment harness
    with criterion(capsys, 5, "pipeline postcondition", 60.0) as out:
        returned = 0
        for attempt in range(40):
            g = generate("cycle", n=4 + attempt % 5)
            rng = random.Random(10_000 + attempt)
            lists = [sorted(rng.sample(range(1, 10), 3)) for _ in range(g.n)]
            res = dynamic_coloring_via_sublists(g, lists, 2, 2, seed=attempt, max_iters=300)
            if res.status == "ok":
                returned += 1
                assert is_r_dynamic(g, res.coloring, 2)
                assert oracle_valid(g, res.coloring, 2)
        configs = [
            dict(n=12, r=2, trials=12, seed=11, mode="lll", p=0.6,
                 sublist_size=4, slack=6, max_iters=400),
            dict(n=10, r=2, trials=12, seed=12, mode="lll", p=0.5,
                 sublist_size=4, slack=6, max_iters=400),
            dict(n=12, r=3, trials=12, seed=13, mode="lll", p=0.8,
                 sublist_size=4, slack=7, max_iters=400),
        ]
        harness_ok = 0
        for cfg in configs:
            rep = experiment_random_graphs(**cfg)
            for rec in rep["trials"]:
                if rec["status"] == "skipped_low_degree":
                    continue
                assert rec["valid"] == (rec["status"] == "ok")
            harness_ok += rep["summary"]["ok"]
        assert harness_ok == 34  # frozen: every attempted trial clears
        out["ok"] = returned > 0 and harness_ok > 0
        out["detail"] = (
            f"{returned} direct colorings and {harness_ok} harness colorings, "
            "all re-validated"
        )


def test_construction_reports(capsys):
    # 24 augmented instances: incidence graphs bipartite and k-degenerate,
    # lifted colorings dynamic, and the strong <= dynamic <= strong + r
    # sandwich exact
    with criterion(capsys, 6, "construction sandwich", 60.0) as out:
        triangle = build_hypergraph(3, [{0, 1}, {1, 2}, {0, 2}])
        matching = build_hypergraph(4, [{0, 1}, {2, 3}])
        path3 = build_hypergraph(3, [{0, 1}, {1, 2}])
        bases = [
            (triangle, 2, 2),
            (path3, 2, 2),
            (build_hypergraph(4, [{0, 1}, {1, 2}, {2, 3}, {0, 3}]), 2, 2),
            (matching, 2, 2),
            (build_hypergraph(4, [{0, 1}, {0, 2}, {0, 3}]), 2, 2),
            (build_hypergraph(5, [{0, 1}, {1, 2}, {2, 3}, {3, 4}]), 2, 2),
            (build_hypergraph(6, [{0, 1, 2}]), 2, 3),
            (build_hypergraph(6, [{0, 1, 2}, {1, 2, 3}]), 2, 3),
            (build_hypergraph(6, [{0, 1, 2}, {3, 4, 5}]), 2, 3),
            (triangle, 3, 3),
            (matching, 3, 3),
            (path3, 3, 3),
        ]
        count = 0
        for h, r, k in bases:
            for seed in (0, 7):
                rep = construction_report(h, r, k, seed=seed, max_n=24)
                assert rep["bipartite"], "incidence graph must be bipartite"
                assert rep["k_degenerate"]
                assert rep["lifted_valid"]
                assert rep["lower_bound_holds"] and rep["upper_bound_holds"]
                s, d = rep["strong_chromatic"], rep["dynamic_chromatic"]
                assert s <= d <= s + r
                count += 1
        out["ok"] = count >= 20
        out["detail"] = f"{count} reports, all flags and both bounds hold"


def test_bounds_arithmetic(capsys):
    # the two pinned evaluations, re-derived here from scratch at 1e-9
    with criterion(capsys, 7, "bounds arithmetic", 60.0) as out:
        rep = bounds_report(43, 43, 2, list_size=7)
        tri = next(e for e in rep["results"] if e["id"] == "triangle_free")
        want_lhs = 6 * math.log(43) + 2
        assert abs(tri["condition_lhs"] - want_lhs) <= 1e-9
        assert want_lhs <= 43 and tri["applicable"]
        assert abs(tri["addend"] - 86.0) <= 1e-9  # regular case: plus 86 exactly
        assert abs(tri["bound"] - 93.0) <= 1e-9

        want_lhs = (3 * math.log(24) + math.log(2) + 1) * ((3 + 3) / 3)
        good = bounds_report(24, 24, 2, list_size=3, slack=3)
        e = next(x for x in good["results"] if x["id"] == "sublist_degree")
        assert abs(e["condition_lhs"] - want_lhs) <= 1e-9
        assert e["applicable"] and want_lhs <= 24
        want_bad = (3 * math.log(10) + math.log(2) + 1) * ((3 + 3) / 3)
        bad = bounds_report(10, 10, 2, list_size=3, slack=3)
        e = next(x for x in bad["results"] if x["id"] == "sublist_degree")
        assert abs(e["condition_lhs"] - want_bad) <= 1e-9
        assert not e["applicable"] and want_bad > 10
        out["ok"] = True
        out["detail"] = (
            "triangle-free bound applicable at maxdeg=mindeg=43 with addend 86; "
            "sublist condition true at degree 24, false at 10"
        )


def test_cli_determinism(capsys, tmp_path):
    # identical invocations in fresh processes must emit identical bytes
    with criterion(capsys, 8, "CLI byte determinism", 60.0) as out:
        graph = tmp_path / "g.txt"
        graph.write_text("p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n", encoding="utf-8")
        lists = tmp_path / "l.json"
        lists.write_text(
            json.dumps({"0": [1, 5, 6], "1": [1, 2, 6], "2": [1, 5, 7], "3": [2, 6, 9]}),
            encoding="utf-8",
        )
        hyper = tmp_path / "h.txt"
        hyper.write_text("h 4 2\n1 2\n3 4\n", encoding="utf-8")
        invocations = [
            ["solve", "--graph", str(graph), "--lists", str(lists),
             "--mode", "lll", "--r", "2", "--seed", "0"],
            ["solve", "--graph", str(graph), "--lists", str(lists), "--r", "2"],
            ["chi", "--graph", str(graph), "--mode", "dynamic", "--r", "2"],
            ["construct", "--hypergraph", str(hyper), "--r", "2", "--k", "2",
             "--max-n", "24"],
            ["bounds", "--Delta", "24", "--delta", "24", "--r", "2",
             "--l", "3", "--s", "3"],
            ["experiment", "--n", "10", "--p", "0.4", "--r", "2",
             "--trials", "4", "--seed", "9", "--mode", "greedy"],
        ]
        checked = 0
        for argv in invocations:
            runs = [
                subprocess.run(
                    [sys.executable, "-m", "dyncolor.cli", *argv],
                    capture_output=True,
                    timeout=120,
                )
                for _ in range(2)
            ]
            assert runs[0].returncode == runs[1].returncode
            assert runs[0].stdout == runs[1].stdout, f"nondeterministic: {argv}"
            assert runs[0].stdout, f"no output: {argv} ({runs[0].stderr!r})"
            json.loads(runs[0].stdout)  # must be well-formed JSON
            checked += 1
        out["ok"] = checked == len(invocations)
        out["detail"] = f"{checked} invocation pairs byte-identical"
