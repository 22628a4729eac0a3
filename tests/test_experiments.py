from __future__ import annotations

import hashlib
import json
import random

import pytest

from dyncolor import experiment_random_graphs, random_list_assignment, sample_sublists
from dyncolor import experiments
from dyncolor.coloring import _Sorted


def test_random_list_assignment():
    rng = random.Random(0)
    lists = random_list_assignment(5, 3, 9, rng)
    assert len(lists) == 5
    for t in lists:
        assert len(t) == 3 and list(t) == sorted(t)
        assert all(1 <= c <= 9 for c in t)
    with pytest.raises(ValueError):
        random_list_assignment(2, 5, 4, rng)


def test_random_list_assignment_frozen():
    # the draws are those of Random.sample, so seeded lists never move
    assert random_list_assignment(5, 3, 9, random.Random(0)) == [
        (1, 7, 9), (4, 5, 8), (3, 5, 8), (3, 4, 8), (2, 3, 5)
    ]


class _Subclass(random.Random):
    pass


@pytest.mark.parametrize(
    "n, size, universe, rng_type, sorted_type",
    [(40, 3, 9, random.Random, _Sorted), (40, 43, 86, random.Random, _Sorted),
     (30, 64, 128, random.Random, _Sorted), (20, 10, 1000, random.Random, _Sorted),
     (20, 5, 9, _Subclass, tuple)],
)
def test_random_list_assignment_draws_as_random_sample(n, size, universe, rng_type, sorted_type):
    # the lists and the rng state are those of one rng.sample call on the
    # range per vertex: in Random.sample's pool branch, which the sampler
    # inlines, and in its set branch (10 of 1000), both drawing _Sorted
    # lists, and for a subclass of Random, which the sampler leaves to
    # rng.sample and whose draws stay plain tuples
    for seed in range(3):
        ours, theirs = rng_type(seed), rng_type(seed)
        lists = random_list_assignment(n, size, universe, ours)
        assert lists == [tuple(sorted(theirs.sample(range(1, universe + 1), size))) for _ in range(n)]
        assert ours.getstate() == theirs.getstate()
        assert {type(t) for t in lists} == {sorted_type}


def test_greedy_mode():
    rep = experiment_random_graphs(10, 2, trials=8, seed=0, mode="greedy", p=0.4)
    assert rep["config"]["mode"] == "greedy"
    assert len(rep["trials"]) == 8
    assert rep["summary"]["success_rate"] == 1.0
    for rec in rep["trials"]:
        assert rec["valid"]
        assert rec["list_size"] == 2 * rec["max_degree"] + 1


def test_lll_mode():
    rep = experiment_random_graphs(
        12, 2, trials=6, seed=1, mode="lll", p=0.6, sublist_size=4, max_iters=200
    )
    run = [rec for rec in rep["trials"] if rec["status"] != "skipped_low_degree"]
    assert rep["summary"]["attempted"] == len(run)
    for rec in run:
        assert rec["base_list_size"] == 4 + 1 + 2 - 2  # slack defaults to r-1
        assert rec["status"] in {"ok", "cap_reached", "list_coloring_failed"}
        assert rec["valid"] == (rec["status"] == "ok")
    assert rep["summary"]["ok"] == sum(1 for rec in run if rec["status"] == "ok")


def test_lll_sublist_seed_follows_the_lists(monkeypatch):
    # the sublist seed is drawn from the trial's list stream after the lists:
    # the sublists no longer replay Random(list_seed)'s first draws, and the
    # master stream, so every later trial's graph and list seed, is untouched
    seen = []
    real = experiments.dynamic_coloring_via_sublists

    def spy(g, lists, sub, r, seed, max_iters=None):
        seen.append((lists, sub, seed))
        return real(g, lists, sub, r, seed=seed, max_iters=max_iters)

    monkeypatch.setattr(experiments, "dynamic_coloring_via_sublists", spy)
    rep = experiment_random_graphs(20, 2, trials=3, seed=5, mode="lll", d=3)
    assert len(seen) == 3
    master = random.Random(5)
    for rec, (lists, sub, seed) in zip(rep["trials"], seen):
        graph_seed, list_seed = master.randrange(2**32), master.randrange(2**32)
        assert rec["graph_seed"] == graph_seed
        base = rec["base_list_size"]
        rng = random.Random(list_seed)
        assert lists == random_list_assignment(20, base, 2 * base, rng)
        assert seed == rng.randrange(2**32) != list_seed
        drawn = sample_sublists(lists, sub, seed, r=2).sublists
        assert drawn != sample_sublists(lists, sub, list_seed, r=2).sublists


def test_lll_mode_skips_low_degree():
    rep = experiment_random_graphs(8, 3, trials=10, seed=2, mode="lll", p=0.1)
    statuses = {rec["status"] for rec in rep["trials"]}
    assert "skipped_low_degree" in statuses  # sparse graphs miss the degree floor
    assert rep["summary"]["attempted"] < 10


def test_exact_mode():
    rep = experiment_random_graphs(6, 2, trials=5, seed=3, mode="exact", p=0.5)
    for rec in rep["trials"]:
        assert rec["chi_proper"] <= rec["chi_dynamic"] <= 6
    assert rep["summary"]["max_chi_dynamic"] >= rep["summary"]["min_chi_dynamic"]


def test_regular_model():
    rep = experiment_random_graphs(10, 2, trials=4, seed=4, mode="greedy", d=3)
    for rec in rep["trials"]:
        assert rec["max_degree"] == rec["min_degree"] == 3


def test_determinism_and_json():
    a = experiment_random_graphs(10, 2, trials=5, seed=7, mode="greedy", p=0.3)
    b = experiment_random_graphs(10, 2, trials=5, seed=7, mode="greedy", p=0.3)
    assert a == b
    assert json.loads(json.dumps(a, sort_keys=True)) == a
    c = experiment_random_graphs(10, 2, trials=5, seed=8, mode="greedy", p=0.3)
    assert a != c  # frozen seeds chosen to differ


def test_validation():
    with pytest.raises(ValueError):
        experiment_random_graphs(10, 2, trials=1, seed=0, mode="greedy")  # no model
    with pytest.raises(ValueError):
        experiment_random_graphs(10, 2, trials=1, seed=0, mode="greedy", p=0.3, d=3)
    with pytest.raises(ValueError):
        experiment_random_graphs(10, 2, trials=1, seed=0, mode="magic", p=0.3)
    with pytest.raises(ValueError):
        experiment_random_graphs(10, 1, trials=1, seed=0, mode="lll", p=0.3)
    with pytest.raises(ValueError):
        experiment_random_graphs(20, 2, trials=1, seed=0, mode="exact", p=0.3)
    with pytest.raises(ValueError):
        experiment_random_graphs(10, 2, trials=-1, seed=0, mode="greedy", p=0.3)


def test_zero_trials():
    rep = experiment_random_graphs(10, 2, trials=0, seed=0, mode="greedy", p=0.3)
    assert rep["trials"] == [] and rep["summary"] == {}


def test_reports_frozen():
    # one digest over seeded greedy and lll reports: graphs, lists, sublists,
    # resampling and colorings all feed it, so any drift in a draw shows here
    reports = [
        experiment_random_graphs(60, 2, trials=4, seed=3, mode="greedy", p=0.1),
        experiment_random_graphs(40, 3, trials=2, seed=4, mode="greedy", d=5),
        experiment_random_graphs(20, 2, trials=3, seed=5, mode="lll", d=3),
        experiment_random_graphs(12, 2, trials=3, seed=6, mode="lll", p=0.6, sublist_size=4, max_iters=200),
    ]
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == "e1d3eb4b80d2a965aaeef20de0c591f8ab1073ede11d1a71b8c5df316255a6af"


def test_reports_frozen_dense_lll():
    # lll reports on 8-regular graphs at r = 3 and r = 4, where the bad event
    # asks for two or three colors meeting every neighbor sublist; trials end
    # both "ok" and "cap_reached"
    reports = [
        experiment_random_graphs(40, 3, trials=3, seed=1, mode="lll", d=8, slack=14, max_iters=100),
        experiment_random_graphs(24, 4, trials=2, seed=1, mode="lll", d=8, sublist_size=4, slack=10, max_iters=30),
        experiment_random_graphs(24, 4, trials=2, seed=1, mode="lll", d=8, sublist_size=3, slack=10, max_iters=30),
    ]
    statuses = [[t["status"] for t in rep["trials"]] for rep in reports]
    assert statuses == [["cap_reached", "ok", "ok"], ["cap_reached"] * 2, ["ok"] * 2]
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == "50748a4889372ed61396ecdeaf3f3348e551eb4d2870a1de9e253afefa28f78f"
