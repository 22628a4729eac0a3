"""Seeded experiment harness over random graphs.

Reports are plain dicts ready for JSON serialization; every random draw
descends from the single master seed, so a report is a pure function of its
config.
"""

from __future__ import annotations

import random

from .coloring import _check_cap, _check_r, chi_exact, is_r_dynamic
from .graphs import degree_stats, generate
from .greedy import greedy_r_dynamic
from .sublists import _list_sizes, _sorted_sampler, dynamic_coloring_via_sublists


def random_list_assignment(n, size, universe, rng):
    """n independent uniform size-subsets of {1..universe}, as sorted tuples.

    The draws are those of one rng.sample(range(1, universe + 1), size)
    call per vertex, made by one sampler for all n, so a seeded rng always
    gives the same lists.  The sampler draws from one list of 1..universe,
    built once: copying it is faster than materializing the range per draw,
    and the same items at the same positions give the same draws.
    """
    if universe < size:
        raise ValueError(f"universe {universe} smaller than list size {size}")
    pool = list(range(1, universe + 1))
    draw = _sorted_sampler(rng, size)
    return [draw(pool) for _ in range(n)]


def experiment_random_graphs(
    n,
    r,
    trials,
    seed,
    mode,
    p=None,
    d=None,
    sublist_size=None,
    slack=None,
    max_iters=None,
    max_n=12,
):
    """Run `trials` seeded random-graph trials in one of three modes.

    Exactly one of p (binomial random graph) and d (random regular) selects
    the model.  Modes: "greedy" colors with fresh random lists of size
    r*maxdeg+1 and validates; "lll" runs the sublist pipeline with sublist
    size maxdeg+1 by default (slack defaults to r-1) and records the status
    and iteration count, with the sublist seed drawn after the lists from
    the trial's list stream (earlier versions reused the list seed, so their
    lll reports differ); "exact" computes the r-dynamic and proper chromatic
    numbers (n capped by max_n).
    """
    _check_r(trials, 0, "trials")
    if (p is None) == (d is None):
        raise ValueError("need exactly one of p, d")
    if mode not in ("greedy", "lll", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    _check_r(r, 2 if mode == "lll" else 1)
    if mode == "lll":
        _list_sizes(r, sublist_size, slack)  # the given sizes and cap, before any trial
        if max_iters is not None:
            _check_r(max_iters, 0, "max_iters")
    _check_r(n, 1, "n")
    if mode == "exact":
        _check_cap(n, max_n)

    config = {
        "n": n,
        "r": r,
        "trials": trials,
        "seed": seed,
        "mode": mode,
        "p": p,
        "d": d,
        "sublist_size": sublist_size,
        "slack": slack,
        "max_iters": max_iters,
    }
    master = random.Random(seed)
    records = []
    for t in range(trials):
        graph_seed = master.randrange(2**32)
        list_seed = master.randrange(2**32)
        if p is not None:
            g = generate("gnp", seed=graph_seed, n=n, p=p)
        else:
            g = generate("random_regular", seed=graph_seed, n=n, d=d)
        stats = degree_stats(g)
        rec = {
            "trial": t,
            "graph_seed": graph_seed,
            "edges": g.m,
            "max_degree": stats.max_degree,
            "min_degree": stats.min_degree,
        }
        rng = random.Random(list_seed)
        if mode == "greedy":
            size = r * stats.max_degree + 1
            lists = random_list_assignment(g.n, size, 2 * size, rng)
            coloring = greedy_r_dynamic(g, lists, r)
            rec["list_size"] = size
            rec["valid"] = is_r_dynamic(g, coloring, r)
        elif mode == "lll":
            if stats.min_degree < r:
                rec["status"] = "skipped_low_degree"
            else:
                sub, _, base = _list_sizes(r, sublist_size, slack, max_degree=stats.max_degree)
                lists = random_list_assignment(g.n, base, 2 * base, rng)
                # drawn after the lists, not from master, so the sublists are
                # independent of the lists and later trials keep their seeds
                result = dynamic_coloring_via_sublists(
                    g, lists, sub, r, seed=rng.randrange(2**32), max_iters=max_iters
                )
                rec["sublist_size"] = sub
                rec["base_list_size"] = base
                rec["status"] = result.status
                rec["iterations"] = result.log.iterations
                rec["valid"] = result.status == "ok"  # the pipeline checks an ok coloring
        else:
            rec["chi_dynamic"] = chi_exact(g, mode="dynamic", r=r, max_n=max_n)
            rec["chi_proper"] = chi_exact(g, mode="proper", max_n=max_n)
        records.append(rec)

    summary = {}
    if records:
        if mode == "greedy":
            good = sum(1 for rec in records if rec["valid"])
            summary["success_rate"] = good / len(records)
        elif mode == "lll":
            run = [rec for rec in records if rec["status"] != "skipped_low_degree"]
            summary["attempted"] = len(run)
            summary["ok"] = sum(1 for rec in run if rec["status"] == "ok")
            if run:
                summary["mean_iterations"] = sum(
                    rec["iterations"] for rec in run
                ) / len(run)
        else:
            summary["max_chi_dynamic"] = max(rec["chi_dynamic"] for rec in records)
            summary["min_chi_dynamic"] = min(rec["chi_dynamic"] for rec in records)
    return {"config": config, "trials": records, "summary": summary}
