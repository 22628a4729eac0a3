"""The paper's bound arithmetic: the degree condition, the sublist formulas and
the report that evaluates every bound.

Every entry of a report states its hypothesis numerically, an applicability
flag, and the concluded bound, all recomputable from the echoed inputs.
Bounds that rest on absolute constants nobody has pinned down (the random
graph additive constant, the sparse-neighborhood coefficient) keep those
constants symbolic instead of inventing numbers; such entries report the
computable cofactor only.
"""

from __future__ import annotations

import functools
import math

from .coloring import _check_r, _check_slack


def _condition_lhs(max_degree, r, ratio):
    """((r+1) ln Delta + (r-1) ln r + 1) * ratio^(r-1), the degree condition's left side."""
    return ((r + 1) * math.log(max_degree) + (r - 1) * math.log(r) + 1) * (ratio ** (r - 1))


def _finite(func):
    """func with float overflow, raised or returned as inf, a ValueError naming func."""
    @functools.wraps(func)
    def checked(*args, **kwargs):
        try:
            value = func(*args, **kwargs)
        except OverflowError:
            value = math.inf
        if value == math.inf:
            raise ValueError(f"{func.__name__} overflows a float")
        return value
    return checked


def _check_sublist_params(degree, r, slack, sublist_size):
    if None in (degree, r, slack, sublist_size) or min(degree, r, slack, sublist_size) <= 0:
        raise ValueError("all parameters must be positive")
    _check_r(degree, 1, "degree")
    _check_slack(slack, r)


@_finite
def sublist_condition_lhs(max_degree, r, slack, sublist_size) -> float:
    """Left side of the degree condition the sublist argument needs."""
    _check_sublist_params(max_degree, r, slack, sublist_size)
    return _condition_lhs(max_degree, r, (sublist_size + slack) / slack)


def sublist_condition_holds(max_degree, min_degree, r, slack, sublist_size) -> bool:
    """Degree condition under which resampling is expected to clear.

    Reads: ((r+1) ln Delta + (r-1) ln r + 1) * ((l+s)/s)^(r-1) <= delta,
    with l the sublist size and s the slack.  When it holds, lists of size
    l + s + r - 2 suffice for an r-dynamic list coloring.
    """
    _check_sublist_params(min_degree, r, slack, sublist_size)
    return sublist_condition_lhs(max_degree, r, slack, sublist_size) <= min_degree


@_finite
def fixed_set_hits_all_bound(sublist_size, slack, r, min_degree) -> float:
    """Bound on the chance one fixed (r-1)-color-set hits every neighbor sublist.

    Report-only diagnostic: (1 - (s/(l+s))^(r-1))^delta.
    """
    _check_sublist_params(min_degree, r, slack, sublist_size)
    total = sublist_size + slack
    miss = (slack / total) ** (r - 1)
    return (1 - miss) ** min_degree


@_finite
def bad_event_bound(sublist_size, slack, r, min_degree) -> float:
    """Union bound on the bad-event probability at one vertex.

    Report-only diagnostic: (l+s+r-2)^(r-1) * exp(-delta * (s/(l+s))^(r-1)).
    """
    _check_sublist_params(min_degree, r, slack, sublist_size)
    total = sublist_size + slack
    miss = (slack / total) ** (r - 1)
    return (total + r - 2) ** (r - 1) * math.exp(-min_degree * miss)


def bounds_report(
    max_degree,
    min_degree,
    r,
    list_size=None,
    slack=None,
    n=None,
    p=None,
    neighborhood_sparsity=None,
    degree_ratio_cap=None,
) -> dict:
    """Evaluate every bound formula against the supplied parameters.

    list_size plays the role of the plain choosability ch(G) in the additive
    bounds; slack is the free parameter of the sublist bound.  n and p feed
    the random-graph entry, neighborhood_sparsity is the f with every
    neighborhood spanning at most maxdeg^2/f edges, degree_ratio_cap the c
    with maxdeg/mindeg <= c.  Entries with missing inputs stay in the report,
    flagged inapplicable with the missing names listed; the degrees and r
    are required, and None for one raises ValueError naming it; degrees
    below 1, where ln(max_degree) < 0, raise it too.  Inputs whose
    arithmetic overflows a float raise ValueError naming the entry.
    """
    inputs = {
        "max_degree": max_degree,
        "min_degree": min_degree,
        "r": r,
        "list_size": list_size,
        "slack": slack,
        "n": n,
        "p": p,
        "neighborhood_sparsity": neighborhood_sparsity,
        "degree_ratio_cap": degree_ratio_cap,
    }
    for name in ("max_degree", "min_degree", "r"):
        if inputs[name] is None:
            raise ValueError(f"{name} is required")
    for name, value in inputs.items():
        if value is not None and value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")
    _check_r(r, 2)
    if max_degree < min_degree:
        raise ValueError(f"max degree {max_degree} below min degree {min_degree}")
    if min_degree < 1:
        raise ValueError(f"degrees must be >= 1, got min degree {min_degree}")
    results = []
    cond = {"condition_lhs": None, "condition_rhs": min_degree}

    def entry(entry_id, expr, needs=(), requires_r=None, **fields):
        # appends the entry, inapplicable and unbounded until shown otherwise;
        # True when every needed input is given and r is the one it requires
        e = {"id": entry_id, "bound_expr": expr, "applicable": False, "bound": None, **fields}
        e["missing"] = [k for k in needs if inputs[k] is None]
        if requires_r is not None:
            e["requires_r"] = requires_r
        results.append(e)
        return not e["missing"] and requires_r in (None, r)

    def condition(lhs, bound):
        results[-1].update(condition_lhs=lhs, applicable=lhs <= min_degree, bound=bound)

    # each entry's arithmetic runs after its entry() call, so an overflow is
    # charged to the entry it happened in
    try:
        # additive bound list_size + slack + r - 2 under the degree condition
        if entry("sublist_degree", "list_size + slack + r - 2", ("list_size", "slack"), **cond):
            if slack >= r - 1:
                lhs = _condition_lhs(max_degree, r, (list_size + slack) / slack)
                condition(lhs, list_size + slack + r - 2)
            else:
                results[-1]["note"] = f"slack {slack} below the floor r-1 = {r - 1}"

        # the sublist condition at slack 1: ratio list_size + 1 and bound
        # list_size + 1 + r - 2 (slack 1 is the floor r-1 only at r = 2)
        if entry("list_plus_r_minus_1", "list_size + r - 1", ("list_size",), **cond):
            condition(_condition_lhs(max_degree, r, list_size + 1), list_size + r - 1)

        # r = 2 reading of the same bound with the rounded-up coefficient
        if entry("dynamic_plus_one", "list_size + 1", ("list_size",), 2, **cond):
            condition((3 * math.log(max_degree) + 2) * (list_size + 1), list_size + 1)

        # nearly regular graphs: an explicit slack choice once list_size is huge
        evaluate = entry(
            "almost_regular", "list_size + slack_choice + r - 2", ("list_size",),
            degree_ratio=None, list_size_threshold=None, slack_choice=None,
        )
        e = results[-1]
        ratio = e["degree_ratio"] = max_degree / min_degree
        threshold = e["list_size_threshold"] = (6 ** (2 * r)) * (r ** (3 * r)) * ratio**2
        if evaluate and list_size >= 2:
            choice = math.ceil(
                (3 * ratio * r * list_size ** (r - 2) * math.log(list_size)) ** (1 / (r - 1))
            )
            e.update(
                slack_choice=choice,
                applicable=list_size >= threshold,
                bound=list_size + choice + r - 2,
            )

        # dense-enough random graphs: additive constant, known only symbolically
        if entry(
            "random_gnp", "list_size + C", ("n", "p"), 2, bound_symbolic="ch + C",
            symbols={"C": "absolute constant (9 times the random-graph choosability"
                     " constant, which is not pinned numerically)"},
        ):
            results[-1]["applicable"] = (2 / n) < p <= 0.5

        # triangle-free graphs: additive 86 * maxdeg / mindeg; list_size is
        # missing only once the degree hypothesis holds
        evaluate = entry("triangle_free", "list_size + 86 * max_degree / min_degree", (), 2, **cond)
        e = results[-1]
        e["condition_lhs"] = 6 * math.log(max_degree) + 2
        e["addend"] = 86 * max_degree / min_degree
        e["choosability_cap"] = 13 * max_degree / math.log(max_degree) if max_degree >= 2 else None
        if evaluate and e["condition_lhs"] <= min_degree:
            e["applicable"] = True
            if list_size is not None:
                e["bound"] = list_size + e["addend"]
            else:
                e["missing"] = ["list_size"]

        # few edges inside every neighborhood: coefficient known only symbolically
        if entry(
            "sparse_neighborhoods",
            "list_size + K' * max_degree * ln(max_degree)"
            " / (min_degree * ln(neighborhood_sparsity))",
            ("neighborhood_sparsity", "degree_ratio_cap"), 2,
            bound_symbolic="ch + K' * cofactor", cofactor=None,
            symbols={"K'": "absolute constant (not pinned numerically)"},
        ) and neighborhood_sparsity > 1:
            results[-1]["applicable"] = ratio <= degree_ratio_cap
            results[-1]["cofactor"] = (
                max_degree * math.log(max_degree) / (min_degree * math.log(neighborhood_sparsity))
            )
    except OverflowError as exc:
        raise ValueError(f"entry {results[-1]['id']} overflows a float") from exc
    # a float product past the largest float is inf and raises nothing
    for e in results:
        for key, value in e.items():
            if value == math.inf:
                raise ValueError(f"entry {e['id']} overflows a float in {key}")

    return {"inputs": inputs, "results": results}
