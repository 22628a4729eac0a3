"""Numeric evaluation of the degree-condition bounds on dynamic choosability.

Every entry of a report states its hypothesis numerically, an applicability
flag, and the concluded bound, all recomputable from the echoed inputs.
Bounds that rest on absolute constants nobody has pinned down (the random
graph additive constant, the sparse-neighborhood coefficient) keep those
constants symbolic instead of inventing numbers; such entries report the
computable cofactor only.
"""

from __future__ import annotations

import math

from .coloring import _check_r
from .sublists import sublist_condition_lhs


def _require_positive(**kwargs):
    for name, value in kwargs.items():
        if value is not None and value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")


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
    flagged inapplicable with the missing names listed.
    """
    _require_positive(
        max_degree=max_degree,
        min_degree=min_degree,
        r=r,
        list_size=list_size,
        slack=slack,
        n=n,
        p=p,
        neighborhood_sparsity=neighborhood_sparsity,
        degree_ratio_cap=degree_ratio_cap,
    )
    _check_r(r, 2)
    if max_degree < min_degree:
        raise ValueError(
            f"max degree {max_degree} below min degree {min_degree}"
        )

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
    results = []

    # additive bound list_size + slack + r - 2 under the degree condition
    entry = {
        "id": "sublist_degree",
        "bound_expr": "list_size + slack + r - 2",
        "applicable": False,
        "bound": None,
        "condition_lhs": None,
        "condition_rhs": min_degree,
        "missing": [k for k in ("list_size", "slack") if inputs[k] is None],
    }
    if not entry["missing"]:
        if slack >= r - 1:
            lhs = sublist_condition_lhs(max_degree, r, slack, list_size)
            entry["condition_lhs"] = lhs
            entry["applicable"] = lhs <= min_degree
            entry["bound"] = list_size + slack + r - 2
        else:
            entry["note"] = f"slack {slack} below the floor r-1 = {r - 1}"
    results.append(entry)

    # slack pinned at r-1: bound list_size + r - 1
    entry = {
        "id": "list_plus_r_minus_1",
        "bound_expr": "list_size + r - 1",
        "applicable": False,
        "bound": None,
        "condition_lhs": None,
        "condition_rhs": min_degree,
        "missing": ["list_size"] if list_size is None else [],
    }
    if list_size is not None:
        lhs = ((r + 1) * math.log(max_degree) + (r - 1) * math.log(r) + 1) * (
            (list_size + 1) ** (r - 1)
        )
        entry["condition_lhs"] = lhs
        entry["applicable"] = lhs <= min_degree
        entry["bound"] = list_size + r - 1
    results.append(entry)

    # r = 2 reading of the same bound with the rounded-up coefficient
    entry = {
        "id": "dynamic_plus_one",
        "bound_expr": "list_size + 1",
        "applicable": False,
        "bound": None,
        "condition_lhs": None,
        "condition_rhs": min_degree,
        "missing": ["list_size"] if list_size is None else [],
        "requires_r": 2,
    }
    if r == 2 and list_size is not None:
        lhs = (3 * math.log(max_degree) + 2) * (list_size + 1)
        entry["condition_lhs"] = lhs
        entry["applicable"] = lhs <= min_degree
        entry["bound"] = list_size + 1
    results.append(entry)

    # nearly regular graphs: an explicit slack choice once list_size is huge
    ratio = max_degree / min_degree
    entry = {
        "id": "almost_regular",
        "bound_expr": "list_size + slack_choice + r - 2",
        "applicable": False,
        "bound": None,
        "degree_ratio": ratio,
        "list_size_threshold": (6 ** (2 * r)) * (r ** (3 * r)) * ratio**2,
        "slack_choice": None,
        "missing": ["list_size"] if list_size is None else [],
    }
    if list_size is not None and list_size >= 2:
        choice = math.ceil(
            (3 * ratio * r * list_size ** (r - 2) * math.log(list_size))
            ** (1 / (r - 1))
        )
        entry["slack_choice"] = choice
        entry["applicable"] = list_size >= entry["list_size_threshold"]
        entry["bound"] = list_size + choice + r - 2
    results.append(entry)

    # dense-enough random graphs: additive constant, known only symbolically
    entry = {
        "id": "random_gnp",
        "bound_expr": "list_size + C",
        "applicable": False,
        "bound": None,
        "bound_symbolic": "ch + C",
        "symbols": {
            "C": "absolute constant (9 times the random-graph choosability "
            "constant, which is not pinned numerically)"
        },
        "missing": [k for k in ("n", "p") if inputs[k] is None],
        "requires_r": 2,
    }
    if r == 2 and not entry["missing"]:
        entry["applicable"] = (2 / n) < p <= 0.5
    results.append(entry)

    # triangle-free graphs: additive 86 * maxdeg / mindeg
    entry = {
        "id": "triangle_free",
        "bound_expr": "list_size + 86 * max_degree / min_degree",
        "applicable": False,
        "bound": None,
        "condition_lhs": 6 * math.log(max_degree) + 2,
        "condition_rhs": min_degree,
        "addend": 86 * max_degree / min_degree,
        "choosability_cap": (
            13 * max_degree / math.log(max_degree) if max_degree >= 2 else None
        ),
        "missing": [],
        "requires_r": 2,
    }
    if r == 2 and entry["condition_lhs"] <= min_degree:
        entry["applicable"] = True
        if list_size is not None:
            entry["bound"] = list_size + entry["addend"]
        else:
            entry["missing"] = ["list_size"]
    results.append(entry)

    # few edges inside every neighborhood: coefficient known only symbolically
    entry = {
        "id": "sparse_neighborhoods",
        "bound_expr": "list_size + K' * max_degree * ln(max_degree)"
        " / (min_degree * ln(neighborhood_sparsity))",
        "applicable": False,
        "bound": None,
        "bound_symbolic": "ch + K' * cofactor",
        "cofactor": None,
        "symbols": {"K'": "absolute constant (not pinned numerically)"},
        "missing": [
            k
            for k in ("neighborhood_sparsity", "degree_ratio_cap")
            if inputs[k] is None
        ],
        "requires_r": 2,
    }
    if r == 2 and not entry["missing"] and neighborhood_sparsity > 1:
        entry["applicable"] = ratio <= degree_ratio_cap
        entry["cofactor"] = (
            max_degree
            * math.log(max_degree)
            / (min_degree * math.log(neighborhood_sparsity))
        )
    results.append(entry)

    return {"inputs": inputs, "results": results}
