from __future__ import annotations

import hashlib
import itertools
import json
import math
import re

import pytest

from dyncolor import (
    bad_event_bound,
    bounds_report,
    fixed_set_hits_all_bound,
    sublist_condition_holds,
    sublist_condition_lhs,
)


def entry(report, entry_id):
    matches = [e for e in report["results"] if e["id"] == entry_id]
    assert len(matches) == 1
    return matches[0]


def test_report_lists_every_bound_once():
    rep = bounds_report(10, 10, 2)
    assert [e["id"] for e in rep["results"]] == [
        "sublist_degree",
        "list_plus_r_minus_1",
        "dynamic_plus_one",
        "almost_regular",
        "random_gnp",
        "triangle_free",
        "sparse_neighborhoods",
    ]
    assert rep["inputs"]["max_degree"] == 10
    assert rep["inputs"]["list_size"] is None


def test_validation():
    with pytest.raises(ValueError):
        bounds_report(10, 10, 1)
    with pytest.raises(ValueError):
        bounds_report(5, 10, 2)
    with pytest.raises(ValueError):
        bounds_report(10, 0, 2)
    with pytest.raises(ValueError):
        bounds_report(10, 10, 2, p=-0.1)
    # a missing degree or r is named, not compared with None
    for args, name in (((5, None, 2), "min_degree"), ((None, 3, 2), "max_degree"), ((5, 3, None), "r")):
        with pytest.raises(ValueError, match=f"^{name} is required$"):
            bounds_report(*args)


def test_degrees_below_one_raise():
    # below 1, ln(max_degree) is negative, so every condition's left side
    # drops below min_degree and the conditions would claim to hold
    for args in ((0.5, 0.5, 2), (5, 0.5, 2), (0.99, 0.99, 3)):
        with pytest.raises(ValueError, match=f"^degrees must be >= 1, got min degree {args[1]}$"):
            bounds_report(*args, list_size=1, slack=1)
    with pytest.raises(ValueError, match="^degree must be >= 1, got 0.5$"):
        sublist_condition_holds(0.5, 0.5, 2, 1, 1)
    # a max degree from 1 up does not let a min degree below 1 through
    with pytest.raises(ValueError, match="^degree must be >= 1, got 0.5$"):
        sublist_condition_holds(5, 0.5, 2, 1, 1)
    with pytest.raises(ValueError, match="^degree must be >= 1, got 0.5$"):
        sublist_condition_lhs(0.5, 2, 1, 1)
    for formula in (fixed_set_hits_all_bound, bad_event_bound):
        with pytest.raises(ValueError, match="^degree must be >= 1, got 0.5$"):
            formula(1, 1, 2, 0.5)
    # an input <= 0 keeps the positivity text
    with pytest.raises(ValueError, match="^min_degree must be positive, got 0$"):
        bounds_report(0.5, 0, 2)
    with pytest.raises(ValueError, match="^all parameters must be positive$"):
        sublist_condition_lhs(0.5, 2, 0, 1)
    # fractional degrees from 1 up stay valid
    e = entry(bounds_report(1.5, 1, 2, list_size=1, slack=1), "sublist_degree")
    assert e["condition_lhs"] == pytest.approx((3 * math.log(1.5) + math.log(2) + 1) * 2)
    assert not e["applicable"]
    assert sublist_condition_lhs(1, 2, 1, 1) == pytest.approx((math.log(2) + 1) * 2)


def test_sublist_degree_entry():
    rep = bounds_report(24, 24, 2, list_size=1, slack=1)
    e = entry(rep, "sublist_degree")
    want_lhs = (3 * math.log(24) + math.log(2) + 1) * 2
    assert e["condition_lhs"] == pytest.approx(want_lhs)
    assert e["applicable"] is (want_lhs <= 24)
    assert e["applicable"]
    assert e["bound"] == 1 + 1 + 2 - 2
    low = entry(bounds_report(10, 10, 2, list_size=1, slack=1), "sublist_degree")
    assert not low["applicable"]


def test_sublist_degree_slack_floor_note():
    rep = bounds_report(24, 24, 3, list_size=2, slack=1)
    e = entry(rep, "sublist_degree")
    assert not e["applicable"]
    assert "note" in e and "floor" in e["note"]


def test_sublist_degree_missing_inputs():
    e = entry(bounds_report(24, 24, 2), "sublist_degree")
    assert e["missing"] == ["list_size", "slack"]
    assert not e["applicable"] and e["bound"] is None


def test_list_plus_r_minus_1_entry():
    rep = bounds_report(1200, 1200, 3, list_size=5)
    e = entry(rep, "list_plus_r_minus_1")
    want_lhs = (4 * math.log(1200) + 2 * math.log(3) + 1) * 36
    assert e["condition_lhs"] == pytest.approx(want_lhs)
    assert e["applicable"] is (want_lhs <= 1200)
    assert e["applicable"]
    assert e["bound"] == 5 + 3 - 1
    sparse = entry(bounds_report(100, 100, 3, list_size=5), "list_plus_r_minus_1")
    assert not sparse["applicable"]


def test_dynamic_plus_one_entry():
    rep = bounds_report(300, 300, 2, list_size=10)
    e = entry(rep, "dynamic_plus_one")
    want_lhs = (3 * math.log(300) + 2) * 11
    assert e["condition_lhs"] == pytest.approx(want_lhs)
    assert e["applicable"] is (want_lhs <= 300)
    assert e["applicable"]
    assert e["bound"] == 11
    # the entry is r=2 only
    e3 = entry(bounds_report(300, 300, 3, list_size=10), "dynamic_plus_one")
    assert not e3["applicable"] and e3["condition_lhs"] is None
    assert e3["requires_r"] == 2


def test_almost_regular_entry():
    rep = bounds_report(10, 10, 2, list_size=90000)
    e = entry(rep, "almost_regular")
    assert e["degree_ratio"] == 1.0
    assert e["list_size_threshold"] == 6**4 * 2**6  # 82944 at r=2, ratio 1
    assert e["list_size_threshold"] == 82944
    assert e["applicable"]
    want_choice = math.ceil(3 * 1.0 * 2 * math.log(90000))
    assert e["slack_choice"] == want_choice
    assert e["bound"] == 90000 + want_choice
    small = entry(bounds_report(10, 10, 2, list_size=100), "almost_regular")
    assert not small["applicable"]
    assert small["slack_choice"] == math.ceil(6 * math.log(100))


def test_random_gnp_entry():
    e = entry(bounds_report(10, 5, 2, n=100, p=0.3), "random_gnp")
    assert e["applicable"]
    assert e["bound"] is None  # constant only known symbolically
    assert "C" in e["symbols"]
    assert not entry(bounds_report(10, 5, 2, n=100, p=0.6), "random_gnp")["applicable"]
    assert not entry(bounds_report(10, 5, 2, n=100, p=0.01), "random_gnp")["applicable"]
    assert entry(bounds_report(10, 5, 2), "random_gnp")["missing"] == ["n", "p"]


def test_triangle_free_entry():
    rep = bounds_report(43, 43, 2, list_size=7)
    e = entry(rep, "triangle_free")
    assert e["condition_lhs"] == pytest.approx(6 * math.log(43) + 2)
    assert e["applicable"]
    assert e["addend"] == pytest.approx(86.0)
    assert e["bound"] == pytest.approx(7 + 86.0)
    assert e["choosability_cap"] == pytest.approx(13 * 43 / math.log(43))
    # min degree too small for the hypothesis
    low = entry(bounds_report(43, 10, 2, list_size=7), "triangle_free")
    assert not low["applicable"]


def test_sparse_neighborhoods_entry():
    rep = bounds_report(100, 50, 2, neighborhood_sparsity=16, degree_ratio_cap=3)
    e = entry(rep, "sparse_neighborhoods")
    assert e["applicable"]  # ratio 2 <= cap 3
    want = 100 * math.log(100) / (50 * math.log(16))
    assert e["cofactor"] == pytest.approx(want)
    assert e["bound"] is None and "K'" in e["symbols"]
    tight = entry(
        bounds_report(100, 20, 2, neighborhood_sparsity=16, degree_ratio_cap=3),
        "sparse_neighborhoods",
    )
    assert not tight["applicable"]  # ratio 5 > cap 3
    missing = entry(bounds_report(100, 50, 2), "sparse_neighborhoods")
    assert missing["missing"] == ["neighborhood_sparsity", "degree_ratio_cap"]


def test_overflow_names_the_entry():
    # 6^(2r) * r^(3r) is an int too large for a float from r = 47 on
    with pytest.raises(ValueError, match="almost_regular overflows a float"):
        bounds_report(10, 10, 47)
    assert entry(bounds_report(10, 10, 46), "almost_regular")["list_size_threshold"] > 1e300
    with pytest.raises(ValueError, match="list_plus_r_minus_1 overflows a float"):
        bounds_report(10, 10, 20, list_size=1e20)
    with pytest.raises(ValueError, match="list_plus_r_minus_1 overflows a float"):
        bounds_report(10, 10, 30, list_size=1e12, slack=29)
    # a float product overflows to inf without raising
    with pytest.raises(ValueError, match="list_plus_r_minus_1 overflows a float in condition_lhs"):
        bounds_report(10, 10, 2, list_size=1e308)


@pytest.mark.parametrize("formula", [fixed_set_hits_all_bound, bad_event_bound])
@pytest.mark.parametrize(
    "args, message",
    [
        ((0, 0, 2, 5), "all parameters must be positive"),
        ((3, -1, 2, 5), "all parameters must be positive"),
        ((3, 2, 2, 0), "all parameters must be positive"),
        ((3, 2, 1, 5), "r must be >= 2, got 1"),
        ((3, 1, 3, 5), "slack 1 below the floor r-1 = 2"),
    ],
    ids=["zero_slack", "negative_slack", "zero_min_degree", "r_1", "slack_below_floor"],
)
def test_probability_diagnostics_reject_bad_parameters(formula, args, message):
    # (sublist_size, slack, r, min_degree), checked as sublist_condition_lhs checks
    with pytest.raises(ValueError, match=re.escape(message)):
        formula(*args)


@pytest.mark.parametrize(
    "formula, args",
    [
        (bad_event_bound, (10**6, 60, 60, 10)),  # an int power times a float
        (bad_event_bound, (1e308, 1e308, 2, 1)),  # an inf result
        (sublist_condition_lhs, (10**300, 3, 2, 10**300)),  # a float power
        (sublist_condition_lhs, (1e308, 2, 1, 1e308)),  # an inf result
        (fixed_set_hits_all_bound, (1, 10**400, 10**400, 1)),  # an exponent past a float
    ],
    ids=["bad_event_int", "bad_event_inf", "lhs_power", "lhs_inf", "fixed_set_exponent"],
)
def test_formula_overflow_is_a_value_error_naming_the_function(formula, args):
    with pytest.raises(ValueError) as info:
        formula(*args)
    assert str(info.value) == f"{formula.__name__} overflows a float"


def test_condition_holds_overflow_names_the_left_side():
    for args in [(10**300, 10**300, 3, 2, 10**300), (1e308, 1e308, 2, 1, 1e308)]:
        with pytest.raises(ValueError) as info:
            sublist_condition_holds(*args)
        assert str(info.value) == "sublist_condition_lhs overflows a float"


def test_formulas_keep_their_names_and_docstrings():
    for formula in [sublist_condition_lhs, fixed_set_hits_all_bound, bad_event_bound]:
        assert formula.__module__ == "dyncolor.bounds"
        assert formula.__doc__.splitlines()[0].endswith(".")
    assert bad_event_bound.__name__ == "bad_event_bound"


def test_entries_are_json_ready():
    import json

    rep = bounds_report(
        24, 24, 2, list_size=3, slack=1, n=50, p=0.3,
        neighborhood_sparsity=9, degree_ratio_cap=2,
    )
    text = json.dumps(rep, sort_keys=True)
    assert json.loads(text) == rep


def test_bounds_frozen():
    # one digest over reports at r = 2..6 with every input given or left out,
    # slacks below and at the floor r-1, and the four formulas on valid
    # inputs: a moved value, key or flag anywhere shows here
    degrees = ((1, 1), (10, 10), (43, 43), (300, 100), (1200, 1200), (24.5, 20.0))
    extras = ((None, None, None, None), (50, None, 16, None), (100, 0.3, 16, 3), (100, 0.6, 1, 3))
    rows = []
    for r, (max_degree, min_degree) in itertools.product(range(2, 7), degrees):
        for list_size, slack in itertools.product((None, 1, 5, 90000), (None, 1, r - 1, r + 2)):
            for n, p, f, cap in extras:
                rows.append(bounds_report(
                    max_degree, min_degree, r, list_size=list_size, slack=slack, n=n, p=p,
                    neighborhood_sparsity=f, degree_ratio_cap=cap,
                ))
    for r in range(2, 7):
        for slack, size, degree in itertools.product(
            (r - 1, r, 2.5 * r, 3 * r), (1, 2, 7, 40), (1, 3, 24, 1000)
        ):
            rows.append([
                sublist_condition_lhs(degree, r, slack, size),
                sublist_condition_holds(degree, degree // 2 + 1, r, slack, size),
                fixed_set_hits_all_bound(size, slack, r, degree),
                bad_event_bound(size, slack, r, degree),
            ])
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == "91df668552e6c6f415a605d0221231b1e85a451cb4e7025098da4f636a754137"
