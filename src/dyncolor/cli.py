"""Command line interface.

All structured output is JSON on stdout (keys sorted, so identical inputs
give byte-identical bytes); diagnostics go to stderr.  Exit codes: 0 on
success, 1 when the computation itself reports infeasibility (no coloring,
invalid check), 2 on input or usage errors, 3 on an internal error (a failed
invariant check or exhausted recursion, reported as one line on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bounds as bounds_mod
from . import choosability, coloring, constructions, experiments, greedy, io, sublists


def _emit(obj):
    print(json.dumps(obj, indent=2, sort_keys=True))


def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _load(args):
    """The --hypergraph input in strong mode, else the --graph one."""
    flag = "hypergraph" if args.mode == "strong" else "graph"
    path = getattr(args, flag)
    if path is None:
        raise ValueError(f"{args.mode} mode needs --{flag}")
    parse = io.parse_hypergraph if flag == "hypergraph" else io.parse_graph
    return parse(_read(path))


def _cmd_check(args):
    g = _load(args)
    c = io.parse_coloring(_read(args.coloring), g.n)
    if args.mode == "proper":
        valid = coloring.is_proper(g, c)
    else:
        valid = coloring.is_r_dynamic(g, c, args.r)
    _emit({"command": "check", "mode": args.mode, "r": args.r, "valid": valid})
    return 0 if valid else 1


def _cmd_solve(args):
    g = _load(args)
    lists = io.parse_lists(_read(args.lists), g.n)
    out = {"command": "solve", "mode": args.mode, "r": args.r}
    if args.mode == "exact":
        target = "dynamic" if args.r >= 1 else "proper"
        c = coloring.solve_list_coloring(g, lists, mode=target, r=args.r)
        out["target"] = target
        out["coloring"] = c
    elif args.mode == "greedy":
        out["coloring"] = greedy.greedy_r_dynamic(g, lists, args.r)
    else:  # lll
        sizes = {len(colors) for colors in lists}
        if len(sizes) > 1:
            raise ValueError("lll mode needs uniform base list sizes")
        sub = args.sublist_size
        if sub is None and sizes:
            # the default sublist size leaves the minimum legal slack of r-1
            sub = sizes.pop() - 2 * args.r + 3
        result = sublists.dynamic_coloring_via_sublists(
            g, lists, sub, args.r, seed=args.seed, max_iters=args.max_iters
        )
        out["sublist_size"] = sub
        out["seed"] = args.seed
        out["status"] = result.status
        out["log"] = result.log.to_json_dict()
        out["coloring"] = result.coloring
    _emit(out)
    return 0 if out["coloring"] is not None else 1


def _cmd_chi(args):
    chi = coloring.chi_exact(_load(args), mode=args.mode, r=args.r, max_n=args.max_n)
    _emit({"command": "chi", "mode": args.mode, "r": args.r, "chi": chi})
    return 0


def _cmd_choosable(args):
    ok = choosability.is_k_choosable(
        _load(args), args.k, mode=args.mode, r=args.r, max_n=args.max_n, max_k=args.max_k
    )
    _emit({"command": "choosable", "mode": args.mode, "k": args.k, "r": args.r, "choosable": ok})
    return 0


def _cmd_construct(args):
    h = io.parse_hypergraph(_read(args.hypergraph))
    report = constructions.construction_report(
        h, args.r, args.k, args.seed, max_n=args.max_n
    )
    _emit({"command": "construct", "report": report})
    return 0


def _cmd_bounds(args):
    report = bounds_mod.bounds_report(
        max_degree=args.Delta,
        min_degree=args.delta,
        r=args.r,
        list_size=args.l,
        slack=args.s,
        n=args.n,
        p=args.p,
        neighborhood_sparsity=args.f,
        degree_ratio_cap=args.ratio_cap,
    )
    _emit({"command": "bounds", "report": report})
    return 0


def _cmd_experiment(args):
    report = experiments.experiment_random_graphs(
        n=args.n,
        r=args.r,
        trials=args.trials,
        seed=args.seed,
        mode=args.mode,
        p=args.p,
        d=args.d,
        sublist_size=args.sublist_size,
        slack=args.slack,
        max_iters=args.max_iters,
        max_n=args.max_n,
    )
    _emit({"command": "experiment", "report": report})
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dyncolor",
        description="r-dynamic graph and hypergraph coloring toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="validate a coloring against a graph")
    c.add_argument("--graph", required=True)
    c.add_argument("--coloring", required=True)
    c.add_argument("--mode", choices=["proper", "dynamic"], default="proper")
    c.add_argument("--r", type=int, default=0)
    c.set_defaults(func=_cmd_check)

    s = sub.add_parser("solve", help="find a list coloring")
    s.add_argument("--graph", required=True)
    s.add_argument("--lists", required=True)
    s.add_argument("--mode", choices=["exact", "greedy", "lll"], default="exact")
    s.add_argument("--r", type=int, default=0, help="dynamic parameter; 0 = proper")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--max-iters", type=int, default=None)
    s.add_argument(
        "--sublist-size",
        type=int,
        default=None,
        help="lll sublist size; default leaves slack r-1 (base size - 2r + 3)",
    )
    s.set_defaults(func=_cmd_solve)

    ch = sub.add_parser("chi", help="exact chromatic numbers on small instances")
    ch.add_argument("--graph")
    ch.add_argument("--hypergraph")
    ch.add_argument("--mode", choices=["proper", "dynamic", "strong"], default="proper")
    ch.add_argument("--r", type=int, default=0)
    ch.add_argument("--max-n", type=int, default=12)
    ch.set_defaults(func=_cmd_chi)

    co = sub.add_parser("choosable", help="exact choosability on tiny instances")
    co.add_argument("--graph")
    co.add_argument("--hypergraph")
    co.add_argument("--k", type=int, required=True)
    co.add_argument("--mode", choices=["proper", "dynamic", "strong"], default="proper")
    co.add_argument("--r", type=int, default=0)
    co.add_argument("--max-n", type=int, default=8)
    co.add_argument("--max-k", type=int, default=4)
    co.set_defaults(func=_cmd_choosable)

    cn = sub.add_parser("construct", help="augment a hypergraph and verify its incidence graph")
    cn.add_argument("--hypergraph", required=True)
    cn.add_argument("--r", type=int, required=True)
    cn.add_argument("--k", type=int, required=True)
    cn.add_argument("--seed", type=int, default=0)
    cn.add_argument("--max-n", type=int, default=12)
    cn.set_defaults(func=_cmd_construct)

    b = sub.add_parser("bounds", help="evaluate the degree-condition bounds")
    b.add_argument("--Delta", type=float, required=True, help="maximum degree")
    b.add_argument("--delta", type=float, required=True, help="minimum degree")
    b.add_argument("--r", type=int, required=True)
    b.add_argument("--l", type=float, default=None, help="list size / choosability")
    b.add_argument("--s", type=float, default=None, help="slack")
    b.add_argument("--n", type=float, default=None)
    b.add_argument("--p", type=float, default=None)
    b.add_argument("--f", type=float, default=None, help="neighborhood sparsity")
    b.add_argument("--ratio-cap", type=float, default=None)
    b.set_defaults(func=_cmd_bounds)

    e = sub.add_parser("experiment", help="seeded random-graph experiments")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--p", type=float, default=None)
    e.add_argument("--d", type=int, default=None)
    e.add_argument("--r", type=int, required=True)
    e.add_argument("--trials", type=int, required=True)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--mode", choices=["greedy", "lll", "exact"], required=True)
    e.add_argument("--sublist-size", type=int, default=None)
    e.add_argument("--slack", type=int, default=None)
    e.add_argument("--max-iters", type=int, default=None)
    e.add_argument("--max-n", type=int, default=12)
    e.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, RecursionError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
