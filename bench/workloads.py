"""The benchmark's workloads.

Each workload builds its inputs from the workload seed (untimed).  A run
makes PASSES passes over them; each pass parses or generates them through the
package's public API (timed as set-up) and then runs a fixed list of
operations: whole rounds, each round the same kinds of call, the number of
rounds fixed by the requested run length and never by how fast the host is.
`run` is one timed operation; `check` validates its output with the
benchmark's own code; `traced` repeats it as separate public calls inside
spans, and `inspect` compares that split with the untraced output and
gathers the per-layer counts.
"""

from __future__ import annotations

import dataclasses
import random

import checks
from instances import (
    complete_bipartite_edges,
    complete_edges,
    cycle_edges,
    graph_text,
    hypergraph_text,
    lists_text,
    random_lists,
    read_graph_text,
    read_lists_text,
    regular_edges,
    relabel,
    uniform_hypergraph_edges,
    workload_rng,
)


def call(tracer, name, fn, *args, **kwargs):
    """fn(*args, **kwargs), inside a span when tracing."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


# Every operation runs once per pass.  An operation counts at the median
# time of its kind, over all passes (see Workload.kind).  The host switches
# between a usual speed and bursts nearly twice as fast, so an operation's
# fastest reading lands in either; a median over many readings of the same
# work stays with the usual speed and repeats from run to run.
PASSES = 3


class Workload:
    name = ""
    round_seconds = 1.0  # nominal cost of one round, sets the round count
    setup_repeats = 1  # set-ups per pass; short ones are repeated for a steady median

    def __init__(self, seed, seconds):
        self.rounds = max(1, round(seconds / (PASSES * self.round_seconds)))
        self.rng = workload_rng(self.name, seed)
        self.counters = {}
        self.build_inputs()

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def ops(self):
        return range(len(self.inputs))

    def kind(self, i):
        """Operations of one kind do the same work; their times are pooled.

        By default every operation is its own kind, timed over the passes.
        """
        return i

    def failed(self, out):
        """True when the program itself reports the operation as failed."""
        return False

    def traced(self, i, tracer):
        return self.run(i, tracer)

    def inspect(self, i, out, split, tracer):
        if split != out:
            raise checks.CheckFailed(f"op {i}: the traced run returned a different result")


class Resampling(Workload):
    """dynamic_coloring_via_sublists on random d-regular graphs."""

    def __init__(self, seed, seconds):
        self.base_size = self.sublist_size + self.slack + self.r - 2
        super().__init__(seed, seconds)

    def build_inputs(self):
        self.inputs = []
        for _ in range(self.rounds):
            edges = regular_edges(self.n, self.d, self.rng)
            lists = random_lists(self.n, self.base_size, self.universe, self.rng)
            self.inputs.append(
                {
                    "seed": self.rng.randrange(2**32),
                    "graph_text": graph_text(self.n, edges),
                    "lists_text": lists_text(lists),
                }
            )

    def instance(self, i):
        """Edges and lists of instance i, read back from its texts.

        Only the texts are kept, so that the benchmark's own copy of the
        instances adds little to the peak memory of the run.
        """
        inst = self.inputs[i]
        return read_graph_text(inst["graph_text"]), read_lists_text(inst["lists_text"], self.n)

    def setup(self, dc, tracer):
        self.dc = dc
        self.parsed = None  # the previous pass's objects go before the new ones are built
        self.parsed = [
            (
                call(tracer, "io.parse_graph", dc.parse_graph, inst["graph_text"]),
                call(tracer, "io.parse_lists", dc.parse_lists, inst["lists_text"], self.n),
            )
            for inst in self.inputs
        ]

    def check_setup(self):
        for i, (g, lists) in enumerate(self.parsed):
            edges, base = self.instance(i)
            if g.n != self.n or sorted(g.edges) != edges:
                raise checks.CheckFailed("parsed graph differs from the instance")
            if [list(t) for t in lists] != base:
                raise checks.CheckFailed("parsed lists differ from the instance")

    def run(self, i):
        g, lists = self.parsed[i]
        return self.dc.dynamic_coloring_via_sublists(
            g, lists, self.sublist_size, self.r, seed=self.inputs[i]["seed"]
        )

    def failed(self, out):
        return out.status != "ok"

    def check(self, i, out):
        edges, lists = self.instance(i)
        checks.check_coloring(self.n, edges, lists, out.coloring, self.r)
        checks.check_resample_log(out.log, self.n)

    def traced(self, i, tracer):
        """The pipeline as its four public calls."""
        dc = self.dc
        g, lists = self.parsed[i]
        state = tracer.call(
            "sublists.sample_sublists",
            dc.sample_sublists,
            lists,
            self.sublist_size,
            self.inputs[i]["seed"],
            r=self.r,
            slack=self.slack,
        )
        sampled = list(state.sublists)
        state, log = tracer.call("sublists.resample_until_clear", dc.resample_until_clear, g, state)
        coloring = tracer.call(
            "coloring.solve_list_coloring", dc.solve_list_coloring, g, state.sublists, mode="proper"
        )
        valid = tracer.call("coloring.is_r_dynamic", dc.is_r_dynamic, g, coloring, self.r)
        return {"state": state, "sampled": sampled, "log": log, "coloring": coloring, "valid": valid}

    def inspect(self, i, out, split, tracer):
        edges, lists = self.instance(i)
        if split["coloring"] != out.coloring or split["log"] != out.log or not split["valid"]:
            raise checks.CheckFailed(f"op {i}: the split pipeline differs from the pipeline")
        cleared = split["state"].sublists
        for sub, base in zip(split["sampled"] + cleared, lists * 2):
            if len(set(sub)) != self.sublist_size or not set(sub) <= set(base):
                raise checks.CheckFailed(f"op {i}: a sublist is not a {self.sublist_size}-subset of its list")
        checks.check_cleared(self.n, edges, cleared, self.r)
        checks.check_coloring(self.n, edges, cleared, out.coloring, self.r)
        nbrs = checks.adjacency(self.n, edges)
        eligible = [v for v in range(self.n) if len(nbrs[v]) >= self.r]
        self._count_checks(out.log, nbrs, eligible)
        for sublists in (split["sampled"], cleared):
            self._replay(i, split["state"], sublists, eligible, tracer)

    def _count_checks(self, log, nbrs, eligible):
        # A resample at centre c redraws the sublists of N(c); only events
        # reading one of them, i.e. vertices within distance 2 of c, can
        # change their answer.
        elig = set(eligible)
        needed = len(eligible)
        for sweep in log.violations_per_sweep:
            ball = {sweep[0]}
            for w in nbrs[sweep[0]]:
                ball.add(w)
                ball |= nbrs[w]
            needed += len(ball & elig)
        self.count("checks_needed", needed)
        self.count("checks_made", (log.iterations + 1) * len(eligible))
        self.count("sweeps", log.iterations)
        self.count("sweeps_plus_one", log.iterations + 1)

    def _replay(self, i, state, sublists, eligible, tracer):
        """Time bad_event_holds on a fixed state; count family members."""
        dc = self.dc
        g = self.parsed[i][0]
        fixed = dataclasses.replace(state, sublists=list(sublists), rng=random.Random(0))
        for v in eligible:
            bad = tracer.call("transversal.bad_event_holds", dc.bad_event_holds, g, fixed, v)
            hv = dc.neighborhood_color_hypergraph(g, fixed.sublists, v)
            family = dc.candidate_family(hv, min(self.r - 1, hv.n))
            checked = hit = 0
            for member in family:
                checked += 1
                if all(member & e for e in hv.edges):
                    hit = 1
                    break
            if bool(hit) != bad:
                raise checks.CheckFailed(f"op {i}: bad_event_holds disagrees with its candidate family at {v}")
            self.count("decisions", 1)
            self.count("family_members", len(family))
            self.count("members_checked", checked)
            self.count("members_hit", hit)


# A resampling operation's cost follows its sweep count, which varies from
# instance to instance; a run holds enough instances for their total to
# repeat across seeds.  Sparse: the cost grows as n^2 while the sweep count's
# relative spread shrinks only as 1/sqrt(n), so n=150 (about 60 sweeps)
# gives a steadier run than n=300.  Dense: the sweep count is close to
# geometric, so colors are drawn from 1..96, which leaves about four
# operations in five with no sweep and puts the median operation well clear
# of the seam between none and one.
class LllSparse(Resampling):
    name = "lll_sparse"
    n, d, r, sublist_size, slack, universe = 150, 3, 2, 4, 4, 18
    round_seconds = 0.2
    setup_repeats = 5


class LllDense(Resampling):
    name = "lll_dense"
    n, d, r, sublist_size, slack, universe = 40, 8, 3, 9, 14, 96
    round_seconds = 0.018


# One round of the exact workload: (call, family, params, r or k).
EXACT_ROUND = (
    ("chi", "complete", {"n": 7}, 2),
    ("chi", "complete", {"n": 7}, 3),
    ("chi", "complete_bipartite", {"a": 8, "b": 8}, 2),
    ("chi", "complete_bipartite", {"a": 4, "b": 4}, 3),
    ("chi", "complete_bipartite", {"a": 3, "b": 5}, 3),
    ("chi", "cycle", {"n": 19}, 2),
    ("chi", "cycle", {"n": 20}, 3),
    ("chi", "cycle", {"n": 24}, 2),
    ("choosable", "cycle", {"n": 6}, 2),
    ("choosable", "complete_bipartite", {"a": 2, "b": 3}, 2),
    ("choosable", "complete_bipartite", {"a": 2, "b": 4}, 2),
    ("choosable", "complete_bipartite", {"a": 3, "b": 3}, 2),
    ("choosable", "complete", {"n": 4}, 3),
    ("choosable", "complete", {"n": 4}, 4),
    # incidence graphs of 20 and 22 vertices.  The r=3 base hypergraph is
    # fixed: about one random 7-vertex, 4-edge draw in 80 makes the search
    # take seconds instead of milliseconds.
    ("construct", "random", {"n": 9, "m": 5, "k": 3}, 2),
    ("construct", "fixed", {"n": 7, "edges": [(0, 1), (1, 2), (2, 3), (4, 5)], "k": 3, "aug_seed": 4}, 3),
)


def family_edges(family, params):
    if family == "complete":
        return params["n"], complete_edges(params["n"])
    if family == "complete_bipartite":
        return params["a"] + params["b"], complete_bipartite_edges(params["a"], params["b"])
    return params["n"], cycle_edges(params["n"])


class Exact(Workload):
    """Exhaustive search: chi_exact, is_k_choosable, construction_report.

    The graphs are fixed families whose answers have closed forms, each
    round's copy relabelled by a random permutation, which moves the
    backtrackers' search order.  The permutations and the random hypergraph
    come from one fixed stream, not from --seed: a relabelling moves the cost
    of one call by up to a hundredfold (chi_2 of C_24 took 0-89 ms), and with
    the few rounds a run holds, drawing them from the seed spread op_p50_ms
    by 16% of its median across ten seeds.  Every seed solves the same
    instances.
    """

    name = "exact"
    round_seconds = 1.45
    setup_repeats = 9

    def build_inputs(self):
        rng = workload_rng(self.name, "fixed")
        self.inputs = []
        for _ in range(self.rounds):
            for kind, family, params, rk in EXACT_ROUND:
                inst = {"kind": kind, "family": family, "params": params, "rk": rk}
                if family == "fixed":
                    inst["n"], inst["edges"], inst["aug_seed"] = params["n"], params["edges"], params["aug_seed"]
                    inst["text"] = hypergraph_text(inst["n"], inst["edges"])
                elif kind == "construct":
                    size = params["k"] - rk + 2
                    inst["n"] = params["n"]
                    inst["edges"] = uniform_hypergraph_edges(params["n"], size, params["m"], rng)
                    inst["text"] = hypergraph_text(params["n"], inst["edges"])
                    inst["aug_seed"] = rng.randrange(2**16)
                else:
                    n, edges = family_edges(family, params)
                    inst["n"] = n
                    inst["edges"] = relabel(n, edges, rng)
                    inst["text"] = graph_text(n, inst["edges"])
                self.inputs.append(inst)

    def setup(self, dc, tracer):
        self.dc = dc
        self.parsed = None
        self.parsed = [
            call(tracer, "io.parse_hypergraph", dc.parse_hypergraph, inst["text"])
            if inst["kind"] == "construct"
            else call(tracer, "io.parse_graph", dc.parse_graph, inst["text"])
            for inst in self.inputs
        ]

    def check_setup(self):
        for inst, parsed in zip(self.inputs, self.parsed):
            if inst["kind"] == "construct":
                # hypergraph edge order is meaningful, so it must survive parsing
                edges = [tuple(sorted(e)) for e in parsed.edges]
                what = "hypergraph"
            else:
                edges = sorted(parsed.edges)
                what = "graph"
            if parsed.n != inst["n"] or edges != inst["edges"]:
                raise checks.CheckFailed(f"parsed {what} differs from the instance")

    def run(self, i, tracer=None):
        dc, inst, x = self.dc, self.inputs[i], self.parsed[i]
        if inst["kind"] == "chi":
            return call(tracer, "coloring.chi_exact", dc.chi_exact, x, "dynamic", inst["rk"], max_n=x.n)
        if inst["kind"] == "choosable":
            return call(tracer, "coloring.is_k_choosable", dc.is_k_choosable, x, inst["rk"])
        p = inst["params"]
        return call(
            tracer,
            "constructions.construction_report",
            dc.construction_report,
            x,
            inst["rk"],
            p["k"],
            seed=inst["aug_seed"],
            max_n=24,
        )

    def check(self, i, out):
        inst = self.inputs[i]
        if inst["kind"] == "chi":
            checks.check_chi(inst["family"], inst["params"], inst["rk"], out)
        elif inst["kind"] == "choosable":
            checks.check_choosable(inst["family"], inst["params"], inst["rk"], out)
        else:
            aug = self.dc.augment(self.parsed[i], inst["rk"], inst["params"]["k"], inst["aug_seed"])
            checks.check_construction(
                out, [sorted(e) for e in aug.hyper.edges], aug.hyper.n, inst["rk"], inst["params"]["k"]
            )


class GreedyLarge(Workload):
    """The `experiment --mode greedy` path on graphs of 2000 vertices.

    The graphs come from the package's own generators during set-up; their
    seeds are fixed (not drawn from --seed) because the pairing model's
    number of rejected pairings is geometric, which would make set-up time
    swing by a factor of ten between seeds.  --seed drives the list
    assignments.
    """

    name = "greedy_large"
    round_seconds = 0.6
    n = 2000
    GRAPHS = (
        ("gnp", 0, {"p": 0.005}),
        ("gnp", 1, {"p": 0.005}),
        ("gnp", 2, {"p": 0.005}),
        ("random_regular", 0, {"d": 4}),
    )

    def kind(self, i):
        # the same graph, with other lists of the same sizes
        return self.inputs[i][0]

    def build_inputs(self):
        self.inputs = [
            (gi, self.rng.randrange(2**32)) for _ in range(self.rounds) for gi in range(len(self.GRAPHS))
        ]

    def setup(self, dc, tracer):
        self.dc = dc
        self.graphs = None
        self.graphs = [
            call(tracer, f"graphs.generate.{kind}", dc.generate, kind, seed=seed, n=self.n, **params)
            for kind, seed, params in self.GRAPHS
        ]
        self.max_degree = [dc.degree_stats(g).max_degree for g in self.graphs]

    def check_setup(self):
        for (kind, _, params), g in zip(self.GRAPHS, self.graphs):
            if g.n != self.n:
                raise checks.CheckFailed(f"{kind} graph has {g.n} vertices, not {self.n}")
            checks.check_simple_graph(g.n, g.edges, g.adj, params.get("d"))

    def run(self, i, tracer=None):
        """One graph, colored from fresh lists for r = 2 and then r = 3."""
        dc = self.dc
        gi, list_seed = self.inputs[i]
        g = self.graphs[gi]
        rng = random.Random(list_seed)
        out = []
        for r in (2, 3):
            size = r * self.max_degree[gi] + 1
            lists = call(
                tracer, "experiments.random_list_assignment", dc.random_list_assignment, g.n, size, 2 * size, rng
            )
            coloring = call(tracer, "greedy.greedy_r_dynamic", dc.greedy_r_dynamic, g, lists, r)
            valid = call(tracer, "coloring.is_r_dynamic", dc.is_r_dynamic, g, coloring, r)
            out.append((r, lists, coloring, valid))
        return out

    def check(self, i, out):
        gi, _ = self.inputs[i]
        g = self.graphs[gi]
        for r, lists, coloring, valid in out:
            size = r * self.max_degree[gi] + 1
            for v, colors in enumerate(lists):
                if len(set(colors)) != size or min(colors) < 1 or max(colors) > 2 * size:
                    raise checks.CheckFailed(f"list of vertex {v} is not {size} colors from 1..{2 * size}")
            checks.check_coloring(g.n, g.edges, lists, coloring, r)
            if valid is not True:
                raise checks.CheckFailed(f"is_r_dynamic rejects an r={r} coloring the benchmark accepts")


WORKLOADS = {w.name: w for w in (LllSparse, LllDense, Exact, GreedyLarge)}
