"""Equivalence corpus: the two-source exploration vs textbook Dijkstra.

The exploration computes optimal weights and hopcounts as a side effect of
its collision bookkeeping; this module cross-checks it on a zoo of small
seeded instances against an independent single-source Dijkstra that shares
no code with it. Also checks that the exact early stops (the ranked stop
and the closed-cluster stop) return the same answer as running the
exploration to exhaustion with advance(state, inf), which neither rule
touches.

Instances come from montecarlo.sample_graph, the trials' own sampler, on a
config built from the model tables below, and their endpoints from
montecarlo.endpoints, the trials' own draw. Lazy instances explore its
LazyPairing first, then materialize() it and run every check on the
completed graph, which keeps each pair and weight the exploration revealed.
Exploring the completed graph must reproduce the lazy run's PathResult
exactly. A deep copy of the explored pairing is also explored again, from a
second endpoint pair, as a trial's resample does, and then materialized:
exploring that graph must reproduce both lazy runs, and Dijkstra on it must
match the second. Every other instance is materialized at once.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

from . import dijkstra, explore, graphs
from .montecarlo import ExperimentConfig, derived_seed, endpoints, rng_for, sample_graph

__all__ = ["CorpusResult", "run_corpus", "describe_instance"]

_WEIGHT_KINDS = (
    ("exponential", (1.0,)),
    ("exponential", (0.5,)),
    ("shifted_exponential", (1.0,)),
    ("shifted_exponential", (5.0,)),
    ("power_exponential", (0.5,)),
    ("power_exponential", (2.0,)),
    ("uniform", (2.0,)),
    ("user_table", ((0.0, 0.4, 0.9, 1.0), (0.1, 0.5, 1.0, 2.5))),
)

# graph kind x degree/vertex-weight model; mixes supercritical lattices with
# shattered subcritical ones so both agreement branches get exercised
_GRAPH_MODELS = (
    ("cm", ("regular", 3)),
    ("cm", ("regular", 4)),
    ("cm", ("iid", ((1, 0.2), (2, 0.3), (3, 0.3), (5, 0.2)))),
    ("cm", ("iid", ((1, 0.5), (2, 0.5)))),
    ("cm", ("deterministic", ((1, 0.1), (2, 0.4), (3, 0.8), (6, 1.0)))),
    ("cm", ("regular", 7)),
    ("simple", ("regular", 3)),
    ("nr", ("exponential", (1.0,))),
    ("grg", ("exponential", (1.5,))),
    ("cl", ("uniform", (2.0,))),
    ("lazy", ("regular", 3)),
    ("lazy", ("iid", ((1, 0.2), (2, 0.3), (3, 0.3), (5, 0.2)))),
    ("lazy", ("deterministic", ((1, 0.1), (2, 0.4), (3, 0.8), (6, 1.0)))),
)


@dataclass
class CorpusResult:
    instances: int
    connected: int
    disconnected: int
    max_weight_rel_err: float
    hop_mismatches: int
    weight_mismatches: int
    early_stop_mismatches: int
    lazy_mismatches: int = 0     # lazy run != exploration of its materialized graph
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (self.hop_mismatches == 0 and self.weight_mismatches == 0
                and self.early_stop_mismatches == 0 and self.lazy_mismatches == 0
                and self.max_weight_rel_err < 1e-9)

    def summary(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (f"[{tag}] {self.instances} instances: {self.connected} connected, "
                f"{self.disconnected} disconnected, max weight rel err "
                f"{self.max_weight_rel_err:.3e}, mismatches hops="
                f"{self.hop_mismatches} weight={self.weight_mismatches} "
                f"early_stop={self.early_stop_mismatches} "
                f"lazy={self.lazy_mismatches}")


def _build_instance(index: int, rng):
    """(graph, label): a LazyPairing for lazy models, else a weighted graph."""
    kind, model = _GRAPH_MODELS[index % len(_GRAPH_MODELS)]
    n = int(rng.integers(10, 201))
    wspec = _WEIGHT_KINDS[index % len(_WEIGHT_KINDS)]
    if kind in graphs.RANK1_KINDS:
        config = ExperimentConfig(graph_kind=kind, weight_spec=wspec,
                                  vertex_weight_spec=model)
        label = f"{kind} n={n}"
    else:
        mkind, param = model
        if mkind == "regular" and (int(param) * n) % 2:
            n += 1
        config = ExperimentConfig(graph_kind="cm" if kind == "lazy" else kind,
                                  degree_model=model, weight_spec=wspec)
        label = f"lazy cm/{mkind} n={n}" if kind == "lazy" else f"{kind}/{mkind} n={n}"
    g, _ = sample_graph(config, n, rng)
    return (g if kind == "lazy" else g.materialize()), f"{label} weights={wspec[0]}"


def _instance(index: int, master_seed: int):
    """(graph, label, u, v, lazy, rebound) of one corpus instance; lazy and
    rebound are None unless the instance is lazy.

    A lazy instance is explored first, from endpoints drawn before any
    pairing draw, and then completed by materialize(). rebound is (a deep
    copy of the pairing as that exploration left it, u2, v2), the second
    endpoint pair drawn from the instance's own second seed.
    """
    rng = rng_for(derived_seed(master_seed, 4, index))
    g, label = _build_instance(index, rng)
    u, v = endpoints(g.n, rng)
    lazy = rebound = None
    if isinstance(g, graphs.LazyPairing):
        lazy = explore.run(g, u, v)
        rebound = (copy.deepcopy(g),
                   *endpoints(g.n, rng_for(derived_seed(master_seed, 4, index, 1))))
        g = g.materialize()
    return g, label, u, v, lazy, rebound


def _rebound_failure(again, u2: int, v2: int, lazy, u: int, v: int) -> str | None:
    """Why the explored pairing `again`, explored from (u2, v2) and then
    materialized, disagrees with Dijkstra or with either lazy run on that
    graph; None when it agrees."""
    where = f"the copy re-bound at pair ({u2},{v2})"
    try:
        second = explore.run(again, u2, v2)
        full = again.materialize()
        if explore.run(full, u, v) != lazy or explore.run(full, u2, v2) != second:
            return f"{where} and materialized explores differently from the lazy runs"
    except Exception as exc:     # a pairing the fold broke: counted, not fatal
        return f"{where} raised {type(exc).__name__}: {exc}"
    ours = (float(second.weight), int(second.hops)) if second.connected else None
    ref = dijkstra.shortest_path(full, u2, v2)
    if ours is None or ref is None:
        same = ours == ref
    else:
        same = ours[1] == ref[1] and abs(ours[0] - ref[0]) < 1e-9 * max(ref[0], 1e-12)
    return None if same else f"{where} gave {ours}, dijkstra {ref}"


def _explore_answer(g, u, v, *, exhaustive: bool = False):
    """(weight, hops), or None; exhaustive runs advance to inf, no early stop."""
    try:
        if exhaustive:
            state = explore.init(g, u, v)
            explore.advance(state, math.inf)
            res = explore.result(state)
        else:
            res = explore.run(g, u, v)
    except explore.IsolatedEndpointError:
        return None
    if not res.connected:
        return None
    return float(res.weight), int(res.hops)


def describe_instance(index: int, master_seed: int) -> str:
    """Rebuild one corpus instance and print both solvers' answers."""
    g, label, u, v, _, _ = _instance(index, master_seed)
    ours = _explore_answer(g, u, v)
    ref = dijkstra.shortest_path(g, u, v)
    return (f"instance {index}: {label} pair=({u},{v})\n"
            f"  exploration: {ours}\n"
            f"  dijkstra:    {ref}")


# Failure messages a corpus run keeps; the counts cover every failure.
_MAX_FAILURES = 10


def run_corpus(n_instances: int, master_seed: int, *,
               corrupt: bool = False) -> CorpusResult:
    """Compare both solvers on seeded instances, n in [10, 200].

    `corrupt` is a test hook: it perturbs one edge weight after the
    reference answer is taken, so the comparison must report a mismatch;
    it exists to prove this harness can actually fail.
    """
    res = CorpusResult(0, 0, 0, 0.0, 0, 0, 0)
    for i in range(n_instances):
        g, label, u, v, lazy, rebound = _instance(i, master_seed)
        ref = dijkstra.shortest_path(g, u, v)
        if corrupt and g.edge_weight_by_he is not None and g.half_edge_count:
            g.edge_weight_by_he[0] += 1e-3
            g.edge_weight_by_he[g.partner[0]] += 1e-3
        ours = _explore_answer(g, u, v)
        res.instances += 1

        def fail(msg: str) -> None:
            if len(res.failures) < _MAX_FAILURES:
                res.failures.append(
                    f"instance {i}: {label} pair=({u},{v}): {msg}; "
                    f"exploration={ours} dijkstra={ref}")

        if (ours is None) != (ref is None):
            res.weight_mismatches += 1
            fail("connectivity disagreement")
            continue
        if ours is None:
            res.disconnected += 1
        else:
            res.connected += 1
            rel = abs(ours[0] - ref[0]) / max(ref[0], 1e-12)
            res.max_weight_rel_err = max(res.max_weight_rel_err, rel)
            if rel >= 1e-9:
                res.weight_mismatches += 1
                fail(f"weight off by rel {rel:.3e}")
            if ours[1] != ref[1]:
                res.hop_mismatches += 1
                fail("hopcount disagreement")
        full = _explore_answer(g, u, v, exhaustive=True)
        if full != ours:
            res.early_stop_mismatches += 1
            fail(f"early stop changed the answer: exhaustive={full}")
        if lazy is None:
            continue
        if explore.run(g, u, v) != lazy:
            res.lazy_mismatches += 1
            fail("the materialized graph explores differently from the lazy run")
        why = _rebound_failure(*rebound, lazy, u, v)
        if why is not None:
            res.lazy_mismatches += 1
            fail(why)
    return res
