"""Equivalence corpus: the two-source exploration vs textbook Dijkstra.

The exploration computes optimal weights and hopcounts as a side effect of
its collision bookkeeping; this module cross-checks it on a zoo of small
seeded instances against an independent single-source Dijkstra that shares
no code with it. Also checks that the exact early-stopping rule returns the
same answer as running the exploration to exhaustion.

Lazy instances explore a LazyPairing first, then materialize() it and run
every check on the completed graph, which keeps each pair and weight the
exploration revealed. Exploring the completed graph must reproduce the lazy
run's PathResult exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import degrees, dijkstra, explore, graphs, weights

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
    wkind, wparams = _WEIGHT_KINDS[index % len(_WEIGHT_KINDS)]
    dist = weights.from_spec(wkind, wparams)
    if kind in ("nr", "grg", "cl"):
        vw = weights.from_spec(*model)
        w = weights.sample(vw, rng, n)
        g = graphs.sample_rank1(w, kind, rng)
        label = f"{kind} n={n}"
    else:
        mkind, param = model
        if mkind == "regular":
            r = int(param)
            if (r * n) % 2:
                n += 1
            seq = degrees.regular(r, n)
        elif mkind == "iid":
            seq = degrees.build_iid(dict(param), n, rng)
        else:
            seq = degrees.build_deterministic(dict(param), n)
        if kind == "lazy":
            return (graphs.LazyPairing(graphs.HalfEdgeLayout.of(seq), dist, rng),
                    f"lazy cm/{mkind} n={n} weights={wkind}")
        if kind == "simple":
            g, _ = graphs.sample_uniform_simple(seq, rng)
        else:
            g = graphs.pair_configuration(seq, rng)
        label = f"{kind}/{mkind} n={n}"
    graphs.assign_weights(g, dist, rng)
    return g, f"{label} weights={wkind}"


def _instance(index: int, master_seed: int):
    """(graph, label, u, v, lazy PathResult or None) of one corpus instance.

    A lazy instance is explored first, from endpoints drawn before any
    pairing draw, and then completed by materialize().
    """
    from .montecarlo import derived_seed

    rng = np.random.Generator(np.random.Philox(key=derived_seed(master_seed, 4, index)))
    g, label = _build_instance(index, rng)
    u = int(rng.integers(g.n))
    v = int(rng.integers(g.n - 1))
    if v >= u:
        v += 1
    lazy = None
    if isinstance(g, graphs.LazyPairing):
        lazy = explore.run(g, u, v)
        g = g.materialize()
    return g, label, u, v, lazy


def _explore_answer(g, u, v, *, exhaustive: bool = False):
    try:
        res = explore.run(g, u, v, min_horizon=math.inf if exhaustive else 0.0)
    except explore.IsolatedEndpointError:
        return None
    if not res.connected:
        return None
    return float(res.weight), int(res.hops)


def describe_instance(index: int, master_seed: int = 20260817) -> str:
    """Rebuild one corpus instance and print both solvers' answers."""
    g, label, u, v, _ = _instance(index, master_seed)
    ours = _explore_answer(g, u, v)
    ref = dijkstra.shortest_path(g, u, v)
    return (f"instance {index}: {label} pair=({u},{v})\n"
            f"  exploration: {ours}\n"
            f"  dijkstra:    {ref}")


def run_corpus(n_instances: int = 500, master_seed: int = 20260817, *,
               check_early_stop: bool = True, corrupt: bool = False,
               max_failures: int = 10) -> CorpusResult:
    """Compare both solvers on seeded instances, n in [10, 200].

    `corrupt` is a test hook: it perturbs one edge weight after the
    reference answer is taken, so the comparison must report a mismatch;
    it exists to prove this harness can actually fail.
    """
    res = CorpusResult(0, 0, 0, 0.0, 0, 0, 0)
    for i in range(n_instances):
        g, label, u, v, lazy = _instance(i, master_seed)
        ref = dijkstra.shortest_path(g, u, v)
        if corrupt and g.edge_weight_by_he is not None and g.half_edge_count:
            g.edge_weight_by_he[0] += 1e-3
            g.edge_weight_by_he[g.partner[0]] += 1e-3
        ours = _explore_answer(g, u, v)
        res.instances += 1

        def fail(msg: str) -> None:
            if len(res.failures) < max_failures:
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
        if check_early_stop:
            full = _explore_answer(g, u, v, exhaustive=True)
            if full != ours:
                res.early_stop_mismatches += 1
                fail(f"early stop changed the answer: exhaustive={full}")
        if lazy is not None and explore.run(g, u, v) != lazy:
            res.lazy_mismatches += 1
            fail("the materialized graph explores differently from the lazy run")
    return res
