"""Spans around calls into fpplab's layers, recorded from outside the package.

The tracer replaces module attributes with timing wrappers and puts the
originals back on exit, so the package itself carries no instrumentation.
A call site is only traced when it looks the function up through the
attribute at call time (``graphs.pair_configuration(...)`` inside
``montecarlo``, or the ``sample_weight`` name ``graphs`` and ``ctbp`` bind
``weights.sample`` to); that is how every layer boundary below is reached.

Spans nest: each span adds its duration to the child time of the innermost
open span, so a layer's self time is its total minus its child time. A call
made while a span of the same name is already open (``degrees.regular``
calling ``degrees.build_deterministic``) is not counted twice.

``explore.step`` is deliberately never wrapped: a wrapper per event raised
the n = 1000 trial cost from about 1.5 to 2.6 ms, which would hide the
layer it is meant to measure. Event counts are read from the exploration
state instead.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict


class Tracer:
    """In-memory span totals, call counts, error counts and work counters."""

    def __init__(self):
        self.total = defaultdict(float)     # inclusive seconds per span name
        self.child = defaultdict(float)     # seconds covered by nested spans
        self.calls = Counter()
        self.errors = Counter()             # (span name, exception class name)
        self.counts = Counter()             # work read from returned objects
        self._open: list[str] = []
        self._saved: list[tuple] = []

    def self_time(self, name: str) -> float:
        return self.total[name] - self.child[name]

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Time every call to module.attr under span `name`.

        count(counter, args, result), if given, adds work counts read from
        the call's arguments and return value.
        """
        original = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            if name in tracer._open:
                return original(*args, **kwargs)
            tracer._open.append(name)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer.errors[name, type(exc).__name__] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                tracer._open.pop()
                tracer.total[name] += dt
                tracer.calls[name] += 1
                if tracer._open:
                    tracer.child[tracer._open[-1]] += dt
            if count is not None:
                count(tracer.counts, args, result)
            return result

        traced.__wrapped__ = original
        self._saved.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def _count_graph(counts, args, g) -> None:
    counts["half_edges_built"] += g.half_edge_count


def _count_exploration(counts, args, res) -> None:
    state = args[0]
    counts["events"] += state.k
    counts["touched"] += len(state.he_state)
    counts["explorations"] += 1


def _count_trials(counts, args, outcomes) -> None:
    counts["trials"] += len(outcomes)
    counts["resamples"] += sum(o.resamples for o in outcomes)


_EXPLORE_CALLS = ("init", "advance", "measure_martingale", "advance_ranked")


def trace_trial_layers(tracer: Tracer) -> None:
    """Wrap every layer a trial passes through, in one process."""
    from fpplab import ctbp, degrees, explore, graphs, montecarlo, weights

    for attr in ("regular", "build_deterministic", "build_iid", "diagnostics"):
        tracer.wrap(degrees, attr, "degrees.build")
    tracer.wrap(graphs, "pair_configuration", "graphs.pair", _count_graph)
    tracer.wrap(graphs, "sample_rank1", "graphs.rank1", _count_graph)
    tracer.wrap(graphs, "assign_weights", "graphs.weights")
    for module in (weights, graphs, ctbp):
        attr = "sample" if module is weights else "sample_weight"
        tracer.wrap(module, attr, "weights.sample")
    for attr in _EXPLORE_CALLS:
        tracer.wrap(explore, attr, "explore")
    tracer.wrap(explore, "result", "explore", _count_exploration)
    tracer.wrap(ctbp, "constants", "ctbp.constants")
    tracer.wrap(montecarlo, "run_trials", "montecarlo.run_trials", _count_trials)


_VERIFIERS = ("verify_hopcount_clt", "verify_weight_limit", "verify_ppp",
              "verify_ranked")


def trace_experiment_layers(tracer: Tracer) -> None:
    """Wrap the montecarlo and cli calls `fpplab run` makes in the parent.

    Trials and references run in forked pool workers, whose spans would die
    with them, so nothing below the pool is wrapped here.
    """
    from fpplab import cli, montecarlo

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(montecarlo, "run_experiment", "montecarlo.run_experiment")
    tracer.wrap(montecarlo, "run_trials", "montecarlo.run_trials", _count_trials)
    tracer.wrap(montecarlo, "build_q_reference", "montecarlo.q_ref")
    tracer.wrap(montecarlo, "build_ranked_reference", "montecarlo.ranked_ref")
    tracer.wrap(montecarlo, "residual_cdf_table", "montecarlo.residual_table")
    for attr in _VERIFIERS:
        tracer.wrap(montecarlo, attr, "montecarlo.verify")
