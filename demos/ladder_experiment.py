"""A desk-scale ladder run with every verifier, and what to expect from it.

600 trials per rung at n = 1000 and n = 8000 take well under a minute on a
few cores. At these sizes the fast laws are already visible: the recentred
optimal weight matches its simulated limit, collision times arrive at the
predicted exponential rate with fair sources, and remaining lifetimes follow
the residual-life law. The hopcount CLT and the height coordinates converge
much more slowly (they carry O(1) and O(1/sqrt(log n)) finite-size terms),
so their KS entries only shrink along the ladder without clearing the
asymptotic thresholds. The acceptance suite documents the same effect at
n = 1e5.
"""

import os

from fpplab import montecarlo as mc


def main():
    config = mc.ExperimentConfig(
        graph_kind="cm",
        degree_model=("regular", 4),
        weight_spec=("exponential", (1.0,)),
        n_ladder=(1000, 8000),
        trials=600,
        ranked_m=2,
        master_seed=431,
        threads=min(8, os.cpu_count() or 1),
    )
    report, outcomes = mc.run_experiment(config)
    print(report.to_text())

    top = outcomes[8000]
    hops = [o.H_n for o in top if o.connected]
    print(f"top rung: {len(top)} trials, mean hopcount {sum(hops) / len(hops):.2f}, "
          f"mean weight {sum(o.L_n for o in top if o.connected) / len(hops):.3f}")
    print("rerunning with the same seed reproduces the outcomes exactly; "
          "only wall time depends on --threads.")


if __name__ == "__main__":
    main()
