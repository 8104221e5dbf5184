"""Tour of the limit-constant solver across weight families.

For each model the solver finds the growth rate of the associated branching
process, the stable-age moments behind the hopcount centering and spread,
and the weight-centering constant, and it reports how far its own
quadratures sit from two closed identities they must satisfy. For 4-regular
graphs with unit-rate exponential weights every quantity is known in closed
form, so that row doubles as a visual check.
"""

import math

from fpplab import ctbp, weights

MODELS = [
    ("4-regular, exp(1) weights", 4.0, 3.0, weights.exponential(1.0)),
    ("4-regular, uniform(0,2) weights", 4.0, 3.0, weights.uniform(2.0)),
    ("mean degree 6, shifted-exp k=2", 6.0, 5.0, weights.shifted_exponential(2.0)),
    ("heavy mean 1000, power s=2", 1000.0, 999.0, weights.power_exponential(2.0)),
]


def main():
    header = f"{'model':35s} {'alpha':>10s} {'hop gamma':>10s} {'hop beta':>10s} {'weight c':>10s}"
    print(header)
    print("-" * len(header))
    for label, mu, nu, dist in MODELS:
        c = ctbp.constants(mu, nu, dist)
        print(f"{label:35s} {c.alpha:10.5f} {c.gamma:10.5f} {c.beta:10.5f} {c.c:10.5f}")
        residuals = ", ".join(f"{name}={val:.1e}" for name, val in c.checks)
        print(f"{'':35s} self-checks: {residuals}")

    print()
    ref = ctbp.constants(4.0, 3.0, weights.exponential(1.0))
    print("closed-form comparison for the first row:")
    print(f"  alpha   {ref.alpha:.12f}  vs nu-1          = 2")
    print(f"  gamma   {ref.gamma:.12f}  vs nu/(nu-1)     = 1.5")
    print(f"  c       {ref.c:.12f}  vs log(mu(nu-1)) = {math.log(8.0):.12f}")

    # the same constants drive simulation of the limit process
    import numpy as np

    bp = ctbp.BpConfig(root_law=ctbp.OffspringLaw.from_pmf({4: 1.0}),
                       later_law=ctbp.OffspringLaw.from_pmf({3: 1.0}),
                       dist=weights.exponential(1.0))
    horizon = ctbp.default_w_horizon(ref)
    print(f"\nsimulation horizon for ~1e4 expected alive: {horizon:.3f}")
    rng = np.random.Generator(np.random.Philox(key=20260817))
    draws = [ctbp.sample_w(ref, bp, rng, horizon=horizon) for _ in range(500)]
    print(f"growth-limit mean over 500 draws: {np.mean(draws):.3f} "
          f"(expected {4.0 * ctbp.mean_growth_constant(ref):.3f})")


if __name__ == "__main__":
    main()
