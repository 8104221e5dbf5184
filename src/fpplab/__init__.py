"""First-passage percolation laboratory on sparse random graphs.

Generate graphs with prescribed degrees, race fluid from two sources along
exponential-ish edge weights, and check the measured hopcounts, optimal
weights, and collision processes against the limit laws predicted by the
associated continuous-time branching process.

The API is the modules (`from fpplab import montecarlo as mc`); the package
root re-exports nothing.
"""

__version__ = "0.1.0"
