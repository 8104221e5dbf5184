import os

import numpy as np
from hypothesis import HealthCheck, settings

from fpplab import weights

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def suite_threads() -> int:
    return min(8, os.cpu_count() or 1)


def write_exp_table(path, n_rows: int = 257) -> None:
    """exp(1) as a two-column (probability, quantile) table in repr floats:
    n_rows - 1 even levels, then 1 - 1e-9 and a last row at level 1 just
    above the quantile before it, since the law's own top quantile is inf."""
    p = np.append(np.linspace(0.0, 1.0, n_rows)[:-1], 1.0 - 1e-9)
    q = weights.exponential(1.0).quantile(p)
    rows = [*zip(p, q), (1.0, q[-1] * (1 + 1e-9) + 1e-12)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{float(a)!r} {float(b)!r}\n" for a, b in rows)
