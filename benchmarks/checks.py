"""Untimed output checks; every failure counts against the run's operations.

- each trial is connected, with finite L_n > 0 and H_n >= 1;
- a rerun of the first batch writes a byte-identical outcome CSV, and its
  digest agrees with every earlier run of the same sources, workload and
  seed recorded in the digest ledger;
- a small seeded oracle corpus (exploration against Dijkstra) has no
  mismatch;
- `fpplab run` exits 0 or 1 and its report.json holds all four verifier
  entries with finite statistics. Verdicts are recorded, not gated on: a
  change to the random streams legitimately moves them.
"""
from __future__ import annotations

import hashlib
import json
import math
import pathlib

VERIFIER_NAMES = ("hopcount_clt", "weight_limit", "ppp_marks", "ranked_paths")


def trial_ok(H_n, L_n, connected) -> bool:
    return bool(connected) and math.isfinite(L_n) and L_n > 0.0 and H_n >= 1


def bad_outcomes(outcomes) -> int:
    return sum(not trial_ok(o.H_n, o.L_n, o.connected) for o in outcomes)


def bad_csv_rows(path) -> int:
    """Rows of an outcome CSV that fail trial_ok."""
    lines = pathlib.Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    h, l, c = (header.index(k) for k in ("H_n", "L_n", "connected"))
    bad = 0
    for line in lines[1:]:
        f = line.split(",")
        bad += not trial_ok(int(f[h]), float(f[l]), int(f[c]))
    return bad


def file_digest(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(pathlib.Path(p).read_bytes())
    return h.hexdigest()


def source_digest(src_dir) -> str:
    """Identifies the program under test when no git metadata is present."""
    h = hashlib.sha256()
    for p in sorted(pathlib.Path(src_dir).rglob("*.py")):
        h.update(p.relative_to(src_dir).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def ledger_agrees(ledger_path, key: str, digest: str) -> bool:
    """Record digest under key; False if an earlier run recorded another."""
    path = pathlib.Path(ledger_path)
    ledger = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    previous = ledger.setdefault(key, digest)
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return previous == digest


def oracle_mismatches(instances: int, seed: int) -> int:
    """Corpus instances where the exploration disagrees with Dijkstra."""
    from fpplab import oracle

    res = oracle.run_corpus(instances, seed)
    wrong = res.hop_mismatches + res.weight_mismatches + res.early_stop_mismatches
    return min(wrong, instances)


def report_entries(report_path) -> tuple[dict, int]:
    """(verdict per verifier, entries missing or with non-finite statistics)."""
    payload = json.loads(pathlib.Path(report_path).read_text(encoding="utf-8"))
    entries = {e["name"]: e for e in payload["entries"]}
    verdicts = {}
    bad = 0
    for name in VERIFIER_NAMES:
        e = entries.get(name)
        if e is None:
            bad += 1
            continue
        verdicts[name] = e["passed"]
        values = e["statistics"].values()
        bad += not all(isinstance(v, (int, float)) and math.isfinite(v)
                       for v in values)
    return verdicts, bad
