"""Correctness checks on the program's outputs, independent of its code paths."""

from __future__ import annotations

import hashlib
import os

import numpy as np

# 2**26 - 5, prime.  With residues below 2**26 and 0/1 closure entries, each
# dot product of length n < 2**27 stays below 2**53, so float64 is exact.
PRIME = 67108859

CSV_FILES = ("actions.csv", "estimates.csv", "mse.csv", "constraint.txt")


def weights_exact(closure: np.ndarray, weights: list[np.ndarray]) -> bool:
    """True iff every w_n solves T_{n-1} w_n = t_n over the integers.

    The system is checked modulo PRIME.  T is unit upper triangular, so it
    is invertible mod PRIME and the check passes only if each returned
    weight equals the true one mod PRIME.  An int64 wrap-around changes a
    weight by a nonzero multiple k * 2**64 with |k| far below PRIME, which
    PRIME never divides, so the check cannot be fooled by it.
    """
    n = closure.shape[0]
    wp = np.zeros((n, n))
    for k, w in enumerate(weights):
        # weights[k] belongs to node k+1 and has one entry per earlier node
        wp[:k, k] = np.mod(np.asarray(w, dtype=np.int64), PRIME)
    t = closure.astype(np.float64)
    lhs = np.mod(t @ wp, PRIME)
    return np.array_equal(np.triu(lhs, 1), np.triu(t, 1))


def unavailable(adjacency: np.ndarray, weights: list[np.ndarray]) -> dict[int, list[int]]:
    """node -> 1-based indices j with w_n(j) != 0 but no edge j -> n."""
    report = {}
    for k, w in enumerate(weights):
        bad = np.flatnonzero((np.asarray(w) != 0) & (adjacency[:k, k] == 0))
        if bad.size:
            report[k + 1] = [int(j) + 1 for j in bad]
    return report


def removal_vs_idealized(metrics) -> tuple[int, float]:
    """(runs whose removal actions differ from idealized at any node,
    max |estimate(removal) - estimate(idealized)| over runs and nodes)."""
    mismatched = (metrics.actions["removal"] != metrics.actions["idealized"]).any(axis=1)
    gap = np.abs(metrics.estimates["removal"] - metrics.estimates["idealized"]).max()
    return int(mismatched.sum()), float(gap)


def csv_digests(out_dir: str) -> dict[str, str]:
    digests = {}
    for name in CSV_FILES:
        with open(os.path.join(out_dir, name), "rb") as f:
            digests[name] = hashlib.sha256(f.read()).hexdigest()
    return digests


def fingerprint(*arrays) -> str:
    """Digest of output arrays, to compare passes that got the same inputs."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()
