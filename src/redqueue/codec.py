"""MDS encoding of digital job batches and any-n-of-(n+m) recovery.

A batch of n equal-length payloads is expanded into n+m coded payloads,
each a field-linear combination of the originals.  Any n coded payloads
with their coefficient rows recover the batch by Gaussian elimination.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .gf import GaloisField

SCHEMES = ("systematic-vandermonde", "random-linear")

# Upper bound on subset retries when a random-linear selection is singular.
_MAX_DECODE_ATTEMPTS = 64


class DecodingError(ValueError):
    """No invertible coefficient subset was found among the supplied jobs."""


@dataclass(frozen=True)
class CodingMatrix:
    """(n+m) x n coefficient matrix over GF(field_order)."""

    rows: np.ndarray
    scheme: str
    field_order: int


@dataclass(frozen=True)
class CodedJob:
    batch_id: str
    index: int  # 1-based position within the batch's n+m coded jobs
    coefficients: np.ndarray
    payload: bytes
    field_order: int = 256


def build_matrix(n: int, m: int, scheme: str, field_order: int = 256, seed: int = 0) -> CodingMatrix:
    """Deterministically construct a coding matrix.

    systematic-vandermonde: rows of a Vandermonde matrix on distinct points,
    normalized so the top n x n block is the identity; every n x n submatrix
    is invertible.  random-linear: uniform coefficients, MDS only with high
    probability.
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    gf = GaloisField.get(field_order)
    if scheme == "systematic-vandermonde":
        if n + m > field_order:
            raise ValueError(
                f"systematic-vandermonde needs n+m <= field order ({field_order}), got {n + m}"
            )
        points = np.arange(n + m, dtype=np.int64)
        vand = np.ones((n + m, n), dtype=np.int64)
        for c in range(1, n):
            vand[:, c] = gf.mul(vand[:, c - 1], points)
        top_inv = gf.solve(vand[:n], np.eye(n, dtype=np.int64))
        assert top_inv is not None  # Vandermonde block on distinct points
        rows = gf.matmul(vand, top_inv)
    else:
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, field_order, size=(n + m, n)).astype(np.int64)
    return CodingMatrix(rows=rows, scheme=scheme, field_order=field_order)


def _to_symbols(payload: bytes, field_order: int) -> np.ndarray:
    if field_order == 256:
        return np.frombuffer(payload, dtype=np.uint8).astype(np.int64)
    if len(payload) % 2:
        raise ValueError("GF(2^16) payloads must have even byte length")
    return np.frombuffer(payload, dtype=">u2").astype(np.int64)


def _to_bytes(symbols: np.ndarray, field_order: int) -> bytes:
    if field_order == 256:
        return symbols.astype(np.uint8).tobytes()
    return symbols.astype(">u2").tobytes()


def encode(
    jobs,
    m: int,
    scheme: str = "systematic-vandermonde",
    seed: int = 0,
    field_order: int = 256,
    batch_id: str = "batch",
):
    """Encode n equal-length payloads into n+m coded jobs."""
    jobs = [bytes(j) for j in jobs]
    if not jobs:
        raise ValueError("need at least one payload")
    size = len(jobs[0])
    if any(len(j) != size for j in jobs):
        raise ValueError("all payloads in a batch must have equal length")
    n = len(jobs)
    matrix = build_matrix(n, m, scheme, field_order=field_order, seed=seed)
    gf = GaloisField.get(field_order)
    data = np.stack([_to_symbols(j, field_order) for j in jobs])
    coded = gf.matmul(matrix.rows, data)
    return [
        CodedJob(
            batch_id=batch_id,
            index=j + 1,
            coefficients=matrix.rows[j].copy(),
            payload=_to_bytes(coded[j], field_order),
            field_order=field_order,
        )
        for j in range(n + m)
    ]


def decode(coded):
    """Recover the n original payloads from any >= n coded jobs of one batch.

    Tries the first n jobs; on a singular coefficient submatrix (possible
    for random-linear codes) retries other subsets before giving up.
    """
    coded = list(coded)
    if not coded:
        raise ValueError("no coded jobs supplied")
    n = len(coded[0].coefficients)
    if len(coded) < n:
        raise ValueError(f"need at least n={n} coded jobs, got {len(coded)}")
    field_order = coded[0].field_order
    size = len(coded[0].payload)
    if any(len(c.payload) != size or c.field_order != field_order for c in coded):
        raise ValueError("coded jobs disagree on payload length or field")
    gf = GaloisField.get(field_order)
    payloads = np.stack([_to_symbols(c.payload, field_order) for c in coded])
    rows = np.stack([np.asarray(c.coefficients, dtype=np.int64) for c in coded])

    attempts = 0
    for subset in combinations(range(len(coded)), n):
        attempts += 1
        if attempts > _MAX_DECODE_ATTEMPTS:
            break
        idx = list(subset)
        solution = gf.solve(rows[idx], payloads[idx])
        if solution is not None:
            return [_to_bytes(solution[i], field_order) for i in range(n)]
    raise DecodingError(
        f"unrecoverable: no invertible {n}x{n} coefficient subset in {attempts} attempts"
    )
