"""Arithmetic over GF(2^8) and GF(2^16) with log/antilog tables.

Matrix multiply and Gauss-Jordan elimination are the hot paths for the
codec; both work a whole row at a time with numpy table lookups.
"""

import numpy as np

# Primitive polynomials: x^8+x^4+x^3+x^2+1 and x^16+x^12+x^3+x+1.
_POLY = {256: 0x11D, 65536: 0x1100B}


class GaloisField:
    """GF(2^w) for w in {8, 16}, generator alpha = 2."""

    _cache: dict = {}

    def __init__(self, order: int):
        if order not in _POLY:
            raise ValueError(f"unsupported field order {order}; use 256 or 65536")
        self.order = order
        poly = _POLY[order]
        exp = np.zeros(order - 1, dtype=np.int64)
        log = np.zeros(order, dtype=np.int64)
        x = 1
        for i in range(order - 1):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & order:
                x ^= poly
        if x != 1:
            raise AssertionError("generator is not primitive for the chosen polynomial")
        self.exp = exp
        self.log = log

    @classmethod
    def get(cls, order: int) -> "GaloisField":
        if order not in cls._cache:
            cls._cache[order] = cls(order)
        return cls._cache[order]

    def mul(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        q1 = self.order - 1
        nz = (a != 0) & (b != 0)
        out = np.where(nz, self.exp[(self.log[a] + self.log[b]) % q1], 0)
        return out if out.ndim else int(out)

    def _scale(self, row, log_factor):
        """row * alpha**log_factor elementwise; zeros stay zero."""
        out = np.zeros(row.shape, dtype=np.int64)
        nz = row != 0
        out[nz] = self.exp[(log_factor + self.log[row[nz]]) % (self.order - 1)]
        return out

    def matmul(self, A, B):
        A = np.ascontiguousarray(A, dtype=np.int64)
        B = np.ascontiguousarray(B, dtype=np.int64)
        out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
        for i, t in zip(*np.nonzero(A)):
            out[i] ^= self._scale(B[t], self.log[A[i, t]])
        return out

    def solve(self, M, B):
        """Solve M X = B by Gauss-Jordan elimination; returns X or None if M is singular."""
        M = np.array(M, dtype=np.int64)
        X = np.array(B, dtype=np.int64)
        q1 = self.order - 1
        n = M.shape[0]
        for col in range(n):
            nzr = np.nonzero(M[col:, col])[0]
            if nzr.size == 0:
                return None
            piv = col + int(nzr[0])
            if piv != col:
                M[[col, piv]] = M[[piv, col]]
                X[[col, piv]] = X[[piv, col]]
            linv = (q1 - self.log[M[col, col]]) % q1
            M[col] = self._scale(M[col], linv)
            X[col] = self._scale(X[col], linv)
            for r in range(n):
                f = M[r, col]
                if r == col or f == 0:
                    continue
                M[r] ^= self._scale(M[col], self.log[f])
                X[r] ^= self._scale(X[col], self.log[f])
        return X

