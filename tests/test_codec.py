"""Finite-field arithmetic and the MDS encode/decode round trip."""

from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from redqueue import CodedJob, DecodingError, build_matrix, decode, encode
from redqueue.codec import SCHEMES
from redqueue.gf import GaloisField


@pytest.fixture(scope="module", params=[256, 65536])
def gf(request):
    return GaloisField.get(request.param)


class TestFieldTables:
    def test_exp_is_bijective_on_nonzero(self, gf):
        assert len(set(gf.exp.tolist())) == gf.order - 1
        assert 0 not in gf.exp

    def test_log_inverts_exp(self, gf):
        idx = np.arange(gf.order - 1)
        assert np.array_equal(gf.log[gf.exp[idx]], idx)

    def test_mul_by_zero_and_one(self, gf):
        a = np.array([0, 1, 2, 5, gf.order - 1])
        assert np.all(gf.mul(a, 0) == 0)
        assert np.array_equal(gf.mul(a, 1), a)

    def test_mul_commutes_and_distributes(self, gf):
        rng = np.random.default_rng(0)
        a, b, c = rng.integers(0, gf.order, (3, 200))
        assert np.array_equal(gf.mul(a, b), gf.mul(b, a))
        assert np.array_equal(gf.mul(a, b ^ c), gf.mul(a, b) ^ gf.mul(a, c))

    def test_gf256_mul_example(self):
        # 2 * 0x80 wraps through the reduction polynomial 0x11d
        gf8 = GaloisField.get(256)
        assert gf8.mul(2, 0x80) == 0x1D

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            GaloisField(512)


class TestKernelParity:
    """matmul and solve agree with oracles built from elementwise mul."""

    def test_matmul(self, gf):
        rng = np.random.default_rng(2)
        A = rng.integers(0, gf.order, (5, 4)).astype(np.int64)
        B = rng.integers(0, gf.order, (4, 33)).astype(np.int64)
        A[0, 1] = B[2, 5] = 0  # the kernel skips zero entries
        oracle = np.bitwise_xor.reduce(gf.mul(A[:, :, None], B[None, :, :]), axis=1)
        assert np.array_equal(gf.matmul(A, B), oracle)

    def test_solve(self, gf):
        rng = np.random.default_rng(3)
        for _ in range(5):
            M = rng.integers(0, gf.order, (6, 6)).astype(np.int64)
            B = rng.integers(0, gf.order, (6, 9)).astype(np.int64)
            X = gf.solve(M, B)
            assert X is not None
            assert np.array_equal(gf.matmul(M, X), B)

    def test_solve_roundtrip(self, gf):
        rng = np.random.default_rng(4)
        M = rng.integers(0, gf.order, (5, 5)).astype(np.int64)
        X = rng.integers(0, gf.order, (5, 7)).astype(np.int64)
        B = gf.matmul(M, X)
        sol = gf.solve(M, B)
        if sol is not None:
            assert np.array_equal(sol, X)

    def test_singular_detected(self, gf):
        M = np.array([[1, 2], [1, 2]], dtype=np.int64)
        assert gf.solve(M, np.eye(2, dtype=np.int64)) is None


class TestCodingMatrix:
    @pytest.mark.parametrize("n,m", [(1, 7), (2, 6), (3, 5), (4, 4), (5, 3)])
    def test_vandermonde_is_mds(self, n, m):
        # every n x n submatrix invertible, exhaustively for n+m <= 8
        gf8 = GaloisField.get(256)
        mat = build_matrix(n, m, "systematic-vandermonde")
        for rows in combinations(range(n + m), n):
            sub = mat.rows[list(rows)]
            assert gf8.solve(sub, np.eye(n, dtype=np.int64)) is not None, rows

    def test_systematic_prefix_is_identity(self):
        mat = build_matrix(4, 3, "systematic-vandermonde")
        assert np.array_equal(mat.rows[:4], np.eye(4, dtype=np.int64))

    def test_deterministic(self):
        a = build_matrix(4, 4, "random-linear", seed=99)
        b = build_matrix(4, 4, "random-linear", seed=99)
        c = build_matrix(4, 4, "random-linear", seed=100)
        assert np.array_equal(a.rows, b.rows)
        assert not np.array_equal(a.rows, c.rows)

    def test_size_bound(self):
        with pytest.raises(ValueError, match="field order"):
            build_matrix(200, 100, "systematic-vandermonde", field_order=256)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            build_matrix(2, 2, "fountain")


class TestEncodeDecode:
    def test_identity_code(self):
        jobs = [b"abcd", b"efgh", b"ijkl"]
        coded = encode(jobs, 0)
        assert [c.payload for c in coded] == jobs

    def test_systematic_outputs_originals_first(self):
        jobs = [bytes([i] * 10) for i in range(3)]
        coded = encode(jobs, 3)
        assert [c.payload for c in coded[:3]] == jobs

    def test_parity_row_is_xor(self):
        # hand-built single-parity code with row [1, 1] over GF(2^8)
        gf8 = GaloisField.get(256)
        j1, j2 = b"hello", b"world"
        data = np.stack(
            [np.frombuffer(j1, np.uint8), np.frombuffer(j2, np.uint8)]
        ).astype(np.int64)
        coded = gf8.matmul(np.array([[1, 0], [0, 1], [1, 1]], dtype=np.int64), data)
        parity = coded[2].astype(np.uint8).tobytes()
        assert parity == bytes(a ^ b for a, b in zip(j1, j2))
        # decode from {J1, J1^J2}
        jobs = [
            CodedJob("b", 1, np.array([1, 0]), j1),
            CodedJob("b", 3, np.array([1, 1]), parity),
        ]
        assert decode(jobs) == [j1, j2]

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (3, 2), (4, 4)])
    def test_roundtrip_all_subsets(self, n, m):
        rng = np.random.default_rng(n * 10 + m)
        jobs = [bytes(rng.integers(0, 256, 24, dtype=np.uint8)) for _ in range(n)]
        coded = encode(jobs, m, batch_id="rt")
        for sub in combinations(range(n + m), n):
            assert decode([coded[i] for i in sub]) == jobs, sub

    def test_linearity(self):
        rng = np.random.default_rng(5)
        a = [bytes(rng.integers(0, 256, 16, dtype=np.uint8)) for _ in range(3)]
        b = [bytes(rng.integers(0, 256, 16, dtype=np.uint8)) for _ in range(3)]
        ab = [bytes(x ^ y for x, y in zip(pa, pb)) for pa, pb in zip(a, b)]
        ca, cb, cab = (encode(js, 3) for js in (a, b, ab))
        for ja, jb, jab in zip(ca, cb, cab):
            assert jab.payload == bytes(x ^ y for x, y in zip(ja.payload, jb.payload))

    @pytest.mark.parametrize("field_order", [256, 65536])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_linear_servers_commute_with_decoding(self, scheme, field_order):
        # The paper's premise: a server's output is a field-linear map A of
        # its input, so any n served coded jobs decode to A applied to each
        # original job.  Here A is a random 6 x 10 matrix over the field.
        gf = GaloisField.get(field_order)
        dtype = np.uint8 if field_order == 256 else ">u2"
        rng = np.random.default_rng(field_order + SCHEMES.index(scheme))
        n, m = 3, 3
        A = rng.integers(0, field_order, (6, 10)).astype(np.int64)

        def serve(payload):
            symbols = np.frombuffer(payload, dtype).astype(np.int64)
            return gf.matmul(A, symbols[:, None])[:, 0].astype(dtype).tobytes()

        jobs = [rng.integers(0, field_order, 10).astype(dtype).tobytes() for _ in range(n)]
        coded = encode(jobs, m, scheme=scheme, seed=int(rng.integers(2**31)),
                       field_order=field_order)
        served = [replace(c, payload=serve(c.payload)) for c in coded]
        expected = [serve(job) for job in jobs]
        decoded = 0
        for sub in combinations(range(n + m), n):
            rows = np.stack([coded[i].coefficients for i in sub])
            if gf.solve(rows, np.eye(n, dtype=np.int64)) is None:
                # only a random-linear code can pick a singular subset
                assert scheme == "random-linear"
                continue
            assert decode([served[i] for i in sub]) == expected, sub
            decoded += 1
        assert decoded >= 19  # of the 20 subsets

    def test_random_linear_gf16_mostly_recoverable(self):
        rng = np.random.default_rng(6)
        jobs = [bytes(rng.integers(0, 256, 32, dtype=np.uint8)) for _ in range(4)]
        failures = 0
        for trial in range(300):
            coded = encode(jobs, 4, scheme="random-linear", seed=trial, field_order=65536)
            keep = rng.choice(8, 4, replace=False)
            try:
                assert decode([coded[i] for i in keep]) == jobs
            except DecodingError:
                failures += 1
        assert failures <= 2

    def test_retry_skips_singular_subset(self):
        # duplicate coefficient rows force the first subset to be singular
        jobs = [b"0123", b"4567"]
        coded = encode(jobs, 2)
        dup = CodedJob("batch", 9, coded[0].coefficients.copy(), coded[0].payload)
        assert decode([coded[0], dup, coded[1]]) == jobs

    def test_unrecoverable(self):
        jobs = [b"0123", b"4567"]
        coded = encode(jobs, 2)
        dup = CodedJob("batch", 9, coded[0].coefficients.copy(), coded[0].payload)
        with pytest.raises(DecodingError):
            decode([coded[0], dup])

    def test_errors(self):
        with pytest.raises(ValueError, match="equal length"):
            encode([b"abc", b"de"], 1)
        with pytest.raises(ValueError, match="no coded jobs"):
            decode([])
        coded = encode([b"abcd", b"efgh", b"ijkl"], 1)
        with pytest.raises(ValueError, match="at least"):
            decode(coded[:2])
        with pytest.raises(ValueError, match="even byte length"):
            encode([b"abc", b"def"], 1, field_order=65536)
