"""Scalar-vs-vector codec equivalence: golden vectors, hypothesis
properties, backend selection, and the zero-copy regression guard.

The scalar backend (:mod:`repro.gf.scalar`) is the oracle — tables
rebuilt from first principles, one field op per byte.  Every test here
demands the vectorised backend reproduce it byte-for-byte, so a silent
wire-format drift in the numpy kernels cannot survive CI.
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.chunking.cdc import ContentDefinedChunker
from repro.erasure.keyed import KeyedSharer
from repro.erasure.rs import BACKENDS, RSCodec, default_backend
from repro.errors import CodingError

GOLDEN = Path(__file__).parent / "data" / "golden_vectors.json"

params = st.tuples(st.integers(1, 5), st.integers(0, 4)).map(
    lambda tn: (tn[0], tn[0] + tn[1])
)

# odd sizes the vector path must pad identically: empty, single byte,
# and lengths straddling multiples of every small t
odd_sizes = st.one_of(
    st.sampled_from([0, 1, 2, 3, 5, 7, 11, 13]),
    st.integers(0, 400),
)


# ----------------------------------------------------------------------
# golden vectors (committed fixture, generated by the scalar codec)
# ----------------------------------------------------------------------


def _golden_cases():
    with open(GOLDEN) as fh:
        return json.load(fh)["cases"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_golden_vectors_reproduced(backend):
    """Both backends must regenerate the committed shares byte-for-byte."""
    for case in _golden_cases():
        data = bytes.fromhex(case["data_hex"])
        if case["key"] is None:
            codec = RSCodec(case["t"], case["n"], backend=backend)
        else:
            codec = KeyedSharer(
                case["key"], case["t"], case["n"], backend=backend
            ).codec
        shares = codec.encode(data)
        assert [bytes(s.data).hex() for s in shares] == case["shares_hex"]
        # the PR 6 per-share SHA-1 fingerprints are wire format too:
        # a codec change that altered them would strand every stored node
        assert [
            hashlib.sha1(s.data).hexdigest() for s in shares
        ] == case["share_sha1"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_golden_vectors_decode(backend):
    for case in _golden_cases():
        data = bytes.fromhex(case["data_hex"])
        codec = RSCodec(
            case["t"], case["n"], points=case["points"], backend=backend
        )
        shares = [
            # rebuild shares from the committed hex, not from encode()
            type(codec.encode(b"x")[0])(
                index=i, data=bytes.fromhex(h), t=case["t"], n=case["n"],
                chunk_size=len(data),
            )
            for i, h in enumerate(case["shares_hex"])
        ]
        assert codec.decode(shares[: case["t"]]) == data
        assert codec.decode(shares[-case["t"]:]) == data


# ----------------------------------------------------------------------
# hypothesis equivalence: scalar is the oracle
# ----------------------------------------------------------------------


@given(data=st.binary(min_size=0, max_size=2000), tn=params)
@settings(max_examples=60, deadline=None)
def test_encode_identical_across_backends(data, tn):
    t, n = tn
    vec = RSCodec(t, n, backend="vector").encode(data)
    sca = RSCodec(t, n, backend="scalar").encode(data)
    assert [bytes(s.data) for s in vec] == [bytes(s.data) for s in sca]


@given(data=st.binary(min_size=0, max_size=1500), tn=params,
       size=odd_sizes)
@settings(max_examples=50, deadline=None)
def test_odd_sizes_identical(data, tn, size):
    t, n = tn
    payload = (data * (size // max(1, len(data)) + 1))[:size] if data else b"\x00" * size
    vec = RSCodec(t, n, backend="vector").encode(payload)
    sca = RSCodec(t, n, backend="scalar").encode(payload)
    assert [bytes(s.data) for s in vec] == [bytes(s.data) for s in sca]


@given(data=st.binary(min_size=0, max_size=1200), tn=params,
       seed=st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_cross_backend_decode_roundtrip(data, tn, seed):
    """Shares from either backend decode on the other, for any t-subset."""
    import random

    t, n = tn
    rng = random.Random(seed)
    vec = RSCodec(t, n, backend="vector")
    sca = RSCodec(t, n, backend="scalar")
    shares = vec.encode(data)
    subset = rng.sample(shares, t)
    assert sca.decode(subset) == data
    subset2 = rng.sample(sca.encode(data), t)
    assert vec.decode(subset2) == data


@given(data=st.binary(min_size=0, max_size=1000),
       key=st.text(min_size=1, max_size=16), tn=params)
@settings(max_examples=40, deadline=None)
def test_keyed_mode_identical(data, key, tn):
    t, n = tn
    vec = KeyedSharer(key, t, n, backend="vector")
    sca = KeyedSharer(key, t, n, backend="scalar")
    vs, ss = vec.split(data), sca.split(data)
    assert [bytes(s.data) for s in vs] == [bytes(s.data) for s in ss]
    # share-loss subsets: drop down to exactly t shares, both join paths
    for combo in itertools.islice(itertools.combinations(vs, t), 3):
        assert sca.join(list(combo)) == data
    for combo in itertools.islice(itertools.combinations(ss, t), 3):
        assert vec.join(list(combo)) == data


@given(data=st.binary(min_size=1, max_size=800), tn=params,
       seed=st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_encode_rows_identical(data, tn, seed):
    import random

    t, n = tn
    idx = random.Random(seed).sample(range(n), random.Random(seed + 1).randint(1, n))
    vec = RSCodec(t, n, backend="vector").encode_rows(data, idx)
    sca = RSCodec(t, n, backend="scalar").encode_rows(data, idx)
    assert [bytes(s.data) for s in vec] == [bytes(s.data) for s in sca]


# ----------------------------------------------------------------------
# the GF(2^8) row-table kernel itself: scalar matmul_rows is the oracle
# ----------------------------------------------------------------------

_KBLOCK = 61  # patched gfvec._BLOCK: awkward, and small enough for the oracle

# 0 and 1 are the kernel's special cases (no op / a bare xor or alias)
_coeff = st.one_of(st.sampled_from([0, 1]), st.integers(0, 255))


def _layout(stripes, layout):
    """``stripes`` as the kernel's three kinds of input rows."""
    import numpy as np

    if layout == "matrix":  # the (t, L) array encode passes
        return np.frombuffer(b"".join(stripes), dtype=np.uint8).reshape(
            len(stripes), -1
        )
    if layout == "memoryviews":  # what the stack-free decode passes
        return [memoryview(s) for s in stripes]
    # non-contiguous rows: every other byte of a wider buffer
    return [
        np.frombuffer(bytes(b for x in s for b in (x, 0xAA)), dtype=np.uint8)[::2]
        for s in stripes
    ]


@st.composite
def _matmul_case(draw):
    t = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 6))  # rows > t is what encode does
    matrix = [[draw(_coeff) for _ in range(t)] for _ in range(rows)]
    if draw(st.booleans()):
        matrix[draw(st.integers(0, rows - 1))] = [0] * t  # an all-zero row
    length = draw(
        st.sampled_from([1, _KBLOCK - 1, _KBLOCK, _KBLOCK + 1, 3 * _KBLOCK + 7])
    )
    stripes = [draw(st.binary(min_size=length, max_size=length)) for _ in range(t)]
    layout = draw(st.sampled_from(["matrix", "memoryviews", "strided"]))
    return matrix, stripes, layout


@given(case=_matmul_case())
@settings(max_examples=120, deadline=None)
def test_vector_matmul_matches_scalar_oracle(case):
    from unittest import mock

    import numpy as np

    from repro.gf import scalar as gfscalar
    from repro.gf import vector as gfvec

    matrix, stripes, layout = case
    with mock.patch.object(gfvec, "_BLOCK", _KBLOCK):
        got = gfvec.matmul(np.array(matrix, dtype=np.uint8),
                           _layout(stripes, layout))
    assert got.flags.c_contiguous and got.dtype == np.uint8
    expected = gfscalar.matmul_rows(matrix, stripes)
    assert [bytes(r) for r in got] == [bytes(r) for r in expected]


def test_vector_matmul_at_the_real_block_seam():
    import random

    import numpy as np

    from repro.gf import scalar as gfscalar
    from repro.gf import vector as gfvec

    rng = random.Random(3)
    matrix = [[1, 0], [1, 7], [0, 0], [200, 1]]
    stripes = [rng.randbytes(gfvec._BLOCK + 1) for _ in range(2)]
    got = gfvec.matmul(np.array(matrix, dtype=np.uint8), stripes)
    expected = gfscalar.matmul_rows(matrix, stripes)
    assert [bytes(r) for r in got] == [bytes(r) for r in expected]


def test_vector_matmul_rejects_ragged_rows():
    import numpy as np

    from repro.gf import vector as gfvec

    with pytest.raises(ValueError):
        gfvec.matmul(np.ones((2, 2), dtype=np.uint8), [b"abc", b"ab"])
    with pytest.raises(ValueError):
        gfvec.matmul(np.ones((2, 3), dtype=np.uint8), [b"abc", b"abc"])


# ----------------------------------------------------------------------
# the elimination program: decode by row operations, scalar oracle
# ----------------------------------------------------------------------


def _invertible(matrix) -> bool:
    from repro.gf import scalar as gfscalar

    try:
        gfscalar.mat_inv(matrix)
    except ValueError:
        return False
    return True


@st.composite
def _elimination_case(draw):
    t = draw(st.integers(1, 5))
    matrix = [[draw(_coeff) for _ in range(t)] for _ in range(t)]
    if t > 1 and draw(st.booleans()):
        matrix[0][0] = 0  # the first column needs a pivot swap
    length = draw(
        st.sampled_from([1, _KBLOCK - 1, _KBLOCK, _KBLOCK + 1, 3 * _KBLOCK + 7])
    )
    stripes = [draw(st.binary(min_size=length, max_size=length)) for _ in range(t)]
    layout = draw(st.sampled_from(["matrix", "memoryviews", "strided"]))
    return matrix, stripes, layout


@given(case=_elimination_case())
@settings(max_examples=120, deadline=None)
def test_elimination_program_inverts_the_scalar_oracle(case):
    """Shares made by the oracle's matmul solve back to the stripes."""
    from unittest import mock

    from hypothesis import assume

    from repro.gf import scalar as gfscalar
    from repro.gf import vector as gfvec

    matrix, stripes, layout = case
    assume(_invertible(matrix))
    shares = [bytes(r) for r in gfscalar.matmul_rows(matrix, stripes)]
    program = gfvec.elimination_program(matrix)
    with mock.patch.object(gfvec, "_BLOCK", _KBLOCK):
        got = gfvec.run(program, _layout(shares, layout))
    assert got.flags.c_contiguous and got.shape == (len(stripes), len(stripes[0]))
    assert [bytes(r) for r in got] == stripes


def test_elimination_program_swaps_pivots_at_the_real_block_seam():
    import random

    from repro.gf import scalar as gfscalar
    from repro.gf import vector as gfvec

    rng = random.Random(5)
    matrix = [[0, 3, 1], [1, 0, 0], [7, 1, 0]]  # zero leading entry
    stripes = [rng.randbytes(gfvec._BLOCK + 1) for _ in range(3)]
    shares = [bytes(r) for r in gfscalar.matmul_rows(matrix, stripes)]
    got = gfvec.run(gfvec.elimination_program(matrix), shares)
    assert [bytes(r) for r in got] == stripes


@pytest.mark.parametrize("matrix", [
    [[1, 2], [1, 2]],
    [[0, 5], [0, 9]],
    [[1, 2, 3], [4, 5, 6], [5, 7, 5]],  # row 3 = row 1 ^ row 2
    [[0]],
])
def test_elimination_program_rejects_singular_matrices(matrix):
    from repro.gf import vector as gfvec

    with pytest.raises(CodingError, match="singular share submatrix"):
        gfvec.elimination_program(matrix)


@pytest.mark.parametrize("tn", [(1, 1), (2, 3), (3, 5), (4, 6), (5, 9)])
def test_every_t_subset_decodes_like_the_oracle(tn):
    """Every t-subset of keyed shares, at lengths around t and across
    several patched blocks: the vector decode equals the input and the
    scalar backend's decode."""
    from unittest import mock

    from repro.gf import vector as gfvec

    t, n = tn
    vec = KeyedSharer("subset-key", t, n, backend="vector")
    sca = KeyedSharer("subset-key", t, n, backend="scalar")
    for length in (0, 1, t - 1, t + 1, t * (2 * _KBLOCK + 5) + 3):
        data = bytes((7 * i + length) % 256 for i in range(length))
        shares = sca.split(data)
        with mock.patch.object(gfvec, "_BLOCK", _KBLOCK):
            for combo in itertools.combinations(shares, t):
                assert vec.join(list(combo)) == data == sca.join(list(combo))


# ----------------------------------------------------------------------
# row passes: the codec_row_passes count budget
# ----------------------------------------------------------------------


ROW_PASSES = json.loads(
    (Path(__file__).parent / "data" / "op_budget.json").read_text()
)["codec_row_passes"]


class _CountingNumpy:
    """Stands in for ``np`` inside :mod:`repro.gf.vector`, counting the
    interpreter's ``take`` (lookup) and ``bitwise_xor`` passes."""

    def __init__(self):
        import numpy

        self._np = numpy
        self.passes = {"lookups": 0, "xors": 0}

    def __getattr__(self, name):
        return getattr(self._np, name)

    def take(self, *args, **kwargs):
        self.passes["lookups"] += 1
        return self._np.take(*args, **kwargs)

    def bitwise_xor(self, *args, **kwargs):
        self.passes["xors"] += 1
        return self._np.bitwise_xor(*args, **kwargs)


@pytest.fixture
def row_passes(monkeypatch):
    from repro.gf import vector as gfvec

    spy = _CountingNumpy()
    monkeypatch.setattr(gfvec, "np", spy)

    def measure(op):
        spy.passes.update(lookups=0, xors=0)
        op()
        return dict(spy.passes)

    return measure


@pytest.mark.parametrize("tn", [(2, 3), (3, 5)])
def test_decode_row_passes_per_subset(row_passes, tn):
    t, n = tn
    sharer = KeyedSharer(ROW_PASSES["key"], t, n, backend="vector")
    shares = sharer.split(bytes(range(256)) * 4)  # one block per row
    budget = ROW_PASSES[f"decode_{t}_{n}"]
    for combo in itertools.combinations(shares, t):
        assert row_passes(lambda: sharer.join(list(combo))) == budget, combo


def test_encode_row_passes(row_passes):
    sharer = KeyedSharer(ROW_PASSES["key"], 2, 3, backend="vector")
    assert row_passes(lambda: sharer.split(bytes(1000))) == ROW_PASSES["encode_2_3"]


@pytest.mark.parametrize("keyed", [False, True])
def test_elimination_never_looks_up_more_than_the_inverse(keyed):
    """Over every t-subset at (t, t + 1), t <= 10 (Figure 12's sweep),
    the program's lookups (one per op with c != 1) are at most the
    dense inverse's coefficients other than 0 and 1: a decode can never
    get slower than multiplying by the inverse."""
    from repro.gf import scalar as gfscalar
    from repro.gf import vector as gfvec

    for t in range(1, 11):
        codec = (KeyedSharer(ROW_PASSES["key"], t, t + 1).codec if keyed
                 else RSCodec(t, t + 1))
        rows = gfscalar.vandermonde_rows(codec._points, t)
        for subset in itertools.combinations(rows, t):
            ops = gfvec.elimination_program(subset).ops
            inverse = gfscalar.mat_inv(subset)
            dense = sum(1 for row in inverse for c in row if c not in (0, 1))
            assert sum(1 for *_, c in ops if c != 1) <= dense


# ----------------------------------------------------------------------
# cut points: the skip loop vs the full candidate list
# ----------------------------------------------------------------------


def _all_candidates(chunker, data):
    """Every candidate cut point of ``data``, from the chunker's per-slice
    hash run over the whole buffer as one slice."""
    import numpy as np

    if len(data) < chunker.window:
        return []
    hits = chunker._window_hits(np.frombuffer(data, dtype=np.uint8))
    return (hits + chunker.window).tolist()


@given(data=st.binary(min_size=0, max_size=6000),
       window=st.sampled_from([4, 8, 16, 32]),
       avg=st.sampled_from([64, 256, 1024]))
@settings(max_examples=40, deadline=None)
def test_rabin_cut_points_identical(data, window, avg):
    kw = dict(min_size=16, avg_size=avg, max_size=8192, window=window)
    ref = ContentDefinedChunker(engine="reference", **kw)
    vec = ContentDefinedChunker(engine="rabin", **kw)
    assert ref._candidates_reference(data) == _all_candidates(vec, data)
    assert ref.boundaries(data) == vec.boundaries(data)


def test_rabin_cut_points_across_block_boundaries(monkeypatch):
    """The slice loop must carry windows across slice seams."""
    import random

    import repro.chunking.cdc as cdc

    monkeypatch.setattr(cdc, "_BLOCK", 257)  # awkward, non-power-of-two
    data = random.Random(9).randbytes(20_000)
    for avg in (64, 1024):  # several cuts per slice / several slices per cut
        kw = dict(min_size=16, avg_size=avg, max_size=2048, window=16)
        ref = ContentDefinedChunker(engine="reference", **kw)
        vec = ContentDefinedChunker(engine="rabin", **kw)
        assert ref.boundaries(data) == vec.boundaries(data)


def _direct_candidates(chunker, data):
    """O(n*w) evaluation of the vectorized engine's windowed hash:
    h(i) = sum_j table[data[i-j]] * a^j mod 2^32 over the w bytes ending
    at i; a cut follows byte i when the top log2(M) bits equal K."""
    from repro.chunking import cdc

    w, table = chunker.window, [int(x) for x in chunker._table]
    powers = [pow(cdc._MULTIPLIER, j, 1 << 32) for j in range(w)]
    out = []
    for i in range(w - 1, len(data)):
        h = sum(table[data[i - j]] * powers[j] for j in range(w)) & 0xFFFFFFFF
        if h >> (32 - chunker._bits) == chunker._target:
            out.append(i + 1)
    return out


@given(blocks=st.integers(0, 4), delta=st.integers(-16, 16),
       window=st.sampled_from([2, 3, 5, 16, 17]), seed=st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_vectorized_candidates_across_block_seams(blocks, delta, window, seed):
    """Every length k*block + {-w..+w} under an awkward block size: the
    doubling-step slice hash must equal the direct windowed hash, and the
    slice loop (min_size below the window, so it hashes every window)
    must cut exactly where the full candidate list does."""
    import random
    from unittest import mock

    import repro.chunking.cdc as cdc
    from repro.chunking.cdc import select_boundaries

    delta = max(-window, min(window, delta))
    data = random.Random(seed).randbytes(max(0, blocks * 257 + delta))
    chunker = ContentDefinedChunker(
        min_size=1, avg_size=32, max_size=2048, window=window
    )
    direct = _direct_candidates(chunker, data)
    assert _all_candidates(chunker, data) == direct
    with mock.patch.object(cdc, "_BLOCK", 257):
        got = chunker.boundaries(data)
    assert got == select_boundaries(direct, len(data), 1, 2048)


def _oracle_candidates(chunker, data):
    """Every candidate cut point, by an O(n*w) numpy evaluation of the
    engine's window hash over the whole buffer, independent of the slice
    hash: a weighted sum of byte-table values (vectorized) or full uint64
    Rabin residues, masked afterwards (rabin; the residues are checked
    against the byte-at-a-time reference below)."""
    import numpy as np

    from repro.chunking import cdc
    from repro.chunking.rabin_vec import VectorRabin

    w, buf = chunker.window, np.frombuffer(data, dtype=np.uint8)
    if buf.size < w:
        return []
    if chunker.engine == "rabin":
        fps = VectorRabin(window=w).fingerprints(buf)
        hit = (fps & np.uint64(chunker._mask)) == np.uint64(chunker._target)
    else:
        vals = chunker._table[buf]
        h = np.zeros(buf.size - w + 1, dtype=np.uint32)
        for j in range(w):  # the byte j before a window's end weighs a^j
            h += vals[w - 1 - j : buf.size - j] * np.uint32(
                pow(cdc._MULTIPLIER, j, 1 << 32)
            )
        hit = h >> np.uint32(32 - chunker._bits) == chunker._target
    return (np.flatnonzero(hit) + w).tolist()


_SEAM = 257  # patched cdc._BLOCK


@st.composite
def _cut_loop_case(draw):
    import random

    engine = draw(st.sampled_from(["vectorized", "rabin"]))
    window = draw(st.sampled_from([2, 3, 5, 16, 17, 48]))
    avg = draw(st.sampled_from([4, 16, 64, 256, 1024]))
    min_size = draw(st.one_of(st.integers(1, min(window, avg)),
                              st.integers(1, avg)))
    max_size = draw(st.integers(avg, 4 * avg))
    length = max(0, draw(st.one_of(
        st.sampled_from([min_size - 1, min_size, min_size + 1,
                         max_size - 1, max_size, max_size + 1]),
        st.tuples(st.integers(1, 6), st.integers(-window, window)).map(
            lambda kd: kd[0] * _SEAM + kd[1]),
        st.integers(0, 4000),
    )))
    kind = draw(st.sampled_from(["random", "zeros", "zero-run"]))
    rng = random.Random(draw(st.integers(0, 2**31)))
    if kind == "zeros":
        data = bytes(length)
    elif kind == "zero-run":
        third = length // 3
        data = rng.randbytes(third) + bytes(third) + rng.randbytes(length - 2 * third)
    else:
        data = rng.randbytes(length)
    return engine, dict(min_size=min_size, avg_size=avg, max_size=max_size,
                        window=window), data


@given(case=_cut_loop_case())
@settings(max_examples=150, deadline=None)
def test_cut_loop_matches_full_candidate_list(case):
    """For both vectorised engines, the skip loop's cuts are the min/max
    filter applied to every candidate: windows wider than min_size,
    all-zero runs that force max cuts, lengths at min/max and at the
    slice seams of a patched block of 257."""
    from unittest import mock

    import repro.chunking.cdc as cdc
    from repro.chunking.cdc import select_boundaries

    engine, kw, data = case
    chunker = ContentDefinedChunker(engine=engine, **kw)
    expected = select_boundaries(
        _oracle_candidates(chunker, data), len(data),
        kw["min_size"], kw["max_size"],
    )
    with mock.patch.object(cdc, "_BLOCK", _SEAM):
        assert chunker.boundaries(data) == expected


@pytest.mark.slow
def test_cut_loop_wide_sweep():
    """Over 2,000 configs on MiB-scale buffers (random, a long zero run,
    low entropy) and prefixes of them, both engines, at the real block
    size: every cut list is the filtered full candidate list."""
    import random

    from repro.chunking.cdc import select_boundaries

    rng = random.Random(0x5EEB)
    mib = 1 << 20
    buffers = [
        rng.randbytes(mib),
        rng.randbytes(mib // 4) + bytes(mib // 2) + rng.randbytes(mib // 4),
        bytes(rng.choice(b"ab") for _ in range(mib // 2)),
    ]
    avgs = (256, 4096, 65536)
    configs = 0
    for engine, windows, budget in (("vectorized", [2, 3, 5, 16, 17, 48], 1500),
                                    ("rabin", [2, 3, 5], 600)):
        per_case = budget // (len(windows) * len(avgs) * len(buffers))
        for window in windows:
            for avg in avgs:
                for data in buffers:
                    probe = ContentDefinedChunker(
                        engine=engine, window=window,
                        min_size=1, avg_size=avg, max_size=avg,
                    )
                    candidates = _oracle_candidates(probe, data)
                    for _ in range(per_case):
                        min_size = rng.randint(1, avg)
                        max_size = rng.randint(avg, 16 * avg)
                        n = rng.choice([len(data), rng.randint(0, len(data))])
                        chunker = ContentDefinedChunker(
                            engine=engine, window=window, min_size=min_size,
                            avg_size=avg, max_size=max_size,
                        )
                        expected = select_boundaries(
                            [c for c in candidates if c < n], n,
                            min_size, max_size,
                        )
                        got = chunker.boundaries(memoryview(data)[:n])
                        assert got == expected, (engine, window, avg,
                                                 min_size, max_size, n)
                        configs += 1
    assert configs >= 2000


def test_vector_rabin_full_fingerprints_match_reference():
    import random

    from repro.chunking.rabin import RabinFingerprint
    from repro.chunking.rabin_vec import VectorRabin

    data = random.Random(4).randbytes(300)
    w = 16
    ref = RabinFingerprint(window=w)
    expected = []
    for i, b in enumerate(data):
        fp = ref.push(b)
        if i >= w - 1:
            expected.append(fp)
    got = VectorRabin(window=w).fingerprints(data)
    assert list(got) == expected


# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------


def test_default_backend_env(monkeypatch):
    monkeypatch.delenv("CYRUS_NO_NUMPY_ACCEL", raising=False)
    assert default_backend() == "vector"
    monkeypatch.setenv("CYRUS_NO_NUMPY_ACCEL", "1")
    assert default_backend() == "scalar"
    monkeypatch.setenv("CYRUS_NO_NUMPY_ACCEL", "0")
    assert default_backend() == "vector"


def test_codec_uses_env_backend(monkeypatch):
    monkeypatch.setenv("CYRUS_NO_NUMPY_ACCEL", "1")
    assert RSCodec(2, 3).backend == "scalar"
    monkeypatch.delenv("CYRUS_NO_NUMPY_ACCEL")
    assert RSCodec(2, 3).backend == "vector"


def test_get_sharer_cache_tracks_backend(monkeypatch):
    from repro.core.uploader import get_sharer

    monkeypatch.delenv("CYRUS_NO_NUMPY_ACCEL", raising=False)
    assert get_sharer("k", 2, 3).codec.backend == "vector"
    monkeypatch.setenv("CYRUS_NO_NUMPY_ACCEL", "1")
    assert get_sharer("k", 2, 3).codec.backend == "scalar"


# ----------------------------------------------------------------------
# zero-copy regression guard
# ----------------------------------------------------------------------


def test_vector_shares_are_memoryviews_not_copies():
    """The hot path hands out ndarray-backed memoryviews, not bytes.

    This is the regression guard the ISSUE asks for: if someone
    reintroduces a ``.tobytes()``/``bytes()`` copy per share in the
    encode path, this type check fails.
    """
    shares = RSCodec(2, 4, backend="vector").encode(b"x" * 1000)
    for s in shares:
        assert isinstance(s.data, memoryview), type(s.data)
        # still equality-comparable and hashable at the byte level
        assert s.data == bytes(s.data)
        assert hashlib.sha1(s.data).hexdigest()


def test_chunker_slices_are_memoryviews():
    data = b"y" * 50_000
    for engine in ("vectorized", "rabin", "reference"):
        chunker = ContentDefinedChunker(
            min_size=256, avg_size=1024, max_size=8192, engine=engine
        )
        chunks = chunker.chunk_bytes(data)
        assert chunks, engine
        for c in chunks:
            assert isinstance(c.data, memoryview), (engine, type(c.data))
        assert b"".join(c.data for c in chunks) == data


def test_transfer_op_payload_is_the_encoded_buffer():
    """chunk -> encode -> TransferOp payload without an intermediate copy.

    The op's resolved data must be the *same object* share_data cached
    (no defensive copies between the encoder and the engine); the only
    copy happens at the provider storage boundary, which simulates the
    network send.
    """
    from repro.core.transfer import OpKind, TransferOp
    from repro.core.uploader import _ChunkPlan, get_sharer
    from repro.chunking.chunk import Chunk

    chunk = Chunk.from_data(memoryview(b"z" * 4096))
    plan = _ChunkPlan(chunk=chunk, t=2, n=3)
    payload = plan.share_data("k", 1)
    op = TransferOp(
        kind=OpKind.PUT, csp_id="c", name="o",
        data_fn=lambda: plan.share_data("k", 1),
    )
    assert op.resolve_data() is payload
    # and that payload is a zero-copy view of the codec's output matrix
    sharer = get_sharer("k", 2, 3)
    if sharer.codec.backend == "vector":
        assert isinstance(payload, memoryview)
