"""Codec-vs-oracle equivalence: golden vectors, hypothesis properties,
and the zero-copy regression guard.

The oracle is :mod:`repro.gf.scalar` — tables rebuilt from first
principles, one field op per byte.  Encoding there is the Vandermonde
rows times the stripes (``matmul_rows``), decoding is the dense inverse
of the chosen shares' rows (``mat_inv``).  Every test here demands the
numpy codec reproduce it byte-for-byte, so a silent wire-format drift
in the kernels cannot survive CI.
"""

import functools
import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.chunking.cdc import ContentDefinedChunker
from repro.erasure.keyed import KeyedSharer, derive_dispersal_points
from repro.erasure.rs import RSCodec
from repro.erasure.share import Share
from repro.errors import CodingError
from repro.gf import scalar as gfscalar

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


def _oracle_encode(points, t, data, indices=None) -> list[bytes]:
    """Share payloads by the oracle: Vandermonde rows times the stripes."""
    rows = gfscalar.vandermonde_rows(points, t)
    if indices is not None:
        rows = [rows[i] for i in indices]
    stripes = gfscalar.stripe_rows(data, t)
    return [bytes(row) for row in gfscalar.matmul_rows(rows, stripes)]


def _oracle_shares(points, t, data) -> list[Share]:
    return [
        Share(index=i, data=payload, t=t, n=len(points), chunk_size=len(data))
        for i, payload in enumerate(_oracle_encode(points, t, data))
    ]


def _oracle_decode(points, t, shares) -> bytes:
    """Chunk bytes by the oracle: the inverse of the ``t`` shares' rows."""
    rows = gfscalar.vandermonde_rows(points, t)
    inverse = gfscalar.mat_inv([rows[s.index] for s in shares])
    stripes = gfscalar.matmul_rows(inverse, [bytes(s.data) for s in shares])
    return b"".join(bytes(row) for row in stripes)[: shares[0].chunk_size]


def _payloads(shares) -> list[bytes]:
    return [bytes(s.data) for s in shares]


# ----------------------------------------------------------------------
# golden vectors (committed fixture): the codec and the oracle both
# ----------------------------------------------------------------------


def _golden_cases():
    with open(GOLDEN) as fh:
        return json.load(fh)["cases"]


def _golden_points(case) -> list[int]:
    if case["key"] is None:
        points = list(range(1, case["n"] + 1))
    else:
        points = derive_dispersal_points(case["key"], case["n"])
    assert points == case["points"]
    return points


@pytest.mark.parametrize("impl", ["vector", "scalar"])
def test_golden_vectors_reproduced(impl):
    """The codec and the oracle both regenerate the committed shares
    byte-for-byte, so neither can drift without the fixture noticing."""
    for case in _golden_cases():
        data = bytes.fromhex(case["data_hex"])
        t = case["t"]
        if impl == "scalar":
            payloads = _oracle_encode(_golden_points(case), t, data)
        elif case["key"] is None:
            payloads = _payloads(RSCodec(t, case["n"]).encode(data))
        else:
            payloads = _payloads(KeyedSharer(case["key"], t, case["n"]).split(data))
        assert [p.hex() for p in payloads] == case["shares_hex"]
        # the PR 6 per-share SHA-1 fingerprints are wire format too:
        # a codec change that altered them would strand every stored node
        assert [
            hashlib.sha1(p).hexdigest() for p in payloads
        ] == case["share_sha1"]


@pytest.mark.parametrize("impl", ["vector", "scalar"])
def test_golden_vectors_decode(impl):
    for case in _golden_cases():
        data = bytes.fromhex(case["data_hex"])
        t, points = case["t"], case["points"]
        shares = [
            # rebuild shares from the committed hex, not from encode()
            Share(index=i, data=bytes.fromhex(h), t=t, n=case["n"],
                  chunk_size=len(data))
            for i, h in enumerate(case["shares_hex"])
        ]
        if impl == "scalar":
            decode = functools.partial(_oracle_decode, points, t)
        else:
            decode = RSCodec(t, case["n"], points=points).decode
        assert decode(shares[:t]) == data
        assert decode(shares[-t:]) == data


# ----------------------------------------------------------------------
# hypothesis equivalence: scalar is the oracle
# ----------------------------------------------------------------------


@given(data=st.binary(min_size=0, max_size=2000), tn=params)
@settings(max_examples=60, deadline=None)
def test_encode_identical_across_backends(data, tn):
    t, n = tn
    got = _payloads(RSCodec(t, n).encode(data))
    assert got == _oracle_encode(range(1, n + 1), t, data)


@given(data=st.binary(min_size=0, max_size=1500), tn=params,
       size=odd_sizes)
@settings(max_examples=50, deadline=None)
def test_odd_sizes_identical(data, tn, size):
    t, n = tn
    payload = (data * (size // max(1, len(data)) + 1))[:size] if data else b"\x00" * size
    got = _payloads(RSCodec(t, n).encode(payload))
    assert got == _oracle_encode(range(1, n + 1), t, payload)


@given(data=st.binary(min_size=0, max_size=1200), tn=params,
       seed=st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_cross_backend_decode_roundtrip(data, tn, seed):
    """Codec shares decode on the oracle and oracle shares on the codec,
    for any t-subset."""
    import random

    t, n = tn
    rng = random.Random(seed)
    points = list(range(1, n + 1))
    codec = RSCodec(t, n)
    subset = rng.sample(codec.encode(data), t)
    assert _oracle_decode(points, t, subset) == data
    subset2 = rng.sample(_oracle_shares(points, t, data), t)
    assert codec.decode(subset2) == data


@given(data=st.binary(min_size=0, max_size=1000),
       key=st.text(min_size=1, max_size=16), tn=params)
@settings(max_examples=40, deadline=None)
def test_keyed_mode_identical(data, key, tn):
    t, n = tn
    points = derive_dispersal_points(key, n)
    sharer = KeyedSharer(key, t, n)
    vs, ss = sharer.split(data), _oracle_shares(points, t, data)
    assert _payloads(vs) == _payloads(ss)
    # share-loss subsets: drop down to exactly t shares, both join paths
    for combo in itertools.islice(itertools.combinations(vs, t), 3):
        assert _oracle_decode(points, t, list(combo)) == data
    for combo in itertools.islice(itertools.combinations(ss, t), 3):
        assert sharer.join(list(combo)) == data


@given(data=st.binary(min_size=1, max_size=800), tn=params,
       seed=st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_encode_rows_identical(data, tn, seed):
    import random

    t, n = tn
    idx = random.Random(seed).sample(range(n), random.Random(seed + 1).randint(1, n))
    got = RSCodec(t, n).encode_rows(data, idx)
    assert [s.index for s in got] == idx
    assert _payloads(got) == _oracle_encode(range(1, n + 1), t, data, idx)


def test_mul_table_matches_the_oracle():
    """``MUL_TABLE`` is the only table the kernel reads: all 65,536
    products against the oracle's log/exp multiply."""
    from repro.gf.tables import MUL_TABLE

    expected = [[gfscalar.mul(a, b) for b in range(256)] for a in range(256)]
    assert MUL_TABLE.tolist() == expected


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
    several patched blocks: the codec's decode equals the input and the
    oracle's decode."""
    from unittest import mock

    from repro.gf import vector as gfvec

    t, n = tn
    sharer = KeyedSharer("subset-key", t, n)
    points = derive_dispersal_points("subset-key", n)
    for length in (0, 1, t - 1, t + 1, t * (2 * _KBLOCK + 5) + 3):
        data = bytes((7 * i + length) % 256 for i in range(length))
        shares = _oracle_shares(points, t, data)
        with mock.patch.object(gfvec, "_BLOCK", _KBLOCK):
            for combo in itertools.combinations(shares, t):
                subset = list(combo)
                assert sharer.join(subset) == data == _oracle_decode(
                    points, t, subset
                )


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
    sharer = KeyedSharer(ROW_PASSES["key"], t, n)
    shares = sharer.split(bytes(range(256)) * 4)  # one block per row
    budget = ROW_PASSES[f"decode_{t}_{n}"]
    for combo in itertools.combinations(shares, t):
        assert row_passes(lambda: sharer.join(list(combo))) == budget, combo


def test_encode_row_passes(row_passes):
    sharer = KeyedSharer(ROW_PASSES["key"], 2, 3)
    assert row_passes(lambda: sharer.split(bytes(1000))) == ROW_PASSES["encode_2_3"]


@pytest.mark.parametrize("keyed", [False, True])
def test_elimination_never_looks_up_more_than_the_inverse(keyed):
    """Over every t-subset at (t, t + 1), t <= 10 (Figure 12's sweep),
    the program's lookups (one per op with c != 1) are at most the
    dense inverse's coefficients other than 0 and 1: a decode can never
    get slower than multiplying by the inverse."""
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
# pair tables: rows of at least one real block, two bytes per lookup
# ----------------------------------------------------------------------


PAIR_TABLES = json.loads(
    (Path(__file__).parent / "data" / "op_budget.json").read_text()
)["codec_pair_tables"]


@pytest.fixture
def pair_tables(monkeypatch):
    """An empty pair-table cache for the test; the process's comes back
    after it."""
    from repro.gf import vector as gfvec

    tables = {}
    monkeypatch.setattr(gfvec, "_PAIR_TABLES", tables)
    return tables


def test_pair_tables_match_the_oracle(pair_tables):
    """Every coefficient's pair table, read as the byte pairs it maps,
    against the oracle's multiply on all 65,536 pairs."""
    import numpy as np

    from repro.gf import vector as gfvec

    oracle = np.array([[gfscalar.mul(a, b) for b in range(256)]
                       for a in range(256)], dtype=np.uint8)
    # row v: the two bytes of uint16 index v, in memory order
    pairs = np.arange(1 << 16, dtype=np.uint16).view(np.uint8).reshape(-1, 2)
    for c in range(256):
        table = gfvec._pair_table(c)
        assert table.dtype == np.uint16 and not table.flags.writeable
        assert np.array_equal(table.view(np.uint8).reshape(-1, 2),
                              oracle[c][pairs]), c
    assert len(pair_tables) == 256


def _pair_layout(stripes, layout):
    """``stripes`` as contiguous, odd-address or strided input rows."""
    import numpy as np

    if layout == "unaligned":  # every row's uint16 view is unaligned
        return [np.frombuffer(b"\0" + s, dtype=np.uint8)[1:] for s in stripes]
    if layout == "strided":  # every other byte of a wider buffer
        rows = np.full((len(stripes), 2 * len(stripes[0])), 0xAA, np.uint8)
        rows[:, ::2] = [np.frombuffer(s, dtype=np.uint8) for s in stripes]
        return list(rows[:, ::2])
    return _layout(stripes, "matrix")  # odd lengths: odd rows start odd


@pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (3, 1)])
def test_pair_table_rows_match_the_oracle(pair_tables, blocks, extra):
    """Lengths around the real block seam, an odd last byte, rows at odd
    addresses and strided rows: encode equals the oracle's matmul and
    an elimination with a scale op solves back, and only rows of at
    least one block build pair tables."""
    import numpy as np

    from repro.gf import vector as gfvec

    length = blocks * gfvec._BLOCK + extra
    rng = random.Random(length)
    matrix = [[1, 0], [1, 7], [0, 0], [200, 1], [3, 5]]
    stripes = [rng.randbytes(length) for _ in range(2)]
    expected = [bytes(r) for r in gfscalar.matmul_rows(matrix, stripes)]
    solve = gfvec.elimination_program([matrix[4], matrix[1]])  # pivot 3
    assert any(i == j for i, j, _ in solve.ops)
    for layout in ("matrix", "unaligned", "strided"):
        got = gfvec.matmul(np.array(matrix, dtype=np.uint8),
                           _pair_layout(stripes, layout))
        assert [bytes(r) for r in got] == expected, layout
        shares = _pair_layout([expected[4], expected[1]], layout)
        assert [bytes(r) for r in gfvec.run(solve, shares)] == stripes, layout
    assert bool(pair_tables) == (length >= gfvec._BLOCK)


@pytest.mark.parametrize("tn", [(2, 3), (3, 5)])
def test_pair_table_round_trip_every_subset(pair_tables, tn):
    """An odd-length chunk whose rows are two blocks and a byte:
    encode, then decode from every t-subset, exact."""
    from repro.gf import vector as gfvec

    t, n = tn
    data = random.Random(t).randbytes(2 * gfvec._BLOCK * t + 1)
    sharer = KeyedSharer(ROW_PASSES["key"], t, n)
    shares = sharer.split(data)
    for combo in itertools.combinations(shares, t):
        assert sharer.join(list(combo)) == data, [s.index for s in combo]
    assert pair_tables


def test_pair_table_footprint(pair_tables, row_passes):
    """The tables a 4 MiB put and get hold, none for a small file, and
    on pair-table rows the row passes of codec_row_passes per block."""
    from repro.core.client import CyrusClient
    from repro.core.config import CyrusConfig
    from repro.csp.memory import InMemoryCSP
    from repro.gf import vector as gfvec

    def held():
        return {"tables": len(pair_tables),
                "bytes": sum(t.nbytes for t in pair_tables.values())}

    client = CyrusClient.create(
        [InMemoryCSP(f"csp{i}") for i in range(4)],
        CyrusConfig(key=PAIR_TABLES["key"], t=2, n=3),
    )
    try:
        small = random.Random(96 << 10).randbytes(96 << 10)
        client.put("small.bin", small)
        assert client.get("small.bin").data == small
        assert held() == PAIR_TABLES["put_get_96kib"]
        large = random.Random(4 << 20).randbytes(4 << 20)
        client.put("large.bin", large)
        assert held() == PAIR_TABLES["put_4mib"]
        assert client.get("large.bin").data == large
        assert held() == PAIR_TABLES["put_get_4mib"]
    finally:
        client.close()
    assert {t.nbytes for t in pair_tables.values()} == {
        PAIR_TABLES["table_bytes"]}

    sharer = KeyedSharer(ROW_PASSES["key"], 2, 3)
    block = gfvec._BLOCK
    for blocks, row in ((1, block), (2, block + 1)):  # one odd last byte
        shares = sharer.split(random.Random(row).randbytes(2 * row))
        encode, decode = (
            {k: blocks * v for k, v in ROW_PASSES[op].items()}
            for op in ("encode_2_3", "decode_2_3"))
        assert row_passes(lambda: sharer.split(bytes(2 * row))) == encode
        for combo in itertools.combinations(shares, 2):
            assert row_passes(lambda: sharer.join(list(combo))) == decode


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
    window hash over the whole buffer, independent of the slice hash: a
    weighted sum of byte-table values."""
    import numpy as np

    from repro.chunking import cdc

    w, buf = chunker.window, np.frombuffer(data, dtype=np.uint8)
    if buf.size < w:
        return []
    vals = chunker._table[buf]
    h = np.zeros(buf.size - w + 1, dtype=np.uint32)
    for j in range(w):  # the byte j before a window's end weighs a^j
        h += vals[w - 1 - j : buf.size - j] * np.uint32(
            pow(cdc._MULTIPLIER, j, 1 << 32)
        )
    hit = h >> np.uint32(32 - chunker._bits) == chunker._target
    return (np.flatnonzero(hit) + w).tolist()


def test_window_hit_gate_matches_the_oracle():
    """The max gate only skips slices with no hit: random real-size
    slices where hits are rare (avg 2^18) and where every slice hits
    (avg 16), and a slice whose only hit is its last window, all equal
    the oracle's candidates."""
    import numpy as np

    from repro.chunking import cdc

    rng = random.Random(0x6A7E)
    data = rng.randbytes(1 << 20)
    buf = np.frombuffer(data, dtype=np.uint8)
    for avg in (1 << 18, 16):
        chunker = ContentDefinedChunker(min_size=avg, avg_size=avg,
                                        max_size=4 * avg)
        w = chunker.window
        span = cdc._BLOCK + w - 1  # one slice: _BLOCK windows
        candidates = _oracle_candidates(chunker, data)

        def check(lo):
            expected = [c - w - lo for c in candidates
                        if lo + w <= c <= lo + span]
            got = chunker._window_hits(buf[lo : lo + span]).tolist()
            assert got == expected, (avg, lo)
            return got

        hits = [check(rng.randrange(len(data) - span)) for _ in range(8)]
        if avg == 16:
            assert all(hits)
        else:
            assert not all(hits)
            # the window ending at a candidate more than a slice past
            # the one before it
            end = next(c for prev, c in zip([0] + candidates, candidates)
                       if c - prev > span)
            assert check(end - span) == [span - w]


_SEAM = 257  # patched cdc._BLOCK


def _edited_candidates(chunker, candidates, edited, pos, removed, added):
    """The oracle candidates of ``edited``, the data of ``candidates``
    with ``removed`` bytes at ``pos`` replaced by ``added`` new ones:
    only the windows that overlap the new bytes are hashed again."""
    w, shift = chunker.window, added - removed
    lo = max(0, pos + 1 - w)
    local = [lo + c for c in _oracle_candidates(
        chunker, edited[lo : pos + added + w - 1])]
    return ([c for c in candidates if c <= pos] + local
            + [c + shift for c in candidates if c - w >= pos + removed])


def _apply_edit(data, cuts, seam, edit):
    """``(edited, pos, removed, added)`` for one drawn edit: an insert,
    delete or overwrite of random or zero bytes, placed at offset 0, at
    EOF, near a cut, near a slice seam, mid-file or anywhere."""
    kind, anchor, delta, length, pick = edit
    n = len(data)
    base = {"start": 0, "end": n, "middle": n // 2, "anywhere": pick % (n + 1),
            "cut": cuts[pick % len(cuts)] if cuts else 0,
            "seam": seam * (pick % (n // seam + 1))}[anchor]
    pos = min(max(0, base + delta), n)
    removed = 0 if kind == "insert" else min(length, n - pos)
    added = 0 if kind == "delete" else length if kind == "insert" else removed
    content = bytes(added) if pick % 4 == 0 else random.Random(pick).randbytes(added)
    return data[:pos] + content + data[pos + removed:], pos, removed, added


def _spans(data, cuts) -> list[bytes]:
    return [data[a:b] for a, b in zip([0] + cuts, cuts)]


_KINDS = ("insert", "delete", "overwrite")
_ANCHORS = ("start", "end", "cut", "seam", "middle", "anywhere")
_EDITS = st.lists(st.tuples(
    st.sampled_from(_KINDS), st.sampled_from(_ANCHORS),
    st.integers(-20, 20), st.integers(1, 300), st.integers(0, 2**31),
), min_size=1, max_size=3)


@st.composite
def _cut_loop_case(draw):
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
    return dict(min_size=min_size, avg_size=avg, max_size=max_size,
                window=window), data, draw(_EDITS)


@given(case=_cut_loop_case())
@settings(max_examples=150, deadline=None)
def test_cut_loop_matches_full_candidate_list(case):
    """The skip loop's cuts are the min/max filter applied to every
    candidate: windows wider than min_size,
    all-zero runs that force max cuts, lengths at min/max and at the
    slice seams of a patched block of 257.  So are the cuts of a chain
    of edits, each re-chunked with its predecessor's chunks as
    ``known`` (with ``min_size < window`` they must change nothing)."""
    from unittest import mock

    import repro.chunking.cdc as cdc
    from repro.chunking.cdc import select_boundaries

    kw, data, edits = case
    chunker = ContentDefinedChunker(**kw)
    candidates = _oracle_candidates(chunker, data)
    expected = select_boundaries(candidates, len(data),
                                 kw["min_size"], kw["max_size"])
    with mock.patch.object(cdc, "_BLOCK", _SEAM):
        assert chunker.boundaries(data) == expected
        assert chunker.boundaries(data, _spans(data, expected)) == expected
        for edit in edits:
            edited, *where = _apply_edit(data, expected, _SEAM, edit)
            candidates = _edited_candidates(chunker, candidates, edited, *where)
            assert candidates == _oracle_candidates(chunker, edited)
            cuts = select_boundaries(candidates, len(edited),
                                     kw["min_size"], kw["max_size"])
            assert chunker.boundaries(edited, _spans(data, expected)) == cuts
            data, expected = edited, cuts


@pytest.mark.slow
def test_cut_loop_wide_sweep():
    """Over 2,000 configs on MiB-scale buffers (random, a long zero run,
    low entropy) and prefixes of them, at the real block size: every
    cut list is the filtered full candidate list, and so is the cut list
    of an edit re-chunked with the unedited chunks as ``known``."""
    from repro.chunking import cdc
    from repro.chunking.cdc import select_boundaries

    rng = random.Random(0x5EEB)
    mib = 1 << 20
    buffers = [
        rng.randbytes(mib),
        rng.randbytes(mib // 4) + bytes(mib // 2) + rng.randbytes(mib // 4),
        bytes(rng.choice(b"ab") for _ in range(mib // 2)),
    ]
    windows, avgs = (2, 3, 5, 16, 17, 48), (256, 4096, 65536)
    per_case = 2100 // (len(windows) * len(avgs) * len(buffers))
    configs = 0
    for window in windows:
        for avg in avgs:
            for data in buffers:
                probe = ContentDefinedChunker(
                    window=window, min_size=1, avg_size=avg, max_size=avg,
                )
                candidates = _oracle_candidates(probe, data)
                for _ in range(per_case):
                    min_size = rng.randint(1, avg)
                    max_size = rng.randint(avg, 16 * avg)
                    n = rng.choice([len(data), rng.randint(0, len(data))])
                    chunker = ContentDefinedChunker(
                        window=window, min_size=min_size,
                        avg_size=avg, max_size=max_size,
                    )
                    expected = select_boundaries(
                        [c for c in candidates if c < n], n,
                        min_size, max_size,
                    )
                    got = chunker.boundaries(memoryview(data)[:n])
                    assert got == expected, (window, avg, min_size,
                                             max_size, n)
                    edit = (rng.choice(_KINDS), rng.choice(_ANCHORS),
                            rng.randint(-64, 64), rng.randint(1, 4096),
                            rng.randrange(2**31))
                    prefix = data[:n]
                    edited, *where = _apply_edit(prefix, expected,
                                                 cdc._BLOCK, edit)
                    resaved = select_boundaries(
                        _edited_candidates(
                            probe, [c for c in candidates if c <= n],
                            edited, *where),
                        len(edited), min_size, max_size,
                    )
                    got = chunker.boundaries(edited, _spans(prefix, expected))
                    assert got == resaved, (window, avg, min_size,
                                            max_size, n, edit)
                    configs += 1
    assert configs >= 2000


# ----------------------------------------------------------------------
# zero-copy regression guard
# ----------------------------------------------------------------------


def test_vector_shares_are_memoryviews_not_copies():
    """The hot path hands out ndarray-backed memoryviews, not bytes.

    This is the regression guard the ISSUE asks for: if someone
    reintroduces a ``.tobytes()``/``bytes()`` copy per share in the
    encode path, this type check fails.
    """
    shares = RSCodec(2, 4).encode(b"x" * 1000)
    for s in shares:
        assert isinstance(s.data, memoryview), type(s.data)
        # still equality-comparable and hashable at the byte level
        assert s.data == bytes(s.data)
        assert hashlib.sha1(s.data).hexdigest()


def test_chunker_slices_are_memoryviews():
    data = b"y" * 50_000
    chunker = ContentDefinedChunker(min_size=256, avg_size=1024, max_size=8192)
    chunks = chunker.chunk_bytes(data)
    assert chunks
    for c in chunks:
        assert isinstance(c.data, memoryview), type(c.data)
    assert b"".join(c.data for c in chunks) == data


def test_transfer_op_payload_is_the_encoded_buffer():
    """chunk -> encode -> TransferOp payload without an intermediate copy.

    The op's resolved data must be the *same object* share_data cached
    (no defensive copies between the encoder and the engine); the only
    copy happens at the provider storage boundary, which simulates the
    network send.
    """
    from repro.core.transfer import OpKind, TransferOp
    from repro.core.uploader import _ChunkPlan
    from repro.chunking.chunk import Chunk
    from repro.util.hashing import HashLane

    chunk = Chunk.from_data(memoryview(b"z" * 4096))
    plan = _ChunkPlan(chunk=chunk, t=2, n=3, lane=HashLane(0))
    payload = plan.share_data("k", 1)
    op = TransferOp(
        kind=OpKind.PUT, csp_id="c", name="o",
        data_fn=lambda: plan.share_data("k", 1),
    )
    assert op.resolve_data() is payload
    # and that payload is a zero-copy view of the codec's output matrix
    assert isinstance(payload, memoryview)
