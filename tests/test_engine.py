import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from cos_sin_oracle import EPS_OLD, e_cos_sin, qsum_cos_sin
from limb_oracle import phase_block_limbs

import weyl_lab
from weyl_lab import _engine
from weyl_lab.exactangle import GOLDEN, MODULUS, Angle
from weyl_lab.weylsum import weyl_sum, weyl_sum_over_x

ZERO = Angle(0)
CHUNK = _engine.CHUNK


def _phase_at(a, b, c, k):
    # the direct big-integer phase numerator
    return (a * k * k + b * k + c) % MODULUS


def _word_slack(a, b, c, n):
    # exact top word of each phase numerator minus the engine's word, mod
    # 2**64, at the start, middle and end of each block: the one-sided slack
    slack = set()
    for k0, words in _engine.phase_chunks(a, b, c, n):
        assert words.dtype == np.uint64
        for j in (0, len(words) // 2, len(words) - 1):
            exact = _phase_at(a, b, c, k0 + j) >> 192
            slack.add((exact - int(words[j])) % (1 << 64))
    return slack


def _operands(rng, bits, count):
    # count operands below 2**bits, and the same reduced mod 2**256: at 257
    # bits they pass the modulus, which the engine must reduce exactly
    ops = [rng.randrange(1 << bits) for _ in range(count)]
    return ops, [v % MODULUS for v in ops]


def test_phase_chunks_exact_at_256_bits():
    rng = random.Random(7)
    for _ in range(10):
        a, b, c = (rng.randrange(MODULUS) for _ in range(3))
        n = rng.randrange(1, 100_000)
        assert _word_slack(a, b, c, n) <= {0, 1}


def test_phase_chunks_chunk_boundaries_continuous():
    # the second-difference recurrence must glue exactly across blocks
    rng = random.Random(9)
    a, b, c = (rng.randrange(MODULUS) for _ in range(3))
    n = _engine.CHUNK * 3 + 17
    words = np.concatenate([w for _, w in _engine.phase_chunks(a, b, c, n)])
    ks = [_engine.CHUNK - 1, _engine.CHUNK, _engine.CHUNK + 1, 2 * _engine.CHUNK]
    for k in ks:
        exact = _phase_at(a, b, c, k) >> 192
        assert (exact - int(words[k])) % (1 << 64) in (0, 1)


def test_phase_at_wraparound_top():
    # a phase within one grid unit of 1 gives the top word, not a wrap to 0
    a, b = 0, 0
    c = MODULUS - 1
    (k0, words), = list(_engine.phase_chunks(a, b, c, 1))
    assert int(words[0]) == (1 << 64) - 1


def _block_slack(a, b, c, k0, js):
    # exact top word minus _phase_block's word, mod 2**64, at each j in js
    words = _engine._phase_block(a, b, c, k0, CHUNK)
    return {((_phase_at(a, b, c, k0 + j) >> 192) - int(words[j])) % (1 << 64) for j in js}


_SAMPLED_J = [*range(0, CHUNK, 97), CHUNK - 1]


def test_phase_block_slack_at_worst_residual():
    # every bit below 2**160 set in N_0 = c, D = a + b and A' = a: the
    # dropped bits sum to (2**160 - 1)(1 + j + j(j-1)), the kernel's largest
    # residual, just under 2**-66 of a turn at j = CHUNK - 1
    rng = random.Random(22)
    low = (1 << 160) - 1
    a, c = (rng.randrange(1 << 96) << 160 | low for _ in range(2))
    b = rng.randrange(1 << 96) << 160
    assert _block_slack(a, b, c, 0, _SAMPLED_J) <= {0, 1}


@pytest.mark.parametrize("k0", [10**9, 1 << 40], ids=["1e9", "2**40"])
def test_phase_block_slack_at_large_k(k0):
    rng = random.Random(k0)
    for _ in range(3):
        a, b, c = (rng.randrange(MODULUS) for _ in range(3))
        assert _block_slack(a, b, c, k0, _SAMPLED_J) <= {0, 1}


@st.composite
def _kernel_args(draw):
    # (a, bs, c, k0): operands past the modulus, bs 1-5 linear
    # coefficients.  st.integers favours small values, whose top 96 bits
    # are zero, so half the operands are uniform over every bit.
    top = 1 << 264
    uniform = st.randoms(use_true_random=True).map(lambda r: r.randrange(top + 1))
    big = st.one_of(st.integers(0, top), uniform)
    bs = draw(st.lists(big, min_size=1, max_size=5))
    return draw(big), bs, draw(big), draw(st.integers(0, 1 << 64))


@pytest.mark.parametrize("blen", [1, 2, 7, CHUNK - 1, CHUNK, None], ids=str)
@settings(deadline=None, derandomize=True, database=None, max_examples=40)
@given(args=_kernel_args(), drawn=st.integers(1, CHUNK))
def test_phase_block_equals_three_limb_oracle(blen, args, drawn):
    # the two-word kernel's words on the top 96 bits of each operand, as
    # phases w * 2**-64, give the three-limb kernel's phases bit for bit
    a, bs, c, k0 = args
    blen = drawn if blen is None else blen
    for b in bs:
        got = _engine._phase_block(a, b, c, k0, blen)
        want = phase_block_limbs(a, b, c, k0, blen)
        assert got.dtype == np.uint64
        assert got.shape == want.shape == (blen,)
        phases = got.astype(np.float64) * 2.0 ** -64
        assert np.array_equal(phases.view(np.uint64), want.view(np.uint64))


def _words_with_every_product(a, b, c, k0, blen):
    # the two-word kernel with its jj a products taken at every a
    a %= MODULUS
    n_lo, n_hi = _engine._words((a * k0 * k0 + b * k0 + c) % MODULUS >> 160)
    d_lo, d_hi = _engine._words((a * (2 * k0 + 1) + b) % MODULUS >> 160)
    a_lo, a_hi = _engine._words(a >> 160)
    j = np.arange(blen, dtype=np.uint64)
    jj = j * (j - np.uint64(1))
    carry = (n_lo + j * d_lo + jj * a_lo) >> np.uint64(32)
    return n_hi + j * d_hi + jj * a_hi + carry


_UNIFORM = st.randoms(use_true_random=True).map(lambda r: r.randrange(MODULUS))


@pytest.mark.parametrize("blen", [1, 2, 5000, CHUNK], ids=str)
@settings(deadline=None, derandomize=True, database=None, max_examples=20)
# a = 0, E1's sums, and the a whose top words are 0: every jj a product is
# 0, and _phase_block skips them
@given(
    a=st.sampled_from([0, MODULUS, (1 << 160) - 1]),
    b=st.one_of(_UNIFORM, st.integers(0, MODULUS - 1)),
    c=st.sampled_from([0, MODULUS - 1]),
    k0=st.integers(0, 1 << 64),
)
def test_phase_block_without_the_zero_products_gives_the_same_words(blen, a, b, c, k0):
    got = _engine._phase_block(a, b, c, k0, blen)
    assert np.array_equal(got, _words_with_every_product(a, b, c, k0, blen))


def _mp_error(z, word):
    # |z - e(word * 2**-64)| in mpmath, the exact value to 80 bits
    exact = mpmath.expjpi(mpmath.mpf(int(word)) / 2**63)
    return float(abs(mpmath.mpc(float(z.real), float(z.imag)) - exact))


def _mp_component_ulps(z, turns):
    # each component's error against e(turns), in ulps of the exact value
    exact = mpmath.expjpi(2 * turns)
    worst = 0.0
    for got, want in ((z.real, exact.real), (z.imag, exact.imag)):
        err = abs(mpmath.mpf(float(got)) - want)
        if err:
            worst = max(worst, float(err) / float(np.spacing(abs(float(want)))))
    return worst


def test_tables_within_one_ulp():
    # a seeded sample of entries plus every octant boundary and its
    # neighbours, where the symmetry fill meets the long-double values
    t1, t2 = _engine._tables()
    assert t1.shape == t2.shape == (1 << 16,)
    rng = np.random.default_rng(16)
    edges = {i + d for i in range(0, 1 << 16, 1 << 13) for d in (-1, 0, 1)}
    sample = set(rng.integers(0, 1 << 16, 1 << 10).tolist()) | edges | {(1 << 16) - 1}
    worst = 0.0
    with mpmath.workprec(80):
        for i in sorted(i for i in sample if 0 <= i < 1 << 16):
            worst = max(worst, _mp_component_ulps(t1[i], mpmath.mpf(i) / 2**16))
            worst = max(worst, _mp_component_ulps(t2[i], mpmath.mpf(i) / 2**32))
    assert worst <= 1.0, worst
    # the quarter turns are exact
    assert [complex(t1[i << 14]) for i in range(4)] == [1, 1j, -1, -1j]


def test_e_phase_error_per_term():
    # the table kernel against mpmath within 2**-51 per term, and the kept
    # cos/sin path within its own bound EPS_OLD, on seeded words and edges
    rng = np.random.default_rng(14)
    edges = np.array([0, 2**64 - 1, 2**48 - 1, 2**63], dtype=np.uint64)
    words = np.concatenate([rng.integers(0, 2**64, 1 << 14, dtype=np.uint64), edges])
    new = _engine.e_phase(words)
    old = e_cos_sin(words)
    assert new.dtype == np.complex128 and new.shape == words.shape
    worst_new = worst_old = 0.0
    with mpmath.workprec(80):
        for z_new, z_old, w in zip(new, old, words):
            worst_new = max(worst_new, _mp_error(z_new, w))
            worst_old = max(worst_old, _mp_error(z_old, w))
    assert worst_new <= 2.0**-51, worst_new / 2.0**-51
    assert worst_old <= EPS_OLD, worst_old / 2.0**-51
    # the same words as a 2-D block give the same bits
    assert _engine.e_phase(words.reshape(2, -1)).tobytes() == new.tobytes()


@pytest.mark.parametrize("operand_bits", [256, 257])
def test_qsum_agrees_with_cos_sin_path(operand_bits):
    # per-term errors of at most 2**-51 (tables) and EPS_OLD (cos/sin)
    # bound the distance between the two sums by n * (EPS_OLD + 2**-51)
    rng = random.Random(operand_bits)
    for n in (1, 7, 1000, CHUNK + 1, 100_003, 1_000_000, 10_000_000):
        ops, reduced = _operands(rng, operand_bits, 3)
        new = _engine.qsum(*ops, n)
        old = qsum_cos_sin(*reduced, n)
        assert abs(new - old) <= n * (EPS_OLD + 2.0**-51), (n, abs(new - old))


def test_qsum_empty_and_single():
    assert _engine.qsum(1, 2, 3, 0) == 0j
    z = _engine.qsum(0, 0, 0, 1)
    assert z == 1.0 + 0j


@st.composite
def _packed_sums(draw):
    # (a, b, n) triples: 2-30 sums, their quadratic coefficients all one (as
    # E1's) or each its own (as the sweeps'), with n mixed below
    # BLOCKS_FROM, so any two neighbours share a pass; coefficients past
    # the modulus
    uniform = st.randoms(use_true_random=True).map(lambda r: r.randrange(1 << 264))
    big = st.one_of(st.integers(0, 1 << 264), uniform)
    n = st.one_of(st.integers(0, 3), st.integers(0, 300), st.integers(0, _engine.BLOCKS_FROM - 1))
    k = draw(st.integers(2, 30))
    if draw(st.booleans()):
        a_s = [draw(big)] * k
    else:
        a_s = draw(st.lists(big, min_size=k, max_size=k))
    return list(zip(a_s, draw(st.lists(big, min_size=k, max_size=k)), draw(st.lists(n, min_size=k, max_size=k))))


@settings(deadline=None, derandomize=True, database=None, max_examples=60)
@given(requests=_packed_sums())
@example(requests=[(0, 3, 0), (0, 5, 1), (0, 7, 2)])
@example(requests=[(5, 3, 1), (1 << 255, 5, 1), (7, 7, 0), (3, 1, 2)])
def test_qsums_is_qsum_bit_for_bit(requests):
    e_phase = _engine.e_phase
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_engine, "e_phase", lambda words: calls.append(words.size) or e_phase(words))
        got = _engine.qsums(iter(requests))
    # several sums to each pass: one e_phase call per pass
    assert len(calls) <= max(1, (len(requests) + 1) // 2) and max(calls) <= CHUNK
    assert got.shape == (len(requests),)
    # at every n, n = 1 included: a one-term sum at C = 0 is e(0) = 1
    for z, (a, b, n) in zip(got, requests):
        want = _engine.qsum(a, b, 0, n)
        assert z == want, (n, z - want)


def test_qsums_blocks_is_qsum_blocks_bit_for_bit():
    # qsums takes every n: sums on both sides of the crossover, long ones
    # between short ones, each at its own coefficients
    rng = random.Random(12)
    ns = [0, 1, 2, 3, 300, _engine.BLOCKS_FROM - 1, _engine.BLOCKS_FROM, 2 * _engine.BLOCKS_FROM + 5, 40_000]
    requests = [(rng.randrange(MODULUS), rng.randrange(MODULUS), n) for n in ns * 2]
    got = _engine.qsums(iter(requests))
    for z, (a, b, n) in zip(got, requests, strict=True):
        assert z == _engine.qsum_blocks(a, b, 0, n), n
    with pytest.raises(ValueError):
        _engine.qsums([(0, 1, 2), (0, 1, -1)])


def test_qsum_partials_consistent_with_qsum():
    rng = random.Random(10)
    a, b, c = (rng.randrange(MODULUS) for _ in range(3))
    n = _engine.CHUNK + 123
    total = _engine.qsum(a, b, c, n)
    last = None
    count = 0
    for _, z in _engine.qsum_partials(a, b, c, n):
        last = z[-1]
        count += len(z)
    assert count == n
    assert abs(last - total) < 1e-9


def test_qsum_moments_order_zero_matches_qsum():
    rng = random.Random(11)
    a, b, c = (rng.randrange(MODULUS) for _ in range(3))
    n = 70_000
    moments = _engine.qsum_moments(a, b, c, n, 3)
    assert moments[0] == _engine.qsum(a, b, c, n)
    # first moment against a direct weighted oracle on a small case
    n_small = 500
    moments_small = _engine.qsum_moments(a, b, c, n_small, 2)
    words = np.concatenate([w for _, w in _engine.phase_chunks(a, b, c, n_small)])
    z = _engine.e_phase(words)
    w = np.arange(n_small) / n_small
    assert abs(moments_small[1] - np.sum(w * z)) < 1e-9
    assert abs(moments_small[2] - np.sum(w * w * z)) < 1e-9


def _sequential_qsum(a, b, c, n):
    # one thread over phase_chunks: block sums, then one pass over them
    partials = [np.sum(_engine.e_phase(words)) for _, words in _engine.phase_chunks(a, b, c, n)]
    if not partials:
        return 0j
    return complex(np.sum(np.asarray(partials)))


def _sequential_moments(a, b, c, n, pmax):
    rows = []
    for k0, words in _engine.phase_chunks(a, b, c, n):
        z = _engine.e_phase(words)
        w = (k0 + np.arange(len(words), dtype=np.float64)) * (1.0 / n)
        row = [np.sum(z)]
        for _ in range(pmax):
            z = z * w
            row.append(np.sum(z))
        rows.append(row)
    if not rows:
        return np.zeros(pmax + 1, dtype=np.complex128)
    # each order's block sums as one contiguous 1-D array, then one pass
    orders = np.asarray(rows, dtype=np.complex128).T
    return np.array([np.sum(np.ascontiguousarray(order)) for order in orders])


@pytest.mark.parametrize("operand_bits", [256, 257])
@pytest.mark.parametrize(
    "n", [0, 1, CHUNK, CHUNK + 1, 2 * CHUNK, 5 * CHUNK + 17, 37 * CHUNK - 3]
)
def test_threaded_sums_equal_sequential_reference(n, operand_bits):
    # qsum and qsum_moments reduce their blocks in the calling thread, in
    # the order of the one-thread reference
    rng = random.Random(n + operand_bits)
    (a, b, c), reduced = _operands(rng, operand_bits, 3)
    assert _engine.qsum(a, b, c, n) == _sequential_qsum(*reduced, n)
    assert np.array_equal(_engine.qsum_moments(a, b, c, n, 3), _sequential_moments(*reduced, n, 3))


def test_block_total_matches_one_dimensional_sum():
    # each column's block partials (a moment order's) are summed in the
    # order np.sum takes for one contiguous 1-D array of them
    rng = np.random.default_rng(5)
    for blocks in [*range(1, 300), 1000, 4097, 32768]:
        partials = rng.standard_normal((blocks, 3)) * 1e3
        want = np.array([np.sum(np.ascontiguousarray(partials[:, r])) for r in range(3)])
        assert _engine._block_total(tuple(partials)).tobytes() == want.tobytes()


def test_import_starts_no_thread():
    code = (
        "import threading\n"
        "threads = threading.active_count()\n"
        "import weyl_lab\n"
        "from weyl_lab import _engine\n"
        "from weyl_lab.exactangle import GOLDEN, ZERO\n"
        "weyl_lab.weyl_sum(GOLDEN, ZERO, ZERO, _engine.CHUNK)\n"
        "assert threading.active_count() == threads, threading.enumerate()\n"
    )
    src = str(Path(weyl_lab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_poly_eval_matches_direct_horner():
    # the type-2 NUFFT against Horner's rule in long double, at random unit
    # coefficients and random 128-bit turns u, for n below, at and above the
    # kernel's w = 18 taps; u = 0 takes the plain sum, n = 1 the coefficient
    rng = np.random.default_rng(3)
    two_pi = np.longdouble("6.28318530717958647692528676655900577")
    for n in (1, 2, 3, 5, 8, 9, 17, 18, 19, 36, 37, 100, 257, 1003):
        coeffs = np.exp(2j * np.pi * rng.random(n))
        rho = rng.integers(0, 2**64, size=(40, 2), dtype=np.uint64)
        rho[0] = 0
        u = rho[:, 0].astype(np.longdouble) * 2.0**-64 + rho[:, 1].astype(np.longdouble) * 2.0**-128
        z = np.exp(1j * two_pi * u)
        direct = np.zeros(40, dtype=np.clongdouble)
        for c in coeffs[::-1]:
            direct = direct * z + c
        fast = _engine.poly_eval_unit_circle(coeffs, rho)
        assert fast[0] == np.sum(coeffs)
        assert np.max(np.abs(fast - direct)) <= (1.25 * n + 4) * 2.0**-51, n


def test_batch_matches_scalar_at_deep_level():
    rng = random.Random(12)
    xs = [Angle(rng.randrange(MODULUS)) for _ in range(12)]
    batch = weyl_sum_over_x(GOLDEN, xs, 83523)
    scalar = np.array([weyl_sum(GOLDEN, x, ZERO, 83523) for x in xs])
    # both sides within their n * 2**-51 budgets (measured 0.23 * n * 2**-51)
    assert np.max(np.abs(batch - scalar)) <= 2 * 83523 * 2.0**-51


_WORD = st.integers(0, MODULUS - 1)


@settings(max_examples=200, deadline=None)
@given(step=_WORD, base=_WORD, qs=st.lists(st.integers(0, 2**32 - 1), max_size=16))
# a carry through every limb
@example(step=MODULUS - 1, base=MODULUS - 1, qs=[])
def test_block_points_match_the_big_integer_form(step, base, qs):
    qs = [0, 1, 2**32 - 1, *qs]
    rho = _engine.block_points(step, base, np.array(qs, dtype=np.uint64))
    tops = [(step * q + base) % MODULUS >> 128 for q in qs]
    assert rho.dtype == np.uint64
    assert rho.tolist() == [[t >> 64, t & (1 << 64) - 1] for t in tops]


@settings(max_examples=12, deadline=None)
@given(
    theta=_WORD,
    x=_WORD,
    n=st.integers(0, 2 * 10**6),
    reach=st.sampled_from([0.5, 2.2, 40.0, 2.0**22]),
)
# below one block, not a multiple of the block, theta = 0 on and off the
# real axis, and a reach past every partial sum
@example(theta=GOLDEN.numerator, x=12, n=_engine.NEAR_SIZE - 1, reach=2.2)
@example(theta=GOLDEN.numerator, x=12, n=300 * _engine.NEAR_SIZE + 77, reach=2.2)
@example(theta=0, x=MODULUS // 7, n=10**6 + 3, reach=2.2)
@example(theta=0, x=0, n=10**5, reach=2.2)
# z_k = k: block 1, from 128 to 256, has a point within reach, and its
# starts' sum, 384, is within 3 of 2 reach + 128
@example(theta=0, x=0, n=1000, reach=129.5)
@example(theta=GOLDEN.numerator, x=12, n=10**6 + 3, reach=2.0**22)
@example(theta=MODULUS // 3, x=MODULUS // 5, n=2 * 10**6, reach=40.0)
def test_near_partials_walk_every_stream_point_within_reach(theta, x, n, reach):
    # the stream's points, each walked once or not at all, and every one
    # within reach walked; a walked point within 1e-9 of the stream's
    stream = np.concatenate([np.zeros(0, dtype=np.complex128)] + [z for _, z in _engine.qsum_partials(theta, x, 0, n)])
    walked = np.zeros(n, dtype=bool)
    end = 0
    for k0, z in _engine.near_partials(theta, x, 0, n, reach):
        assert k0 >= end and z.dtype == np.complex128
        end = k0 + z.size
        walked[k0:end] = True
        assert np.max(np.abs(z - stream[k0:end])) <= 1e-9
    assert walked[np.abs(stream) <= reach].all()
    if n < _engine.NEAR_SIZE or reach > n:
        assert walked.all()
