import os
import random
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import weyl_lab
from weyl_lab import _engine
from weyl_lab.exactangle import GOLDEN, MODULUS, Angle
from weyl_lab.weylsum import weyl_sum, weyl_sum_over_x

ZERO = Angle(0)


def _phase_error(a, b, c, n, mod_bits):
    mod = 1 << mod_bits
    worst = 0.0
    for k0, ph in _engine.phase_chunks(a, b, c, n, mod_bits):
        for j in (0, len(ph) // 2, len(ph) - 1):
            k = k0 + j
            exact = ((a * k * k + b * k + c) % mod) / mod
            diff = abs(ph[j] - exact)
            worst = max(worst, min(diff, 1.0 - diff))
    return worst


def test_phase_chunks_exact_at_256_bits():
    rng = random.Random(7)
    for _ in range(10):
        a, b, c = (rng.randrange(MODULUS) for _ in range(3))
        n = rng.randrange(1, 100_000)
        assert _phase_error(a, b, c, n, 256) <= 2.0 ** -63


def test_phase_chunks_exact_at_257_bits():
    rng = random.Random(8)
    mod = 1 << 257
    for _ in range(10):
        a, b, c = (rng.randrange(mod) for _ in range(3))
        n = rng.randrange(1, 100_000)
        assert _phase_error(a, b, c, n, 257) <= 2.0 ** -63


def test_phase_chunks_chunk_boundaries_continuous():
    # the second-difference recurrence must glue exactly across blocks
    rng = random.Random(9)
    a, b, c = (rng.randrange(MODULUS) for _ in range(3))
    n = _engine.CHUNK * 3 + 17
    phases = np.concatenate([ph for _, ph in _engine.phase_chunks(a, b, c, n)])
    ks = [_engine.CHUNK - 1, _engine.CHUNK, _engine.CHUNK + 1, 2 * _engine.CHUNK]
    for k in ks:
        exact = _engine.phase_at(a, b, c, k) / MODULUS
        diff = abs(phases[k] - exact)
        assert min(diff, 1.0 - diff) <= 2.0 ** -63


def test_phase_at_wraparound_top():
    # phases within one grid unit of 1 must not round into garbage
    a, b = 0, 0
    c = MODULUS - 1
    (k0, ph), = list(_engine.phase_chunks(a, b, c, 1))
    assert ph[0] == pytest.approx(1.0, abs=2.0 ** -63)


def test_qsum_empty_and_single():
    assert _engine.qsum(1, 2, 3, 0) == 0j
    z = _engine.qsum(0, 0, 0, 1)
    assert z == 1.0 + 0j


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
    assert abs(moments[0] - _engine.qsum(a, b, c, n)) < 1e-9
    # first moment against a direct weighted oracle on a small case
    n_small = 500
    moments_small = _engine.qsum_moments(a, b, c, n_small, 2)
    ph = np.concatenate([p for _, p in _engine.phase_chunks(a, b, c, n_small)])
    z = np.exp(2j * np.pi * ph)
    w = np.arange(n_small) / n_small
    assert abs(moments_small[1] - np.sum(w * z)) < 1e-9
    assert abs(moments_small[2] - np.sum(w * w * z)) < 1e-9


def _sequential_qsum(a, b, c, n, mod_bits):
    # one thread over phase_chunks: block sums, then one pass over them
    re, im = [], []
    for _, ph in _engine.phase_chunks(a, b, c, n, mod_bits):
        t = ph * (2.0 * np.pi)
        re.append(float(np.sum(np.cos(t))))
        im.append(float(np.sum(np.sin(t))))
    if not re:
        return 0j
    return complex(np.sum(np.asarray(re)), np.sum(np.asarray(im)))


def _sequential_moments(a, b, c, n, pmax, mod_bits):
    rows = []
    for k0, ph in _engine.phase_chunks(a, b, c, n, mod_bits):
        t = ph * (2.0 * np.pi)
        z = np.cos(t) + 1j * np.sin(t)
        w = (k0 + np.arange(len(ph), dtype=np.float64)) * (1.0 / n)
        row = [np.sum(z)]
        wp = np.ones_like(w)
        for _ in range(pmax):
            wp = wp * w
            row.append(np.sum(wp * z))
        rows.append(row)
    if not rows:
        return np.zeros(pmax + 1, dtype=np.complex128)
    return np.sum(np.asarray(rows, dtype=np.complex128), axis=0)


def _count_submits(m):
    # swap in an executor that records each submit to the returned list
    submits = []

    class Counting(ThreadPoolExecutor):
        def submit(self, *args):
            submits.append(args)
            return super().submit(*args)

    m.setattr(_engine, "ThreadPoolExecutor", Counting)
    return submits


class _UnusableExecutor:
    def __init__(self, *args):
        raise AssertionError("an engine executor was opened")


CHUNK = _engine.CHUNK


@pytest.mark.parametrize("mod_bits", [256, 257])
@pytest.mark.parametrize(
    "n", [0, 1, CHUNK, CHUNK + 1, 2 * CHUNK, 5 * CHUNK + 17, 37 * CHUNK - 3]
)
def test_threaded_sums_equal_sequential_reference(monkeypatch, n, mod_bits):
    rng = random.Random(n + mod_bits)
    a, b, c = (rng.randrange(1 << mod_bits) for _ in range(3))
    want_sum = _sequential_qsum(a, b, c, n, mod_bits)
    want_moments = _sequential_moments(a, b, c, n, 3, mod_bits)
    blocks = -(-n // CHUNK)
    interval = sys.getswitchinterval()
    try:
        # more threads than cores, switching often
        sys.setswitchinterval(1e-4)
        for workers in (1, 2, 3):
            with monkeypatch.context() as m:
                m.setattr(_engine, "_WORKERS", workers)
                submits = _count_submits(m)
                got_sum = _engine.qsum(a, b, c, n, mod_bits)
                got_moments = _engine.qsum_moments(a, b, c, n, 3, mod_bits)
            # one submit per run but the caller's, in each of the two calls
            assert len(submits) == 2 * max(min(workers, blocks) - 1, 0)
            assert got_sum == want_sum, workers
            assert np.array_equal(got_moments, want_moments), workers
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("mod_bits", [256, 257])
@pytest.mark.parametrize("n", [0, 1, 7, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_qsum_rows_equal_qsum_per_row(monkeypatch, n, mod_bits):
    rng = random.Random(3 * n + mod_bits)
    a, c = (rng.randrange(1 << mod_bits) for _ in range(2))
    # linear coefficients past 2**256 too: the kernel reduces them mod 2**mod_bits
    bs = [rng.randrange(1 << 300) for _ in range(5)] + [1 << 256, 0]
    want = np.array([_engine.qsum(a, b, c, n, mod_bits) for b in bs], dtype=np.complex128)
    assert _engine.qsum_rows(a, bs, c, n, mod_bits).tobytes() == want.tobytes()
    # three rows per batch of rows, and two threads over the blocks
    monkeypatch.setattr(_engine, "_ROW_PHASES", 3 * min(max(n, 1), CHUNK))
    monkeypatch.setattr(_engine, "_WORKERS", 2)
    assert _engine.qsum_rows(a, bs, c, n, mod_bits).tobytes() == want.tobytes()
    assert _engine.qsum_rows(a, [], c, n, mod_bits).shape == (0,)


def test_block_total_matches_one_dimensional_sum():
    # a row's block partials are summed in the order np.sum takes for one
    # contiguous 1-D array, as qsum sums its own
    rng = np.random.default_rng(5)
    for blocks in [*range(1, 300), 1000, 4097, 32768]:
        partials = rng.standard_normal((blocks, 3)) * 1e3
        want = np.array([np.sum(np.ascontiguousarray(partials[:, r])) for r in range(3)])
        assert _engine._block_total(tuple(partials)).tobytes() == want.tobytes()


def test_single_block_calls_start_no_thread(monkeypatch):
    monkeypatch.setattr(_engine, "_WORKERS", 2)
    monkeypatch.setattr(_engine, "ThreadPoolExecutor", _UnusableExecutor)
    threads = threading.active_count()
    for n in (1, 7, CHUNK - 1, CHUNK):
        _engine.qsum(1, 2, 3, n)
        _engine.qsum_moments(1, 2, 3, n, 2)
        weyl_sum(GOLDEN, ZERO, ZERO, n)
    assert threading.active_count() == threads


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


def test_threaded_call_leaves_no_thread(monkeypatch):
    monkeypatch.setattr(_engine, "_WORKERS", 3)
    threads = threading.active_count()
    assert _engine.qsum(1, 2, 3, 3 * CHUNK) == _sequential_qsum(1, 2, 3, 3 * CHUNK, 256)
    assert threading.active_count() == threads, threading.enumerate()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_makes_its_own_pool(monkeypatch):
    # the child runs a threaded sum after its parent ran one
    monkeypatch.setattr(_engine, "_WORKERS", 2)
    submits = _count_submits(monkeypatch)
    n = 3 * CHUNK
    want = _engine.qsum(1, 2, 3, n)
    assert len(submits) == 1
    pid = os.fork()
    if pid == 0:
        os._exit(0 if _engine.qsum(1, 2, 3, n) == want else 1)
    deadline = time.monotonic() + 60
    done, status = os.waitpid(pid, os.WNOHANG)
    while not done:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's threaded sum did not finish")
        time.sleep(0.01)
        done, status = os.waitpid(pid, os.WNOHANG)
    assert os.waitstatus_to_exitcode(status) == 0


def test_poly_eval_matches_direct_horner():
    rng = np.random.default_rng(3)
    q = 1003
    coeffs = np.exp(2j * np.pi * rng.random(q))
    xs = rng.random(5)
    rho = np.exp(2j * np.pi * xs)
    step = 32
    rho_big = np.exp(2j * np.pi * ((step * xs) % 1.0))
    fast = _engine.poly_eval_unit_circle(coeffs, rho, rho_big, step)
    direct = np.zeros(5, dtype=np.complex128)
    for s in range(5):
        acc = 0j
        for k in range(q - 1, -1, -1):
            acc = acc * rho[s] + coeffs[k]
        direct[s] = acc
    assert np.max(np.abs(fast - direct)) < 1e-10


def test_batch_matches_scalar_at_deep_level():
    rng = random.Random(12)
    xs = [Angle(rng.randrange(MODULUS)) for _ in range(12)]
    batch = weyl_sum_over_x(GOLDEN, xs, 83523)
    scalar = np.array([weyl_sum(GOLDEN, x, ZERO, 83523) for x in xs])
    # absolute tolerance: |a| is O(sqrt(q)), BSGS keeps ~1e-9 absolute
    assert np.max(np.abs(batch - scalar)) < 1e-7
