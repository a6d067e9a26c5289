"""Interprocedural-rule fixtures: every positive has a negative twin.

THR210 — inconsistent lockset on shared mutable state.
THR211 — lock-order inversion (ABBA).
DTY110 — exactness taint reaching a GEMM operand across functions.
"""

from repro.checks.analysis import run_deep_sources


def scan(sources):
    """These three rules only: THR201 (one finding per unlocked write)
    and the per-file rules have their own fixture suites."""
    return run_deep_sources(sources, rules=["THR210", "THR211", "DTY110"])


def rules_of(findings):
    return [f.rule for f in findings]


THREADING_HEADER = """
import threading

_lock = threading.Lock()
"""


class TestThr210:
    def test_two_roots_one_unlocked_writer_fires(self):
        src = THREADING_HEADER + """
_counter = 0


def locked_bump():
    global _counter
    with _lock:
        _counter += 1


def unlocked_bump():
    global _counter
    _counter += 1


def start():
    threading.Thread(target=locked_bump).start()
    threading.Thread(target=unlocked_bump).start()
"""
        findings = scan({"src/repro/demo/state.py": src})
        assert rules_of(findings) == ["THR210"]
        f = findings[0]
        # Anchored at the least-protected write (the unlocked one).
        assert "this write holds {} (none)" in f.message
        assert f.snippet == "" or "with _lock" not in f.snippet
        assert "_counter" in f.message
        assert "no common lock" in f.message

    def test_both_writers_locked_is_clean(self):
        src = THREADING_HEADER + """
_counter = 0


def bump_a():
    global _counter
    with _lock:
        _counter += 1


def bump_b():
    global _counter
    with _lock:
        _counter += 2


def start():
    threading.Thread(target=bump_a).start()
    threading.Thread(target=bump_b).start()
"""
        assert scan({"src/repro/demo/state.py": src}) == []

    def test_single_root_without_main_writer_is_clean(self):
        # One thread root, no main-path writer: no concurrency, no race.
        src = THREADING_HEADER + """
_counter = 0


def bump():
    global _counter
    _counter += 1


def start():
    threading.Thread(target=bump).start()
"""
        assert scan({"src/repro/demo/state.py": src}) == []

    def test_root_plus_main_writer_fires(self):
        src = THREADING_HEADER + """
_counter = 0


def bump():
    global _counter
    _counter += 1


def main_path_reset():
    global _counter
    _counter = 0


def start():
    threading.Thread(target=bump).start()
"""
        findings = scan({"src/repro/demo/state.py": src})
        assert rules_of(findings) == ["THR210"]
        assert "main" in findings[0].message

    def test_entry_lockset_covers_helper_called_under_lock(self):
        # The helper writes without a lock in sight, but every resolved
        # caller holds it — the must-hold entry lockset covers the write.
        src = THREADING_HEADER + """
_table = {}


def _store(k, v):
    _table[k] = v


def writer_a():
    with _lock:
        _store("a", 1)


def writer_b():
    with _lock:
        _store("b", 2)


def start():
    threading.Thread(target=writer_a).start()
    threading.Thread(target=writer_b).start()
"""
        assert scan({"src/repro/demo/state.py": src}) == []

    def test_one_unlocked_call_path_defeats_entry_lockset(self):
        src = THREADING_HEADER + """
_table = {}


def _store(k, v):
    _table[k] = v


def writer_a():
    with _lock:
        _store("a", 1)


def writer_b():
    _store("b", 2)


def start():
    threading.Thread(target=writer_a).start()
    threading.Thread(target=writer_b).start()
"""
        findings = scan({"src/repro/demo/state.py": src})
        assert rules_of(findings) == ["THR210"]

    def test_cross_module_write_sites(self):
        # Writers live in a different module from the spawner; the race
        # is only visible with project-wide resolution.
        writers = THREADING_HEADER + """
_registry = {}


def locked_put(k, v):
    with _lock:
        _registry[k] = v


def unlocked_put(k, v):
    _registry[k] = v
"""
        spawner = """
import threading

from repro.demo.writers import locked_put, unlocked_put


def start():
    threading.Thread(target=locked_put).start()
    threading.Thread(target=unlocked_put).start()
"""
        findings = scan(
            {
                "src/repro/demo/writers.py": writers,
                "src/repro/demo/spawn.py": spawner,
            }
        )
        assert rules_of(findings) == ["THR210"]
        assert findings[0].path == "src/repro/demo/writers.py"

    def test_deep_finding_respects_noqa(self):
        src = THREADING_HEADER + """
_counter = 0


def locked_bump():
    global _counter
    with _lock:
        _counter += 1


def unlocked_bump():
    global _counter
    _counter += 1  # repro: noqa[THR210] — benign stat, torn reads accepted


def start():
    threading.Thread(target=locked_bump).start()
    threading.Thread(target=unlocked_bump).start()
"""
        assert scan({"src/repro/demo/state.py": src}) == []

    def test_mutator_call_whose_result_is_used_fires(self):
        # ``y = _cache.pop(k)`` writes _cache exactly as a bare
        # ``_cache.pop(k)`` statement does.
        src = """
import threading

_cache = {}


def take_a(k):
    y = _cache.pop(k)
    return y


def take_b(k):
    y = _cache.pop(k)
    return y


def start():
    threading.Thread(target=take_a).start()
    threading.Thread(target=take_b).start()
"""
        findings = scan({"src/repro/demo/state.py": src})
        assert rules_of(findings) == ["THR210"]
        assert "_cache" in findings[0].message

    def test_mutator_call_whose_result_is_used_under_lock_is_clean(self):
        src = THREADING_HEADER + """
_cache = {}


def take_a(k):
    with _lock:
        y = _cache.pop(k)
    return y


def take_b(k):
    with _lock:
        y = _cache.pop(k)
    return y


def start():
    threading.Thread(target=take_a).start()
    threading.Thread(target=take_b).start()
"""
        assert scan({"src/repro/demo/state.py": src}) == []

    def test_deque_and_in_place_sort_mutators_fire(self):
        src = """
import collections
import threading

_queue = collections.deque()
_order = []


def producer(x):
    _queue.appendleft(x)
    _order.sort()


def consumer():
    _order.reverse()
    return _queue.popleft()


def start():
    threading.Thread(target=producer).start()
    threading.Thread(target=consumer).start()
"""
        findings = scan({"src/repro/demo/state.py": src})
        assert rules_of(findings) == ["THR210", "THR210"]
        assert {f.extra["var"] for f in findings} == {
            "repro.demo.state._queue", "repro.demo.state._order",
        }


LOCKS_HEADER = """
import threading

_a = threading.Lock()
_b = threading.Lock()
"""


class TestThr211:
    def test_direct_abba_fires(self):
        src = LOCKS_HEADER + """
def forward():
    with _a:
        with _b:
            pass


def backward():
    with _b:
        with _a:
            pass
"""
        findings = scan({"src/repro/demo/locks.py": src})
        assert rules_of(findings) == ["THR211"]
        assert "lock-order inversion" in findings[0].message
        assert "_a" in findings[0].message and "_b" in findings[0].message

    def test_consistent_order_is_clean(self):
        src = LOCKS_HEADER + """
def forward():
    with _a:
        with _b:
            pass


def also_forward():
    with _a:
        with _b:
            pass
"""
        assert scan({"src/repro/demo/locks.py": src}) == []

    def test_abba_through_call_chain_fires(self):
        # Neither function nests two `with` blocks; the inversion only
        # exists through the calls made while a lock is held.
        src = LOCKS_HEADER + """
def take_b():
    with _b:
        pass


def take_a():
    with _a:
        pass


def forward():
    with _a:
        take_b()


def backward():
    with _b:
        take_a()
"""
        findings = scan({"src/repro/demo/locks.py": src})
        assert rules_of(findings) == ["THR211"]

    def test_call_chain_consistent_order_is_clean(self):
        src = LOCKS_HEADER + """
def take_b():
    with _b:
        pass


def forward():
    with _a:
        take_b()


def also_forward():
    with _a:
        take_b()
"""
        assert scan({"src/repro/demo/locks.py": src}) == []

    def test_single_lock_reentry_not_reported(self):
        # A -> A is not an inversion (RLock reentry / sequential blocks).
        src = LOCKS_HEADER + """
def f():
    with _a:
        pass
    with _a:
        pass
"""
        assert scan({"src/repro/demo/locks.py": src}) == []

    def test_one_finding_per_distinct_cycle(self):
        src = LOCKS_HEADER + """
def forward():
    with _a:
        with _b:
            pass


def backward():
    with _b:
        with _a:
            pass


def backward_again():
    with _b:
        with _a:
            pass
"""
        findings = scan({"src/repro/demo/locks.py": src})
        assert rules_of(findings) == ["THR211"]


GEMM_IMPORT = """
import numpy as np

from repro.core.gemm import pgemm
"""


class TestDty110:
    def test_narrowed_return_value_reaching_gemm_fires(self):
        src = GEMM_IMPORT + """
def prep(x):
    q = quantize_tensor(x)
    return q.astype(np.float32)


def run(x, w):
    a = prep(x)
    return pgemm(a, w)
"""
        findings = scan({"src/repro/demo/flow.py": src})
        assert rules_of(findings) == ["DTY110"]
        f = findings[0]
        # Anchored at the taint point (the astype), naming the sink.
        assert "float32" in f.message
        assert "pgemm" in f.message

    def test_per_image_columns_are_an_exact_source(self):
        src = GEMM_IMPORT + """
def run(cache, w):
    a = cache.image_cols(0, True) / 2
    return pgemm(a, w)
"""
        findings = scan({"src/repro/demo/flow.py": src})
        assert rules_of(findings) == ["DTY110"]
        assert "division" in findings[0].message

    def test_per_image_columns_into_gemm_are_clean(self):
        src = GEMM_IMPORT + """
def run(cache, w):
    return pgemm(cache.image_cols(0), w)
"""
        assert scan({"src/repro/demo/flow.py": src}) == []

    def test_narrow_dtype_keyword_reaching_gemm_fires(self):
        src = GEMM_IMPORT + """
def run(x, w):
    q = quantize_tensor(x)
    a = np.ascontiguousarray(q, dtype=np.float32)
    return pgemm(a, w)
"""
        findings = scan({"src/repro/demo/flow.py": src})
        assert rules_of(findings) == ["DTY110"]
        assert "dtype=float32" in findings[0].message
        assert findings[0].line == 8

    def test_wide_dtype_keyword_is_clean(self):
        src = GEMM_IMPORT + """
def run(x, w):
    q = quantize_tensor(x)
    a = np.ascontiguousarray(q, dtype=np.float64)
    return pgemm(a, w)
"""
        assert scan({"src/repro/demo/flow.py": src}) == []

    def test_float64_preserving_helper_is_clean(self):
        src = GEMM_IMPORT + """
def prep(x):
    q = quantize_tensor(x)
    return q.astype(np.float64)


def run(x, w):
    a = prep(x)
    return pgemm(a, w)
"""
        assert scan({"src/repro/demo/flow.py": src}) == []

    def test_no_exact_provenance_is_clean(self):
        # Plain float math into pgemm is the normal fp32/fp64 path; only
        # values minted exact then degraded are violations.
        src = GEMM_IMPORT + """
def run(x, w):
    a = x / 3.0
    return pgemm(a, w)
"""
        assert scan({"src/repro/demo/flow.py": src}) == []

    def test_division_of_exact_value_fires(self):
        src = GEMM_IMPORT + """
def run(x, w):
    q = quantize_tensor(x)
    a = q / 3
    return pgemm(a, w)
"""
        findings = scan({"src/repro/demo/flow.py": src})
        assert rules_of(findings) == ["DTY110"]
        assert "division" in findings[0].message

    def test_tainted_argument_into_gemm_calling_helper_fires(self):
        src = GEMM_IMPORT + """
def do_gemm(a, w):
    return pgemm(a, w)


def run(x, w):
    q = quantize_tensor(x)
    bad = q.astype(np.float32)
    return do_gemm(bad, w)
"""
        findings = scan({"src/repro/demo/flow.py": src})
        assert rules_of(findings) == ["DTY110"]

    def test_exact_argument_into_gemm_calling_helper_is_clean(self):
        src = GEMM_IMPORT + """
def do_gemm(a, w):
    return pgemm(a, w)


def run(x, w):
    q = quantize_tensor(x)
    return do_gemm(q, w)
"""
        assert scan({"src/repro/demo/flow.py": src}) == []

    def test_value_preserving_reshape_keeps_exactness(self):
        src = GEMM_IMPORT + """
def run(x, w):
    q = quantize_tensor(x)
    a = np.ascontiguousarray(q.reshape(4, -1))
    return pgemm(a, w)
"""
        assert scan({"src/repro/demo/flow.py": src}) == []

    def test_cross_module_taint_flow(self):
        prep = """
import numpy as np


def prep(x):
    q = quantize_tensor(x)
    return q.astype(np.float32)
"""
        runner = """
from repro.core.gemm import pgemm
from repro.demo.prep import prep


def run(x, w):
    a = prep(x)
    return pgemm(a, w)
"""
        findings = scan(
            {
                "src/repro/demo/prep.py": prep,
                "src/repro/demo/runner.py": runner,
            }
        )
        assert rules_of(findings) == ["DTY110"]
        # Anchored where exactness dies, in the helper module.
        assert findings[0].path == "src/repro/demo/prep.py"
