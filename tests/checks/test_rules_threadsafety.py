"""THR2xx fixtures: positive, negative, and noqa-suppressed snippets."""

import textwrap

from repro.checks.engine import run_source


def scan(src, **kw):
    return run_source(textwrap.dedent(src), **kw)


def rules_of(findings):
    return [f.rule for f in findings]


class TestTHR201UnlockedModuleState:
    def test_dict_mutation_in_function_flagged(self):
        src = """
        _CACHE = {}

        def put(k, v):
            _CACHE[k] = v
        """
        findings = scan(src)
        assert rules_of(findings) == ["THR201"]
        assert "_CACHE" in findings[0].message

    def test_augassign_and_mutator_methods_flagged(self):
        src = """
        _ITEMS = []
        _COUNT = compute()

        def bump():
            global _COUNT
            _COUNT += 1
            _ITEMS.append(1)
        """
        assert rules_of(scan(src)) == ["THR201", "THR201"]

    def test_write_in_nested_function_flagged(self):
        # A closure's writes count, including a mutator whose result is used.
        src = """
        _CACHE = {}

        def make_taker():
            def take(k):
                return _CACHE.pop(k)
            return take
        """
        assert rules_of(scan(src)) == ["THR201"]

    def test_mutation_under_lock_is_clean(self):
        src = """
        import threading

        _CACHE = {}
        _LOCK = threading.Lock()

        def put(k, v):
            with _LOCK:
                _CACHE[k] = v
        """
        assert scan(src) == []

    def test_import_time_initialization_is_clean(self):
        src = """
        _TABLE = {}
        _TABLE["a"] = 1
        """
        assert scan(src) == []

    def test_immutable_factories_not_tracked(self):
        src = """
        import re
        _RE = re.compile("x")
        _NAMES = frozenset({"a"})

        def touch():
            return _RE, _NAMES
        """
        assert scan(src) == []

    def test_noqa_suppresses(self):
        src = """
        _STATS = {}

        def record(k):
            _STATS[k] = 1  # repro: noqa[THR201] — written before threads start
        """
        assert scan(src) == []


class TestTHR202BareAcquire:
    def test_bare_acquire_flagged(self):
        src = """
        def f(lock):
            lock.acquire()
            work()
            lock.release()
        """
        assert rules_of(scan(src)) == ["THR202"]

    def test_acquire_with_try_finally_is_clean(self):
        src = """
        def f(lock):
            lock.acquire()
            try:
                work()
            finally:
                lock.release()
        """
        assert scan(src) == []

    def test_with_lock_is_clean(self):
        src = """
        def f(lock):
            with lock:
                work()
        """
        assert scan(src) == []

    def test_non_lock_acquire_ignored(self):
        # `.acquire()` on something that is not lock-named (e.g. a
        # connection pool) is out of scope for this rule.
        assert scan("def f(conn):\n    conn.acquire()\n") == []
