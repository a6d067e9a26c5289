"""THR201 through the call graph.

An unlocked write is not reported when the writing function's must-hold
entry lockset proves every caller holds a lock.  Each case has a
negative twin proving the finding survives when that call-graph fact is
absent.
"""

import textwrap

import pytest

from repro.checks.analysis import run_deep


@pytest.fixture
def tree(tmp_path):
    pkg = tmp_path / "src" / "repro" / "demo"
    pkg.mkdir(parents=True)
    return pkg


def _scan(tree, source: str) -> list:
    (tree / "mod.py").write_text(textwrap.dedent(source))
    result = run_deep([str(tree)], cache_dir=None)
    return result.findings


def rules_of(findings) -> list[str]:
    return [f.rule for f in findings]


class TestThr201Upgrade:
    def test_helper_locked_by_every_caller_is_dropped(self, tree):
        findings = _scan(tree, """
        import threading

        _lock = threading.Lock()
        _stats = {}


        def _bump(key):
            _stats[key] = _stats.get(key, 0) + 1


        def record(key):
            with _lock:
                _bump(key)


        def record_pair(a, b):
            with _lock:
                _bump(a)
                _bump(b)
        """)
        assert "THR201" not in rules_of(findings)

    def test_one_unlocked_caller_keeps_the_finding(self, tree):
        findings = _scan(tree, """
        import threading

        _lock = threading.Lock()
        _stats = {}


        def _bump(key):
            _stats[key] = _stats.get(key, 0) + 1


        def record(key):
            with _lock:
                _bump(key)


        def record_fast(key):
            _bump(key)
        """)
        assert "THR201" in rules_of(findings)

    def test_public_helper_keeps_the_finding(self, tree):
        # Public names are pinned to an empty entry lockset — callers
        # outside the analyzed tree may reach them unlocked.
        findings = _scan(tree, """
        import threading

        _lock = threading.Lock()
        _stats = {}


        def bump(key):
            _stats[key] = _stats.get(key, 0) + 1


        def record(key):
            with _lock:
                bump(key)
        """)
        assert "THR201" in rules_of(findings)
