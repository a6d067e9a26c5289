"""Thread-root discovery pinned against the real repro tree.

This is the regression net for the call-graph's entry-point discovery:
if a refactor moves or renames a spawn site, or the resolver stops
seeing through ``self``-method / imported-function targets, this test
names exactly which second-program-counter entry disappeared.  New
legitimate spawn sites should be added to EXPECTED_ROOTS deliberately —
every entry here widens what THR210 must reason about.
"""

from pathlib import Path

import pytest

from repro.checks.analysis import CallGraph, Project

SRC = Path(__file__).resolve().parents[3] / "src"

#: (kind, fully-qualified target, resolved) for every spawn site in src/.
EXPECTED_ROOTS = {
    # The HTTP accept loop: a stdlib method on an instance attribute —
    # kept as an unresolved pseudo-root so it stays visible here.
    ("thread", "repro.serve.server.self._httpd.serve_forever", False),
    # Serving worker threads.
    ("thread", "repro.serve.worker.WorkerPool._run", True),
}


@pytest.fixture(scope="module")
def graph():
    project = Project.load([str(SRC)], cache=None)
    assert not project.parse_failures
    return CallGraph.build(project)


class TestRealTreeRoots:
    def test_discovered_root_set_matches(self, graph):
        got = {(r.kind, r.target, r.resolved) for r in graph.roots}
        missing = EXPECTED_ROOTS - got
        extra = got - EXPECTED_ROOTS
        assert not missing, f"spawn sites no longer discovered: {sorted(missing)}"
        assert not extra, (
            f"new spawn sites {sorted(extra)} — if intentional, add them to "
            "EXPECTED_ROOTS (and make sure their shared state is locked)"
        )

    def test_spawners_are_recorded(self, graph):
        spawners = {r.target: r.spawner for r in graph.roots}
        assert (
            spawners["repro.serve.worker.WorkerPool._run"]
            == "repro.serve.worker.WorkerPool.__init__"
        )

    def test_worker_run_loop_reaches_the_batcher(self, graph):
        # The worker thread root must actually expand: _run drains the
        # batcher, so batcher internals are root-reachable.
        reached = [
            fq for fq, roots in graph.reachable_from.items()
            if "repro.serve.worker.WorkerPool._run" in roots
        ]
        assert len(reached) > 1, "root reachability did not expand past _run"

    def test_every_resolved_root_exists_in_the_project(self, graph):
        for r in graph.roots:
            if r.resolved:
                assert graph._ref_for(r.target) is not None, r.target
