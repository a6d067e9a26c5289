"""The analyzer's strongest regression test: the repo itself is clean.

Every rule — per-file and whole-program — runs over the installed
``repro`` package; any new unguarded reduction, unrouted GEMM, unlocked
module mutation, race, lock-order inversion, exactness leak, or bare
print() introduced by a future change fails this test — the same signal
the CI ``lint`` job and the pre-commit hook enforce at the edges.
"""

from pathlib import Path

import repro
from repro import checks
from repro.checks.engine import SUP001, make_context

SRC = Path(repro.__file__).parent


def test_source_tree_is_clean():
    findings = checks.run([str(SRC)])
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"repro check found violations:\n{rendered}"


def test_every_suppression_in_tree_is_justified():
    """Policy audit: no file carries a justification-less noqa."""
    for path in sorted(SRC.rglob("*.py")):
        ctx = make_context(path.read_text(encoding="utf-8"), str(path))
        assert not ctx.bad_suppressions, (
            f"{path}: noqa without justification at "
            f"line(s) {[s.line for s in ctx.bad_suppressions]}"
        )


def test_sup001_meta_rule_cannot_be_suppressed():
    # A malformed noqa cannot silence itself, even naming SUP001.
    findings = checks.run_source(
        "a = b @ c  # repro: noqa[DTY101,SUP001]\n"
    )
    assert SUP001 in [f.rule for f in findings]


def test_deep_self_scan_is_clean(tmp_path):
    """The CLI's path — whole-program analysis with the summary cache,
    cold and then warm — agrees the tree is clean (acceptance bar for
    ``repro check src``)."""
    from repro.checks.analysis import run_deep

    cache_dir = str(tmp_path / "cache")
    cold = run_deep([str(SRC)], cache_dir=cache_dir)
    warm = run_deep([str(SRC)], cache_dir=cache_dir)
    assert warm.cache_stats["misses"] == 0
    for result in (cold, warm):
        rendered = "\n".join(f.render() for f in result.findings)
        assert result.findings == [], f"repro check found violations:\n{rendered}"


def test_registry_is_complete_and_well_formed():
    fams = checks.families()
    assert set(fams) == {"dtype", "threads", "obs", "numeric", "plan"}
    for family, ids in fams.items():
        assert len(ids) >= 3, f"family {family} has fewer than 3 rules"
    all_ids = [r.id for r in checks.iter_rules()]
    assert all_ids == sorted(all_ids)
    for r in checks.iter_rules():
        assert r.summary and r.invariant, f"{r.id} missing metadata"
