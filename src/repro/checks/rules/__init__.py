"""Rule modules — importing this package registers every rule.

Five domain families, one id range each:

* ``DTY1xx`` — dtype-exactness (:mod:`repro.checks.rules.dtype`)
* ``THR2xx`` — thread-safety (:mod:`repro.checks.rules.threadsafety`)
* ``OBS3xx`` — obs-discipline (:mod:`repro.checks.rules.obs`)
* ``NUM4xx`` — numeric-safety (:mod:`repro.checks.rules.numeric`)
* ``PLN5xx`` — plan/cache discipline (:mod:`repro.checks.rules.plan`)

The whole-program rules — ``THR201`` unlocked writes, the
``THR210``/``THR211`` lockset and deadlock analyses, the ``DTY110``
dtype-flow lattice — register their metadata in
:mod:`repro.checks.rules.deep`; their logic runs from
:mod:`repro.checks.analysis` in every ``repro check``.

Plus the engine-level meta rule ``SUP001`` (suppression without a
justification), which lives in :mod:`repro.checks.engine` because it is
emitted during comment parsing, before any rule runs.
"""

from repro.checks.rules import deep, dtype, numeric, obs, plan, threadsafety

__all__ = ["dtype", "threadsafety", "obs", "numeric", "plan", "deep"]
