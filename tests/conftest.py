"""Suite-wide test configuration.

Tier-1 must explore the same sample on every host: the ``tier1``
hypothesis profile derandomizes example generation and ignores the
(git-ignored) local ``.hypothesis/`` example database, so a run neither
depends on nor hides behind whatever an earlier run happened to find.
Counterexamples worth keeping are committed as plain regression tests.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
