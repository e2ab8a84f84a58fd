"""reprolint — repo-specific static analysis for the anytime-Bayes forest.

Six PRs of optimisation left this codebase with correctness contracts that
generic linters cannot see: probability math must stay in log space, decayed
statistics are only read against an explicit logical clock, snapshots are
pickle-free, no module imports named shared memory or its resource tracker
(tenant columns live in anonymous mappings), trace-pinned code must be
deterministic, and batch hot paths must stay vectorised.
reprolint machine-checks those contracts (rules RL001–RL006, each documented
in its class docstring and in DESIGN.md "Enforced invariants") so the
compactor / multi-tenant / multi-node refactors on the ROADMAP can rewrite
hot paths without re-litigating the invariants in review.

Usage::

    python -m tools.reprolint src/ tests/ benchmarks/
    python -m tools.reprolint --list
    python -m tools.reprolint --explain RL003

Suppress a justified exception on its own line::

    return np.exp(log_density)  # reprolint: disable=RL001 -- linear-space API boundary

Only the standard library is used; the checker runs anywhere the test suite
runs (it is enforced in tier-1 via ``tests/analysis/``).
"""

from .engine import (
    FileContext,
    LintError,
    ProjectContext,
    Rule,
    Violation,
    run_paths,
)
from .rules import ALL_RULES, RULES_BY_CODE

__all__ = [
    "ALL_RULES",
    "RULES_BY_CODE",
    "FileContext",
    "LintError",
    "ProjectContext",
    "Rule",
    "Violation",
    "run_paths",
]
