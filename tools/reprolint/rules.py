"""The repo-specific invariant rules (RL001–RL006).

Each rule machine-checks a correctness contract introduced by an earlier PR
(see DESIGN.md "Enforced invariants" for the PR-by-PR provenance).  Rules are
AST-based and heuristic by construction: they aim for zero false negatives
on the regression classes that actually bit this codebase, and route the
occasional justified exception through a per-line
``# reprolint: disable=CODE -- reason`` comment rather than loosening the
pattern.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set

from .engine import FileContext, ProjectContext, Rule, Violation

__all__ = ["ALL_RULES"]


def _call_target(node: ast.Call) -> Optional[str]:
    """Dotted name of a call target: ``np.exp(...)`` -> ``"np.exp"``."""
    parts: List[str] = []
    current: ast.expr = node.func
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def _keyword(node: ast.Call, name: str) -> Optional[ast.expr]:
    for keyword in node.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def _is_const(node: Optional[ast.expr], value: object) -> bool:
    return isinstance(node, ast.Constant) and node.value is value


#: Wall-clock reads: each one makes the result depend on when it ran.
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "date.today",
}


def _wall_clock_violations(rule: Rule, ctx: FileContext, message: str) -> List[Violation]:
    found = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        target = _call_target(node)
        if target is None:
            continue
        origin = ctx.from_imports.get(target, target)
        if target in _WALL_CLOCK_CALLS or origin in {"time.time", "time.monotonic", "time.perf_counter"}:
            found.append(rule.violation(ctx, node, message.format(call=target)))
    return found


class ProbabilitySpaceMath(Rule):
    """RL001: probability math outside ``stats/`` must stay in log space.

    The pre-PR-1 engine multiplied linear-space pdf values and silently
    underflowed to an all-zero posterior above ~40 dimensions; PR 1 moved the
    whole query path onto ``log_gaussian_pdf`` + ``logsumexp``.  This rule
    keeps it there: outside ``src/repro/stats/`` no code may call
    ``np.exp``/``math.exp`` (leaving log space) or multiply two pdf-valued
    calls (linear-space products are exactly the underflow pattern).
    Deliberate linear-space API boundaries carry a disable comment saying so.
    """

    code = "RL001"
    name = "prob-space-math"

    def applies_to(self, relpath: str, project: ProjectContext) -> bool:
        return relpath.startswith("src/repro/") and not relpath.startswith("src/repro/stats/")

    def check(self, ctx: FileContext, project: ProjectContext) -> List[Violation]:
        found: List[Violation] = []
        exp_callables = {f"{alias}.exp" for alias in ctx.numpy_aliases}
        exp_callables |= {f"{alias}.exp" for alias in ctx.math_aliases}
        for local, origin in ctx.from_imports.items():
            if origin in {"numpy.exp", "math.exp"}:
                exp_callables.add(local)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                target = _call_target(node)
                if target in exp_callables:
                    found.append(
                        self.violation(
                            ctx,
                            node,
                            f"`{target}(...)` leaves log space outside stats/; route through "
                            "log_gaussian_pdf/logsumexp (or justify with a disable comment)",
                        )
                    )
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                if self._is_pdf_call(node.left) and self._is_pdf_call(node.right):
                    found.append(
                        self.violation(
                            ctx,
                            node,
                            "product of linear-space pdf values underflows in high dimensions; "
                            "sum log-densities instead",
                        )
                    )
        return found

    @staticmethod
    def _is_pdf_call(node: ast.expr) -> bool:
        if not isinstance(node, ast.Call):
            return False
        target = _call_target(node)
        if target is None:
            return False
        tail = target.rsplit(".", 1)[-1]
        return "pdf" in tail and not tail.startswith("log")


class PickleFreePersistence(Rule):
    """RL002: ``persist/`` and ``serving/`` are pickle-free by contract.

    PR 4's snapshot format is portable .npz/JSON specifically so that loading
    an untrusted snapshot can never execute code and restores stay
    bit-identical across interpreter versions.  Inside ``src/repro/persist/``
    and ``src/repro/serving/`` this rule forbids importing pickle-family
    serialisers (pickle, dill, joblib, shelve, marshal) and requires every
    ``np.load`` call to pass ``allow_pickle=False`` explicitly — relying on
    numpy's default would let a future default-flip reopen the hole.
    """

    code = "RL002"
    name = "pickle-free-persistence"

    _FORBIDDEN_MODULES = {"pickle", "cPickle", "_pickle", "dill", "joblib", "shelve", "marshal"}

    def applies_to(self, relpath: str, project: ProjectContext) -> bool:
        return relpath.startswith(("src/repro/persist/", "src/repro/serving/"))

    def check(self, ctx: FileContext, project: ProjectContext) -> List[Violation]:
        found: List[Violation] = []
        load_callables = {f"{alias}.load" for alias in ctx.numpy_aliases}
        save_callables = {f"{alias}.save" for alias in ctx.numpy_aliases}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] in self._FORBIDDEN_MODULES:
                        found.append(
                            self.violation(
                                ctx, node, f"`import {alias.name}` in a pickle-free layer; "
                                "snapshots must stay executable-code-free (PR 4 contract)"
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module and node.module.split(".")[0] in self._FORBIDDEN_MODULES:
                    found.append(
                        self.violation(
                            ctx, node, f"`from {node.module} import ...` in a pickle-free layer; "
                            "snapshots must stay executable-code-free (PR 4 contract)"
                        )
                    )
            elif isinstance(node, ast.Call):
                target = _call_target(node)
                if target in load_callables and not _is_const(_keyword(node, "allow_pickle"), False):
                    found.append(
                        self.violation(
                            ctx, node, "`np.load` without explicit `allow_pickle=False`; the snapshot "
                            "format forbids pickled payloads"
                        )
                    )
                elif target in save_callables and _is_const(_keyword(node, "allow_pickle"), True):
                    found.append(
                        self.violation(
                            ctx, node, "`np.save(..., allow_pickle=True)` writes pickled payloads into "
                            "a pickle-free layer"
                        )
                    )
        return found


class NoNamedSharedMemory(Rule):
    """RL003: no module under ``src/repro`` imports named shared memory or its tracker.

    Each tenant's columns live in an anonymous mapping that dies with the
    process (``serving/shared_mem.py``).  A named POSIX segment
    (``multiprocessing.shared_memory``) can outlive a crash, and the stdlib
    registers every create and attach with ``multiprocessing.resource_tracker``,
    which starts a separate tracker process to unlink leaked names (or needs
    a process-wide patch to avoid starting one).  Neither module may be
    imported anywhere in the package.
    """

    code = "RL003"
    name = "no-named-shm"

    _FORBIDDEN = ("multiprocessing.shared_memory", "multiprocessing.resource_tracker")

    def applies_to(self, relpath: str, project: ProjectContext) -> bool:
        return relpath.startswith("src/repro/")

    def check(self, ctx: FileContext, project: ProjectContext) -> List[Violation]:
        found: List[Violation] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                names = [f"{node.module}.{alias.name}" for alias in node.names] + [node.module]
            else:
                continue
            if any(name == bad or name.startswith(bad + ".") for name in names for bad in self._FORBIDDEN):
                found.append(
                    self.violation(
                        ctx, node, "imports a named shared-memory module; tenant columns live in "
                        "an anonymous mapping (repro.serving.shared_mem), which needs no resource tracker"
                    )
                )
        return found


class DecayClockDiscipline(Rule):
    """RL004: decayed statistics are read against an explicit logical clock.

    PR 3 threads one ``DecayClock`` per tree through every CF read so that
    insertion-path updates and query-time reads agree on "now" — and so that
    replays are reproducible.  In ``index/``, ``core/`` and ``clustering/``
    this rule forbids wall-clock calls (``time.time()`` and friends — the
    clock must arrive as a parameter or live on the tree) and hard-coded
    numeric literals as the time argument of ``.decay_to(...)`` /
    ``decay_factor(...)`` (a pinned clock silently freezes aging).
    """

    code = "RL004"
    name = "decay-clock-discipline"

    def applies_to(self, relpath: str, project: ProjectContext) -> bool:
        return relpath.startswith(
            ("src/repro/index/", "src/repro/core/", "src/repro/clustering/")
        )

    def check(self, ctx: FileContext, project: ProjectContext) -> List[Violation]:
        found = _wall_clock_violations(
            self,
            ctx,
            "`{call}()` in the index layer; decay reads must thread a DecayClock / `now` "
            "parameter, never the wall clock",
        )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = _call_target(node) or ""
            time_arg: Optional[ast.expr] = None
            if target.endswith(".decay_to") and node.args:
                time_arg = node.args[0]
            elif target.rsplit(".", 1)[-1] == "decay_factor" and len(node.args) >= 2:
                time_arg = node.args[1]
            if (
                isinstance(time_arg, ast.Constant)
                and isinstance(time_arg.value, (int, float))
                and not isinstance(time_arg.value, bool)
            ):
                found.append(
                    self.violation(
                        ctx, node, "hard-coded time argument pins the decay clock; pass the "
                        "tree's clock value (`clock.now` / a `now` parameter) instead",
                    )
                )
        return found


class TraceDeterminism(Rule):
    """RL005: code reachable from trace-pinned drivers stays deterministic.

    The equivalence suite pins scalar/batch/flat/restored classification to
    bit-identical ``classification_trace_hash`` values; any hidden source of
    nondeterminism in the modules those drivers import turns that gate into a
    flaky coin-flip.  Within the transitive import closure of
    ``repro.core.classifier``, ``repro.core.driver``, ``repro.core.flat`` and
    ``repro.stream.anytime`` (explicit imports only — package facades are not
    expanded through), this rule forbids wall-clock reads, global-state RNG
    calls (``np.random.*``, stdlib ``random.*``), unseeded ``default_rng()`` /
    ``RandomState()``, and iteration over sets (hash-order-dependent; wrap in
    ``sorted(...)``).
    """

    code = "RL005"
    name = "trace-determinism"

    _NP_RANDOM_OK = {"default_rng", "Generator", "SeedSequence", "RandomState", "BitGenerator"}

    def applies_to(self, relpath: str, project: ProjectContext) -> bool:
        module = None
        for name, ctx in project.modules.items():
            if ctx.scoped == relpath:
                module = name
                break
        return project.in_trace_closure(module)

    def check(self, ctx: FileContext, project: ProjectContext) -> List[Violation]:
        found = _wall_clock_violations(
            self,
            ctx,
            "`{call}()` in a trace-pinned module makes classification traces "
            "time-dependent; thread timestamps from the stream driver",
        )
        random_aliases = {f"{alias}.random" for alias in ctx.numpy_aliases}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                found.extend(self._check_call(ctx, node, random_aliases))
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if self._is_set_expr(node.iter):
                    found.append(self._set_violation(ctx, node.iter))
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    if self._is_set_expr(generator.iter):
                        found.append(self._set_violation(ctx, generator.iter))
        return found

    def _check_call(
        self, ctx: FileContext, node: ast.Call, random_aliases: Set[str]
    ) -> List[Violation]:
        target = _call_target(node)
        if target is None:
            return []
        head, _, tail = target.rpartition(".")
        if head in random_aliases:
            if tail in {"default_rng", "RandomState"} and not node.args and not node.keywords:
                return [
                    self.violation(
                        ctx, node, f"unseeded `{target}()` in a trace-pinned module; pass an "
                        "explicit seed (or take the generator as a parameter)",
                    )
                ]
            if tail not in self._NP_RANDOM_OK:
                return [
                    self.violation(
                        ctx, node, f"`{target}(...)` uses numpy's global RNG state; take a seeded "
                        "`np.random.Generator` parameter instead",
                    )
                ]
        elif head == "random" and "random" not in ctx.from_imports:
            return [
                self.violation(
                    ctx, node, f"`{target}(...)` uses the process-global stdlib RNG; use a seeded "
                    "`random.Random(seed)` instance",
                )
            ]
        # Iterating a set via list()/tuple() conversion launders the order.
        if target in {"list", "tuple"} and node.args and self._is_set_expr(node.args[0]):
            return [self._set_violation(ctx, node.args[0])]
        return []

    @staticmethod
    def _is_set_expr(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in {"set", "frozenset"}
        )

    def _set_violation(self, ctx: FileContext, node: ast.expr) -> Violation:
        return self.violation(
            ctx, node, "iteration order of a set depends on hashing; wrap in `sorted(...)` "
            "before iterating in a trace-pinned module",
        )


class BatchHotPathLoops(Rule):
    """RL006: batch hot paths never fall back to per-item scalar evaluation.

    PR 1/PR 6 made batch classification ~200x faster than the per-query
    scalar loop precisely by keeping the hot path vectorised over SoA
    columns; one innocent ``for query in queries: ... .density(query)``
    regression would silently give that back.  In ``core/`` and ``serving/``,
    functions on the batch hot path (``*_batch``, the ``drive_*`` drivers,
    the registry's serving ``_round``) must not loop over a batch parameter while
    calling a scalar-path evaluator in the loop body — use the batch/SoA helpers
    (``log_density_batch`` / ``classify_anytime_batch`` / ``_entry_batch_params``).
    Per-item *bookkeeping* loops (building result objects) stay legal.
    """

    code = "RL006"
    name = "batch-hot-path-loops"

    _HOT_EXACT = {
        "drive_predict_full",
        "_drive_batch_chunk",
        "_round",
    }
    _BATCH_PARAM_NAMES = {
        "queries",
        "query_batch",
        "batch",
        "batches",
        "points",
        "items",
        "xs",
        "budgets",
        "requests",
    }
    _SCALAR_EVALUATORS = {
        "classify_anytime",
        "density",
        "pdf",
        "log_pdf",
        "weighted_pdf",
        "_entry_density",
        "pdq_scalar",
        "log_gaussian_pdf",
        "gaussian_pdf",
        "predict",
        "classify",
    }

    def applies_to(self, relpath: str, project: ProjectContext) -> bool:
        return relpath.startswith(("src/repro/core/", "src/repro/serving/"))

    def check(self, ctx: FileContext, project: ProjectContext) -> List[Violation]:
        found: List[Violation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not (node.name.endswith("_batch") or node.name in self._HOT_EXACT):
                continue
            params = {
                arg.arg
                for arg in (
                    node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                )
            }
            batch_params = params & self._BATCH_PARAM_NAMES
            if not batch_params:
                continue
            for loop in ast.walk(node):
                if not isinstance(loop, (ast.For, ast.AsyncFor)):
                    continue
                if not self._iterates_batch(loop.iter, batch_params):
                    continue
                evaluator = self._scalar_call_in(loop)
                if evaluator is not None:
                    found.append(
                        self.violation(
                            ctx, loop, f"per-item loop over a query batch calls scalar-path "
                            f"`{evaluator}`; use the batch/SoA helpers instead "
                            "(log_density_batch / classify_anytime_batch / _entry_batch_params)",
                        )
                    )
        return found

    def _iterates_batch(self, iter_node: ast.expr, batch_params: Set[str]) -> bool:
        if isinstance(iter_node, ast.Name):
            return iter_node.id in batch_params
        if isinstance(iter_node, ast.Call):
            target = _call_target(iter_node)
            if target in {"enumerate", "zip", "reversed"}:
                return any(self._iterates_batch(arg, batch_params) for arg in iter_node.args)
            if target == "range":
                return any(
                    isinstance(arg, ast.Call)
                    and _call_target(arg) == "len"
                    and arg.args
                    and self._iterates_batch(arg.args[0], batch_params)
                    for arg in iter_node.args
                )
        return False

    def _scalar_call_in(self, loop: ast.stmt) -> Optional[str]:
        for node in ast.walk(loop):
            if not isinstance(node, ast.Call):
                continue
            target = _call_target(node)
            if target is None:
                continue
            tail = target.rsplit(".", 1)[-1]
            if tail in self._SCALAR_EVALUATORS:
                return target
        return None


#: Every shipped rule, in code order.  The CLI, the meta-test and DESIGN.md
#: all key off this registry.
ALL_RULES: Sequence[Rule] = (
    ProbabilitySpaceMath(),
    PickleFreePersistence(),
    NoNamedSharedMemory(),
    DecayClockDiscipline(),
    TraceDeterminism(),
    BatchHotPathLoops(),
)

#: code -> rule instance, for --explain and the fixture tests.
RULES_BY_CODE: Dict[str, Rule] = {rule.code: rule for rule in ALL_RULES}
