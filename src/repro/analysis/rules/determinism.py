"""GL005 — banned nondeterminism in engine/algorithm modules.

The reproduction's correctness story leans on bit-identical re-execution
(supervised retries, checkpoint resume, the partition-order invariance
the test harness checks), so engine and algorithm code must not read
wall clocks or unseeded random state.  Seeded generators
(``np.random.default_rng(seed)``) are fine — every shipped use passes an
explicit seed.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..effects import attr_chain
from ..findings import Finding
from . import ModuleContext, Rule

__all__ = ["NondeterminismRule"]

#: legacy module-global numpy RNG entry points (unseedable per call site).
_NP_RANDOM_GLOBALS = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "ranf", "sample",
    "choice", "shuffle", "permutation", "standard_normal", "uniform",
    "normal", "seed", "bytes",
})

#: stdlib ``random`` module functions drawing from the hidden global state.
_STDLIB_RANDOM = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "betavariate",
    "expovariate", "getrandbits", "seed",
})


class NondeterminismRule(Rule):
    """GL005: wall-clock reads or unseeded random state."""

    code = "GL005"
    summary = (
        "wall-clock or unseeded-RNG nondeterminism; engine/algorithm code "
        "must be bit-reproducible"
    )

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    yield module.finding(
                        self.code,
                        node,
                        "importing from the stdlib random module pulls the "
                        "hidden global RNG; use np.random.default_rng(seed)",
                    )
                continue
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if chain is None:
                continue
            if chain in ("time.time", "time.time_ns"):
                yield module.finding(
                    self.code,
                    node,
                    f"{chain}() reads the wall clock; results become "
                    "run-dependent (time.perf_counter is fine for "
                    "reporting measured durations)",
                )
                continue
            parts = chain.split(".")
            if len(parts) == 3 and parts[0] in ("np", "numpy") and parts[1] == "random":
                if parts[2] == "default_rng":
                    if not node.args and not node.keywords:
                        yield module.finding(
                            self.code,
                            node,
                            f"{chain}() without a seed draws OS entropy; pass "
                            "an explicit seed",
                        )
                elif parts[2] in _NP_RANDOM_GLOBALS:
                    yield module.finding(
                        self.code,
                        node,
                        f"{chain}() uses numpy's module-global RNG; use a "
                        "seeded np.random.default_rng(seed) generator",
                    )
            elif (
                len(parts) == 2
                and parts[0] == "random"
                and parts[1] in _STDLIB_RANDOM
            ):
                yield module.finding(
                    self.code,
                    node,
                    f"{chain}() draws from the stdlib global RNG; use a "
                    "seeded np.random.default_rng(seed) generator",
                )
