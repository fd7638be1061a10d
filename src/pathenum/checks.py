"""Check results for identity verifications.

Verification routines return a CheckResult instead of asserting, so they
serve both as test predicates (truthiness) and as CLI diagnostics (the
detail string names the first counterexample with both values).  Every
check is a sequence of (where, lhs, rhs) comparisons and reports through
first_mismatch, which stops at the first one whose two sides differ.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


PASS = CheckResult(True)


def fail(where, lhs, rhs) -> CheckResult:
    return CheckResult(False, f"first mismatch at {where}: lhs={lhs}, rhs={rhs}")


def first_mismatch(comparisons) -> CheckResult:
    """fail at the first (where, lhs, rhs) with lhs != rhs, else PASS; read lazily."""
    for where, lhs, rhs in comparisons:
        if lhs != rhs:
            return fail(where, lhs, rhs)
    return PASS
