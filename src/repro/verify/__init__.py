"""Independent plan verification: invariants, fuzzing, corruption.

Public surface:

* :func:`verify_plan` / :func:`verify_architecture` /
  :func:`verify_constrained` / :func:`verify_packed` -- re-derive a
  plan's invariants from the paper's models and report violations.
* :class:`VerificationReport` / :class:`Violation` /
  :class:`PlanVerificationError` -- the result types.
* :func:`corrupt_result` / :func:`corrupt_architecture` -- deliberate
  tampering helpers for negative tests and fault injection.
* :mod:`repro.verify.fuzz` -- the seeded cross-planner fuzz harness
  (imported lazily; it pulls in every planner).
"""

from repro.verify.corrupt import (
    CORRUPTION_MODES,
    corrupt_architecture,
    corrupt_result,
)
from repro.verify.invariants import (
    PlanVerificationError,
    VerificationReport,
    Violation,
    verify_architecture,
    verify_constrained,
    verify_packed,
    verify_plan,
)

__all__ = [
    "CORRUPTION_MODES",
    "PlanVerificationError",
    "VerificationReport",
    "Violation",
    "corrupt_architecture",
    "corrupt_result",
    "verify_architecture",
    "verify_constrained",
    "verify_packed",
    "verify_plan",
]
