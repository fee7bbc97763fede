"""Shared types of the benchmark workloads."""

from __future__ import annotations

import resource
from dataclasses import dataclass, field


def cpu_seconds() -> float:
    """User + system CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Op:
    """One operation of a round and the verdict on its output.

    ``failed`` marks an operation that did not complete as the program
    promises (a raised error, or a solver stopping short of its own
    tolerance). ``problems`` lists output checks that disagreed with an
    independent recomputation; any such problem also fails the operation
    and makes the whole run incorrect.
    """

    name: str
    failed: bool = False
    reason: str = ""
    problems: list[str] = field(default_factory=list)

    @property
    def did_fail(self) -> bool:
        return self.failed or bool(self.problems)


def run_op(name: str, check, *args) -> Op:
    """Run an output check; an exception inside it is a problem, not a crash."""
    try:
        problems = check(*args)
    except Exception as exc:  # a check that cannot run is a failed check
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    return Op(name, problems=list(problems))
