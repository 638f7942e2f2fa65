"""Structured results for the verification checks and suites."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class CheckReport:
    """Outcome of one verification check or a whole suite.

    ``checked`` counts the individual instances examined; ``failures`` holds a
    description per failing instance (first counterexample first); ``instances``
    optionally lists every instance a suite ran, for the CLI report.
    """

    name: str
    passed: bool
    checked: int
    failures: List[str] = field(default_factory=list)
    instances: List[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checked": self.checked,
            "failures": list(self.failures),
            "instances": list(self.instances),
        }


@dataclass
class QuasiCommReport:
    """Both commutation candidates for a pair of partitions.

    ``unsigned_matches`` reports q**e * bar(nu * mu) == mu * nu and
    ``signed_matches`` reports (-q)**e * bar(nu * mu) == mu * nu, where
    e = (d-1) * len(mu) * len(nu).  The quasi suite requires the signed form
    and reads the unsigned flag for where the two forms genuinely differ.
    """

    mu: tuple
    nu: tuple
    d: int
    exponent: int
    unsigned_matches: bool
    signed_matches: bool
