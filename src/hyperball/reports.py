"""Property reports: verdict plus machine-checkable certificate.

A "holds" verdict is reserved for exhaustive checks.  Randomized searches
that find nothing report "inconclusive" with budget statistics — honesty of
certificates over optimism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from .errors import InvalidArgument

HOLDS = "holds"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"

# Refuter mode -> number of leading balls whose centers may lie outside the
# subset (None: all of them).  It lives here, not in ``lab``, so that the
# CLI can offer the modes without loading the refuter.
REFUTE_MODES = {"external": None, "hyperconvex": 0, "weakly-external": 1}


@dataclass(frozen=True)
class PropertyReport:
    verdict: str
    certificate: Mapping[str, Any] | None = None
    seed: int | None = None
    budget_used: int | None = None
    notes: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.verdict not in (HOLDS, REFUTED, INCONCLUSIVE):
            raise InvalidArgument(f"unknown verdict: {self.verdict!r}")

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS

    @property
    def refuted(self) -> bool:
        return self.verdict == REFUTED
