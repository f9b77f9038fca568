"""What run.py needs from a workload.

A workload yields passes.  A pass is one complete sweep over inputs
built afresh for it: the same queries every pass, in the same list
order.  run.py sends them in an order drawn from the seed, each only
after the previous one returned (a closed loop with one client).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Protocol


class Query(NamedTuple):
    call: Callable[[], object]        # the timed request to infgon
    check: Callable[[object], bool]   # an independent check of its answer
    tag: int | None = None            # tail offset m, for per-offset traces


class Workload(Protocol):
    errors: list[str]     # failures of set-up or of a whole pass

    def pass_queries(self) -> list[Query]:
        """The queries of the next pass, over freshly built inputs;
        the i-th query of every pass asks the same question."""

    def end_pass(self) -> int:
        """Checks that span several queries of the pass just run;
        returns how many queries they failed."""

    def close(self) -> None:
        """Removes whatever the workload wrote."""
