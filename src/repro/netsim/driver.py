"""Round driver: advance on quorum-or-timeout instead of global lockstep.

The lockstep builders read protocol state directly between slots ("is exactly
one node still active?") - a god's-eye view no real deployment has.  The
:class:`RoundDriver` replaces those reads with the failure detector's view:
a protocol phase runs until a *quorum* of the nodes the detector believes
alive report completion, or until the phase's slot budget (the paper's
``lambda_1 log n`` rounds are exactly such budgets) times out - whichever
comes first.  Every wait is therefore bounded by construction, which is the
invariant repro-lint's RL010 enforces across this package.
"""

from __future__ import annotations

import math
from typing import Callable

from ..exceptions import ConfigurationError
from ..obs.spans import span
from .runtime import NetSimulator

__all__ = ["RoundDriver"]


class RoundDriver:
    """Phase advancement on quorum-or-timeout over a :class:`NetSimulator`.

    Args:
        sim: the runtime to drive.
        quorum: fraction of detector-alive nodes that must report done for a
            phase to complete early (1.0 = all of them).
    """

    __slots__ = ("quorum", "sim")

    def __init__(self, sim: NetSimulator, *, quorum: float = 1.0) -> None:
        if not 0.0 < quorum <= 1.0:
            raise ConfigurationError(f"quorum must be in (0, 1], got {quorum}")
        self.sim = sim
        self.quorum = quorum

    # -- detector views ------------------------------------------------------

    def alive_count(self) -> int:
        """How many nodes the detector currently believes alive."""
        return len(self.sim.detector.alive_view())

    def remaining_active(self) -> int:
        """Alive-believed nodes whose last heartbeat said "not done"."""
        return self.sim.detector.active_view()

    def quorum_done(self) -> bool:
        """Whether a quorum of alive-believed nodes reported completion."""
        alive = self.alive_count()
        if alive == 0:
            return True
        done = alive - self.remaining_active()
        return done >= math.ceil(self.quorum * alive)

    # -- phase execution -----------------------------------------------------

    def run_phase(self, slots: int, label: str = "") -> int:
        """Run a fixed slot budget (the lockstep-compatible phase form)."""
        if slots < 0:
            raise ConfigurationError(f"slots must be non-negative, got {slots}")
        with span("netsim.phase", label=label, budget=slots):
            for _ in range(slots):
                self.sim.step(label)
        return slots

    def run_until_quorum(
        self,
        max_slots: int,
        label: str = "",
        *,
        predicate: Callable[["RoundDriver"], bool] | None = None,
        check_every: int = 1,
    ) -> tuple[int, bool]:
        """Step until quorum (or ``predicate``) holds or the budget times out.

        The predicate is evaluated every ``check_every`` slots from the
        detector's view only - never from direct protocol state.  Returns
        ``(slots executed, completed before timeout)``.
        """
        if max_slots < 0:
            raise ConfigurationError(f"max_slots must be non-negative, got {max_slots}")
        if check_every < 1:
            raise ConfigurationError(f"check_every must be positive, got {check_every}")
        done = predicate(self) if predicate is not None else self.quorum_done()
        executed = 0
        with span("netsim.phase", label=label, budget=max_slots, mode="quorum"):
            # Bounded by construction: the loop runs at most max_slots steps.
            for _ in range(max_slots):
                if done:
                    break
                self.sim.step(label)
                executed += 1
                if executed % check_every == 0:
                    done = predicate(self) if predicate is not None else self.quorum_done()
        return executed, bool(done)
