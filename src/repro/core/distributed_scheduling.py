"""Distributed contention-based scheduling (the Kesselheim-Vocking substrate).

Theorem 3 reschedules the initial tree with mean power using the distributed
scheduling algorithm of [15] (shown O(log n)-approximate in [9]).  The paper
treats that algorithm as a black box: give every link an oblivious power and
let the links contend on the channel until each has found a slot.

This module implements that black box as a slotted contention process, run on
the same SINR channel as everything else:

* time is divided into *frames* of two slots (data + acknowledgment);
* every unscheduled link transmits in a frame with its current probability,
  using its assigned power; the receiver answers successful data with an
  acknowledgment at the same power;
* a link whose data **and** acknowledgment both succeed adopts the current
  frame index as its slot and stops contending; the others adjust their
  transmission probability multiplicatively (down on a failed attempt, up
  slowly while idle), the standard decay used by distributed contention
  resolution in the SINR model.

The resulting slot groups are feasible by construction: the links that
succeeded together in a frame succeeded in the presence of *more* interference
than the final schedule will ever have.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..constants import DEFAULT_CONSTANTS, AlgorithmConstants
from ..exceptions import ConvergenceError
from ..links import Link, LinkSet
from ..sinr import CachedChannel, PowerAssignment, SINRParameters
from ..sinr.channel import ensure_positive_powers
from ..state import NetworkState
from .schedule import Schedule

__all__ = ["DistributedScheduler", "DistributedScheduleResult"]


@dataclass(frozen=True)
class DistributedScheduleResult:
    """Outcome of a distributed scheduling run.

    Attributes:
        schedule: the produced schedule (slot = frame in which a link succeeded).
        frames_elapsed: number of contention frames until the last link was
            scheduled - the algorithm's running time.
        slots_elapsed: channel slots consumed (two per frame).
        power: the power assignment the links used.
    """

    schedule: Schedule
    frames_elapsed: int
    slots_elapsed: int
    power: PowerAssignment


class _LinkContender:
    """Per-link contention state (conceptually owned by the link's sender)."""

    __slots__ = ('index', 'link', 'power', 'probability', 'rng', 'scheduled_frame')

    def __init__(self, link: Link, probability: float, rng: np.random.Generator, index: int):
        self.link = link
        self.probability = probability
        self.rng = rng
        self.scheduled_frame: int | None = None
        # Position in the scheduler's contender arrays (sender/receiver cache
        # indices, powers), fixed for the whole run.
        self.index = index
        # Transmit power, fixed for the whole run; filled in by the scheduler
        # so the per-frame hot loop does not re-evaluate the assignment.
        self.power: float = 1.0

    @property
    def done(self) -> bool:
        return self.scheduled_frame is not None


class DistributedScheduler:
    """Schedules a link set by contention on the shared SINR channel.

    Args:
        params: physical-model parameters.
        constants: protocol constants (base transmission probability).
        decay: multiplicative decrease applied to a link's probability after a
            failed attempt.
        recovery: multiplicative increase applied while a link stays silent,
            capped at the base probability.
        min_probability: probability floor preventing starvation.
    """

    def __init__(
        self,
        params: SINRParameters,
        constants: AlgorithmConstants = DEFAULT_CONSTANTS,
        *,
        decay: float = 0.9,
        recovery: float = 1.02,
        min_probability: float = 0.01,
    ):
        if not (0.0 < decay <= 1.0):
            raise ValueError("decay must be in (0, 1]")
        if recovery < 1.0:
            raise ValueError("recovery must be at least 1")
        if not (0.0 < min_probability <= 1.0):
            raise ValueError("min_probability must be in (0, 1]")
        self.params = params
        self.constants = constants
        self.decay = decay
        self.recovery = recovery
        self.min_probability = min_probability

    def schedule(
        self,
        links: Sequence[Link] | LinkSet,
        power: PowerAssignment,
        rng: np.random.Generator,
        *,
        max_frames: int | None = None,
    ) -> DistributedScheduleResult:
        """Run the contention process until every link has adopted a slot.

        Args:
            links: the links to schedule.
            power: oblivious (or explicit) power assignment used by the links.
            rng: source of randomness.
            max_frames: frame budget; defaults to ``200 * max(8, len(links))``.

        Raises:
            ConvergenceError: if some link remains unscheduled after the budget.
        """
        link_list = list(links)
        if not link_list:
            return DistributedScheduleResult(Schedule(), 0, 0, power)
        if max_frames is None:
            max_frames = 200 * max(8, len(link_list))

        base = self.constants.scheduling_base_probability
        contenders = [
            _LinkContender(link, base, np.random.default_rng(int(seed)), index)
            for index, (link, seed) in enumerate(
                zip(link_list, rng.integers(0, 2**63 - 1, size=len(link_list), dtype=np.int64))
            )
        ]
        for contender in contenders:
            contender.power = power.power(contender.link)
        # The frame simulation runs on a fixed node universe (the link
        # endpoints), so one NetworkState owns the node-to-node geometry and
        # every frame is resolved on index arrays against it (no
        # Transmission/Reception marshalling).
        channel = CachedChannel(self.params, state=NetworkState.for_links(link_list))
        cache = channel.cache
        sender_idx = np.array(
            [cache.index_of_id(c.link.sender.id) for c in contenders], dtype=np.intp
        )
        receiver_idx = np.array(
            [cache.index_of_id(c.link.receiver.id) for c in contenders], dtype=np.intp
        )
        power_arr = np.array([c.power for c in contenders], dtype=float)
        ensure_positive_powers(power_arr)
        schedule = Schedule()
        frames = 0
        remaining = len(contenders)

        while remaining > 0 and frames < max_frames:
            frames += 1
            attempts = self._choose_attempts(contenders)
            if not attempts:
                continue
            # Frames are slot pairs: data at 2*(frame-1), ack right after
            # (slot-dependent gain models draw fresh fades per physical slot).
            first_slot = 2 * (frames - 1)
            successful = self._run_frame_indices(
                attempts, channel, sender_idx, receiver_idx, power_arr, first_slot
            )
            for contender in attempts:
                if contender in successful:
                    contender.scheduled_frame = frames - 1
                    schedule.assign(contender.link, frames - 1)
                    remaining -= 1
                else:
                    contender.probability = max(
                        self.min_probability, contender.probability * self.decay
                    )
            for contender in contenders:
                if not contender.done and contender not in attempts:
                    contender.probability = min(base, contender.probability * self.recovery)

        if remaining > 0:
            raise ConvergenceError(
                f"{remaining} of {len(link_list)} links unscheduled after {max_frames} frames"
            )
        return DistributedScheduleResult(
            schedule=schedule,
            frames_elapsed=frames,
            slots_elapsed=2 * frames,
            power=power,
        )

    # -- internals ----------------------------------------------------------

    def _choose_attempts(self, contenders: Sequence[_LinkContender]) -> list[_LinkContender]:
        """Pick this frame's transmitting links, one per sender node at most."""
        by_sender: dict[int, _LinkContender] = {}
        for contender in contenders:
            if contender.done:
                continue
            if contender.rng.random() >= contender.probability:
                continue
            sender_id = contender.link.sender.id
            if sender_id in by_sender:
                # A radio sends one message per slot; keep one attempt per sender.
                if contender.rng.random() < 0.5:
                    by_sender[sender_id] = contender
            else:
                by_sender[sender_id] = contender
        return list(by_sender.values())

    def _run_frame_indices(
        self,
        attempts: Sequence[_LinkContender],
        channel: CachedChannel,
        sender_idx: np.ndarray,
        receiver_idx: np.ndarray,
        power_arr: np.ndarray,
        first_slot: int = 0,
    ) -> set[_LinkContender]:
        """Run the data + acknowledgment slots; return the fully successful links.

        Both slots are resolved through
        :meth:`~repro.sinr.channel.CachedChannel.resolve_indices`; a link
        succeeds when its receiver decoded *its own* sender (``best`` equals
        the link's row) in the data slot and, symmetrically, its sender
        decoded the receiver's acknowledgment.  Half-duplex is applied
        exactly as ``Channel.resolve`` does: a listener that is also
        transmitting in the slot hears nothing.
        """
        rows = np.array([c.index for c in attempts], dtype=np.intp)
        tx = sender_idx[rows]
        rx = receiver_idx[rows]
        pw = power_arr[rows]

        # Data slot: all attempt senders transmit; receivers that are
        # themselves transmitting are busy and cannot listen.
        listening = np.nonzero(~np.isin(rx, tx))[0]
        best, _, ok = channel.resolve_indices(tx, rx[listening], pw, slot=first_slot)
        data_ok = listening[ok & (best == listening)]
        if data_ok.size == 0:
            return set()

        # Acknowledgment slot: the receivers of successful data answer on the
        # dual link with the same power; the original senders listen (unless
        # they are busy acknowledging another link themselves).  Successful
        # receivers are distinct (each decoded exactly one sender), so the
        # ack transmitters are automatically unique.
        ack_tx = rx[data_ok]
        ack_rx = tx[data_ok]
        ack_listening = np.nonzero(~np.isin(ack_rx, ack_tx))[0]
        ack_best, _, ack_ok = channel.resolve_indices(
            ack_tx, ack_rx[ack_listening], pw[data_ok], slot=first_slot + 1
        )
        final = data_ok[ack_listening[ack_ok & (ack_best == ack_listening)]]
        return {attempts[int(i)] for i in final}
