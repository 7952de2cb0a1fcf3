"""Cycle-level crossbar with read broadcast and per-bank round-robin.

The crossbar arbitrates one cycle's worth of requests: every bank serves at
most one *access* per cycle, but a read access can be **broadcast** — all
masters reading the same (bank, offset) are granted together at the cost of
a single bank access and with no extra cycles (paper Section III-B).
Masters that lose arbitration stall (they are clock-gated by the platform)
and reissue next cycle.

The same class models both crossbars:

* I-Xbar — all requests are instruction reads; broadcast is the paper's
  instruction-broadcast mechanism.
* D-Xbar — read and write requests; writes never merge.  A core has
  separate data-read and data-write ports (the TamaRISC three-port
  interface), so one master may place one read *and* one write per cycle;
  they arbitrate independently, and a read and a write of the same core
  landing in the same single-ported bank serialise like any other
  conflict.

Requests are plain ``(master, bank, offset, write)`` tuples
(:class:`Request`), and :meth:`Crossbar.grant` returns the granted ports
as a bit mask (bit ``2 * master + write``, see :func:`port_bit`), so the
platform's per-cycle loop allocates nothing for a bank with a single
requester — by far the common case.

Statistics collected here feed the power model directly (bank accesses,
broadcast savings, and per-master bank-transition counts that model
output-net switching activity on the instruction path, which is why the
ulpmc-bank organisation spends less crossbar and core power than
ulpmc-int — Table II's last paragraph).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.interconnect.arbiter import RoundRobinArbiter


class Request(NamedTuple):
    """One master port's request for this cycle.

    A plain tuple, read by position in the crossbar's hot path; the
    platform builds one per instruction (instruction fetches once per
    program image), never per stalled cycle.  ``grant_key``
    (``(master, write)``) identifies the port across the arbitration
    result.
    """

    master: int
    bank: int
    offset: int
    write: bool = False

    @property
    def grant_key(self) -> tuple[int, bool]:
        return (self.master, self.write)


def port_bit(master: int, write: bool) -> int:
    """The bit of ``(master, write)``'s port in a :meth:`Crossbar.grant`
    mask."""
    return 1 << (2 * master + write)


@dataclass
class XbarStats:
    """Aggregate crossbar activity."""

    #: bank accesses actually performed (after broadcast merging)
    bank_accesses: int = 0
    #: words transferred for masters (= granted requests)
    deliveries: int = 0
    #: accesses saved by broadcast (granted requests minus bank accesses)
    broadcast_savings: int = 0
    #: bank-cycles in which a broadcast (>=2-way merge) happened
    broadcasts: int = 0
    #: requests stalled by losing arbitration
    stalls: int = 0
    #: bank-cycles with conflicting (non-mergeable) requests
    conflict_events: int = 0
    #: per-master count of granted accesses whose bank differs from the
    #: master's previously granted bank (output-net switching proxy)
    bank_transitions: dict[int, int] = field(default_factory=dict)

    @property
    def total_bank_transitions(self) -> int:
        return sum(self.bank_transitions.values())


class Crossbar:
    """N-master, B-bank single-cycle crossbar."""

    def __init__(self, masters: int, banks: int, broadcast: bool = True,
                 name: str = "xbar"):
        self.name = name
        self.masters = masters
        self.banks = banks
        self.broadcast = broadcast
        self.arbiters = [RoundRobinArbiter(masters) for _ in range(banks)]
        self.stats = XbarStats()
        self._last_bank = [None] * masters
        #: Observability hooks, wired by the platform's run loop while a
        #: probe subscriber is attached (``None`` otherwise; the checks
        #: sit on the rare conflict/broadcast paths, not per request).
        #: ``probe_conflict(bank, masters)`` fires per conflicting
        #: bank-cycle, ``probe_broadcast(bank, width)`` per >=2-way merge.
        self.probe_conflict = None
        self.probe_broadcast = None

    def arbitrate(self, requests) -> set[tuple[int, bool]]:
        """Arbitrate one cycle of requests (see :meth:`grant`).

        Returns the granted ``(master, write)`` port keys.
        """
        mask = self.grant(requests)
        return {(bit >> 1, bool(bit & 1))
                for bit in range(mask.bit_length()) if mask >> bit & 1}

    def grant(self, requests) -> int:
        """Arbitrate one cycle of ``(master, bank, offset, write)``
        requests; returns the granted ports as a :func:`port_bit` mask.

        A master may issue at most one read and one write per cycle;
        duplicates raise.  Banks are served in order of their first
        request, winners in request order (this fixes the order of the
        per-master bank-transition updates and of the probe hooks).
        """
        ports = banks = 0
        shared = False
        for master, bank, _, write in requests:
            bit = 1 << (2 * master + write)
            if ports & bit:
                raise ValueError(
                    f"master {master} issued two "
                    f"{'writes' if write else 'reads'} to "
                    f"{self.name} in one cycle")
            ports |= bit
            if banks >> bank & 1:
                shared = True
            else:
                banks |= 1 << bank
        if shared:
            return self._grant_shared(requests, ports)
        # One requester per bank: everybody wins, nobody merges.
        self._track(requests)
        stats = self.stats
        stats.bank_accesses += len(requests)
        stats.deliveries += len(requests)
        return ports

    def _grant_shared(self, requests, ports: int) -> int:
        """:meth:`grant` for a cycle in which some bank has several
        requests (validated by the caller; ``ports`` is every request's
        port)."""
        stats = self.stats
        if self.broadcast:
            # Lockstep fetch: one read address for every request, so one
            # merged access serves them all.
            _, bank, offset, _ = requests[0]
            for _, other, at, write in requests:
                if write or other != bank or at != offset:
                    break
            else:
                self._track(requests)
                width = len(requests)
                stats.bank_accesses += 1
                stats.deliveries += width
                stats.broadcasts += 1
                stats.broadcast_savings += width - 1
                if self.probe_broadcast is not None:
                    self.probe_broadcast(bank, width)
                return ports
        by_bank = {}
        multi = {}
        for request in requests:
            bank = request[1]
            first = by_bank.setdefault(bank, request)
            if first is not request:
                group = multi.get(bank)
                if group is None:
                    multi[bank] = [first, request]
                else:
                    group.append(request)

        granted = 0
        delivered = stalls = broadcasts = savings = 0
        for bank, request in by_bank.items():
            group = multi.get(bank)
            if group is None:
                winners = (request,)
            else:
                winners = self._arbitrate_bank(bank, group)
                stalls += len(group) - len(winners)
            for master, _, _, write in winners:
                granted |= 1 << (2 * master + write)
            self._track(winners)
            width = len(winners)
            delivered += width
            if width > 1:
                broadcasts += 1
                savings += width - 1
                if self.probe_broadcast is not None:
                    self.probe_broadcast(bank, width)

        stats.bank_accesses += len(by_bank)
        stats.deliveries += delivered
        stats.stalls += stalls
        stats.broadcasts += broadcasts
        stats.broadcast_savings += savings
        return granted

    def _track(self, granted) -> None:
        """Count the per-master bank transitions of ``granted`` requests,
        in order."""
        last_bank = self._last_bank
        transitions = self.stats.bank_transitions
        for master, bank, _, _ in granted:
            last = last_bank[master]
            if last != bank:
                if last is not None:
                    transitions[master] = transitions.get(master, 0) + 1
                last_bank[master] = bank

    def _arbitrate_bank(self, bank: int, bank_requests: list):
        """Pick this cycle's winners for one bank with several requests
        (one access, maybe merged)."""
        # Group mergeable reads: same offset, read, broadcast enabled.
        groups: dict[tuple, list] = {}
        for request in bank_requests:
            if self.broadcast and not request[3]:
                key = (False, request[2])
            else:
                key = (True, request[0], request[3])
            groups.setdefault(key, []).append(request)
        if len(groups) == 1:
            return bank_requests
        self.stats.conflict_events += 1
        masters = {request[0] for request in bank_requests}
        if self.probe_conflict is not None:
            self.probe_conflict(bank, sorted(masters))
        winner = self.arbiters[bank].grant(masters)
        # The winning master may have both a read and a write here; serve
        # the read first (the instruction cannot commit without it anyway).
        candidates = [group for group in groups.values()
                      if any(r[0] == winner for r in group)]
        candidates.sort(key=lambda group: any(r[3] and r[0] == winner
                                              for r in group))
        return candidates[0]

    def reset(self) -> None:
        for arbiter in self.arbiters:
            arbiter.reset()
        self.stats = XbarStats()
        self._last_bank = [None] * self.masters
