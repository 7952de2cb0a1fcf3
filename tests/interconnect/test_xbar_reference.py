"""The crossbar's grant path against a straightforward reference model.

:class:`ReferenceCrossbar` is the plain per-bank formulation — group
every bank's requests in a dict, arbitrate each group, update the stats
as it goes.  :class:`~repro.interconnect.xbar.Crossbar` serves banks
with a single requester without building any of that, so both are
driven through the same random cycles (broadcasts, a read and a write
from one master, conflicts) and must agree on the grants, every
:class:`XbarStats` field, every arbiter and the probe-hook sequence.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interconnect.arbiter import RoundRobinArbiter
from repro.interconnect.xbar import Crossbar, Request, XbarStats

MASTERS = 8
BANKS = 4


class ReferenceCrossbar:
    """Per-bank dict/set formulation of :meth:`Crossbar.arbitrate`."""

    def __init__(self, masters, banks, broadcast=True, name="xbar"):
        self.name = name
        self.broadcast = broadcast
        self.arbiters = [RoundRobinArbiter(masters) for _ in range(banks)]
        self.stats = XbarStats()
        self._last_bank = [None] * masters
        self.probe_conflict = None
        self.probe_broadcast = None

    def arbitrate(self, requests):
        if not requests:
            return set()
        seen = set()
        by_bank = {}
        for request in requests:
            key = request.grant_key
            if key in seen:
                raise ValueError(
                    f"master {request.master} issued two "
                    f"{'writes' if request.write else 'reads'} to "
                    f"{self.name} in one cycle")
            seen.add(key)
            by_bank.setdefault(request.bank, []).append(request)

        granted = set()
        stats = self.stats
        for bank, bank_requests in by_bank.items():
            winners = self._arbitrate_bank(bank, bank_requests)
            for request in winners:
                granted.add(request.grant_key)
                last = self._last_bank[request.master]
                if last is not None and last != bank:
                    transitions = stats.bank_transitions
                    transitions[request.master] = \
                        transitions.get(request.master, 0) + 1
                self._last_bank[request.master] = bank
            stats.deliveries += len(winners)
            stats.bank_accesses += 1
            if len(winners) > 1:
                stats.broadcasts += 1
                stats.broadcast_savings += len(winners) - 1
                if self.probe_broadcast is not None:
                    self.probe_broadcast(bank, len(winners))
            stats.stalls += len(bank_requests) - len(winners)
        return granted

    def _arbitrate_bank(self, bank, bank_requests):
        if len(bank_requests) == 1:
            return bank_requests
        groups = {}
        for request in bank_requests:
            if self.broadcast and not request.write:
                key = (False, request.offset)
            else:
                key = (True, request.master, request.write)
            groups.setdefault(key, []).append(request)
        if len(groups) == 1:
            return bank_requests
        self.stats.conflict_events += 1
        if self.probe_conflict is not None:
            self.probe_conflict(
                bank, sorted({request.master for request in bank_requests}))
        winner = self.arbiters[bank].grant(
            {request.master for request in bank_requests})
        candidates = [group for group in groups.values()
                      if any(r.master == winner for r in group)]
        candidates.sort(key=lambda group: any(r.write and r.master == winner
                                              for r in group))
        return candidates[0]


def wired(xbar):
    """Record the probe-hook calls of ``xbar`` in order."""
    calls = []
    xbar.probe_conflict = lambda bank, masters: calls.append(
        ("conflict", bank, list(masters)))
    xbar.probe_broadcast = lambda bank, width: calls.append(
        ("broadcast", bank, width))
    return calls


def state(xbar):
    return (xbar.stats, [(a.pointer, a.grants) for a in xbar.arbiters],
            list(xbar._last_bank))


#: One port request; offsets are few so same-address reads meet often.
ports = st.tuples(st.integers(min_value=0, max_value=MASTERS - 1),
                  st.integers(min_value=0, max_value=BANKS - 1),
                  st.integers(min_value=0, max_value=2),
                  st.booleans())


#: A lockstep fetch: several masters read one address.
lockstep = st.builds(
    lambda masters, bank, offset: [(m, bank, offset, False)
                                   for m in masters],
    st.lists(st.integers(min_value=0, max_value=MASTERS - 1), min_size=2,
             max_size=MASTERS, unique=True),
    st.integers(min_value=0, max_value=BANKS - 1),
    st.integers(min_value=0, max_value=2))

cycle_lists = st.lists(st.one_of(st.lists(ports, max_size=2 * MASTERS),
                                 lockstep),
                       min_size=1, max_size=12)


def cycle_requests(raw):
    """Drop duplicate ports (first wins) and build the cycle's requests."""
    seen = set()
    requests = []
    for master, bank, offset, write in raw:
        if (master, write) not in seen:
            seen.add((master, write))
            requests.append(Request(master, bank, offset, write))
    return requests


@settings(max_examples=300, deadline=None)
@given(cycle_lists, st.booleans())
def test_grant_path_matches_reference(cycles, broadcast):
    xbar = Crossbar(MASTERS, BANKS, broadcast=broadcast)
    reference = ReferenceCrossbar(MASTERS, BANKS, broadcast=broadcast)
    calls, reference_calls = wired(xbar), wired(reference)
    for raw in cycles:
        requests = cycle_requests(raw)
        assert xbar.arbitrate(requests) == reference.arbitrate(requests)
        assert state(xbar) == state(reference)
    assert calls == reference_calls
    # Dict equality ignores order; the update order must match too.
    assert list(xbar.stats.bank_transitions) \
        == list(reference.stats.bank_transitions)


@settings(max_examples=100, deadline=None)
@given(st.lists(ports, min_size=1, max_size=2 * MASTERS), st.data())
def test_duplicate_port_raises_before_any_update(raw, data):
    requests = cycle_requests(raw)
    duplicate = data.draw(st.sampled_from(requests))
    requests.insert(data.draw(st.integers(0, len(requests))),
                    Request(duplicate.master, duplicate.bank,
                            duplicate.offset, duplicate.write))
    for xbar in (Crossbar(MASTERS, BANKS), ReferenceCrossbar(MASTERS,
                                                             BANKS)):
        before = state(xbar)
        with pytest.raises(ValueError, match="issued two"):
            xbar.arbitrate(requests)
        assert state(xbar) == before
