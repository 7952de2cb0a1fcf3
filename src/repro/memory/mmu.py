"""Per-core memory-management unit (paper Fig. 2 and Section III-D).

Each core owns one MMU instance holding its PID.  The MMU classifies every
decoded data address as *shared* (pass-through, word-interleaved across the
banks) or *private* (translated so that each PID's working data lands in
banks owned by that core alone).  This is what lets a single compiled
program image serve all eight cores — the proposed architecture's
precondition for instruction broadcasting.

*mc-ref* has no MMU hardware; its per-core program copies reach the same
placement through link-time constants.  Functionally the mapping is
identical, so the simulator uses this class for both and the architectural
difference shows up only in the area/power constants.
"""

from __future__ import annotations

from repro.memory.layout import PRIVATE_BASE, DataMemoryLayout


class MMU:
    """Translates one core's logical data addresses to (bank, offset)."""

    def __init__(self, pid: int, layout: DataMemoryLayout):
        self.pid = pid
        self.layout = layout
        self.translations = 0
        self.private_accesses = 0
        self.shared_accesses = 0
        #: Observability hook (``probe(pid, logical, bank, offset,
        #: private)``), wired by the platform's run loop while a
        #: ``mmu.translate`` subscriber is attached; ``None`` otherwise.
        self.probe = None
        #: Batched observability fast path: the ``mmu.translate`` ring
        #: buffer's flat data list, wired by the run loop when only
        #: batch subscribers listen.  One ``append(private)`` per
        #: translation replaces the full ``probe`` callback.
        self.probe_ring = None
        # This PID's fixed geometry, so a translation is arithmetic only.
        self._banks = layout.core_banks(pid)
        self._private_words = layout.private_words_per_core
        self._private_per_bank = layout.private_words_per_bank
        self._split = layout.shared_words_per_bank
        self._shared_words = layout.shared_words
        self._shared_banks = layout.banks

    def translate(self, logical: int) -> tuple[int, int]:
        """Physical (bank, offset) for ``logical``; counts the access mix.

        Same mapping and the same :class:`SimulationError` for an
        out-of-range address as :meth:`DataMemoryLayout.translate`.
        """
        self.translations += 1
        private = logical >= PRIVATE_BASE
        if private:
            self.private_accesses += 1
            off = logical - PRIVATE_BASE
            if off >= self._private_words:
                self.layout.translate(self.pid, logical)  # raises
            per_bank = self._private_per_bank
            bank = self._banks[off // per_bank]
            offset = self._split + off % per_bank
        else:
            self.shared_accesses += 1
            if not 0 <= logical < self._shared_words:
                self.layout.translate(self.pid, logical)  # raises
            bank = logical % self._shared_banks
            offset = logical // self._shared_banks
        ring = self.probe_ring
        if ring is not None:
            ring.append(private)
        elif self.probe is not None:
            self.probe(self.pid, logical, bank, offset, private)
        return bank, offset

    def translate_quiet(self, logical: int) -> tuple[int, int]:
        """Translate without statistics (used by loaders and inspectors)."""
        return self.layout.translate(self.pid, logical)

    @property
    def private_fraction(self) -> float:
        """Fraction of translated accesses that hit the private window.

        The paper profiles the benchmark at 76 % private vs 24 % shared
        accesses (Section III-D); tests compare against this ratio.
        """
        if not self.translations:
            return 0.0
        return self.private_accesses / self.translations
