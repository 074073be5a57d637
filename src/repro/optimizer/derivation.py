"""Cost derivation (Section 3.1).

The derived cost of a configuration ``C`` for a query ``q`` is the minimum
known what-if cost over subsets of ``C``::

    d(q, C) = min_{S ⊆ C, c(q,S) known} c(q, S)          (Equation 1)

Under the monotonicity assumption (Assumption 1) this is an upper bound on
the true what-if cost, and it equals the what-if cost whenever ``c(q, C)``
itself is known. The restriction to singleton subsets (Equation 2) — the
form for which the paper proves submodularity (Theorem 1) — is exposed as
:meth:`CostDerivation.singleton_derived_cost`.

The store keeps, per query, the empty-configuration cost, the singleton
observations in a dict (``O(|C|)`` probes), and every larger observation
as one ``(cost, bitmask)`` list sorted by cost, where each recorded index
owns one bit. Derivation scans that list in cost order and stops at the
first entry whose mask is a subset of ``C``'s — the minimum — or as soon as
an entry's cost reaches the best singleton bound. Budgets do not keep the
list short: MCTS on the 12-query toy workload (K = 10) leaves its busiest
query with over 600 compound observations at B = 2000 and about 1,800 at
B = 5000, so a full subset scan per derivation dominated episode time.
"""

from __future__ import annotations

import bisect
from typing import Iterable

from repro.catalog import Index


class CostDerivation:
    """Incrementally maintained store of known what-if costs per query."""

    def __init__(self) -> None:
        self._exact: dict[tuple[str, frozenset[Index]], float] = {}
        self._empty: dict[str, float] = {}
        self._singletons: dict[str, dict[Index, float]] = {}
        # One bit per index seen in a compound observation.
        self._bits: dict[Index, int] = {}
        # Compound observations per query as (cost, mask), ascending.
        self._compound: dict[str, list[tuple[float, int]]] = {}
        # Per query: the union of its compound masks.
        self._members: dict[str, int] = {}

    # ------------------------------------------------------------------ #

    def mask(self, configuration: Iterable[Index]) -> int:
        """The bitmask of ``configuration``'s indexes that own a bit.

        Indexes without a bit appear in no compound observation, so
        dropping them never changes a subset test.
        """
        bits = self._bits
        mask = 0
        for index in configuration:
            bit = bits.get(index)
            if bit is not None:
                mask |= bit
        return mask

    def record(self, qid: str, configuration: frozenset[Index], cost: float) -> None:
        """Record an observed what-if cost ``c(q, C)``."""
        key = (qid, configuration)
        previous = self._exact.get(key)
        if previous is not None and previous <= cost:
            return
        self._exact[key] = cost
        size = len(configuration)
        if size == 0:
            self._empty[qid] = cost
        elif size == 1:
            (index,) = configuration
            self._singletons.setdefault(qid, {})[index] = cost
        else:
            bits = self._bits
            mask = 0
            for index in configuration:
                mask |= bits.setdefault(index, 1 << len(bits))
            entries = self._compound.setdefault(qid, [])
            if previous is not None:
                entries.remove((previous, mask))
            bisect.insort(entries, (cost, mask))
            self._members[qid] = self._members.get(qid, 0) | mask

    def known_cost(self, qid: str, configuration: frozenset[Index]) -> float | None:
        """The recorded what-if cost for the exact pair, if any."""
        return self._exact.get((qid, configuration))

    def observations(self, qid: str) -> int:
        """Number of distinct recorded configurations for ``qid``."""
        return (
            (1 if qid in self._empty else 0)
            + len(self._singletons.get(qid, ()))
            + len(self._compound.get(qid, ()))
        )

    # ------------------------------------------------------------------ #

    def derived_cost(
        self,
        qid: str,
        configuration: frozenset[Index],
        empty_cost: float,
        mask: int | None = None,
    ) -> float:
        """``d(q, C)`` per Equation 1.

        Args:
            qid: Query id.
            configuration: The configuration to derive a cost for.
            empty_cost: ``c(q, ∅)`` — always a known subset cost.
            mask: ``self.mask(configuration)``, when the caller derives
                the same configuration for many queries.
        """
        best = self._empty.get(qid, empty_cost)
        singletons = self._singletons.get(qid)
        if singletons:
            for index in configuration:
                cost = singletons.get(index)
                if cost is not None and cost < best:
                    best = cost
        entries = self._compound.get(qid)
        if entries:
            if mask is None:
                mask = self.mask(configuration)
            for cost, entry in entries:
                if cost >= best:
                    break
                if entry & mask == entry:
                    return cost
        return best

    def derived_cost_with_extra(
        self,
        qid: str,
        base_derived: float,
        configuration_with_extra: frozenset[Index],
        extra: Index,
    ) -> float:
        """``d(q, C ∪ {z})`` given ``base_derived = d(q, C)``.

        Only observations *containing* ``z`` can tighten the base value, so
        the probe touches the singleton entry for ``z`` plus the compound
        entries whose mask holds ``z``'s bit.
        """
        best = base_derived
        singletons = self._singletons.get(qid)
        if singletons:
            cost = singletons.get(extra)
            if cost is not None and cost < best:
                best = cost
        bit = self._bits.get(extra, 0)
        if self._members.get(qid, 0) & bit:
            mask = self.mask(configuration_with_extra)
            for cost, entry in self._compound[qid]:
                if cost >= best:
                    break
                if entry & bit and entry & mask == entry:
                    return cost
        return best

    def singleton_derived_cost(
        self, qid: str, configuration: frozenset[Index], empty_cost: float
    ) -> float:
        """``d(q, C)`` restricted to singleton subsets (Equation 2)."""
        best = self._empty.get(qid, empty_cost)
        singletons = self._singletons.get(qid)
        if singletons:
            for index in configuration:
                cost = singletons.get(index)
                if cost is not None and cost < best:
                    best = cost
        return best

    def has_observation(self, qid: str, index: Index) -> bool:
        """Whether any recorded configuration for ``qid`` contains ``index``.

        When false, ``d(q, C ∪ {index}) = d(q, C)`` for every ``C`` — no
        observation can tighten the bound — so derived-only search can skip
        the pair entirely.
        """
        singletons = self._singletons.get(qid)
        if singletons and index in singletons:
            return True
        return bool(self._members.get(qid, 0) & self._bits.get(index, 0))

    def singleton_costs(self, qid: str) -> dict[Index, float]:
        """All recorded singleton costs for ``qid`` (copy)."""
        return dict(self._singletons.get(qid, ()))
