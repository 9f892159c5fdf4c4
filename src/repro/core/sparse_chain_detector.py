"""SCD — the Sparse Chain Detector (Fig. 3 d).

Maintains the Indirect Pattern Table (IPT): per indirect stream it records
the sparse structure's start address (``ss_start``), the address stride
(shift), and the Last Prefetched Indirect index (LPI), implementing the
paper's address formula::

    IA_address = IA_ss_start + (W_LPI << stride)

Two services:

* :meth:`formula_address` — the affine reconstruction above, learned from
  (index, address) resolutions the runahead performs. For hashed streams
  no stable (ss_start, shift) exists and the entry never validates.
* :meth:`predict_indices` — *approximate* chain prediction: when observed
  index deltas are stable (block/banded patterns), extrapolate the next
  indices from the LPI before their W data has even arrived. This is the
  speculative "approximate dependency chain calculation" of Q&A3; the
  confidence gate keeps it silent on random patterns.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError

#: Largest address shift (log2 of the row stride) the IPT fits.
_MAX_SHIFT = 13


@dataclass
class IPTEntry:
    """Indirect Pattern Table row (fields mirror Table I's SCD budget)."""

    ss_start: int = 0
    shift: int = 0
    valid: bool = False
    fit_conf: int = 0
    lpi: int = 0  # last prefetched indirect index value
    delta_ewma: float = 0.0
    delta_conf: int = 0
    last_use: int = 0


class SparseChainDetector:
    """IPT learning over runahead-resolved (index, address) pairs."""

    def __init__(
        self,
        n_entries: int = 32,
        lock_confidence: int = 2,
        delta_confidence: int = 4,
        ewma_alpha: float = 0.3,
    ) -> None:
        if n_entries < 1:
            raise ConfigError("SCD needs >= 1 IPT entry")
        self.n_entries = n_entries
        self.lock_confidence = lock_confidence
        self.delta_confidence = delta_confidence
        self.ewma_alpha = ewma_alpha
        self._ipt: dict[int, IPTEntry] = {}
        self._clock = 0
        self._last_pair: dict[int, tuple[int, int]] = {}

    def _entry(self, stream_id: int) -> IPTEntry:
        entry = self._ipt.get(stream_id)
        if entry is None:
            if len(self._ipt) >= self.n_entries:
                victim = min(self._ipt, key=lambda s: self._ipt[s].last_use)
                del self._ipt[victim]
                self._last_pair.pop(victim, None)
            entry = IPTEntry()
            self._ipt[stream_id] = entry
        return entry

    # -- learning ---------------------------------------------------------------
    def record_resolution(self, stream_id: int, idx: int, addr: int) -> None:
        """Record one runahead-resolved (index, address) pair."""
        self.record_window(stream_id, (idx,), (addr,))

    def record_window(self, stream_id: int, indices, addrs) -> None:
        """Record a window of runahead-resolved (index, address) pairs.

        Pairs are learned in order, each exactly as if recorded alone:
        the index-delta statistics that drive approximate prediction and
        the affine (ss_start, shift) fit from consecutive pairs. The
        entry's fields run in locals and are written back once.
        """
        n = len(indices)
        if n == 0:
            return
        self._clock += n
        entry = self._entry(stream_id)
        entry.last_use = self._clock
        alpha = self.ewma_alpha
        lock = self.lock_confidence
        lpi, ewma, dconf = entry.lpi, entry.delta_ewma, entry.delta_conf
        ss_start, shift, fit_conf = entry.ss_start, entry.shift, entry.fit_conf
        valid = entry.valid
        prev = self._last_pair.get(stream_id)
        idx0, addr0 = prev if prev is not None else (None, None)
        for idx, addr in zip(indices, addrs):
            # Index-delta statistics (for approximate chain extrapolation).
            delta = idx - lpi
            if dconf > 0 or ewma != 0.0:
                if delta == round(ewma) and delta != 0:
                    if dconf < 15:
                        dconf += 1
                else:
                    dconf = dconf - 2 if dconf > 2 else 0
                ewma += alpha * (delta - ewma)
            else:
                ewma = float(delta)
            lpi = idx

            # Affine fit from consecutive pairs.
            prev_idx, prev_addr = idx0, addr0
            idx0, addr0 = idx, addr
            if prev_idx is None or idx == prev_idx:
                continue
            # Both points lie on ss_start + (idx << s) exactly when
            # delta_addr = delta_idx * 2^s, so a pair determines the shift
            # uniquely: no candidate scan needed.
            q, r = divmod(addr - prev_addr, idx - prev_idx)
            s = q.bit_length() - 1  # the fit needs q == 2^s
            base0 = prev_addr - (prev_idx << s) if r == 0 and q > 0 else -1
            if base0 >= 0 and q == 1 << s and s <= _MAX_SHIFT:
                if ss_start != base0 or shift != s:
                    ss_start, shift = base0, s
                    fit_conf = 1
                elif fit_conf < 15:
                    fit_conf += 1
            elif fit_conf:
                fit_conf -= 1
            valid = fit_conf >= lock
        entry.lpi, entry.delta_ewma, entry.delta_conf = lpi, ewma, dconf
        entry.ss_start, entry.shift, entry.fit_conf = ss_start, shift, fit_conf
        entry.valid = valid
        self._last_pair[stream_id] = (idx0, addr0)

    # -- prediction ---------------------------------------------------------------
    def formula_address(self, stream_id: int, idx: int) -> int | None:
        """``ss_start + (idx << shift)`` when the affine fit is locked."""
        entry = self._ipt.get(stream_id)
        if entry is None or not entry.valid:
            return None
        return entry.ss_start + (idx << entry.shift)

    def predict_indices(self, stream_id: int, count: int) -> list[int] | None:
        """Extrapolate the next ``count`` indices past the LPI.

        Only fires with a stable delta history *and* a locked affine fit
        (without the fit there is no address to prefetch anyway).
        """
        entry = self._ipt.get(stream_id)
        if (
            entry is None
            or not entry.valid
            or entry.delta_conf < self.delta_confidence
            or count <= 0
        ):
            return None
        step = int(round(entry.delta_ewma))
        if step == 0:
            return None
        return [entry.lpi + step * (k + 1) for k in range(count)]

    def entry_state(self, stream_id: int) -> IPTEntry | None:
        """Read-only view for tests and reports."""
        return self._ipt.get(stream_id)

    @property
    def occupancy(self) -> int:
        return len(self._ipt)
