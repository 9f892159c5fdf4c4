"""LBD — the Loop Boundary Detector (Fig. 3 c).

The paper's LBD keeps a Sparse Structure Table and learns bounds in two
modes (Sec. IV-E): *static* bounds from CPU B-type branch register
values (outer loops, fixed trip counts) and *sparse* bounds snooped from
sparse-unit registers. Runahead here reads only the sparse mode, so that
is all this model keeps: it learns bounds only from the sparse unit's
row window. The current row's ``rowptr`` window is architecturally
exact, while *future* rows are predicted from an exponentially-weighted
average of observed row lengths. No mechanism consumes CPU branch
events; Table I (:mod:`repro.core.overhead`) still budgets the paper's
full SST.

Its product is :meth:`predict_stream_limit`: how far ahead (in W-stream
element positions) runahead may prefetch without crossing an unknown
boundary, rounded *up* to the vector width — the paper's fuzzy prefetch
("accepting some prefetch redundancy as a reasonable trade-off").
"""

from __future__ import annotations

from ..errors import ConfigError


class LoopBoundDetector:
    """Sparse-mode loop boundary learning and fuzzy lookahead limits."""

    def __init__(
        self,
        vector_width: int = 16,
        ewma_alpha: float = 0.25,
        fuzz_vectors: int = 1,
    ) -> None:
        if not 0.0 < ewma_alpha <= 1.0:
            raise ConfigError("ewma_alpha must be in (0, 1]")
        if fuzz_vectors < 0:
            raise ConfigError("fuzz_vectors must be >= 0")
        self.vector_width = vector_width
        self.ewma_alpha = ewma_alpha
        self.fuzz_vectors = fuzz_vectors
        # The exact current-row window and the row-length average.
        self._row: int | None = None
        self._row_end = 0
        self._row_len_ewma: float | None = None

    def observe_sparse_window(self, row: int, start: int, end: int) -> None:
        """Snoop the sparse unit's IdxPtr window for the row in flight."""
        if row != self._row:
            self._row = row
            row_len = max(0, end - start)
            if self._row_len_ewma is None:
                self._row_len_ewma = float(row_len)
            else:
                self._row_len_ewma += self.ewma_alpha * (row_len - self._row_len_ewma)
        self._row_end = end

    @property
    def mean_row_length(self) -> float:
        """Learned average sparse-row length (elements)."""
        return self._row_len_ewma if self._row_len_ewma is not None else 0.0

    @property
    def current_row_end(self) -> int:
        """Snooped exact end (stream position) of the row in flight."""
        return self._row_end

    def predict_stream_limit(self, j_now: int, rows_ahead: int) -> int:
        """Furthest W-stream position runahead may prefetch to.

        Exact up to the current row's snooped end; beyond that, extended
        by the EWMA row length per additional row, then rounded up to the
        vector width plus ``fuzz_vectors`` extra vectors (fuzzy prefetch).
        """
        limit = max(self._row_end, j_now)
        if rows_ahead > 0 and self._row_len_ewma is not None:
            limit += int(round(self._row_len_ewma * rows_ahead))
        vw = self.vector_width
        fuzzed = ((limit + vw - 1) // vw + self.fuzz_vectors) * vw
        return max(fuzzed, j_now)
