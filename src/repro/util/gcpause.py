"""Keep CPython's cyclic collector off a run's append-only history.

A simulation accumulates millions of long-lived objects (store records,
messages, ledgers, challenges) that never become garbage before the run
ends, and the generational collector would re-traverse them on every
full pass. :class:`CollectorPause` instead collects on the run's own
schedule: one full pass on entry, a young pass plus ``gc.freeze()`` at
each simulated day boundary (:meth:`day_boundary`), and one full pass on
exit. The collector never influences RNG draws or event order, so the
pause cannot change any record of the run.
"""

from __future__ import annotations

import gc


class CollectorPause:
    """Context manager: automatic collection off, collections by hand."""

    def __enter__(self) -> "CollectorPause":
        self._was_enabled = gc.isenabled()
        self._open = True
        gc.collect()  # reclaim earlier runs' garbage before building
        gc.disable()
        return self

    def day_boundary(self) -> None:
        """Reclaim the cycles that died since the last boundary, then
        freeze the survivors so the next young pass skips them."""
        gc.collect(0)
        gc.freeze()

    def close(self) -> None:
        """Unfreeze, restore the caller's collector and pay the one
        remaining full pass now; idempotent."""
        if not self._open:
            return
        self._open = False
        gc.unfreeze()
        if self._was_enabled:
            gc.enable()
        gc.collect()

    def __exit__(self, *exc_info) -> None:
        self.close()
