"""Incremental training-Gram cache for the batch-online retrain path.

ExBox retrains its SVM after every batch of ``B`` flows over *all*
samples seen so far (paper Section 3.1), and Section 5.3 shows training
cost exploding with buffer size. Most of the per-retrain kernel work is
redundant: between consecutive retrains the replay buffer changes by at
most ``B`` appended rows and a few front evictions, so all but a thin
border of the Gram matrix is unchanged. :class:`GramCache` keeps the
previous matrix and only computes the border.

Exactness
---------
The cache is *bit-exact*, not approximately fresh: because every kernel
in :mod:`repro.ml.kernels` computes each Gram entry from its own row
pair alone (the entry-exactness contract), a matrix assembled from a
cached block plus freshly computed border rows is bit-identical to a
from-scratch ``kernel(X, X)`` call. The cache additionally *verifies*
row reuse — it stores the rows it cached against and only reuses the
block if the overlapping rows compare equal with ``np.array_equal`` —
so a caller that hands it unexpected rows silently gets a full
recompute, never a stale matrix.

Invalidation
------------
The cached matrix is a function of the *effective* kernel and the
*scaled* rows, so the owner must :meth:`~GramCache.invalidate` whenever
either changes: a scaler refit rewrites every row, and re-resolving
``gamma="scale"`` changes every entry. :class:`~repro.ml.online.
BatchOnlineSVM` therefore refreshes its scaler and frozen kernel on an
amortized schedule and invalidates the cache at exactly those points.
Kernels with data-dependent parameters must be frozen (concrete gamma)
before they reach the cache; :meth:`gram` rejects unfrozen ones.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.arrays import ArrayLike
from repro.ml.kernels import Kernel, RBFKernel
from repro.obs.facade import NULL_OBS, Obs

__all__ = ["GramCache"]


class GramCache:
    """Incrementally maintained training Gram matrix.

    Call :meth:`gram` with the effective (frozen) kernel and the full
    scaled training matrix at each retrain; the cache reuses the block
    of entries whose row pairs it has already computed and fills in only
    the border for appended rows. Front evictions are handled by slicing
    the cached block (``evicted`` hints how many leading rows dropped).

    Instrumented through ``obs``: ``gram.cache.hits`` / ``gram.cache.
    misses`` count reusing vs full-recompute calls, and ``gram.cache.
    invalidations`` counts explicit resets.
    """

    def __init__(self, obs: Optional[Obs] = None) -> None:
        self.obs = obs if obs is not None else NULL_OBS
        self._kernel: Optional[Kernel] = None
        self._X: Optional[np.ndarray] = None
        self._K: Optional[np.ndarray] = None

    @property
    def rows(self) -> int:
        """Number of training rows currently cached."""
        return 0 if self._X is None else int(self._X.shape[0])

    def invalidate(self) -> None:
        """Drop the cached matrix (effective kernel or scaling changed)."""
        if self._K is not None:
            self.obs.counter("gram.cache.invalidations").inc()
        self._kernel = None
        self._X = None
        self._K = None

    def gram(self, kernel: Kernel, X: ArrayLike, evicted: int = 0) -> np.ndarray:
        """``kernel(X, X)``, reusing previously computed entries.

        ``evicted`` is the number of rows dropped from the *front* of
        the training set since the previous call (the replay buffer's
        eviction order); appended rows are discovered from the shapes.
        The overlap is verified against the stored rows before reuse, so
        the result equals a direct ``kernel(X, X)`` call bit-for-bit
        regardless of the hint's accuracy.
        """
        if isinstance(kernel, RBFKernel) and isinstance(kernel.gamma, str):
            raise ValueError(
                "GramCache requires a frozen kernel; resolve gamma with "
                "freeze_kernel(kernel, X) first"
            )
        X = np.atleast_2d(np.asarray(X, dtype=float))
        reused = self._reusable_rows(kernel, X, evicted)
        if reused > 0:
            K = self._assemble(kernel, X, int(evicted), reused)
            self.obs.counter("gram.cache.hits").inc()
        else:
            K = np.asarray(kernel(X, X), dtype=float)
            self.obs.counter("gram.cache.misses").inc()
        self._kernel = kernel
        self._X = X.copy()
        self._K = K
        return K

    def _reusable_rows(self, kernel: Kernel, X: np.ndarray, evicted: int) -> int:
        """How many leading rows of ``X`` match the cached rows at offset
        ``evicted`` (0 when the cache is cold, the kernel changed, the
        hint is out of range, or the rows fail verification)."""
        if self._K is None or self._X is None:
            return 0
        if kernel != self._kernel:
            return 0
        off = int(evicted)
        if off < 0 or off > self._X.shape[0]:
            return 0
        m = min(self._X.shape[0] - off, X.shape[0])
        if m <= 0:
            return 0
        if not np.array_equal(self._X[off : off + m], X[:m]):
            return 0
        return m

    def _assemble(
        self, kernel: Kernel, X: np.ndarray, off: int, m: int
    ) -> np.ndarray:
        """New Gram matrix: cached block for the first ``m`` rows, fresh
        kernel rows for the rest. Symmetry of every supported kernel is
        exact (``k(x, z)`` and ``k(z, x)`` round identically), so the
        upper border is the transpose of the lower one.
        """
        assert self._K is not None
        n = X.shape[0]
        K = np.empty((n, n))
        K[:m, :m] = self._K[off : off + m, off : off + m]
        if n > m:
            border = np.asarray(kernel(X[m:], X), dtype=float)
            K[m:, :] = border
            K[:m, m:] = border[:, :m].T
        return K
