"""Decision flight recorder: a bounded audit trail of admission decisions.

The aggregate layer (:mod:`repro.obs.registry`) can say *how many* flows
were rejected; the paper's headline claims (Section 5 precision/recall)
are about *individual* decisions, so post-mortems need the last flight's
black box: for each arrival, the traffic matrix it saw, the class/SNR of
the arriving flow, the SVM margin (distance to the ExCR boundary), the
phase, the verdict, and how long the decision took.

:class:`FlightRecorder` is that black box — a fixed-capacity ring buffer
of :class:`DecisionRecord` entries, costing one dataclass append per
decision and evicting the oldest entry once full. ``dump()`` emits the
retained records as JSON-lines (sorted keys, byte-deterministic for a
given stream), the post-mortem view of the last decisions::

    recorder = FlightRecorder(capacity=256)
    obs = Obs.recording(recorder=recorder)
    exbox = ExBox.with_defaults(obs=obs)
    ...
    print(recorder.dump())          # last <=256 decisions, one JSON per line

The :class:`NullFlightRecorder` singleton keeps the recording API on the
inert ``NULL_OBS`` path at zero cost.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from typing import IO, Any, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

import json

__all__ = [
    "DecisionRecord",
    "FlightRecorder",
    "NullFlightRecorder",
    "NULL_RECORDER",
    "DEFAULT_CAPACITY",
]

#: Default ring-buffer capacity; enough for a post-mortem window without
#: holding a long experiment's full history.
DEFAULT_CAPACITY = 256


@dataclass
class DecisionRecord:
    """One admission decision, as captured for the audit trail.

    ``matrix`` is the traffic matrix *before* the arrival (the feature
    the classifier saw), ``margin`` the SVM distance to the ExCR
    boundary (None during bootstrap, when every flow is admitted
    unconditionally), ``elapsed_s`` the wall/manual-clock seconds the
    decision took, and ``seq`` a recorder-local sequence number so dumps
    order deterministically even without timestamps.
    """

    seq: int
    matrix: Tuple[int, ...]
    app_class: str
    snr_level: int
    phase: str
    admitted: bool
    margin: Optional[float] = None
    elapsed_s: Optional[float] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-able dict (``extra`` fields inlined)."""
        out = asdict(self)
        out["matrix"] = list(self.matrix)
        extra = out.pop("extra")
        out.update(extra)
        return out


class FlightRecorder:
    """Fixed-capacity ring buffer of :class:`DecisionRecord` entries."""

    enabled: bool = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._records: Deque[DecisionRecord] = deque(maxlen=self.capacity)
        self._seq = 0
        self.total_recorded = 0

    def record(
        self,
        matrix: Sequence[int],
        app_class: str,
        snr_level: int,
        phase: str,
        admitted: bool,
        margin: Optional[float] = None,
        elapsed_s: Optional[float] = None,
        **extra: Any,
    ) -> DecisionRecord:
        """Append one decision; evicts the oldest entry once full."""
        record = DecisionRecord(
            seq=self._seq,
            matrix=tuple(int(c) for c in matrix),
            app_class=app_class,
            snr_level=int(snr_level),
            phase=phase,
            admitted=bool(admitted),
            margin=None if margin is None else float(margin),
            elapsed_s=None if elapsed_s is None else float(elapsed_s),
            extra=dict(extra),
        )
        self._records.append(record)
        self._seq += 1
        self.total_recorded += 1
        return record

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[DecisionRecord]:
        return iter(self._records)

    def records(self) -> List[DecisionRecord]:
        """Retained records, oldest first."""
        return list(self._records)

    def last(self, n: int) -> List[DecisionRecord]:
        """The most recent ``n`` retained records, oldest first."""
        if n < 0:
            raise ValueError("n must be >= 0")
        if n == 0:
            return []
        return list(self._records)[-n:]

    @property
    def dropped(self) -> int:
        """Records evicted by the ring buffer so far."""
        return self.total_recorded - len(self._records)

    # ------------------------------------------------------------------
    # Post-mortem dumps
    # ------------------------------------------------------------------
    def dump(
        self, stream: Optional[IO[str]] = None, last_n: Optional[int] = None
    ) -> str:
        """Emit the retained records as JSON-lines.

        Returns the dump text; also writes it to ``stream`` when one is
        given. ``last_n`` limits the dump to the most recent records (a
        post-mortem window). Keys are sorted, so a given
        decision stream dumps byte-identically.
        """
        records = self._records if last_n is None else self.last(last_n)
        lines = [
            json.dumps(record.to_dict(), sort_keys=True, default=str)
            for record in records
        ]
        text = "\n".join(lines) + ("\n" if lines else "")
        if stream is not None:
            stream.write(text)
        return text

    def clear(self) -> None:
        """Drop retained records (sequence numbering continues)."""
        self._records.clear()


class NullFlightRecorder(FlightRecorder):
    """No-op recorder: ``record`` allocates nothing and keeps nothing."""

    enabled = False
    _EMPTY = DecisionRecord(
        seq=0, matrix=(), app_class="", snr_level=0, phase="", admitted=False
    )

    def __init__(self) -> None:
        super().__init__(capacity=1)

    def record(
        self,
        matrix: Sequence[int],
        app_class: str,
        snr_level: int,
        phase: str,
        admitted: bool,
        margin: Optional[float] = None,
        elapsed_s: Optional[float] = None,
        **extra: Any,
    ) -> DecisionRecord:
        return self._EMPTY


#: Shared inert recorder, wired into ``NULL_OBS``.
NULL_RECORDER: FlightRecorder = NullFlightRecorder()
