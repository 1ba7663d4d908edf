"""The "MPICH-like" portable path: packetized staging copies.

MPICH's portable abstract device (ADI over ch_p4 in the paper's setups)
moves messages through bounded internal packets with an extra staging copy.
We reproduce that cost structure: every payload is copied packet-by-packet
through a staging buffer into a fresh array before delivery.  On top of any
base transport this adds (a) one extra full copy and (b) a per-packet
overhead — which is exactly why the paper's MPICH columns trail the WMPI
columns at every size.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.obs.metrics import CounterGroup
from repro.runtime.envelope import Envelope, IOVecPayload, KIND_DATA
from repro.transport.base import Transport
from repro.transport.inproc import InprocTransport

#: MPICH ch_p4's historical packet size neighbourhood.
DEFAULT_PACKET_BYTES = 16 * 1024


class ChunkedTransport(Transport):
    """Stage payloads through fixed-size packets, then hand off."""

    mode = "SM"

    def __init__(self, nprocs: int, packet_bytes: int = DEFAULT_PACKET_BYTES,
                 inner: Transport | None = None):
        super().__init__(nprocs)
        self.packet_bytes = int(packet_bytes)
        if self.packet_bytes <= 0:
            raise ValueError("packet_bytes must be positive")
        self.inner = inner or InprocTransport(nprocs)
        self.mode = self.inner.mode  # SM over inproc, DM over sockets
        #: packets staged since start (benchmark/ablation introspection).
        #: Rank threads send concurrently, so the counter is accumulated
        #: per send and added atomically — a bare ``+= 1`` per packet
        #: loses increments and under-reports ablation counts.  Lives in
        #: the process metrics registry.
        self.metrics = CounterGroup("chunked", ("packets_staged",))
        self._stats_lock = threading.Lock()
        #: one per-transport scratch packet, reused across messages under
        #: the same lock discipline as the counter: the ablation should
        #: model the ADI's staging *copy*, not per-message allocator churn
        #: (ch_p4 reused its internal packet buffers too)
        #: (>= 64 bytes so one element of any base dtype always fits,
        #: even under pathologically small packet sizes in tests)
        self._scratch = np.empty(max(self.packet_bytes, 64),
                                 dtype=np.uint8)

    def set_deliver(self, rank, fn):
        super().set_deliver(rank, fn)
        self.inner.set_deliver(rank, fn)

    def set_direct_claim(self, rank, fn):
        super().set_direct_claim(rank, fn)
        self.inner.set_direct_claim(rank, fn)

    def start(self):
        self.inner.start()

    def close(self):
        self.inner.close()

    def send(self, env: Envelope) -> None:
        if env.kind == KIND_DATA and env.payload is not None:
            env.payload = self._stage(env.payload)
        self.inner.send(env)

    def _stage(self, payload):
        """Copy the payload packet-by-packet through a staging buffer."""
        if isinstance(payload, IOVecPayload):
            # a zero-copy run iovec cannot ride through the ADI model's
            # staging packets as views; materialize it dense first (the
            # ablation charges the staging copy either way)
            dense = np.frombuffer(
                b"".join(bytes(v) for v in payload.views),
                dtype=payload.dtype)
            return self._stage_array(dense)
        if isinstance(payload, (bytes, bytearray, memoryview)):
            raw = np.frombuffer(bytes(payload), dtype=np.uint8)
            out = self._stage_array(raw)
            return out.tobytes()
        return self._stage_array(payload)

    def _stage_array(self, arr: np.ndarray) -> np.ndarray:
        itemsize = arr.dtype.itemsize
        step = max(1, self.packet_bytes // itemsize)
        out = np.empty_like(arr)
        packets = 0
        # the shared scratch is a critical section: senders on other rank
        # threads stage through the same buffer (stats lock discipline)
        with self._stats_lock:
            staging = self._scratch[:max(step * itemsize, itemsize)] \
                .view(arr.dtype)
            for lo in range(0, len(arr), step):
                hi = min(lo + step, len(arr))
                n = hi - lo
                staging[:n] = arr[lo:hi]   # copy in (the ADI staging copy)
                out[lo:hi] = staging[:n]   # copy out
                packets += 1
            if len(arr) == 0:
                packets = 1
        self.metrics.inc(packets_staged=packets)
        return out

    def describe(self) -> str:
        return (f"ChunkedTransport(packet={self.packet_bytes}B, "
                f"inner={self.inner.describe()})")
