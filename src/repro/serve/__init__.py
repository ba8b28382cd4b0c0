"""The serving tier: async request coalescing + shared-memory fan-out.

The paper's end product is an *interactive* distance service over
scale-free networks; this package is the layer that turns the batch
kernel into one:

* :mod:`repro.serve.batcher` — the :class:`AdmissionBatcher`
  coalesces concurrent per-request query sets into kernel-sized
  batches under an admission window (max batch size + max wait) and
  applies backpressure past a pending-pairs high-water mark;
* :mod:`repro.serve.server` — :class:`DistanceServer` and
  :class:`DistanceClient` over asyncio TCP (``repro serve`` on the
  CLI): binary frames of int64 pair columns and float64 distances for
  clients, newline-delimited JSON beside them on the same port for
  people and for ``ping``/``stats``; both decode into the column
  block the batcher concatenates and the kernel consumes;
* :mod:`repro.serve.shm` — :class:`SharedMemoryFanout`, the one
  worker pool: forked workers share the label arrays and the kernel's
  row cache copy-on-write, with queries and results in shared
  mmap buffers, so nothing is pickled per batch.  Whether a batch goes
  there or is answered inline is decided in one place,
  :class:`repro.oracle.ParallelOracle`, which is also the backend
  ``repro serve`` hands to the server.

Every path through this package returns answers bit-identical to
``store.query`` per pair — the serving tier adds scheduling, never
arithmetic.
"""

from repro.serve.batcher import (
    AdmissionBatcher,
    ServeClosedError,
    ServeOverloadedError,
)
from repro.serve.server import (
    DistanceClient,
    DistanceServer,
    ServerError,
)
from repro.serve.shm import (
    FanoutUnavailableError,
    SharedMemoryFanout,
)
from repro.serve.shm import available as fanout_available

__all__ = (
    "AdmissionBatcher",
    "DistanceClient",
    "DistanceServer",
    "FanoutUnavailableError",
    "ServeClosedError",
    "ServeOverloadedError",
    "ServerError",
    "SharedMemoryFanout",
    "fanout_available",
)
