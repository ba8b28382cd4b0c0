"""The serving tier: async request coalescing over one oracle.

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
  block the batcher concatenates and the kernel consumes.

Every batch is evaluated in the server's process by its
:class:`~repro.oracle.DistanceOracle`, and every path through this
package returns answers bit-identical to ``store.query`` per pair —
the serving tier adds scheduling, never arithmetic.
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

__all__ = (
    "AdmissionBatcher",
    "DistanceClient",
    "DistanceServer",
    "ServeClosedError",
    "ServeOverloadedError",
    "ServerError",
)
