"""Cache coherence protocols modelled as xMAS automata.

A protocol is its controllers' transition tables: one row per
transition, compiled and wired into a design by
:mod:`repro.protocols.assembly`.  Each protocol module supplies only its
tables and its virtual-channel assignment, plus the registered fronts
that name a topology:

* :mod:`repro.protocols.abstract_mi` — the paper's artificial get/put/inv/
  ack protocol (Figure 2), parameterized by fabric topology.
* :mod:`repro.protocols.mi_gem5` — the GEM5-``MI_example``-inspired full MI
  protocol with cache-to-cache forwarding, write-back ack/nack and DMA.
* :mod:`repro.protocols.msi` — a directory MSI protocol with a bounded
  exact sharer record and request/response/writeback virtual networks.
* :mod:`repro.protocols.assembly` — the row format, the one controller
  compiler and the one assembly onto a fabric or the handshake ether,
  returning the :class:`ProtocolInstance` every front builds.
"""

from ..core.experiments import register_builder
from .abstract_mi import (
    abstract_mi_ether,
    abstract_mi_mesh,
    abstract_mi_ring,
    abstract_mi_torus,
    request_response_vc,
)
from .assembly import ProtocolInstance
from .messages import TOKEN, Message
from .mi_gem5 import mi_ether, mi_mesh, mi_ring, mi_torus, mi_vc_assignment
from .msi import msi_mesh, msi_ring, msi_torus, msi_vc_assignment

__all__ = [
    "Message",
    "TOKEN",
    "ProtocolInstance",
    "abstract_mi_mesh",
    "abstract_mi_ring",
    "abstract_mi_torus",
    "abstract_mi_ether",
    "request_response_vc",
    "mi_mesh",
    "mi_ring",
    "mi_torus",
    "mi_ether",
    "mi_vc_assignment",
    "msi_mesh",
    "msi_ring",
    "msi_torus",
    "msi_vc_assignment",
]

# Experiment-grid identities: ScenarioSpecs name these builders as plain
# strings (repro.core.experiments), so grid points stay picklable across
# any multiprocessing start method.  All return ProtocolInstance objects
# whose ``.network`` the experiment layer unwraps.  Families group a protocol
# across its topologies for discovery (builder_catalog / service ops).
register_builder("abstract_mi_mesh", abstract_mi_mesh, family="abstract_mi")
register_builder("abstract_mi_torus", abstract_mi_torus, family="abstract_mi")
register_builder("abstract_mi_ring", abstract_mi_ring, family="abstract_mi")
register_builder("mi_mesh", mi_mesh, family="mi")
register_builder("mi_torus", mi_torus, family="mi")
register_builder("mi_ring", mi_ring, family="mi")
register_builder("msi_mesh", msi_mesh, family="msi")
register_builder("msi_torus", msi_torus, family="msi")
register_builder("msi_ring", msi_ring, family="msi")
