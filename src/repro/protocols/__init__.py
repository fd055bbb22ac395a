"""Cache coherence protocols modelled as xMAS automata.

* :mod:`repro.protocols.abstract_mi` — the paper's artificial get/put/inv/
  ack protocol (Figure 2), parameterized by fabric topology.
* :mod:`repro.protocols.mi_gem5` — the GEM5-``MI_example``-inspired full MI
  protocol with cache-to-cache forwarding, write-back ack/nack and DMA.
* :mod:`repro.protocols.msi` — a directory MSI protocol with a bounded
  exact sharer record and request/response/writeback virtual networks.
* :mod:`repro.protocols.assembly` — the one wiring of controllers onto a
  fabric or the handshake ether, and the :class:`ProtocolInstance` every
  fabric builder returns.
"""

from ..core.experiments import register_builder
from .abstract_mi import (
    abstract_mi_ether,
    abstract_mi_mesh,
    abstract_mi_network,
    abstract_mi_ring,
    abstract_mi_torus,
    build_cache_automaton,
    build_directory_automaton,
    request_response_vc,
)
from .assembly import ProtocolInstance
from .messages import TOKEN, Message
from .mi_gem5 import (
    build_mi_cache,
    build_mi_directory,
    build_mi_dma,
    mi_ether,
    mi_mesh,
    mi_network,
    mi_ring,
    mi_torus,
    mi_vc_assignment,
)
from .msi import (
    build_msi_cache,
    build_msi_directory,
    msi_mesh,
    msi_network,
    msi_ring,
    msi_torus,
    msi_vc_assignment,
)

__all__ = [
    "Message",
    "TOKEN",
    "ProtocolInstance",
    "abstract_mi_mesh",
    "abstract_mi_network",
    "abstract_mi_ring",
    "abstract_mi_torus",
    "abstract_mi_ether",
    "build_cache_automaton",
    "build_directory_automaton",
    "request_response_vc",
    "mi_mesh",
    "mi_network",
    "mi_ring",
    "mi_torus",
    "mi_ether",
    "build_mi_cache",
    "build_mi_directory",
    "build_mi_dma",
    "mi_vc_assignment",
    "msi_mesh",
    "msi_network",
    "msi_ring",
    "msi_torus",
    "build_msi_cache",
    "build_msi_directory",
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
