"""Run every solver in a block on a CDCL core with other learned-clause knobs.

The learned-clause policy lives only in :class:`repro.smt.sat.Cdcl`'s
constructor defaults; no :class:`~repro.smt.Solver` or session forwards a
knob.  Tests that drive pathological reduction schedules through the full
stack swap the core the way ``tests/smt/test_satcore.py`` swaps in the
reference core::

    with cdcl_knobs(reduction=True, reduce_base=1):
        session = VerificationSession(network)

Only construction needs the block: a solver keeps the core it was made
with.  Tests import it as ``cdcl_knobs`` (``tests/conftest.py`` puts
``tests/`` on the import path).
"""

from functools import partial
from unittest import mock

from repro.smt import solver
from repro.smt.sat import Cdcl


def cdcl_knobs(**knobs):
    """A context manager: each ``Solver`` made inside it runs
    ``Cdcl(**knobs)`` (``reduction``, ``reduce_base``, ``reduce_growth``,
    ``glue_keep``, ``glue_cap``, ``reduce_keep``)."""
    return mock.patch.object(solver, "Cdcl", partial(Cdcl, **knobs))
