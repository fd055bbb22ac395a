"""What each entry point imports, checked in a fresh interpreter.

A verifier loads only the layers it runs: not the service, asyncio and
TLS, hashing, argument parsing or any worker-pool machinery
(``concurrent.futures`` is imported where a pool is made).  A service
client loads no solver.  Each test asserts on the modules an action adds
to a fresh interpreter, not on the absolute ``sys.modules``, so what the
interpreter loads at start-up does not matter.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True
    )


def _added_by(script: str) -> set[str]:
    """The modules ``script`` adds to a fresh interpreter."""
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{script}\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    out = _run("-c", probe)
    assert out.returncode == 0, out.stderr
    return set(out.stdout.split())


def test_the_verifier_loads_no_service_hashing_or_pool_machinery():
    added = _added_by(
        "import repro.core.experiments\n"
        "from repro.core.engine import VerificationSession\n"
        "from repro.core.sizing import minimal_queue_size\n"
        "from repro.protocols import abstract_mi_mesh\n"
        "def build(size):\n"
        "    return abstract_mi_mesh(2, 2, queue_size=size).network\n"
        "assert minimal_queue_size(build, max_size=8).minimal_size == 3\n"
        "session = VerificationSession(build(2))\n"
        "session.verify_case(session.encoding.cases[0])\n"
    )
    assert "repro.core.sizing" in added
    assert not added & {
        "asyncio",
        "ssl",
        "hashlib",
        "argparse",
        "concurrent.futures",
        "concurrent.futures.process",
        "multiprocessing.connection",
        "repro.core.service",
        "repro.core.server",
    }


def test_the_service_client_loads_no_solver_and_no_asyncio():
    added = _added_by("from repro.core.service import ServiceClient")
    assert "repro.core.service" in added
    assert not added & {"asyncio", "repro.smt", "repro.core.engine"}


def test_every_exported_name_resolves_and_is_listed():
    added = _added_by(
        "import repro, repro.core\n"
        "for package in (repro, repro.core):\n"
        "    for name in package.__all__:\n"
        "        getattr(package, name)\n"
        "        assert name in dir(package), name\n"
        "for package, name in ((repro, 'no_such_name'), (repro.core, 'no_such_name')):\n"
        "    try:\n"
        "        getattr(package, name)\n"
        "    except AttributeError:\n"
        "        pass\n"
        "    else:\n"
        "        raise AssertionError(name)\n"
        "from repro.core import cache\n"
        "assert cache.__name__ == 'repro.core.cache'\n"
        "from repro.core import VerificationService, service\n"
        "assert service.VerificationService is VerificationService\n"
    )
    assert "repro.core.server" in added


def test_the_service_module_still_starts_the_server():
    out = _run("-m", "repro.core.service", "--help")
    assert out.returncode == 0, out.stderr
    assert "--cache-dir" in out.stdout
    # repro.core no longer imports the service, so runpy has nothing to
    # warn about.
    assert "RuntimeWarning" not in out.stderr
