"""The literal-size oracle stays independent of the session layer.

An oracle that quietly routes through the session it checks tests
nothing, so this holds ``literal_oracle`` to its contract: it imports
nothing that opens a session and never binds definitions with
``Solver.define`` — statically, and again while it answers.
"""

import ast
import importlib
from pathlib import Path

import literal_oracle
from literal_oracle import fresh_verdict, fresh_witness_count

from repro.core import engine, parallel
from repro.netlib import running_example
from repro.smt import Solver

# The modules that open or drive a VerificationSession.
SESSION_MODULES = {
    "repro.core.engine",
    "repro.core.parallel",
    "repro.core.proof",
    "repro.core.sizing",
    "repro.core.experiments",
    "repro.core.service",
    "repro.core.server",
}


def _defining_modules(tree):
    """The module each import of ``tree`` binds a name from."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(module, alias.name)
                yield getattr(value, "__module__", None) or getattr(
                    value, "__name__", node.module
                )


def test_oracle_imports_no_session_layer_and_never_defines():
    tree = ast.parse(Path(literal_oracle.__file__).read_text())
    assert not set(_defining_modules(tree)) & SESSION_MODULES
    assert not any(
        isinstance(node, ast.Attribute) and node.attr == "define"
        for node in ast.walk(tree)
    )


def test_oracle_answers_with_the_session_layer_disabled(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the literal-size oracle reached the session layer")

    monkeypatch.setattr(Solver, "define", refuse)
    monkeypatch.setattr(engine.SessionSpec, "__init__", refuse)
    monkeypatch.setattr(parallel.WorkerSession, "check", refuse)
    network = running_example().network
    # The paper's running example: block/idle alone reports candidates,
    # and the invariants rule them out.
    assert not fresh_verdict(network)
    assert fresh_verdict(network, use_invariants=True)
    assert fresh_witness_count(network, limit=16) == 2
