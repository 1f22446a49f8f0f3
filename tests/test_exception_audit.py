"""No swallowed exceptions in ``src/``: an AST walk over every module.

A broad handler — ``except Exception``, ``except BaseException`` (alone or in
a tuple) or a bare ``except`` — must do one of:

* raise (re-raise, or raise a typed error);
* count: call ``internal_errors(...)`` (``repro_internal_errors_total``) or
  ``.inc()`` a counter of its own;
* pass the bound exception on (``except Exception as exc:`` and a body that
  uses ``exc``: a future's ``set_exception``, an error body, a queue);
* call a helper that counts, named in :data:`COUNTING_HELPERS` with the
  reason it counts.

Anything else is an exception the library swallows without a trace, and
fails the walk with its file and line.
"""

import ast
from pathlib import Path
from typing import List

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))
_BROAD = {"Exception", "BaseException"}

#: Helpers that log and count for the handler that calls them.
COUNTING_HELPERS = {
    # net/server.py: logs the failed close and bumps the server's
    # repro_internal_errors_total{site="server.close"} child.
    "_close_failed",
}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    caught = handler.type
    if caught is None:
        return True
    names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    return any(isinstance(name, ast.Name) and name.id in _BROAD for name in names)


def _called(node: ast.Call) -> str:
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def _accounts_for_it(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call) and _called(node) in {"internal_errors", "inc",
                                                            *COUNTING_HELPERS}:
            return True
        if handler.name is not None and isinstance(node, ast.Name) and node.id == handler.name:
            return True
    return False


def silent_handlers(source: str) -> List[int]:
    """Line numbers of the broad handlers in ``source`` that swallow."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ExceptHandler) and _is_broad(node)
            and not _accounts_for_it(node)]


@pytest.mark.parametrize("module", MODULES, ids=lambda path: str(path.relative_to(SRC)))
def test_no_broad_handler_swallows(module):
    lines = silent_handlers(module.read_text())
    assert not lines, f"{module.relative_to(SRC)}: silent broad handler(s) at line(s) {lines}"


_SWALLOWS = {
    "pass": "try:\n    f()\nexcept Exception:\n    pass\n",
    "bare-except": "try:\n    f()\nexcept:\n    x = 1\n",
    "in-a-tuple": "try:\n    f()\nexcept (ValueError, BaseException):\n    pass\n",
    "logs-only": "try:\n    f()\nexcept Exception:\n    logger.exception('failed')\n",
    "binds-but-drops": "try:\n    f()\nexcept Exception as exc:\n    pass\n",
}
_ACCOUNTS = {
    "re-raises": "try:\n    f()\nexcept Exception:\n    cleanup()\n    raise\n",
    "counts": "try:\n    f()\nexcept Exception:\n    internal_errors(registry, 'site').inc()\n",
    "own-counter": "try:\n    f()\nexcept Exception:\n    self._m_errors.inc()\n",
    "passes-it-on": "try:\n    f()\nexcept BaseException as exc:\n    future.set_exception(exc)\n",
    "helper": "try:\n    f()\nexcept Exception:\n    self._close_failed(peer)\n",
    "narrow": "try:\n    f()\nexcept (OSError, ValueError):\n    pass\n",
}


@pytest.mark.parametrize("case", sorted(_SWALLOWS))
def test_the_walk_flags_a_swallowing_handler(case):
    assert silent_handlers(_SWALLOWS[case]) == [3]


@pytest.mark.parametrize("case", sorted(_ACCOUNTS))
def test_the_walk_passes_a_handler_that_accounts_for_it(case):
    assert silent_handlers(_ACCOUNTS[case]) == []
