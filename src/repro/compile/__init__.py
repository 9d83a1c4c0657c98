"""repro.compile — the removed submit-time compiler's import stub.

The compiler and its burst-fusing engine were deleted: the heapq engine
is the only event engine (DESIGN.md §11).  :func:`compile_program`
stays importable only because perfbench imports it (as a profile key);
calling it raises.
"""

from ..errors import ConfigurationError

__all__ = ["compile_program"]


def compile_program(program):
    """Raises :class:`ConfigurationError`: there is no compiler."""
    raise ConfigurationError(
        "repro.compile was removed: every program runs on the one "
        "reference event engine, uncompiled")
