"""Instrumentation seam for the concurrency checkers.

Production code constructs its synchronisation primitives through this
module (``tsan.make_lock()`` instead of ``threading.Lock()``) and marks
shared-state accesses with :func:`note_access`.  By default everything
here is a zero-cost alias/no-op: ``make_lock`` *is* ``threading.Lock``
and ``note_access`` returns immediately.

Under ``REPRO_TSAN=1`` (or an explicit
:func:`repro.analysis.concurrency.runtime.install` call) the runtime
checker rebinds these names to instrumented wrappers that record
per-thread lock acquisition order and per-object access locksets into a
ring buffer — see :mod:`repro.analysis.concurrency.runtime`.

The static lockset pass (:mod:`repro.analysis.concurrency.static`)
resolves ``tsan.make_lock`` / ``make_rlock`` / ``make_condition`` back
to the underlying ``threading`` constructors through the module-alias
machinery in the project index, so instrumented code is analysed exactly
like code that calls ``threading.Lock()`` directly.

Rebinding discipline: only ``runtime.install()``/``uninstall()`` may
mutate this module, and ``uninstall()`` always restores the aliases
below — the same switch-with-restore contract as the ``no_grad`` flag
``repro.nn.tensor._GRAD_MODE`` (exempted in
:mod:`repro.analysis.flow.purity`).
"""

from __future__ import annotations

import threading
from typing import Any

__all__ = ["make_lock", "make_rlock", "make_condition", "note_access"]

#: Constructor aliases; the runtime checker swaps these for instrumented
#: wrapper factories.  Call sites must invoke them (``tsan.make_lock()``),
#: never cache the callables at import time.
make_lock = threading.Lock
make_rlock = threading.RLock
make_condition = threading.Condition


def note_access(obj: Any, attr: str, kind: str) -> None:
    """Record an access to shared state ``obj.<attr>``.

    ``kind`` is ``"read"`` or ``"write"``.  A no-op unless the dynamic
    lockset checker is installed; production call sites sit *inside*
    their guarding critical sections so the checker observes the lockset
    that actually protects the access.
    """
