"""Dynamic lockset race checker (the ``REPRO_TSAN=1`` runtime).

The static pass (:mod:`repro.analysis.concurrency.static`) reasons over
lock *names*; this module observes lock *instances* at run time, in the
Eraser lockset tradition:

* :class:`TsanLock` / :class:`TsanRLock` / :class:`TsanCondition` are
  drop-in wrappers over the real primitives that record every
  acquisition/release into per-thread lock stacks and a bounded ring
  buffer of events.
* Each ``tsan.note_access(obj, attr, kind)`` call refines the *candidate
  lockset* of ``(id(obj), attr)``: the first thread owns it exclusively;
  the moment a second thread touches it, the candidate set is
  initialised to the locks held right then, and every later access
  intersects it.  A write whose candidate set goes empty is a race.
* Every acquisition taken while other locks are held adds an edge to the
  runtime lock-order graph; a cycle (by object identity, so per-shard
  conditions stay distinct — the precision the static family collapse
  gives up) is a potential deadlock.

:func:`install` rebinds the :mod:`repro.tsan` seam so production code
constructs instrumented primitives without knowing about any of this;
:func:`uninstall` restores the plain aliases.  Tests call
:func:`assert_race_free` / :func:`assert_no_lock_inversion` at the end
of a scenario.

The checker keeps **strong references** to every tracked lock and
object: ``id()`` is only unique among live objects, and letting a dead
deque's id be recycled by a fresh one would merge two unrelated Eraser
states into one (false positives at worst, masked races at best).
:func:`reset` drops everything.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import deque
from typing import Any, Callable

__all__ = [
    "TsanCondition",
    "TsanLock",
    "TsanRLock",
    "assert_no_lock_inversion",
    "assert_race_free",
    "events",
    "install",
    "install_from_env",
    "installed",
    "inversions",
    "lock_order_edges",
    "races",
    "reset",
    "uninstall",
]

_DEFAULT_CAPACITY = 8192

_SERIALS = itertools.count(1)
_THREAD = threading.local()


def _thread_serial() -> int:
    """This thread's serial number, unique for the life of the process.

    ``threading.get_ident()`` is reused once a thread exits, so two threads
    run one after the other often share an ident; keyed by ident, Eraser
    would see one owner and miss the race between them.
    """
    serial = getattr(_THREAD, "serial", None)
    if serial is None:
        serial = _THREAD.serial = next(_SERIALS)
    return serial


def _call_site() -> str:
    """``file:line`` of the nearest frame outside this module."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_code.co_filename == __file__:
        frame = frame.f_back
    if frame is None:
        return "?"
    return f"{frame.f_code.co_filename}:{frame.f_lineno}"


class _Registry:
    """All checker state; ``_mu`` is a leaf lock (never held while a
    production lock is being acquired), so the checker cannot deadlock
    the code under test."""

    def __init__(self, capacity: int = _DEFAULT_CAPACITY) -> None:
        self._mu = threading.Lock()
        self._tls = threading.local()
        self.capacity = capacity
        self.events: deque = deque(maxlen=capacity)
        self.lock_names: dict[int, str] = {}
        self._lock_refs: dict[int, object] = {}
        self._obj_refs: dict[int, object] = {}
        #: (held-id, acquired-id) -> set of "file:line" witness sites.
        self.edges: dict[tuple[int, int], set] = {}
        #: (id(obj), attr) -> Eraser state.
        self.states: dict[tuple[int, str], dict] = {}
        self.races: list[dict] = []

    # -- per-thread lock stack ------------------------------------------
    def _held(self) -> list:
        held = getattr(self._tls, "held", None)
        if held is None:
            held = []
            self._tls.held = held
        return held

    # -- lock lifecycle --------------------------------------------------
    def register_lock(self, lock: object, kind: str) -> None:
        site = _call_site()
        with self._mu:
            self.lock_names[id(lock)] = f"{kind}@{site}"
            self._lock_refs[id(lock)] = lock

    def note_acquire(self, lock: object) -> None:
        held = self._held()
        site = _call_site()
        lock_id = id(lock)
        with self._mu:
            for prev in dict.fromkeys(held):
                if prev != lock_id:
                    self.edges.setdefault((prev, lock_id), set())
                    if len(self.edges[(prev, lock_id)]) < 5:
                        self.edges[(prev, lock_id)].add(site)
            self.events.append(
                ("acquire", self.lock_names.get(lock_id, "?"),
                 _thread_serial(), site))
        held.append(lock_id)

    def note_release(self, lock: object) -> None:
        held = self._held()
        lock_id = id(lock)
        for i in range(len(held) - 1, -1, -1):
            if held[i] == lock_id:
                del held[i]
                break
        with self._mu:
            self.events.append(
                ("release", self.lock_names.get(lock_id, "?"),
                 _thread_serial(), _call_site()))

    # -- Eraser lockset refinement --------------------------------------
    def note_access(self, obj: Any, attr: str, kind: str) -> None:
        tid = _thread_serial()
        lockset = set(self._held())
        site = _call_site()
        key = (id(obj), attr)
        is_write = kind == "write"
        with self._mu:
            self._obj_refs[id(obj)] = obj
            self.events.append(
                (kind, f"{type(obj).__name__}.{attr}", tid, site))
            st = self.states.get(key)
            if st is None:
                self.states[key] = {
                    "owner": tid, "shared": False, "written": is_write,
                    "lockset": None, "type": type(obj).__name__,
                    "sites": [site], "reported": False,
                }
                return
            if len(st["sites"]) < 5 and site not in st["sites"]:
                st["sites"].append(site)
            if not st["shared"]:
                if st["owner"] == tid:
                    st["written"] = st["written"] or is_write
                    return  # still exclusive to the first thread
                st["shared"] = True
                # Eraser's shared-read refinement: init-then-publish is
                # legal, so only writes *after* sharing begins (including
                # this transitioning access) count towards a race — the
                # exclusive phase's written bit is deliberately dropped.
                st["written"] = is_write
                st["lockset"] = set(lockset)
            else:
                st["written"] = st["written"] or is_write
                st["lockset"] &= lockset
            if st["written"] and not st["lockset"] and not st["reported"]:
                st["reported"] = True
                self.races.append({
                    "object": f"{st['type']}.{attr}",
                    "kind": kind,
                    "site": site,
                    "thread": tid,
                    "sites": list(st["sites"]),
                })

    # -- queries ---------------------------------------------------------
    def edge_list(self) -> list[dict]:
        with self._mu:
            return [
                {
                    "from": self.lock_names.get(a, "?"),
                    "to": self.lock_names.get(b, "?"),
                    "sites": sorted(sites),
                }
                for (a, b), sites in sorted(self.edges.items())
            ]

    def find_inversions(self) -> list[list[str]]:
        with self._mu:
            adj: dict[int, set] = {}
            for (a, b) in self.edges:
                adj.setdefault(a, set()).add(b)
                adj.setdefault(b, set())
            names = dict(self.lock_names)
        from .static import _sccs
        keyed = {str(k): {str(v) for v in vs} for k, vs in adj.items()}
        return [
            sorted(names.get(int(m), "?") for m in scc)
            for scc in _sccs(keyed)
            if len(scc) >= 2
        ]

    def clear(self, capacity: int | None = None) -> None:
        with self._mu:
            if capacity is not None:
                self.capacity = capacity
                self.events = deque(maxlen=capacity)
            else:
                self.events.clear()
            self.lock_names.clear()
            self._lock_refs.clear()
            self._obj_refs.clear()
            self.edges.clear()
            self.states.clear()
            self.races.clear()


_REGISTRY = _Registry()


# ---------------------------------------------------------------------------
# instrumented primitives
# ---------------------------------------------------------------------------

class TsanLock:
    """``threading.Lock`` wrapper feeding the checker.

    A wrapper rather than a subclass because ``_thread.LockType`` cannot
    be subclassed.
    """

    _kind = "Lock"

    def __init__(self) -> None:
        self._inner = threading.Lock()
        _REGISTRY.register_lock(self, self._kind)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            _REGISTRY.note_acquire(self)
        return ok

    def release(self) -> None:
        _REGISTRY.note_release(self)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> "TsanLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


class TsanRLock(TsanLock):
    """Reentrant variant; the held stack sees one entry per acquire."""

    _kind = "RLock"

    def __init__(self) -> None:
        self._inner = threading.RLock()
        _REGISTRY.register_lock(self, self._kind)

    def locked(self) -> bool:  # RLock has no .locked() before 3.12
        if self._inner.acquire(blocking=False):
            self._inner.release()
            return False
        return True


class TsanCondition:
    """``threading.Condition`` wrapper.

    Wraps rather than subclasses: the stock implementation probes
    ``_is_owned`` via ``acquire(False)`` which would pollute the event
    stream with phantom acquisitions.  ``wait``/``wait_for`` mirror the
    real semantics in the checker — the condition's own lock is released
    for the duration of the wait, every other held lock is kept.
    """

    def __init__(self, lock: TsanLock | None = None) -> None:
        self._lock = lock if lock is not None else TsanRLock()
        self._inner = threading.Condition(self._lock._inner)

    def acquire(self, *args: object, **kwargs: object) -> bool:
        return self._lock.acquire(*args, **kwargs)

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> "TsanCondition":
        self._lock.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self._lock.release()

    def wait(self, timeout: float | None = None) -> bool:
        _REGISTRY.note_release(self._lock)
        try:
            return self._inner.wait(timeout)
        finally:
            _REGISTRY.note_acquire(self._lock)

    def wait_for(self, predicate: Callable[[], Any],
                 timeout: float | None = None) -> Any:
        # Reimplemented over our wait() so the checker sees the lock as
        # held during predicate evaluation and released during each wait.
        endtime: float | None = None
        result = predicate()
        while not result:
            if timeout is not None:
                if endtime is None:
                    endtime = time.monotonic() + timeout
                waittime = endtime - time.monotonic()
                if waittime <= 0:
                    break
                self.wait(waittime)
            else:
                self.wait()
            result = predicate()
        return result

    def notify(self, n: int = 1) -> None:
        self._inner.notify(n)

    def notify_all(self) -> None:
        self._inner.notify_all()


# ---------------------------------------------------------------------------
# install / query API
# ---------------------------------------------------------------------------

_INSTALLED = False
_SAVED: dict[str, object] = {}


def install(capacity: int | None = None) -> None:
    """Rebind the :mod:`repro.tsan` seam to the instrumented primitives.

    Idempotent.  Locks constructed *before* installation stay plain —
    callers (the pytest fixture) install before building the objects
    under test.
    """
    global _INSTALLED
    from repro import tsan

    if capacity is not None:
        _REGISTRY.clear(capacity)
    if _INSTALLED:
        return
    _SAVED.update(
        make_lock=tsan.make_lock,
        make_rlock=tsan.make_rlock,
        make_condition=tsan.make_condition,
        note_access=tsan.note_access,
    )
    tsan.make_lock = TsanLock
    tsan.make_rlock = TsanRLock
    tsan.make_condition = TsanCondition
    tsan.note_access = _REGISTRY.note_access
    _INSTALLED = True


def uninstall() -> None:
    """Restore the plain :mod:`repro.tsan` aliases."""
    global _INSTALLED
    from repro import tsan

    if not _INSTALLED:
        return
    tsan.make_lock = _SAVED["make_lock"]
    tsan.make_rlock = _SAVED["make_rlock"]
    tsan.make_condition = _SAVED["make_condition"]
    tsan.note_access = _SAVED["note_access"]
    _SAVED.clear()
    _INSTALLED = False


def installed() -> bool:
    return _INSTALLED


def install_from_env(environ: dict | None = None) -> bool:
    """Install when ``REPRO_TSAN=1`` (the pytest fixture's entry point)."""
    import os

    env = environ if environ is not None else os.environ
    if str(env.get("REPRO_TSAN", "")).strip() in ("1", "true", "yes"):
        install()
        return True
    return False


def reset(capacity: int | None = None) -> None:
    """Drop all recorded state (between tests)."""
    _REGISTRY.clear(capacity)


def events() -> list:
    """Snapshot of the event ring buffer (oldest first)."""
    with _REGISTRY._mu:
        return list(_REGISTRY.events)


def races() -> list[dict]:
    """Accesses whose candidate lockset went empty with a write involved."""
    with _REGISTRY._mu:
        return list(_REGISTRY.races)


def lock_order_edges() -> list[dict]:
    """The observed runtime lock-order graph."""
    return _REGISTRY.edge_list()


def inversions() -> list[list[str]]:
    """Cycles in the runtime lock-order graph (object-identity precise)."""
    return _REGISTRY.find_inversions()


def assert_race_free() -> None:
    """Fail the test if any tracked access raced."""
    found = races()
    if found:
        lines = [
            f"  {r['object']} {r['kind']} at {r['site']} "
            f"(history: {', '.join(r['sites'])})"
            for r in found
        ]
        raise AssertionError(
            "dynamic lockset checker found {} race candidate(s):\n{}".format(
                len(found), "\n".join(lines)))


def assert_no_lock_inversion() -> None:
    """Fail the test if the observed lock-order graph has a cycle."""
    cycles = inversions()
    if cycles:
        lines = ["  " + " <-> ".join(cycle) for cycle in cycles]
        raise AssertionError(
            "dynamic checker found {} lock-order cycle(s):\n{}".format(
                len(cycles), "\n".join(lines)))
