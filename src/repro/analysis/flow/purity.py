"""Per-function effect summaries over the project index.

The call-graph extractor records *raw* facts per function (global reads
and writes, wall-clock calls, seed-less RNG construction); this module
turns them into judgements:

* which module-level names the project mutates *anywhere* (a read-only
  registry dict populated once at import time is fine to read from a
  worker; a counter someone increments is not);
* an :class:`EffectSummary` per function that the spawn-safety pass can
  consult directly.

Pure read-only module constants never appear in a summary — the passes
deliberately over-approximate call *edges* but under-approximate effect
*reports*, so every reported effect is backed by a concrete mutation site
somewhere in the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .callgraph import ProjectIndex

__all__ = ["EffectSummary", "effect_summaries"]

#: Module-level names whose mutation is an accepted implementation detail
#: (interpreter-wide switches with documented save/restore discipline).
#: ``Tensor`` is here because :func:`repro.analysis.sanitize.sanitize_tape`
#: swaps ``Tensor._make`` for the duration of a ``with`` block and restores
#: it in ``finally`` — the same no_grad-style contract as ``_GRAD_MODE``;
#: without the exemption every spawn-reachable *read* of the class (all of
#: ``repro.nn``) would be flagged as depending on mutated global state.
#: ``repro.tsan`` is the concurrency-checker instrumentation seam:
#: ``runtime.install()``/``uninstall()`` rebind its constructor aliases
#: with the same save/restore discipline, and production code reads them
#: on every lock construction — without the exemption every
#: spawn-reachable ``tsan.make_lock()`` call would be flagged.
_EXEMPT_GLOBALS = {
    ("repro.nn.tensor", "_GRAD_MODE"),
    ("repro.nn.tensor", "Tensor"),
    ("repro", "tsan"),
    ("repro.tsan", "make_lock"),
    ("repro.tsan", "make_rlock"),
    ("repro.tsan", "make_condition"),
    ("repro.tsan", "note_access"),
}


@dataclass
class EffectSummary:
    """Observable effects of one function, from its own body only.

    Transitive effects come from combining summaries over call-graph
    reachability — see :mod:`repro.analysis.flow.spawnsafety`.
    """

    qualname: str
    #: (module, name, line) reads of globals the project mutates somewhere.
    reads_mutated: list[tuple[str, str, int]] = field(default_factory=list)
    #: (module, name, line) writes/mutations of module-level state.
    writes: list[tuple[str, str, int]] = field(default_factory=list)
    #: Lines with wall-clock reads.
    wall_clock: list[int] = field(default_factory=list)
    #: Lines constructing RNGs without an explicit seed.
    unseeded_rng: list[int] = field(default_factory=list)

    def is_spawn_clean(self) -> bool:
        return not (self.reads_mutated or self.writes
                    or self.wall_clock or self.unseeded_rng)


def effect_summaries(index: ProjectIndex) -> dict[str, EffectSummary]:
    """Compute an :class:`EffectSummary` for every function in the index."""
    mutated = index.mutated_globals() - _EXEMPT_GLOBALS
    summaries: dict[str, EffectSummary] = {}
    for info in index.modules.values():
        for fn in info.functions.values():
            summary = EffectSummary(qualname=fn.qualname)
            for mod, name, line in fn.global_reads:
                if (mod, name) in mutated:
                    summary.reads_mutated.append((mod, name, line))
            for mod, name, line in fn.global_writes:
                if (mod, name) not in _EXEMPT_GLOBALS:
                    summary.writes.append((mod, name, line))
            summary.wall_clock = list(fn.wall_clock)
            summary.unseeded_rng = list(fn.unseeded_rng)
            summaries[fn.qualname] = summary
    return summaries
