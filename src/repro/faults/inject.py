"""The shared datapath injection hook both backends call.

A :class:`FaultInjector` is armed on the machine, one per lane
(``machine.injectors``; an accelerator's ``fault_injector`` arms its
one lane). Both execution backends call the same three hooks at the
same logical points of the instruction stream:

* :meth:`on_spmv` — after an SpMV writes its result vector
  (``mac-flip``: a MAC-tree upset corrupts one output element);
* :meth:`on_load` — after an HBM -> VB ``DataTransfer`` load
  (``hbm-read``: the read returns corrupted bits);
* :meth:`on_cvb` — after a ``VecDup`` fills a CVB bank group
  (``cvb-read``: the duplication latches corrupted bits).

Each hook counts ops per channel; a fault fires when its
``(channel, op_index)`` coordinate comes up. Corruption is a single
XOR on the float64 bit pattern (viewed as uint64), applied in place —
identical on both backends because both hand the hook the same buffer
contents at the same op count. Every firing is recorded in
:attr:`FaultInjector.events` (with before/after bit patterns), which
is how the serving and fleet layers account injected faults even when
the solve subsequently fails.

The injector also carries ``poison_artifact`` — the artifact-poison
corruption shared by the serving layer and the chaos CLI.
"""

from __future__ import annotations

import numpy as np

from .plan import KIND_CHANNEL

__all__ = ["FaultInjector", "flip_bit", "poison_artifact"]


def flip_bit(buf: np.ndarray, element: int, bit: int) -> tuple:
    """XOR one bit of ``buf[element]`` in place; returns (before, after).

    The element index is reduced modulo the buffer length, so plans
    can draw indices without knowing vector sizes — both backends see
    the same length, hence the same element.
    """
    if buf.size == 0:
        return 0.0, 0.0
    idx = int(element) % buf.size
    view = buf.view(np.uint64)
    before = float(buf[idx])
    view[idx] ^= np.uint64(1) << np.uint64(int(bit))
    return before, float(buf[idx])


class FaultInjector:
    """Per-solve fault firing state; arm one per solve attempt."""

    def __init__(self, faults):
        self._by_site: dict[tuple[str, int], list] = {}
        for fault in faults:
            channel = KIND_CHANNEL.get(fault.kind)
            if channel is None:
                raise ValueError(
                    f"not a datapath fault kind: {fault.kind!r}")
            self._by_site.setdefault(
                (channel, fault.op_index), []).append(fault)
        self._counts = {"spmv": 0, "load": 0, "cvb": 0}
        #: One dict per fired fault: kind/site/op/element/bit plus the
        #: before/after float values of the corrupted element.
        self.events: list[dict] = []

    def __bool__(self) -> bool:
        return bool(self._by_site)

    # -- the three hook points ------------------------------------------
    def on_spmv(self, name: str, buf: np.ndarray) -> None:
        self._fire("spmv", name, buf)

    def on_load(self, name: str, buf: np.ndarray) -> None:
        self._fire("load", name, buf)

    def on_cvb(self, name: str, buf: np.ndarray) -> None:
        self._fire("cvb", name, buf)

    # -------------------------------------------------------------------
    def _fire(self, channel: str, name: str, buf: np.ndarray) -> None:
        index = self._counts[channel]
        self._counts[channel] = index + 1
        faults = self._by_site.get((channel, index))
        if not faults:
            return
        for fault in faults:
            before, after = flip_bit(buf, fault.element, fault.bit)
            self.events.append({
                "kind": fault.kind, "channel": channel, "site": name,
                "op_index": index,
                "element": int(fault.element) % max(buf.size, 1),
                "bit": int(fault.bit),
                "before": before, "after": after})


def poison_artifact(artifact) -> dict:
    """Corrupt a cached artifact's compiled cycle bookkeeping in place.

    Desyncs the compiled program's per-section analytic cost from its
    schedules (the kind of silent metadata rot a bit-flip in a cache
    produces) and clears the artifact's memoized ``verified`` flag so
    the next pre-solve verification actually re-checks — and rejects —
    it. Returns an event record for fault accounting.
    """
    compiled = artifact.compiled
    # Bump the main iteration-loop body, whatever the algorithm
    # ("admm_body" for ADMM programs, "pdhg_body" for PDQP ones).
    section = getattr(compiled, "body_section", "admm_body")
    before = int(compiled.section_cycles.get(section, 0))
    compiled.section_cycles[section] = before + 1
    artifact.verified = False
    return {"kind": "artifact-poison",
            "site": artifact.fingerprint.key, "section": section,
            "before": before, "after": before + 1}
