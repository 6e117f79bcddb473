"""Pack scheduling: mapping a sparsity string onto an architecture (§4.2).

Follows the paper's staged string-replacement procedure: for each
structure in ``S`` from longest to shortest, occurrences of the
structure's pattern *and all dominated variants* (each character with at
most the segment's capacity — the ``bb -> bb|ba|ab|aa`` regular
expression of the paper) are claimed left to right; remaining single
chunks fall back onto the full-width root output, one cycle each.

The result is both the cycle count (hence the zero-padding ``E_p``) and
the exact lane assignment of every non-zero, which the CVB builder and
the hardware simulator consume.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from ..encoding import FULL_CHUNK, MatrixEncoding, alphabet_for, char_capacity
from ..exceptions import ScheduleError
from .mac_tree import Architecture, MACStructure

__all__ = ["PackSlot", "Pack", "Schedule", "schedule"]

#: Placeholder for already-claimed positions in the working string.
_TAKEN = "*"


@dataclass(frozen=True)
class PackSlot:
    """One segment of one pack: a chunk placed at a lane range."""

    lane_start: int
    capacity: int
    chunk: object  # encoding.Chunk

    @property
    def padding(self) -> int:
        return self.capacity - self.chunk.length


@dataclass(frozen=True)
class Pack:
    """One clock cycle of SpMV input: a structure instance with its slots."""

    structure: MACStructure
    slots: tuple

    @property
    def used(self) -> int:
        return sum(slot.chunk.length for slot in self.slots)

    @property
    def n_outputs(self) -> int:
        return self.structure.n_outputs


@dataclass
class Schedule:
    """Complete schedule of one matrix on one architecture."""

    encoding: MatrixEncoding
    architecture: Architecture
    packs: list

    @property
    def cycles(self) -> int:
        """SpMV input cycles — ``length(w_sched)`` in the paper."""
        return len(self.packs)

    @property
    def ep(self) -> int:
        """Zero padding: ``E_p = C * length(w_sched) - nnz``."""
        return self.architecture.c * self.cycles - self.encoding.nnz

    def validate(self) -> None:
        """Check lane packing plus chunk coverage in stream order.

        A slot's chunk occupies lanes ``[lane_start, lane_start +
        length)``; within a pack those ranges must be disjoint, in
        increasing lane order, inside the datapath, and within the
        slot's capacity. Across packs, the slots must replay exactly
        the encoding's chunk stream, in order — the HBM burst the
        hardware consumes is the stream, so reordering silently
        mis-addresses every later element.
        """
        c = self.architecture.c
        seen = []
        for index, pack in enumerate(self.packs):
            end = 0
            for slot in pack.slots:
                if slot.lane_start < 0:
                    raise ScheduleError(
                        f"pack {index}: negative lane_start")
                if slot.lane_start < end:
                    raise ScheduleError(
                        f"pack {index}: slots overlap or are out of "
                        "lane order")
                if slot.chunk.length > slot.capacity:
                    raise ScheduleError(
                        f"pack {index}: chunk exceeds slot capacity")
                if slot.lane_start + slot.chunk.length > c:
                    raise ScheduleError(
                        f"pack {index}: slot runs past the C={c} "
                        "datapath")
                end = slot.lane_start + slot.chunk.length
                seen.append(slot.chunk)
        if len(seen) != len(self.encoding.chunks):
            raise ScheduleError(
                f"{len(seen)} chunks scheduled, expected "
                f"{len(self.encoding.chunks)}")
        for pos, (got, want) in enumerate(zip(seen,
                                              self.encoding.chunks)):
            if got is not want:
                raise ScheduleError(
                    f"chunk at stream position {pos} scheduled out of "
                    "order")


def _dominated_class(ch: str, c: int) -> str:
    """Regex character class of all chars with capacity <= capacity(ch)."""
    cap = char_capacity(ch, c)
    members = [letter for letter in alphabet_for(c)
               if char_capacity(letter, c) <= cap]
    if cap >= c:
        members.append(re.escape(FULL_CHUNK))
    return "[" + "".join(members) + "]"


@functools.lru_cache(maxsize=1024)
def _structure_regex(structure: MACStructure) -> re.Pattern:
    return re.compile("".join(_dominated_class(ch, structure.c)
                              for ch in structure.pattern))


def schedule(encoding: MatrixEncoding, architecture: Architecture,
             *, allow_partial: bool = False) -> Schedule:
    """Schedule ``encoding`` onto ``architecture`` (staged replacement).

    With ``allow_partial`` (an extension beyond the paper's procedure),
    leftover runs of two or more chunks may occupy a *prefix* of a
    structure's segments — the trailing segments are fed zeros. This
    never increases the cycle count and helps when repeated patterns are
    almost-but-not-quite the structure length.
    """
    if encoding.c != architecture.c:
        raise ScheduleError(
            f"encoding width C={encoding.c} does not match architecture "
            f"C={architecture.c}")
    chunks = encoding.chunks
    work = list(encoding.string)
    # position -> (structure, match_start, matched_length)
    assignment: dict[int, tuple] = {}

    for structure in architecture.structures:
        if structure.n_outputs < 2:
            continue  # single chars are handled by the fallback pass
        pattern = _structure_regex(structure)
        text = "".join(work)
        for match in pattern.finditer(text):
            start = match.start()
            assignment[start] = (structure, start, structure.n_outputs)
            for pos in range(start, match.end()):
                work[pos] = _TAKEN
        # finditer never yields overlapping matches, and _TAKEN blocks
        # later (shorter) structures from reusing these positions.

    if allow_partial:
        _assign_prefix_runs(encoding, architecture, work, assignment)

    packs: list[Pack] = []
    pos = 0
    n = len(chunks)
    single_cache: dict[str, MACStructure] = {}
    while pos < n:
        if pos in assignment:
            structure, start, length = assignment[pos]
            slots = []
            for offset in range(length):
                slots.append(PackSlot(lane_start=structure.lane_offsets[offset],
                                      capacity=structure.capacities[offset],
                                      chunk=chunks[start + offset]))
            packs.append(Pack(structure=structure, slots=tuple(slots)))
            pos += length
        else:
            ch = encoding.string[pos]
            structure = single_cache.get(ch)
            if structure is None:
                structure = _best_single_structure(architecture, ch)
                single_cache[ch] = structure
            packs.append(Pack(structure=structure,
                              slots=(PackSlot(lane_start=0,
                                              capacity=structure.capacities[0],
                                              chunk=chunks[pos]),)))
            pos += 1
    return Schedule(encoding=encoding, architecture=architecture,
                    packs=packs)


def _assign_prefix_runs(encoding: MatrixEncoding,
                        architecture: Architecture, work: list,
                        assignment: dict) -> None:
    """Claim leftover runs of >= 2 chunks as structure *prefixes*."""
    n = len(work)
    c = architecture.c
    pos = 0
    while pos < n:
        if work[pos] == _TAKEN:
            pos += 1
            continue
        best_len = 1
        best_structure = None
        for structure in architecture.structures:
            if structure.n_outputs < 2:
                continue
            length = 0
            caps = structure.capacities
            while (length < structure.n_outputs
                   and pos + length < n
                   and work[pos + length] != _TAKEN
                   and char_capacity(work[pos + length], c)
                   <= caps[length]):
                length += 1
            if length > best_len:
                best_len = length
                best_structure = structure
        if best_structure is not None and best_len >= 2:
            assignment[pos] = (best_structure, pos, best_len)
            for k in range(pos, pos + best_len):
                work[k] = _TAKEN
            pos += best_len
        else:
            pos += 1


def _best_single_structure(architecture: Architecture,
                           ch: str) -> MACStructure:
    """Single-output structure hosting a leftover chunk.

    Prefer the tightest single-output structure whose capacity fits the
    chunk; the full-width root output always exists as a fallback. A
    tighter structure does not change the cycle count (still one cycle)
    but keeps the lane footprint small, which helps the CVB.
    """
    cap = char_capacity(ch, architecture.c)
    best = architecture.full_structure
    for structure in architecture.structures:
        if structure.n_outputs != 1:
            continue
        if structure.total_capacity >= cap:
            if structure.total_capacity < best.total_capacity:
                best = structure
    return best
