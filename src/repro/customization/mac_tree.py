"""MAC-tree structure model and the paper's ``C{S}`` notation.

A width-``C`` SpMV engine owns ``C`` multipliers feeding a binary adder
tree. A *structure* partitions the tree inputs into segments with
dedicated output taps: structure ``"dd"`` at ``C = 16`` splits the tree
into two 8-input sub-trees so two 8-non-zero rows finish in one cycle.
An *architecture* is a set ``S`` of such structures (plus the implicit
full-width structure — the root output every tree has).

The paper denotes architectures ``C{S}`` with run-length tokens:
``16{16a2d1e}`` is ``C = 16`` with ``S = {a^16, dd, e}``. Heterogeneous
structures discovered by the LZW search (e.g. ``ca``) are written as
comma-separated raw patterns: ``16{ca,e}``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, total_ordering

from ..encoding import FULL_CHUNK, alphabet_for, char_capacity
from ..exceptions import EncodingError

__all__ = ["MACStructure", "Architecture", "parse_architecture",
           "baseline_architecture"]

_TOKEN_RE = re.compile(r"(\d+)([a-z$])")
_ARCH_RE = re.compile(r"^(\d+)\{(.*)\}$")


@total_ordering
@dataclass(frozen=True)
class MACStructure:
    """One output partition of the MAC tree.

    ``pattern`` is a string of bucket characters; segment ``j`` accepts a
    row chunk with at most ``char_capacity(pattern[j], c)`` non-zeros.
    """

    pattern: str
    c: int

    def __post_init__(self):
        if not self.pattern:
            raise EncodingError("empty MAC structure pattern")
        if self.total_capacity > self.c:
            raise EncodingError(
                f"structure {self.pattern!r} needs {self.total_capacity} "
                f"inputs but C={self.c}")

    # The scheduler reads these once per placed pack; computed once per
    # structure (the frozen fields never change).
    @cached_property
    def capacities(self) -> tuple:
        return tuple(char_capacity(ch, self.c) for ch in self.pattern)

    @cached_property
    def total_capacity(self) -> int:
        return sum(self.capacities)

    @property
    def n_outputs(self) -> int:
        """Rows completed per cycle — the routing case width."""
        return len(self.pattern)

    @cached_property
    def lane_offsets(self) -> tuple:
        """Starting lane of each segment."""
        offsets = []
        acc = 0
        for cap in self.capacities:
            offsets.append(acc)
            acc += cap
        return tuple(offsets)

    @property
    def is_homogeneous(self) -> bool:
        return len(set(self.pattern)) == 1

    def __lt__(self, other: "MACStructure") -> bool:
        # Scheduling priority: longer patterns first, then larger capacity.
        return ((len(self.pattern), self.total_capacity, self.pattern)
                > (len(other.pattern), other.total_capacity, other.pattern))

    def __str__(self) -> str:
        return self.pattern


class Architecture:
    """A width-``C`` SpMV engine with structure set ``S``.

    The full-width single-output structure (the paper's baseline MAC) is
    always a member — every adder tree has its root output.
    """

    def __init__(self, c: int, patterns):
        self.c = int(c)
        full_char = alphabet_for(self.c)[-1]
        seen: dict[str, None] = {}
        for pattern in patterns:
            seen.setdefault(pattern, None)
        seen.setdefault(full_char, None)
        self.structures = tuple(sorted(
            MACStructure(pattern=p, c=self.c) for p in seen))
        self.full_structure = MACStructure(pattern=full_char, c=self.c)

    # -- properties feeding the resource / frequency models -------------
    @property
    def n_structures(self) -> int:
        return len(self.structures)

    @property
    def max_outputs(self) -> int:
        """Widest output case — dominates routing mux size and f_max."""
        return max(s.n_outputs for s in self.structures)

    @property
    def total_outputs(self) -> int:
        """Total dedicated output taps across all structures."""
        return sum(s.n_outputs for s in self.structures)

    @property
    def output_widths(self) -> tuple:
        """Distinct per-cycle output counts, descending."""
        return tuple(sorted({s.n_outputs for s in self.structures},
                            reverse=True))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Architecture) and self.c == other.c
                and self.structures == other.structures)

    def __hash__(self) -> int:
        return hash((self.c, self.structures))

    def __str__(self) -> str:
        parts = []
        for s in self.structures:
            if s.is_homogeneous:
                parts.append(f"{len(s.pattern)}{s.pattern[0]}")
            else:
                parts.append(s.pattern)
        # Run-length tokens concatenate (paper style); raw patterns need
        # comma separation to stay parseable.
        if all(s.is_homogeneous for s in self.structures):
            return f"{self.c}{{{''.join(parts)}}}"
        return f"{self.c}{{{','.join(parts)}}}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Architecture({self})"


def parse_architecture(text: str) -> Architecture:
    """Parse the ``C{S}`` notation.

    >>> arch = parse_architecture("16{16a2d1e}")
    >>> sorted(str(s) for s in arch.structures)
    ['aaaaaaaaaaaaaaaa', 'dd', 'e']
    """
    match = _ARCH_RE.match(text.strip())
    if not match:
        raise EncodingError(f"malformed architecture string: {text!r}")
    c = int(match.group(1))
    body = match.group(2)
    patterns: list[str] = []
    for part in body.split(","):
        part = part.strip()
        if not part:
            continue
        if _TOKEN_RE.fullmatch(part) or re.fullmatch(
                f"(?:{_TOKEN_RE.pattern})+", part):
            for count, ch in _TOKEN_RE.findall(part):
                patterns.append(ch * int(count))
        elif re.fullmatch(r"[a-z$]+", part):
            patterns.append(part)
        else:
            raise EncodingError(f"malformed structure token: {part!r}")
    return Architecture(c, patterns)


def baseline_architecture(c: int) -> Architecture:
    """The uncustomized engine: single full-width output (paper §5.2)."""
    return Architecture(c, [])
