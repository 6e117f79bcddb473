"""Tests for MAC structures, architecture notation, and pack scheduling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.customization import (Architecture, MACStructure,
                                 baseline_architecture, parse_architecture,
                                 schedule)
from repro.encoding import encode_matrix
from repro.exceptions import EncodingError, ScheduleError
from repro.sparse import CSRMatrix

from helpers import random_dense


def matrix_with_row_nnz(row_nnz, width=None):
    width = width or max(max(row_nnz), 1)
    dense = np.zeros((len(row_nnz), width))
    for i, k in enumerate(row_nnz):
        dense[i, :k] = 1.0
    return CSRMatrix.from_dense(dense)


class TestMACStructure:
    def test_capacities_and_offsets(self):
        s = MACStructure(pattern="dd", c=16)
        assert s.capacities == (8, 8)
        assert s.lane_offsets == (0, 8)
        assert s.n_outputs == 2
        assert s.total_capacity == 16

    def test_heterogeneous(self):
        s = MACStructure(pattern="ca", c=8)
        assert s.capacities == (4, 1)
        assert s.lane_offsets == (0, 4)

    def test_infeasible_rejected(self):
        with pytest.raises(EncodingError):
            MACStructure(pattern="ee", c=16)  # 2 x 16 > 16
        with pytest.raises(EncodingError):
            MACStructure(pattern="", c=16)
        with pytest.raises(EncodingError):
            # With log2 buckets 'ca' needs 4 + 1 > 4 slots at C = 4
            # (the paper's toy example uses exact-count letters instead).
            MACStructure(pattern="ca", c=4)

    def test_ordering_longest_first(self):
        a = MACStructure(pattern="aaaa", c=16)
        b = MACStructure(pattern="dd", c=16)
        c = MACStructure(pattern="e", c=16)
        assert sorted([c, a, b]) == [a, b, c]


class TestArchitectureNotation:
    def test_parse_table3_names(self):
        arch = parse_architecture("16{16a1e}")
        patterns = {s.pattern for s in arch.structures}
        assert patterns == {"a" * 16, "e"}

        arch = parse_architecture("64{8d4e1g}")
        patterns = {s.pattern for s in arch.structures}
        assert patterns == {"d" * 8, "e" * 4, "g"}

    def test_parse_adds_implicit_full_structure(self):
        arch = parse_architecture("16{16a}")
        assert any(s.pattern == "e" for s in arch.structures)

    def test_roundtrip(self):
        for name in ["16{e}", "16{16a1e}", "32{32a4d2e1f}", "64{4e1g}"]:
            arch = parse_architecture(name)
            assert parse_architecture(str(arch)) == arch

    def test_heterogeneous_notation(self):
        arch = Architecture(8, ["ca"])
        text = str(arch)
        assert "," in text
        assert parse_architecture(text) == arch

    def test_malformed_rejected(self):
        with pytest.raises(EncodingError):
            parse_architecture("16[e]")
        with pytest.raises(EncodingError):
            parse_architecture("16{2Q}")

    def test_properties(self):
        arch = parse_architecture("32{32a4d1f}")
        assert arch.max_outputs == 32
        assert arch.total_outputs == 32 + 4 + 1
        assert arch.output_widths == (32, 4, 1)
        assert arch.n_structures == 3

    def test_baseline(self):
        base = baseline_architecture(16)
        assert base.n_structures == 1
        assert base.structures[0].pattern == "e"


class TestScheduler:
    def test_baseline_one_cycle_per_char(self):
        mat = matrix_with_row_nnz([4, 2, 2, 1, 1, 1, 3, 1])
        enc = encode_matrix(mat, 4)
        sched = schedule(enc, baseline_architecture(4))
        assert sched.cycles == len(enc.string)
        assert sched.ep == 4 * len(enc.string) - mat.nnz
        sched.validate()

    def test_paper_figure2_schedule(self):
        # Figure 2(e): string cbbaaaca (our log2 buckets) with S={bb, c}.
        # bb matches "bb", "aa" (dominated); schedule:
        #   c | bb | aa | ac? no: staged — bb claims (1,2) and (3,4),
        #   leaving c . . . . a c a -> singles.
        mat = matrix_with_row_nnz([4, 2, 2, 1, 1, 1, 3, 1])
        enc = encode_matrix(mat, 4)
        assert enc.string == "cbbaaaca"
        arch = Architecture(4, ["bb"])
        sched = schedule(enc, arch)
        sched.validate()
        # bb claims positions (1,2) and (3,4); leftovers c,a,c,a.
        assert sched.cycles == 6
        assert sched.ep == 4 * 6 - mat.nnz  # = 24 - 15 = 9

    def test_customization_reduces_cycles(self):
        mat = matrix_with_row_nnz([2, 2] * 20)
        enc = encode_matrix(mat, 4)
        base = schedule(enc, baseline_architecture(4))
        custom = schedule(enc, Architecture(4, ["bb"]))
        assert custom.cycles == base.cycles / 2
        assert custom.ep < base.ep

    def test_dominated_matching(self):
        # "ba" and "ab" and "aa" all map onto the bb structure.
        mat = matrix_with_row_nnz([2, 1, 1, 2, 1, 1])
        enc = encode_matrix(mat, 4)
        assert enc.string == "baabaa"
        sched = schedule(enc, Architecture(4, ["bb"]))
        assert sched.cycles == 3

    def test_longest_structure_priority(self):
        # With S = {aaaa, aa}, runs of a prefer the length-4 structure.
        mat = matrix_with_row_nnz([1] * 8)
        enc = encode_matrix(mat, 4)
        sched = schedule(enc, Architecture(4, ["aaaa", "aa"]))
        assert sched.cycles == 2
        assert all(p.structure.pattern == "aaaa" for p in sched.packs)

    def test_long_rows_use_full_chunks(self):
        mat = matrix_with_row_nnz([10, 1], width=10)
        enc = encode_matrix(mat, 4)
        assert enc.string == "$$ba"
        sched = schedule(enc, baseline_architecture(4))
        sched.validate()
        assert sched.cycles == 4
        # $ chunks have zero padding.
        assert sched.packs[0].slots[0].padding == 0

    def test_pack_lane_assignment(self):
        mat = matrix_with_row_nnz([2, 2])
        enc = encode_matrix(mat, 4)
        sched = schedule(enc, Architecture(4, ["bb"]))
        pack = sched.packs[0]
        assert [s.lane_start for s in pack.slots] == [0, 2]
        assert [s.capacity for s in pack.slots] == [2, 2]

    def test_width_mismatch_rejected(self):
        mat = matrix_with_row_nnz([2, 2])
        enc = encode_matrix(mat, 4)
        with pytest.raises(ScheduleError):
            schedule(enc, baseline_architecture(8))

    def test_stream_order_preserved(self, rng):
        dense = random_dense(rng, 30, 20, 0.3)
        mat = CSRMatrix.from_dense(dense)
        enc = encode_matrix(mat, 8)
        sched = schedule(enc, Architecture(8, ["aaaaaaaa", "bb", "cc"]))
        sched.validate()
        # Chunks appear in stream order across packs.
        ids = [id(slot.chunk) for pack in sched.packs
               for slot in pack.slots]
        expected = [id(c) for c in enc.chunks]
        assert ids == expected

    def test_tighter_single_structure_preferred_for_leftovers(self):
        mat = matrix_with_row_nnz([1])
        enc = encode_matrix(mat, 16)
        arch = Architecture(16, ["b"])
        sched = schedule(enc, arch)
        # Leftover 'a' hosted on the 2-capacity 'b' output rather than
        # the 16-wide root.
        assert sched.packs[0].structure.pattern == "b"

    @given(st.integers(1, 40), st.integers(0, 10_000),
           st.sampled_from([4, 8, 16]))
    @settings(max_examples=40, deadline=None)
    def test_schedule_invariants_property(self, n_rows, seed, c):
        rng = np.random.default_rng(seed)
        dense = random_dense(rng, n_rows, 2 * c, 0.3)
        mat = CSRMatrix.from_dense(dense)
        enc = encode_matrix(mat, c)
        arch = Architecture(c, ["a" * c, "bb"])
        sched = schedule(enc, arch)
        sched.validate()
        assert sched.ep >= 0
        assert sched.cycles <= len(enc.string)
        # Customized never worse than baseline.
        base = schedule(enc, baseline_architecture(c))
        assert sched.cycles <= base.cycles


class TestCachedStructureTables:
    """A structure's capacities, lane offsets and total capacity are
    computed once per structure, and its schedule regex once per
    structure: the customization they feed is the one the uncached
    functions give."""

    @staticmethod
    def _outcome(entries):
        from repro.customization import customize_problem
        from repro.experiments.runner import choose_width
        out = []
        for entry in entries:
            custom = customize_problem(entry.problem,
                                       choose_width(entry.problem.nnz))
            packs = {
                name: [(pack.structure.pattern,
                        tuple((slot.lane_start, slot.capacity,
                               slot.chunk.row, slot.chunk.start,
                               slot.chunk.length, slot.chunk.char)
                              for slot in pack.slots))
                       for pack in m.schedule.packs]
                for name, m in custom.matrices.items()}
            out.append((str(custom.architecture), custom.eta, packs))
        return out

    def test_suite_search_equals_uncached(self, monkeypatch):
        from repro.customization import scheduler
        from repro.encoding import char_capacity
        from repro.problems import benchmark_suite
        entries = list(benchmark_suite(count=2))
        cached = self._outcome(entries)

        def capacities(s):
            return tuple(char_capacity(ch, s.c) for ch in s.pattern)

        def lane_offsets(s):
            offsets, acc = [], 0
            for cap in capacities(s):
                offsets.append(acc)
                acc += cap
            return tuple(offsets)

        monkeypatch.setattr(MACStructure, "capacities", property(capacities))
        monkeypatch.setattr(MACStructure, "lane_offsets",
                            property(lane_offsets))
        monkeypatch.setattr(MACStructure, "total_capacity",
                            property(lambda s: sum(capacities(s))))
        monkeypatch.setattr(scheduler, "_structure_regex",
                            scheduler._structure_regex.__wrapped__)
        assert self._outcome(entries) == cached

    def test_tables_are_computed_once(self):
        s = MACStructure(pattern="cab", c=8)
        assert s.capacities is s.capacities
        assert s.lane_offsets is s.lane_offsets
        assert s.total_capacity == sum(s.capacities) == 7
        assert s == MACStructure(pattern="cab", c=8)
        assert hash(s) == hash(MACStructure(pattern="cab", c=8))
