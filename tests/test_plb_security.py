"""Privacy: the §4.1.2 PLB leak and the Unified-tree fix, leaf uniformity.

Reproduces the paper's two-program distinguisher: program A unit-strides,
program B strides by X. With per-level ORAM trees and a PLB, the
tree-access pattern separates the programs; with the Unified tree every
access touches the single tree ORamU and the patterns coincide.
"""

import pytest

from repro.adversary.observer import TraceObserver, distinguish_by_tree_pattern
from repro.frontend.recursive import RecursiveFrontend
from repro.frontend.unified import PlbFrontend
from repro.spec import SchemeSpec
from repro.utils.rng import DeterministicRng
from repro.utils.stats import chi_square_uniform


def run_program(frontend, addresses):
    for addr in addresses:
        frontend.read(addr)


def program_a(n, length):
    """Unit stride."""
    return [i % n for i in range(length)]


def program_b(n, length, stride):
    """Stride X (one access per PosMap block)."""
    return [(i * stride) % n for i in range(length)]


class TestPlbLeakWithSeparateTrees:
    """A PLB naively bolted onto per-level trees leaks (the paper builds
    the distinguisher on the *set of trees accessed*; the Recursive
    baseline without a PLB is the control showing identical patterns)."""

    def test_recursive_without_plb_is_indistinguishable(self):
        n, length = 2**10, 128
        traces = []
        for program in (program_a(n, length), program_b(n, length, 8)):
            observer = TraceObserver()
            frontend = RecursiveFrontend(
                SchemeSpec(
                    frontend="recursive",
                    num_blocks=n,
                    onchip_entries=2**4,
                    storage="object",
                ),
                rng=DeterministicRng(1),
                observer=observer,
            )
            run_program(frontend, program)
            traces.append(observer.tree_sequence())
        # Without a PLB both programs touch trees in the same fixed order.
        assert not distinguish_by_tree_pattern(traces[0], traces[1])

    def test_plb_hit_pattern_differs_across_programs(self):
        """The PLB's *savings* differ per program — this is the signal
        that would leak if each level had its own tree."""
        n, length = 2**10, 256
        hit_counts = []
        for program in (program_a(n, length), program_b(n, length, 16)):
            frontend = PlbFrontend(
                SchemeSpec(
                    num_blocks=n,
                    posmap_format="uncompressed",
                    onchip_entries=2**4,
                    plb_capacity_bytes=2 * 1024,
                    storage="object",
                ),
                rng=DeterministicRng(1),
            )
            run_program(frontend, program)
            hit_counts.append(frontend.stats.plb_hits)
        assert hit_counts[0] != hit_counts[1]


class TestUnifiedTreeFix:
    def test_all_accesses_go_to_one_tree(self):
        """§4.1.3: with ORamU the adversary sees a single tree id."""
        n, length = 2**10, 128
        observer = TraceObserver()
        frontend = PlbFrontend(
            SchemeSpec(
                num_blocks=n,
                posmap_format="uncompressed",
                onchip_entries=2**4,
                plb_capacity_bytes=2 * 1024,
                storage="object",
            ),
            rng=DeterministicRng(1),
            observer=observer,
        )
        run_program(frontend, program_a(n, length))
        assert set(e.tree_id for e in observer.events) == {0}

    def test_programs_differ_only_in_length(self):
        """Same-length prefixes of the two programs' ORamU traces carry
        no tree-pattern signal (only |ORAM(a)| may leak, §4.3)."""
        n, length = 2**10, 200
        sequences = []
        for program in (program_a(n, length), program_b(n, length, 16)):
            observer = TraceObserver()
            frontend = PlbFrontend(
                SchemeSpec(
                    num_blocks=n,
                    posmap_format="uncompressed",
                    onchip_entries=2**4,
                    plb_capacity_bytes=2 * 1024,
                    storage="object",
                ),
                rng=DeterministicRng(1),
                observer=observer,
            )
            run_program(frontend, program)
            sequences.append(observer.tree_sequence())
        k = min(len(sequences[0]), len(sequences[1]))
        assert sequences[0][:k] == sequences[1][:k]  # all zeros
        # The trace length itself differs — the permitted leak.
        assert len(sequences[0]) != len(sequences[1])


class TestLeafUniformity:
    """Observation 1: every Backend access uses a fresh uniform leaf."""

    @pytest.mark.parametrize("posmap_format", ["uncompressed", "flat", "compressed"])
    def test_leaf_histogram_uniform(self, posmap_format):
        observer = TraceObserver()
        frontend = PlbFrontend(
            SchemeSpec(
                num_blocks=2**8,
                posmap_format=posmap_format,
                onchip_entries=2**3,
                plb_capacity_bytes=1024,
                storage="object",
            ),
            rng=DeterministicRng(5),
            observer=observer,
        )
        rng = DeterministicRng(6)
        for _ in range(2000):
            frontend.read(rng.randrange(2**8))
        leaves = observer.leaf_sequence(0)
        num_leaves = frontend.config.num_leaves
        counts = [0] * num_leaves
        for leaf in leaves:
            counts[leaf] += 1
        stat, dof = chi_square_uniform(counts)
        # Mean of chi2 is dof, stddev sqrt(2*dof); allow 5 sigma.
        assert stat < dof + 5 * (2 * dof) ** 0.5

    def test_sequential_and_random_leaf_streams_look_alike(self):
        """Leaf sequences must not encode the program's address pattern."""
        histograms = []
        for addresses in (program_a(2**8, 1500), None):
            observer = TraceObserver()
            frontend = PlbFrontend(
                SchemeSpec(
                    num_blocks=2**8,
                    posmap_format="uncompressed",
                    onchip_entries=2**3,
                    plb_capacity_bytes=1024,
                    storage="object",
                ),
                rng=DeterministicRng(9),
                observer=observer,
            )
            if addresses is None:
                rng = DeterministicRng(10)
                addresses = [rng.randrange(2**8) for _ in range(1500)]
            run_program(frontend, addresses)
            counts = [0] * frontend.config.num_leaves
            for leaf in observer.leaf_sequence(0):
                counts[leaf] += 1
            stat, dof = chi_square_uniform(counts)
            histograms.append(stat / dof)
        # Both programs' leaf streams pass the same uniformity bar.
        assert all(ratio < 1.6 for ratio in histograms)
