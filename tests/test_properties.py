"""Property-based tests (hypothesis) for the core invariants.

The invariants pinned here are the load-bearing ones:

* the selective codec is lossless on care bits for any slice content;
* the vectorized cost kernel always agrees with the real encoder;
* wrapper design conserves scanned elements and never beats the
  longest-scan-chain lower bound;
* partition enumeration yields exactly the integer partitions;
* list scheduling produces consistent makespans.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.decompressor import expand_stream, slices_compatible
from repro.compression.golomb import GolombCode
from repro.compression.fdr import FdrCode
from repro.compression.selective import (
    code_parameters,
    encode_slice,
    encode_slices,
    slice_costs,
)
from repro.core.partition import partitions_list
from repro.core.scheduler import schedule_cores
from repro.soc.core import Core, varied_chain_lengths
from repro.wrapper.design import design_wrapper

slice_strategy = st.lists(
    st.sampled_from([0, 1, 2]), min_size=1, max_size=40
).map(lambda xs: np.asarray(xs, dtype=np.int8))

slices_strategy = st.integers(min_value=1, max_value=24).flatmap(
    lambda m: st.lists(
        st.lists(st.sampled_from([0, 1, 2]), min_size=m, max_size=m),
        min_size=1,
        max_size=12,
    ).map(lambda rows: np.asarray(rows, dtype=np.int8))
)


class TestCodecProperties:
    @given(slices_strategy)
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_is_x_compatible(self, slices):
        stream = encode_slices(slices)
        decoded = expand_stream(stream)
        assert slices_compatible(slices, decoded)

    @given(slices_strategy)
    @settings(max_examples=150, deadline=None)
    def test_cost_kernel_matches_encoder(self, slices):
        vector = slice_costs(slices)
        direct = [len(encode_slice(row)) for row in slices]
        assert vector.tolist() == direct

    @given(slice_strategy)
    @settings(max_examples=150, deadline=None)
    def test_cost_bounds(self, row):
        cost = len(encode_slice(row))
        m = row.size
        k, _ = code_parameters(m)
        # At least the END codeword; at most END + 2 words per group.
        assert 1 <= cost <= 1 + 2 * (-(-m // k))

    @given(slice_strategy)
    @settings(max_examples=100, deadline=None)
    def test_x_only_positions_are_free(self, row):
        base_cost = len(encode_slice(row))
        widened = np.concatenate([row, np.full(5, 2, dtype=np.int8)])
        if code_parameters(widened.size)[0] == code_parameters(row.size)[0]:
            # Same group size: appending X bits can only add empty groups.
            assert len(encode_slice(widened)) <= base_cost + 1


class TestRunLengthProperties:
    @given(
        st.lists(st.sampled_from([0, 1]), min_size=1, max_size=300),
        st.sampled_from([2, 4, 8, 16]),
    )
    @settings(max_examples=100, deadline=None)
    def test_golomb_roundtrip(self, bits, b):
        data = np.asarray(bits, dtype=np.int8)
        code = GolombCode(b)
        assert np.array_equal(code.decode(code.encode(data), data.size), data)

    @given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_fdr_roundtrip(self, bits):
        data = np.asarray(bits, dtype=np.int8)
        code = FdrCode()
        assert np.array_equal(code.decode(code.encode(data), data.size), data)

    @given(
        st.lists(st.sampled_from([0, 1]), min_size=1, max_size=300),
        st.sampled_from([2, 4, 8]),
    )
    @settings(max_examples=100, deadline=None)
    def test_lengths_match(self, bits, b):
        data = np.asarray(bits, dtype=np.int8)
        assert GolombCode(b).encoded_length(data) == len(GolombCode(b).encode(data))
        assert FdrCode().encoded_length(data) == len(FdrCode().encode(data))


core_strategy = st.builds(
    lambda chains, inputs, outputs, patterns, seed: Core(
        name=f"h{seed}",
        inputs=inputs,
        outputs=outputs,
        scan_chain_lengths=tuple(chains),
        patterns=patterns,
        care_bit_density=0.2,
        seed=seed,
    ),
    chains=st.lists(st.integers(1, 40), min_size=0, max_size=10),
    inputs=st.integers(0, 30),
    outputs=st.integers(0, 30),
    patterns=st.integers(1, 20),
    seed=st.integers(0, 10_000),
)


class TestWrapperProperties:
    @given(core_strategy, st.integers(1, 16))
    @settings(max_examples=120, deadline=None)
    def test_conservation_and_bounds(self, core, m):
        design = design_wrapper(core, m)
        assigned = sorted(c for chain in design.chains_scan for c in chain)
        assert assigned == list(range(core.num_scan_chains))
        assert sum(design.chains_inputs) == core.wrapper_input_cells
        assert sum(design.chains_outputs) == core.wrapper_output_cells
        longest = max(core.scan_chain_lengths, default=0)
        assert design.scan_in_max >= longest
        assert design.scan_in_max >= -(-core.scan_in_bits // m)
        assert sum(design.scan_in_lengths) == core.scan_in_bits

    @given(core_strategy, st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_position_matrix_is_a_bijection(self, core, m):
        design = design_wrapper(core, m)
        matrix = design.scan_in_position_matrix()
        real = matrix[matrix >= 0]
        assert sorted(real.tolist()) == list(range(core.scan_in_bits))

    @given(
        st.integers(1, 500),
        st.integers(1, 20),
        st.floats(0.0, 0.5),
        st.integers(0, 100),
    )
    @settings(max_examples=100, deadline=None)
    def test_varied_chains_conserve_cells(self, total, chains, spread, seed):
        if total < chains:
            return
        lengths = varied_chain_lengths(total, chains, spread=spread, seed=seed)
        assert sum(lengths) == total
        assert all(x >= 1 for x in lengths)


class TestPartitionProperties:
    @given(st.integers(1, 30), st.integers(1, 6), st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_partitions_are_valid_and_unique(self, total, parts, min_width):
        if total < min_width:
            assert partitions_list(total, parts, min_width) == ()
            return
        seen = set()
        for widths in partitions_list(total, parts, min_width):
            assert sum(widths) == total
            assert len(widths) <= parts
            assert all(x >= min_width for x in widths)
            assert all(a >= b for a, b in zip(widths, widths[1:]))
            assert widths not in seen
            seen.add(widths)
        assert (total,) in seen


class TestSchedulerProperties:
    @given(
        st.dictionaries(
            st.text(alphabet="abcdefgh", min_size=1, max_size=3),
            st.integers(1, 100),
            min_size=1,
            max_size=8,
        ),
        st.lists(st.integers(1, 8), min_size=1, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_makespan_consistency(self, times, widths):
        names = list(times)
        outcome = schedule_cores(names, widths, lambda n, w: times[n])
        loads = [0] * len(widths)
        for name, tam in zip(names, outcome.assignment):
            loads[tam] += times[name]
        assert outcome.makespan == max(loads)
        # Makespan can never beat the longest single test or the average.
        assert outcome.makespan >= max(times.values())
