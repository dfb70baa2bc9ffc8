"""Second property-based pass: cross-layer invariants.

These tie layers together: estimator vs exact coder, constrained vs
plain scheduling, preemptive vs non-preemptive, plan vs simulation.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.cubes import generate_cubes
from repro.compression.dictionary import build_dictionary, canonicalize, decode, encode
from repro.compression.estimator import estimate_codewords
from repro.compression.selective import slice_costs
from repro.core.timeline import schedule_constrained, schedule_preemptive
from repro.soc.core import Core
from repro.wrapper.design import design_wrapper

small_core_strategy = st.builds(
    lambda chains, length, inputs, patterns, density, seed: Core(
        name=f"p{seed}",
        inputs=inputs,
        outputs=inputs,
        scan_chain_lengths=tuple([length] * chains),
        patterns=patterns,
        care_bit_density=density,
        seed=seed,
    ),
    chains=st.integers(2, 8),
    length=st.integers(5, 30),
    inputs=st.integers(0, 8),
    patterns=st.integers(2, 15),
    density=st.floats(0.01, 0.3),
    seed=st.integers(0, 5000),
)


class TestEstimatorAgainstExact:
    @given(small_core_strategy, st.integers(2, 12))
    @settings(max_examples=30, deadline=None)
    def test_estimator_tracks_exact_order_of_magnitude(self, core, m):
        """On tiny cores the estimator is noisy but must stay within a
        factor-of-two band of the exact codeword count."""
        design = design_wrapper(core, m)
        exact = int(slice_costs(generate_cubes(core).slices(design)).sum())
        estimate = estimate_codewords(core, design, samples=1024).total_codewords
        assert exact > 0
        assert 0.5 <= estimate / exact <= 2.0


class TestDictionaryProperties:
    @given(
        st.integers(2, 16).flatmap(
            lambda m: st.tuples(
                st.just(m),
                st.lists(
                    st.lists(st.sampled_from([0, 1, 2]), min_size=m, max_size=m),
                    min_size=2,
                    max_size=30,
                ),
            )
        ),
        st.integers(1, 4),
    )
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_equals_canonical(self, m_and_rows, index_bits):
        m, rows = m_and_rows
        slices = np.asarray(rows, dtype=np.int8)
        dictionary = build_dictionary(slices, index_bits)
        decoded = decode(encode(slices, dictionary), dictionary, slices.shape[0])
        assert np.array_equal(decoded, canonicalize(slices))

    @given(
        st.lists(
            st.lists(st.sampled_from([0, 1, 2]), min_size=6, max_size=6),
            min_size=2,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_bigger_dictionary_never_hurts(self, rows):
        from repro.compression.dictionary import compression_stats

        slices = np.asarray(rows, dtype=np.int8)
        small = compression_stats(slices, build_dictionary(slices, 1))
        # A 2-entry dictionary pays 2 bits per hit; a 4-entry one pays 3
        # but hits at least as often; compare hit rates, not raw bits.
        large = compression_stats(slices, build_dictionary(slices, 2))
        assert large.hit_rate >= small.hit_rate


schedule_instance = st.tuples(
    st.dictionaries(
        st.text(alphabet="abcdefgh", min_size=1, max_size=2),
        st.integers(1, 60),
        min_size=1,
        max_size=6,
    ),
    st.lists(st.integers(1, 4), min_size=1, max_size=3),
    st.floats(0.5, 5.0),
)


class TestConstrainedSchedulingProperties:
    @given(schedule_instance)
    @settings(max_examples=60, deadline=None)
    def test_power_budget_always_respected(self, instance):
        times, widths, unit_power = instance
        names = list(times)
        power = {name: unit_power for name in names}
        budget = unit_power * 2.5  # two tests at a time
        schedule = schedule_constrained(
            names,
            widths,
            lambda n, w: times[n],
            power_of=power,
            power_budget=budget,
        )
        assert schedule.peak_power <= budget + 1e-9

    @given(schedule_instance)
    @settings(max_examples=60, deadline=None)
    def test_preemptive_never_slower(self, instance):
        times, widths, unit_power = instance
        names = list(times)
        power = {name: unit_power for name in names}
        budget = unit_power * 2.5
        plain = schedule_constrained(
            names, widths, lambda n, w: times[n],
            power_of=power, power_budget=budget,
        )
        split = schedule_preemptive(
            names, widths, lambda n, w: times[n],
            power_of=power, power_budget=budget, max_segments=3,
        )
        assert split.makespan <= plain.makespan
        assert split.peak_power <= budget + 1e-9

    @given(schedule_instance)
    @settings(max_examples=60, deadline=None)
    def test_preemptive_segments_conserve_duration(self, instance):
        times, widths, _ = instance
        names = list(times)
        schedule = schedule_preemptive(
            names, widths, lambda n, w: times[n], max_segments=3
        )
        for name in names:
            segments = schedule.segments_for(name)
            assert sum(s.duration for s in segments) == times[name]
            # No two segments of any cores overlap on a TAM.
        by_tam = {}
        for segment in schedule.segments:
            by_tam.setdefault(segment.tam, []).append(segment)
        for items in by_tam.values():
            items.sort(key=lambda s: s.start)
            for a, b in zip(items, items[1:]):
                assert b.start >= a.end


class TestMakespanLowerBounds:
    @given(schedule_instance)
    @settings(max_examples=60, deadline=None)
    def test_constrained_respects_lower_bounds(self, instance):
        times, widths, _ = instance
        names = list(times)
        schedule = schedule_constrained(names, widths, lambda n, w: times[n])
        assert schedule.makespan >= max(times.values())
        assert schedule.makespan >= -(-sum(times.values()) // len(widths))
