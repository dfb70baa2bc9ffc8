"""Ablation A8 -- test quality versus ATE memory depth.

The paper's introduction motivates compression with "the need for large
memory on testers".  This ablation makes that concrete: at a given
per-channel vector depth, a plan that does not fit must truncate
patterns and lose fault coverage.  Compression shrinks the schedule ~9x,
so at equal tester memory the compressed plan ships (near-)full quality
while the uncompressed one sheds coverage.
"""

from conftest import run_once

from repro.pipeline import RunConfig, plan
from repro.quality.truncation import truncate_for_depth
from repro.reporting.tables import format_table
from repro.soc.industrial import industrial_system


def _study():
    soc = industrial_system("System2")
    plain = plan(soc, 32, RunConfig(compression="none"))
    packed = plan(soc, 32, RunConfig(compression="per-core"))
    rows = []
    for depth_fraction in (1.0, 0.5, 0.25, 0.12):
        depth = int(plain.test_time * depth_fraction)
        plain_result = truncate_for_depth(soc, plain, depth)
        packed_result = truncate_for_depth(soc, packed, depth)
        rows.append(
            {
                "fraction": depth_fraction,
                "depth": depth,
                "plain_quality": plain_result.quality,
                "plain_fits": plain_result.fits,
                "packed_quality": packed_result.quality,
                "packed_fits": packed_result.fits,
                "full": plain_result.full_quality,
            }
        )
    return rows, plain.test_time, packed.test_time


def test_quality_vs_depth(benchmark, record):
    rows, plain_time, packed_time = run_once(benchmark, _study)
    record(
        "ablation_truncation.txt",
        format_table(
            [
                "depth (x tau_nc)",
                "vectors",
                "quality no-TDC",
                "fits",
                "quality TDC",
                "fits ",
            ],
            [
                (
                    r["fraction"],
                    r["depth"],
                    round(r["plain_quality"], 4),
                    str(r["plain_fits"]),
                    round(r["packed_quality"], 4),
                    str(r["packed_fits"]),
                )
                for r in rows
            ],
            title=(
                "Ablation A8 -- System2 at W=32: test quality after "
                f"truncating to an ATE depth (tau_nc={plain_time}, "
                f"tau_c={packed_time}; full quality {rows[0]['full']:.4f})"
            ),
        ),
    )

    # The compressed plan fits every depth down to ~tau_c and never
    # loses quality; the uncompressed plan degrades monotonically.
    for r in rows:
        if r["depth"] >= packed_time:
            assert r["packed_fits"]
            assert r["packed_quality"] == rows[0]["packed_quality"]
    plain_qualities = [r["plain_quality"] for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(plain_qualities, plain_qualities[1:]))
    # At a quarter of the raw schedule, the gap is visible.
    quarter = next(r for r in rows if r["fraction"] == 0.25)
    assert quarter["packed_quality"] > quarter["plain_quality"]
