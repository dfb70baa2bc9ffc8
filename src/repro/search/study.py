"""Persistent JSON study store for resumable population searches.

A *study* is the full restartable state of one evolutionary search:
the RNG state (NumPy bit-generator state, JSON-safe), the current
population with its fitness, the best state seen, the evaluation
count, and a per-generation history.  Saving after every generation
makes ``--resume`` exact: running 5 generations, saving, and resuming
for 5 more is bit-identical to running 10 straight (pinned by
``tests/test_search_evolutionary.py``).

The file is a single JSON document with ``kind: "search-study"`` and a
schema version, in the same spirit as the run-report and serve
load-test artifacts validated by ``scripts/check_obs_artifacts.py``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from repro.search.state import SearchSpace

STUDY_KIND = "search-study"
STUDY_SCHEMA = 1


@dataclass
class StudyMember:
    """One population member with its cached multi-objective fitness."""

    widths: list[int]
    assignment: list[int]
    fitness: list[float]  # (makespan, volume, peak-power proxy)


@dataclass
class Study:
    """Restartable state of one population search."""

    backend: str
    seed: int
    space: dict[str, int]
    generation: int = 0
    evaluations: int = 0
    rng_state: dict[str, Any] = field(default_factory=dict)
    population: list[StudyMember] = field(default_factory=list)
    best: dict[str, Any] | None = None
    history: list[dict[str, Any]] = field(default_factory=list)

    @staticmethod
    def for_space(backend: str, seed: int, space: SearchSpace) -> "Study":
        return Study(
            backend=backend,
            seed=seed,
            space={
                "total_width": space.total_width,
                "max_parts": space.max_parts,
                "min_width": space.min_width,
            },
        )

    def matches(self, backend: str, seed: int, space: SearchSpace) -> bool:
        return (
            self.backend == backend
            and self.seed == seed
            and self.space
            == {
                "total_width": space.total_width,
                "max_parts": space.max_parts,
                "min_width": space.min_width,
            }
        )

    def save(self, path: str | Path) -> None:
        payload = {
            "kind": STUDY_KIND,
            "schema": STUDY_SCHEMA,
            **asdict(self),
        }
        target = Path(path)
        if target.parent and not target.parent.exists():
            target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_suffix(target.suffix + ".tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        tmp.replace(target)

    @staticmethod
    def load(path: str | Path) -> "Study":
        payload = json.loads(Path(path).read_text())
        if payload.get("kind") != STUDY_KIND:
            raise ValueError(
                f"{path} is not a search study (kind="
                f"{payload.get('kind')!r})"
            )
        if payload.get("schema") != STUDY_SCHEMA:
            raise ValueError(
                f"{path} has study schema {payload.get('schema')!r}; "
                f"this build reads schema {STUDY_SCHEMA}"
            )
        return Study(
            backend=payload["backend"],
            seed=payload["seed"],
            space=dict(payload["space"]),
            generation=payload["generation"],
            evaluations=payload["evaluations"],
            rng_state=payload["rng_state"],
            population=[
                StudyMember(
                    widths=list(m["widths"]),
                    assignment=list(m["assignment"]),
                    fitness=list(m["fitness"]),
                )
                for m in payload["population"]
            ],
            best=payload.get("best"),
            history=list(payload.get("history", [])),
        )
