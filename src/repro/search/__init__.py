"""The architecture-search layer (the paper's step 3, as a seam).

Everything that picks a TAM partition + core assignment goes through
this package: shared value objects (:mod:`~repro.search.state`), one
memoized counting :class:`~repro.search.evaluator.Evaluator`, the SA
move set (:mod:`~repro.search.moves`), and pluggable strategies behind
the :class:`~repro.search.backend.SearchBackend` protocol -- built-ins
``exhaustive``, ``greedy``, ``anneal``, and ``evolutionary``, with
:func:`~repro.search.backend.run_search` as the front door every
consumer (the pipeline stages, the robust search, the CLI) uses.

See ``docs/search.md`` for the protocol, the hyperparameters of each
backend, and the study-store / resume workflow.
"""

from repro.search.backend import (
    BackendConfig,
    SearchBackend,
    backend_names,
    coerce_options,
    get_backend,
    register_backend,
    run_search,
)
from repro.search.evaluator import Evaluator
from repro.search.moves import MOVE_NAMES, propose_move
from repro.search.state import (
    PartitionSearchResult,
    SearchSpace,
    SearchState,
    resolve_search_space,
)
from repro.search.study import Study, StudyMember

__all__ = [
    "BackendConfig",
    "Evaluator",
    "MOVE_NAMES",
    "PartitionSearchResult",
    "SearchBackend",
    "SearchSpace",
    "SearchState",
    "Study",
    "StudyMember",
    "backend_names",
    "coerce_options",
    "get_backend",
    "propose_move",
    "register_backend",
    "resolve_search_space",
    "run_search",
]
