"""Link algebra: directed links, link sets, length classes, sparsity."""

from typing import Any

from .._lazy import LazyExports

_EXPORTS = LazyExports(__name__, {
    "link": ("Link",),
    "linkset": ("LinkSet",),
    "length_classes": ("length_class_index", "num_length_classes", "partition_by_length_class"),
    "sparsity": ("SparsityReport", "sparsity", "sparsity_profile", "is_sparse"),
    "independence": (
        "are_q_independent", "is_q_independent_set", "partition_into_independent_sets",
    ),
})
__all__ = _EXPORTS.names


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.dir(globals())


# ``sparsity`` is also the name of its submodule: importing the submodule sets
# the package attribute to the module, so the function is bound here, once
# the submodule has run.
from .sparsity import sparsity  # noqa: E402
