"""Dependency-aware spec graphs: resolve, dedupe, layer, plan.

A batch of :class:`~repro.engine.spec.RunSpec` jobs is not a flat list —
every ``sim`` and ``penalties`` job consumes the workload trace of its
``(app, scale, seed)``, and :meth:`RunSpec.inputs` makes that edge
explicit.  :func:`build_plan` turns submitted specs into a
:class:`Plan`:

* implicit inputs become first-class nodes (a sim-only sweep grows its
  trace jobs automatically), scheduled only when a pending node
  consumes them,
* duplicates collapse onto one node per content hash,
* everything the store already holds is marked ``stored`` and never
  scheduled (a warm store resolves a whole sim sweep to zero trace
  jobs),
* what remains is layered topologically — traces first, then dependents
  fan out in parallel.

The executor walks the layers; ``python -m repro plan`` / ``graph``
render them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from .spec import RunSpec
from .store import ResultStore

__all__ = [
    "MissingInputError",
    "SpecNode",
    "Plan",
    "build_plan",
    "toposort_layers",
]


class MissingInputError(RuntimeError):
    """A spec's input artifact is absent when its layer becomes ready."""


@dataclass(frozen=True)
class SpecNode:
    """One vertex of the spec graph.

    ``submitted`` distinguishes caller-provided specs from implicit
    inputs the graph pulled in; ``stored`` nodes resolve against the
    store and are never executed; ``pending`` nodes will be computed.
    An implicit input that is neither is not needed: every node that
    consumes it is stored.
    """

    spec: RunSpec
    key: str
    submitted: bool
    stored: bool
    inputs: tuple[str, ...]
    pending: bool = False


def toposort_layers(deps: Mapping[str, Iterable[str]]) -> list[list[str]]:
    """Layer a dependency mapping (node -> prerequisite nodes).

    Layer ``i`` holds every node whose prerequisites all live in layers
    ``< i``; nodes within a layer are independent and may run
    concurrently.  Prerequisites absent from ``deps`` are treated as
    already satisfied.  Insertion order is preserved within layers
    (deterministic for a given input order); cycles raise ``ValueError``.
    """
    remaining: dict[str, set[str]] = {
        node: {d for d in node_deps if d in deps and d != node}
        for node, node_deps in deps.items()
    }
    layers: list[list[str]] = []
    while remaining:
        ready = [node for node, blocked in remaining.items() if not blocked]
        if not ready:
            raise ValueError(
                f"cycle in spec graph involving {sorted(remaining)[:4]}"
            )
        layers.append(ready)
        for node in ready:
            del remaining[node]
        done = set(ready)
        for blocked in remaining.values():
            blocked -= done
    return layers


class Plan:
    """A resolved execution plan over the spec graph.

    ``nodes`` maps content hash to :class:`SpecNode` (submitted specs
    first, in submission order, then implicit inputs as discovered);
    ``layers`` holds the keys of *pending* nodes, topologically layered.
    """

    def __init__(
        self, nodes: dict[str, SpecNode], layers: list[list[str]]
    ) -> None:
        self.nodes = nodes
        self.layers = tuple(tuple(layer) for layer in layers)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Plan({len(self.nodes)} nodes, {len(self.pending())} pending, "
            f"{len(self.layers)} layers)"
        )

    # -- views -------------------------------------------------------------
    def node(self, key: str) -> SpecNode:
        """The node with content hash ``key``."""
        return self.nodes[key]

    def pending(self) -> list[SpecNode]:
        """Nodes that must be computed, in layer order."""
        return [self.nodes[key] for layer in self.layers for key in layer]

    def layer_specs(self, depth: int) -> list[RunSpec]:
        """The specs of one pending layer, in layer order."""
        return [self.nodes[key].spec for key in self.layers[depth]]

    def stored(self) -> list[SpecNode]:
        """Nodes the store already resolves."""
        return [node for node in self.nodes.values() if node.stored]

    def submitted(self) -> list[SpecNode]:
        """Deduplicated caller-submitted nodes, in submission order."""
        return [node for node in self.nodes.values() if node.submitted]

    def implicit(self) -> list[SpecNode]:
        """Input nodes the graph added that the caller did not submit."""
        return [node for node in self.nodes.values() if not node.submitted]

    def edges(self) -> list[tuple[str, str]]:
        """All ``(consumer_key, input_key)`` dependency edges."""
        return [
            (node.key, input_key)
            for node in self.nodes.values()
            for input_key in node.inputs
        ]

    def counts(self) -> dict[str, int]:
        """Summary numbers for progress lines and the CLI."""
        submitted = self.submitted()
        return {
            "nodes": len(self.nodes),
            "submitted": len(submitted),
            "stored": len([n for n in submitted if n.stored]),
            "compute": len([n for n in submitted if n.pending]),
            "implicit_compute": len(
                [n for n in self.implicit() if n.pending]
            ),
            "layers": len(self.layers),
        }


def build_plan(
    specs: Sequence[RunSpec],
    store: ResultStore,
    force: bool = False,
) -> Plan:
    """Resolve submitted specs into a deduplicated, layered :class:`Plan`.

    Implicit inputs are expanded transitively, and scheduled only when
    a pending node consumes them: a stored result whose trace was
    evicted does not regenerate the trace.  ``force`` marks every
    *submitted* node pending (implicit inputs still resolve against the
    store, matching the executor's force semantics).
    """
    nodes: dict[str, SpecNode] = {}
    queue: list[tuple[RunSpec, bool]] = [(spec, True) for spec in specs]
    while queue:
        spec, submitted = queue.pop(0)
        key = spec.key()
        if key in nodes:
            # Every submitted spec leaves the queue before any implicit
            # input, so a node seen again needs no update.
            continue
        inputs = spec.inputs()
        nodes[key] = SpecNode(
            spec=spec,
            key=key,
            submitted=submitted,
            stored=store.has(key) and not (force and submitted),
            inputs=tuple(s.key() for s in inputs),
        )
        queue.extend((input_spec, False) for input_spec in inputs)
    frontier = [k for k, n in nodes.items() if n.submitted and not n.stored]
    needed = set(frontier)
    while frontier:
        for k in nodes[frontier.pop()].inputs:
            if k not in needed and not nodes[k].stored:
                needed.add(k)
                frontier.append(k)
    nodes = {k: replace(n, pending=k in needed) for k, n in nodes.items()}
    deps = {
        node.key: [k for k in node.inputs if k in nodes and nodes[k].pending]
        for node in nodes.values()
        if node.pending
    }
    return Plan(nodes, toposort_layers(deps))
