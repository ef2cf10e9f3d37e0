"""The unified component registry: one naming layer for every component.

The paper's premise is selecting and configuring components *by name*
from a dynamic state — partitioners above all, but the same goes for
application kernels, machine scenarios, dynamic schedules and workload
scales.  This module is the single place where a name becomes a
configured object:

* a fixed table of five component kinds (``app``, ``partitioner``,
  ``schedule``, ``machine``, ``scale``), each a :class:`Registry`
  mapping names to factories;
* decorator registration — ``@register("partitioner", "my-sfc")`` on a
  factory or class is all a new component needs; engine internals are
  never touched;
* introspection — :meth:`Registry.describe` exposes descriptions and
  parameter schemas (names, defaults, annotations) derived from factory
  signatures, which the CLI uses for help text and the registry uses to
  validate ``create()`` parameters up front.

A registry is a live :class:`~collections.abc.Mapping` from names to
factories, so existing ``name in REGISTRY`` / ``REGISTRY[name]`` idioms
keep working while staying current as components are added.

This module imports nothing from the rest of :mod:`repro`, so any layer
(kernels included) can register itself without import cycles.
"""

from __future__ import annotations

import inspect
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Callable, Iterator

__all__ = [
    "COMPONENT_KINDS",
    "ParamSpec",
    "RegistryEntry",
    "Registry",
    "registry",
    "register",
    "create",
    "describe",
]

_REQUIRED = inspect.Parameter.empty


@dataclass(frozen=True)
class ParamSpec:
    """One constructor parameter of a registered component."""

    name: str
    default: Any = _REQUIRED
    annotation: str = ""

    @property
    def required(self) -> bool:
        """Whether the parameter has no default."""
        return self.default is _REQUIRED

    def to_json(self) -> dict:
        """JSON-able form for CLI help and ``describe --json``."""
        doc: dict[str, Any] = {"name": self.name, "required": self.required}
        if self.annotation:
            doc["type"] = self.annotation
        if not self.required:
            doc["default"] = self.default
        return doc


@dataclass(frozen=True)
class RegistryEntry:
    """A named component: factory plus introspection metadata.

    ``params`` is the validated parameter schema, or ``None`` when the
    factory's signature could not be introspected (then ``create()``
    forwards parameters unchecked).
    """

    kind: str
    name: str
    factory: Callable
    description: str = ""
    tags: tuple[str, ...] = ()
    params: tuple[ParamSpec, ...] | None = None


def _annotation_str(annotation: Any) -> str:
    if annotation is _REQUIRED:
        return ""
    if isinstance(annotation, str):  # `from __future__ import annotations`
        return annotation
    return getattr(annotation, "__name__", str(annotation))


def _param_schema(
    target: Callable, exclude: tuple[str, ...] = ()
) -> tuple[ParamSpec, ...] | None:
    """Derive a parameter schema from ``target``'s call signature.

    Returns ``None`` when the signature is unavailable or the target
    takes ``**kwargs`` (no finite parameter set to validate against).
    """
    try:
        sig = inspect.signature(target)
    except (TypeError, ValueError):
        return None
    out: list[ParamSpec] = []
    for param in sig.parameters.values():
        if param.kind is inspect.Parameter.VAR_KEYWORD:
            return None
        if param.kind is inspect.Parameter.VAR_POSITIONAL:
            continue
        if param.name in exclude or param.name == "self":
            continue
        out.append(
            ParamSpec(
                name=param.name,
                default=param.default,
                annotation=_annotation_str(param.annotation),
            )
        )
    return tuple(out)


class Registry(Mapping):
    """Names -> factories for one component kind.

    Iterating / indexing sees factories (``REGISTRY[name]`` is the
    registered class or function), in registration order; ``create``
    instantiates with validated parameters.
    """

    def __init__(self, kind: str, label: str | None = None) -> None:
        self.kind = kind
        #: Human label used in error messages ("unknown application ...").
        self.label = label or kind
        self._entries: dict[str, RegistryEntry] = {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Registry({self.kind!r}, {len(self._entries)} entries)"

    # -- Mapping interface -------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __getitem__(self, name: str) -> Callable:
        return self.entry(name).factory

    # -- registration ------------------------------------------------------
    def register(
        self,
        name: str,
        factory: Callable | None = None,
        *,
        description: str = "",
        tags: tuple[str, ...] = (),
        schema_from: Callable | None = None,
        schema_exclude: tuple[str, ...] = (),
        replace: bool = False,
    ):
        """Register ``factory`` under ``name``; usable as a decorator.

        ``schema_from`` points parameter introspection at a different
        callable — for wrapper factories taking ``**params`` whose real
        parameter set lives on the wrapped class (``schema_exclude``
        drops parameters the wrapper binds itself).  Re-registering a
        name raises unless ``replace`` is set.
        """

        def _add(obj: Callable) -> Callable:
            if not callable(obj):
                raise TypeError(
                    f"{self.kind} {name!r}: factory must be callable, "
                    f"got {obj!r}"
                )
            if name in self._entries and not replace:
                raise ValueError(
                    f"{self.label} {name!r} is already registered; pass "
                    f"replace=True to override"
                )
            self._entries[name] = RegistryEntry(
                kind=self.kind,
                name=name,
                factory=obj,
                description=description or (inspect.getdoc(obj) or "").split(
                    "\n"
                )[0],
                tags=tuple(tags),
                params=_param_schema(schema_from or obj, schema_exclude),
            )
            return obj

        if factory is not None:
            return _add(factory)
        return _add

    def unregister(self, name: str) -> bool:
        """Remove one entry; returns whether anything was removed."""
        return self._entries.pop(name, None) is not None

    # -- lookup ------------------------------------------------------------
    def entry(self, name: str) -> RegistryEntry:
        """The :class:`RegistryEntry` for ``name`` (KeyError on a miss)."""
        return self._entries[name]

    def names(self, tag: str | None = None) -> tuple[str, ...]:
        """Registered names, optionally restricted to one tag."""
        if tag is None:
            return tuple(self._entries)
        return tuple(
            name for name, e in self._entries.items() if tag in e.tags
        )

    def _unknown(self, name: str) -> ValueError:
        return ValueError(
            f"unknown {self.label} {name!r}; choose from {tuple(self._entries)}"
        )

    def create(self, name: str, **params):
        """Instantiate the component ``name`` with validated parameters.

        Unknown names and unknown parameter names raise ``ValueError``
        listing the valid choices (parameter validation is skipped when
        the factory's signature is open-ended).
        """
        try:
            entry = self.entry(name)
        except KeyError:
            raise self._unknown(name) from None
        if entry.params is not None:
            valid = {p.name for p in entry.params}
            unknown = sorted(set(params) - valid)
            if unknown:
                raise ValueError(
                    f"unknown parameter(s) {unknown} for {self.label} "
                    f"{name!r}; valid parameters: {sorted(valid)}"
                )
        return entry.factory(**params)

    def describe(self, name: str | None = None) -> dict:
        """Introspection document for one entry, or all of them.

        Per entry: description, tags and the parameter schema (used by
        ``repro describe`` and argument validation).
        """
        if name is None:
            return {n: self.describe(n) for n in self._entries}
        try:
            entry = self.entry(name)
        except KeyError:
            raise self._unknown(name) from None
        return {
            "kind": entry.kind,
            "name": entry.name,
            "description": entry.description,
            "tags": list(entry.tags),
            "params": (
                None
                if entry.params is None
                else [p.to_json() for p in entry.params]
            ),
        }


# -- the global kind table -------------------------------------------------

_REGISTRIES: dict[str, Registry] = {
    kind: Registry(kind, label)
    for kind, label in (
        ("app", "application"),
        ("partitioner", "partitioner"),
        ("schedule", "schedule"),
        ("machine", "machine scenario"),
        ("scale", "workload scale"),
    )
}

#: The component kinds, in display order.
COMPONENT_KINDS: tuple[str, ...] = tuple(_REGISTRIES)


def registry(kind: str) -> Registry:
    """The live registry of one component kind."""
    try:
        return _REGISTRIES[kind]
    except KeyError:
        raise ValueError(
            f"unknown component kind {kind!r}; choose from {COMPONENT_KINDS}"
        ) from None


def register(kind: str, name: str, factory: Callable | None = None, **options):
    """Module-level registration decorator: ``@register(kind, name)``."""
    return registry(kind).register(name, factory, **options)


def create(kind: str, name: str, **params):
    """Instantiate a registered component: ``create("partitioner", ...)``."""
    return registry(kind).create(name, **params)


def describe(kind: str | None = None, name: str | None = None) -> dict:
    """Introspection over one kind (or every kind when omitted)."""
    if kind is None:
        return {k: r.describe() for k, r in _REGISTRIES.items()}
    return registry(kind).describe(name)
