"""Canonical content hashing for FlowSpecs.

A :class:`~repro.exec.spec.FlowSpec` is a frozen, fully deterministic
description of one flow: the same spec always produces the same
simulated bytes.  That makes a *content hash* of the spec a valid cache
key for the flow's entire result — provided the hash is computed from a
canonical encoding (stable across processes, platforms, and dict
orderings) and salted with the versions of everything else that shapes
the output: the congestion-control registry
(:data:`repro.cc.CC_REGISTRY_VERSION`) and the engine schema
(:data:`ENGINE_SCHEMA_VERSION` — bump it whenever a simulator change
legitimately alters result bytes, and every stored entry keyed under
the old behaviour stops matching).

The encoder walks arbitrary value graphs generically: dataclasses by
field, slotted objects by slot, plain objects by ``__dict__``,
``random.Random`` by a digest of its Mersenne state, and bound methods
(the way :meth:`FaultPlan.apply <repro.robustness.faults.FaultPlan.apply>`
rides on ``Scenario.channel_hook``) by their name plus their bound
instance.  Opaque callables — lambdas, closures, free functions — have
no canonical content, so a spec carrying one raises
:class:`UnhashableSpecError` and the cache layer simply runs it fresh.

A class can exclude fields from its canonical form via a
``_CACHE_KEY_EXCLUDE`` frozenset of attribute names; ``FlowSpec`` uses
this for the ``parent_key`` back-pointer itself and for the
``scenario_ref`` its resolved ``scenario`` already captures.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import types
from typing import Optional

from repro.util.errors import ReproError

__all__ = [
    "ENGINE_SCHEMA_VERSION",
    "UnhashableSpecError",
    "canonical_encode",
    "canonical_json",
    "flow_key",
]

#: Version of the simulator's observable behaviour.  Any change that
#: legitimately alters the bytes a spec produces (loss-model draw
#: order, RTO semantics, record schemas) must bump this, invalidating
#: every cached result computed under the old behaviour.
ENGINE_SCHEMA_VERSION = 1

#: class attribute naming fields excluded from the canonical encoding
_EXCLUDE_ATTR = "_CACHE_KEY_EXCLUDE"


class UnhashableSpecError(ReproError, TypeError):
    """A spec (or something it references) has no canonical content.

    Raised for opaque callables — lambdas, closures, free functions —
    whose behaviour cannot be captured by value.  The cache layer treats
    such specs as permanently uncacheable: they run fresh every time and
    are never stored.
    """


def _encode_object_state(obj: object, path: str) -> dict:
    """Attribute map of a non-dataclass instance (slots and/or dict)."""
    state: dict = {}
    if hasattr(obj, "__dict__"):
        state.update(vars(obj))
    for klass in type(obj).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            if slot != "__dict__" and hasattr(obj, slot):
                state.setdefault(slot, getattr(obj, slot))
    exclude = getattr(type(obj), _EXCLUDE_ATTR, ())
    return {
        name: canonical_encode(value, f"{path}.{name}")
        for name, value in sorted(state.items())
        if name not in exclude
    }


def canonical_encode(obj: object, path: str = "spec") -> object:
    """Reduce ``obj`` to a JSON-able structure with stable semantics.

    ``path`` is threaded through purely for error messages — an
    :class:`UnhashableSpecError` names exactly which attribute deep in
    the spec graph defeated the encoding.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr() is the shortest round-tripping form; embedding it as a
        # string keeps the hash independent of any JSON float formatting.
        return {"__float__": repr(obj)}
    if isinstance(obj, (list, tuple)):
        return [
            canonical_encode(item, f"{path}[{i}]") for i, item in enumerate(obj)
        ]
    if isinstance(obj, dict):
        return {
            str(key): canonical_encode(value, f"{path}[{key!r}]")
            for key, value in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(obj, bytes):
        # e.g. a stored payload's log column block: its digest names
        # the exact bytes without inlining them.
        return {"__bytes__": hashlib.sha256(obj).hexdigest()}
    if isinstance(obj, random.Random):
        # The full Mersenne state is 625 ints; its repr digest captures
        # it exactly without bloating the canonical form.
        state = hashlib.sha256(repr(obj.getstate()).encode()).hexdigest()
        return {"__random__": state}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        exclude = getattr(type(obj), _EXCLUDE_ATTR, ())
        encoded = {
            field.name: canonical_encode(
                getattr(obj, field.name), f"{path}.{field.name}"
            )
            for field in dataclasses.fields(obj)
            if field.name not in exclude
        }
        encoded["__dataclass__"] = _type_name(type(obj))
        return encoded
    if isinstance(obj, types.MethodType):
        # Bound methods (e.g. FaultPlan.apply as a channel hook) are
        # content-addressable through their bound instance.
        return {
            "__method__": obj.__func__.__qualname__,
            "__self__": canonical_encode(obj.__self__, f"{path}.__self__"),
        }
    if callable(obj):
        raise UnhashableSpecError(
            f"{path} is an opaque callable ({obj!r}); it has no canonical "
            "content, so this spec cannot be cached"
        )
    if hasattr(obj, "__dict__") or hasattr(type(obj), "__slots__"):
        return {
            "__object__": _type_name(type(obj)),
            "state": _encode_object_state(obj, path),
        }
    raise UnhashableSpecError(
        f"{path} has unsupported type {type(obj).__name__!r} for canonical "
        "encoding"
    )


def _type_name(klass: type) -> str:
    return f"{klass.__module__}.{klass.__qualname__}"


def canonical_json(obj: object) -> str:
    """Canonical (sorted-key, compact) JSON of the canonical encoding."""
    return json.dumps(
        canonical_encode(obj), sort_keys=True, separators=(",", ":")
    )


def flow_key(spec) -> str:
    """The sha256 content key of one FlowSpec.

    Retry attempts resolve to the *original* flow's key: a spec created
    by :meth:`FlowSpec.for_attempt <repro.exec.spec.FlowSpec.for_attempt>`
    carries its parent's key in ``parent_key``, which takes precedence
    over rehashing — so a flow that succeeded on attempt 2 is stored
    (and found again) under the identity of the flow the campaign asked
    for, not under the reseeded retry spec.
    """
    parent: Optional[str] = getattr(spec, "parent_key", None)
    if parent:
        return parent
    from repro.cc import CC_REGISTRY_VERSION

    material = {
        "cc_registry_version": CC_REGISTRY_VERSION,
        "engine_schema_version": ENGINE_SCHEMA_VERSION,
        "spec": canonical_encode(spec),
    }
    return hashlib.sha256(
        json.dumps(material, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
