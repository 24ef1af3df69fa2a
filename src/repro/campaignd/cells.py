"""Portable cell specs: serialise a :class:`RunCell` across processes.

The campaign service persists cells in its journal and ships them to
``repro worker`` subprocesses, so a cell needs a rendering that (a)
round-trips exactly — the rebuilt cell must produce the same
content-addressed cache key as the original — and (b) is plain JSON,
so journals and worker hand-off files stay greppable and host-neutral.

:func:`encode_value` is the reversible twin of the one-way canonical
rendering in :mod:`repro.parallel.cache`: the same value classes
(primitives, floats, enums, nested dataclasses, containers) with
enough type information retained — ``module:QualName`` import paths —
to reconstruct the value.  Reconstruction only imports from the
``repro`` package: a journal is data, not a code-execution vector.

Workload recipes are not dataclasses; their instance ``__dict__`` *is*
their state (the property :func:`repro.parallel.cache.workload_spec`
already relies on).  :func:`spec_to_cell` therefore rebuilds a recipe
structurally — allocate the class, restore the dict — instead of
replaying its constructor, so derived constructor state round-trips
bit-exactly.
"""

import dataclasses
import enum
import importlib
import json

from repro.parallel.cache import CacheKeyError, cache_key
from repro.parallel.executor import RunCell

#: Bump when the spec rendering changes incompatibly; readers treat a
#: mismatched spec as unreadable rather than guessing.
SPEC_FORMAT = 1

#: Only classes under this package root may be imported while decoding.
_TRUSTED_ROOT = "repro"


class SpecError(ValueError):
    """A value cannot be rendered as (or rebuilt from) a cell spec."""


def _symbol_path(cls):
    """The ``module:QualName`` import path of *cls*."""
    return f"{cls.__module__}:{cls.__qualname__}"


def _import_symbol(path):
    """Resolve a ``module:QualName`` path inside the trusted package."""
    try:
        module_name, qualname = path.split(":")
    except ValueError:
        raise SpecError(f"malformed symbol path {path!r}") from None
    root = module_name.split(".")[0]
    if root != _TRUSTED_ROOT:
        raise SpecError(
            f"refusing to import {path!r}: cell specs may only "
            f"reference {_TRUSTED_ROOT}.* classes"
        )
    try:
        target = importlib.import_module(module_name)
    except ImportError as error:
        raise SpecError(f"cannot import {path!r}: {error}") from None
    for part in qualname.split("."):
        target = getattr(target, part, None)
        if target is None:
            raise SpecError(f"{path!r} does not resolve")
    return target


def encode_value(value):
    """Render *value* as reversible, JSON-serialisable structure.

    Covers exactly the value classes experiment inputs are made of;
    anything else raises :class:`SpecError` — a loud failure beats a
    spec that silently drops state.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return {"$float": repr(value)}
    if isinstance(value, enum.Enum):
        return {
            "$enum": _symbol_path(type(value)),
            "member": value.name,
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "$dataclass": _symbol_path(type(value)),
            "fields": {
                f.name: encode_value(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, tuple):
        return {"$tuple": [encode_value(item) for item in value]}
    if isinstance(value, list):
        return {"$list": [encode_value(item) for item in value]}
    if isinstance(value, (set, frozenset)):
        rendered = sorted(
            (encode_value(item) for item in value),
            key=lambda item: json.dumps(item, sort_keys=True),
        )
        kind = "$frozenset" if isinstance(value, frozenset) else "$set"
        return {kind: rendered}
    if isinstance(value, dict):
        return {
            "$dict": [
                [encode_value(key), encode_value(val)]
                for key, val in value.items()
            ]
        }
    raise SpecError(
        f"cannot render {type(value).__qualname__!r} value "
        f"{value!r} in a cell spec"
    )


def decode_value(rendered):
    """Rebuild the value :func:`encode_value` rendered."""
    if rendered is None or isinstance(rendered, (bool, int, str)):
        return rendered
    if isinstance(rendered, list):
        raise SpecError(
            "bare lists do not appear in cell specs; expected a "
            "$list wrapper"
        )
    if not isinstance(rendered, dict) or len(rendered) == 0:
        raise SpecError(f"unreadable spec value {rendered!r}")
    if "$float" in rendered:
        return float(rendered["$float"])
    if "$enum" in rendered:
        cls = _import_symbol(rendered["$enum"])
        try:
            return cls[rendered["member"]]
        except KeyError:
            raise SpecError(
                f"{rendered['$enum']} has no member "
                f"{rendered.get('member')!r}"
            ) from None
    if "$dataclass" in rendered:
        cls = _import_symbol(rendered["$dataclass"])
        if not dataclasses.is_dataclass(cls):
            raise SpecError(
                f"{rendered['$dataclass']} is not a dataclass"
            )
        fields = {
            name: decode_value(value)
            for name, value in rendered["fields"].items()
        }
        return cls(**fields)
    if "$tuple" in rendered:
        return tuple(decode_value(item) for item in rendered["$tuple"])
    if "$list" in rendered:
        return [decode_value(item) for item in rendered["$list"]]
    if "$set" in rendered:
        return {decode_value(item) for item in rendered["$set"]}
    if "$frozenset" in rendered:
        return frozenset(
            decode_value(item) for item in rendered["$frozenset"]
        )
    if "$dict" in rendered:
        return {
            decode_value(key): decode_value(value)
            for key, value in rendered["$dict"]
        }
    raise SpecError(f"unknown spec tag in {sorted(rendered)!r}")


def workload_to_spec(workload):
    """Reversible spec of a workload recipe: class plus ``__dict__``."""
    return {
        "class": _symbol_path(type(workload)),
        "state": {
            name: encode_value(value)
            for name, value in vars(workload).items()
        },
    }


def workload_from_spec(spec):
    """Rebuild a workload recipe structurally (no constructor replay).

    The class is allocated and its instance dict restored verbatim, so
    any state the constructor derived (region layouts, phase tables)
    comes back bit-exact instead of being re-derived under possibly
    different defaults.
    """
    cls = _import_symbol(spec["class"])
    if isinstance(cls, type) and dataclasses.is_dataclass(cls):
        raise SpecError(
            f"{spec['class']} is a dataclass; encode it as a value"
        )
    workload = cls.__new__(cls)
    workload.__dict__.update({
        name: decode_value(value)
        for name, value in spec["state"].items()
    })
    return workload


def cell_to_spec(cell):
    """Render a :class:`RunCell` as a portable JSON-ready spec."""
    return {
        "format": SPEC_FORMAT,
        "config": encode_value(cell.config),
        "workload": workload_to_spec(cell.workload),
        "seed": cell.seed,
        "max_references": cell.max_references,
        "sanitize": cell.sanitize,
        "label": cell.label,
        "observe": cell.observe,
        "epoch_refs": cell.epoch_refs,
    }


def spec_to_cell(spec):
    """Rebuild the :class:`RunCell` a spec describes."""
    if not isinstance(spec, dict):
        raise SpecError(f"cell spec must be an object, got {spec!r}")
    if spec.get("format") != SPEC_FORMAT:
        raise SpecError(
            f"unsupported cell spec format {spec.get('format')!r} "
            f"(this build reads format {SPEC_FORMAT})"
        )
    return RunCell(
        config=decode_value(spec["config"]),
        workload=workload_from_spec(spec["workload"]),
        seed=spec["seed"],
        max_references=spec["max_references"],
        sanitize=spec.get("sanitize"),
        label=spec.get("label"),
        observe=spec.get("observe", False),
        epoch_refs=spec.get("epoch_refs", 1),
    )


def cell_key(cell):
    """The cell's content-addressed cache key, or ``None``.

    ``None`` means the cell's inputs have no canonical rendering
    (:class:`~repro.parallel.cache.CacheKeyError`): such a cell can be
    simulated but never skip-completed, because there is no stable
    identity to resume against.
    """
    try:
        return cache_key(
            cell.config, cell.workload, cell.seed, cell.max_references
        )
    except CacheKeyError:
        return None


__all__ = [
    "SPEC_FORMAT",
    "SpecError",
    "cell_key",
    "cell_to_spec",
    "decode_value",
    "encode_value",
    "spec_to_cell",
    "workload_from_spec",
    "workload_to_spec",
]
