"""Request specs: validation, normalization and content addressing.

A service request is plain JSON -- it crosses the wire, lands in the
journal, and keys the dedup map -- so everything here is defined on
dicts, not classes.  ``normalize`` canonicalizes a spec (defaults
filled in, fields ordered) and ``spec_digest`` content-addresses the
*result-determining* fields: two requests that would compute the same
answer share one digest, one execution and one result, whatever batch
they arrived in.  The QoS field ``deadline_s`` is deliberately
outside the digest -- a tighter deadline does not change the answer,
only how long we are willing to wait for it.  Unknown fields are
dropped by ``normalize`` (a ``jobs`` field from older clients
included), so they never reach the digest either.
"""

from __future__ import annotations

import dataclasses
import hashlib

from .journal import canonical_json

__all__ = [
    "KINDS", "BadRequest", "resolve_app", "resolve_factories",
    "normalize", "spec_digest",
]

#: Request kinds the runner knows how to execute.
KINDS = ("select", "characterize", "full_study")


class BadRequest(ValueError):
    """A spec that can never execute; rejected at admission, never journaled."""


def resolve_app(name: str, np: int):
    """App name -> (program, params) with ``np`` threaded in.

    The service-side twin of the CLI's app resolution: same rules
    (square process counts for MADbench2/BT-IO, ``np`` threaded into
    params dataclasses), but raising :class:`BadRequest` instead of
    ``SystemExit`` so a daemon survives a bad spec.
    """
    from repro.apps.btio import BTIOParams, btio_program
    from repro.apps.ior import IORParams, ior_program
    from repro.apps.madbench2 import MADbench2Params, madbench2_program
    from repro.apps.roms import ROMSParams, roms_program
    from repro.apps.synthetic import SyntheticParams, synthetic_program

    if name == "madbench2":
        program, params = madbench2_program, MADbench2Params()
    elif name.startswith("btio"):
        cls = name.split("-")[1] if "-" in name else "C"
        program, params = btio_program, BTIOParams(cls=cls)
    elif name == "synthetic":
        program, params = synthetic_program, SyntheticParams()
    elif name == "ior":
        program, params = ior_program, IORParams()
    elif name == "roms":
        program, params = roms_program, ROMSParams()
    else:
        raise BadRequest(f"unknown app {name!r} "
                         "(madbench2, btio-A/B/C/D, synthetic, ior, roms)")
    if np <= 0:
        raise BadRequest(f"np must be positive, got {np}")
    if name == "madbench2" or name.startswith("btio"):
        root = int(round(np ** 0.5))
        if root * root != np:
            raise BadRequest(
                f"{name} requires a square number of processes, got np={np}")
    if any(f.name == "np" for f in dataclasses.fields(params)):
        params = dataclasses.replace(params, np=np)
    return program, params


def resolve_factories(names) -> dict:
    """Configuration names -> factory dict (:class:`BadRequest` on unknowns)."""
    from repro.clusters import ALL_CONFIGURATIONS

    factories = {}
    for name in names:
        try:
            factories[name] = ALL_CONFIGURATIONS[name]
        except KeyError:
            raise BadRequest(
                f"unknown configuration {name!r}; choose from "
                f"{', '.join(ALL_CONFIGURATIONS)}") from None
    return factories


def normalize(spec: dict) -> dict:
    """Validate a raw spec and return its canonical form.

    Raises :class:`BadRequest` on anything the runner could not
    execute: unknown kind/app/configuration, bad process counts, a
    non-positive deadline.  Validation runs the same resolution the
    runner will, so an accepted (journaled) spec cannot fail for
    being malformed -- only for runtime reasons.
    """
    if not isinstance(spec, dict):
        raise BadRequest(f"request spec must be an object, got {type(spec).__name__}")
    kind = spec.get("kind", "select")
    if kind not in KINDS:
        raise BadRequest(f"unknown request kind {kind!r}; one of {KINDS}")
    app = spec.get("app")
    if not isinstance(app, str) or not app:
        raise BadRequest("request spec needs an 'app' name")
    np = spec.get("np", 16)
    if not isinstance(np, int) or isinstance(np, bool):
        raise BadRequest(f"np must be an integer, got {np!r}")
    resolve_app(app, np)  # raises BadRequest on any app/np problem

    out = {"kind": kind, "app": app, "np": np}
    if kind in ("select", "full_study"):
        configs = spec.get("configs")
        if isinstance(configs, str):
            configs = [c for c in configs.split(",") if c]
        if not configs:
            raise BadRequest(f"{kind!r} requests need a 'configs' list")
        resolve_factories(configs)
        out["configs"] = list(configs)
    if kind == "select":
        out["lattice"] = bool(spec.get("lattice", False))

    deadline = spec.get("deadline_s")
    if deadline is not None:
        try:
            deadline = float(deadline)
        except (TypeError, ValueError):
            raise BadRequest(f"deadline_s must be a number, got {deadline!r}") \
                from None
        if deadline <= 0:
            raise BadRequest(f"deadline_s must be positive, got {deadline}")
        out["deadline_s"] = deadline
    return out


def spec_digest(spec: dict) -> str:
    """Content address of a normalized spec's result-determining fields."""
    keyed = {k: v for k, v in spec.items() if k != "deadline_s"}
    return hashlib.sha256(canonical_json(keyed).encode("utf-8")).hexdigest()
