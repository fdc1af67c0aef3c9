"""Declarative mitigation specifications for the sweep executor.

A live :class:`~repro.mitigations.base.Mitigation` object carries
per-bank state (trackers, the RIT, Bloom filters) and therefore cannot
be shared between runs, hashed into a cache key, or shipped to a worker
process. A :class:`MitigationSpec` is the picklable, hashable recipe
instead: a ``kind`` naming a registered builder plus a frozen parameter
mapping. Workers rebuild a fresh mitigation from the spec, and the
result cache folds the spec's canonical JSON into the run's key.

The built-in kinds cover every sweep the paper's figures run:

* ``none`` — the unprotected baseline.
* ``rrs`` — Randomized Row-Swap, derived via
  ``RRSConfig.for_threshold(t_rh).scaled(scale)`` exactly as the
  Figure 6/10/11 harnesses do.
* ``graphene`` — Misra-Gries victim refresh (Figure 11), the other
  user of the array-state Hot-Row Tracker.
* ``blockhammer`` — Bloom-blacklist throttling (Figure 11).
* ``ideal_vfm`` — the oracle victim-focused comparator (Table 7).

New kinds register through :func:`register_mitigation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Tuple

from repro.mitigations.base import Mitigation

MitigationBuilder = Callable[[Mapping[str, Any]], Mitigation]

_REGISTRY: Dict[str, MitigationBuilder] = {}


def register_mitigation(kind: str, builder: MitigationBuilder) -> None:
    """Register a builder for ``kind`` (replaces any existing one)."""
    if not kind:
        raise ValueError("mitigation kind must be non-empty")
    _REGISTRY[kind] = builder


def registered_kinds() -> Tuple[str, ...]:
    """The currently registered mitigation kinds, sorted."""
    return tuple(sorted(_REGISTRY))


@dataclass(frozen=True)
class MitigationSpec:
    """Recipe for building one mitigation instance.

    ``params`` is stored as a sorted tuple of ``(name, value)`` pairs so
    specs are hashable and their canonical form is order-independent.
    Values must be JSON-representable scalars (int/float/str/bool).
    """

    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, kind: str, **params: Any) -> "MitigationSpec":
        """Build a spec from keyword parameters."""
        for name, value in params.items():
            if not isinstance(value, (int, float, str, bool)):
                raise TypeError(
                    f"mitigation param {name!r} must be a scalar, "
                    f"got {type(value).__name__}"
                )
        return cls(kind=kind, params=tuple(sorted(params.items())))

    # Convenience constructors for the built-in kinds --------------------
    @classmethod
    def none(cls) -> "MitigationSpec":
        """The unprotected baseline."""
        return cls.make("none")

    @classmethod
    def rrs(cls, t_rh: int = 4800, scale: int = 1, k: int = 0) -> "MitigationSpec":
        """RRS derived for a full-scale ``t_rh``, run at ``1/scale`` epoch."""
        params = {"t_rh": t_rh, "scale": scale}
        if k:
            params["k"] = k
        return cls.make("rrs", **params)

    @classmethod
    def graphene(cls, t_rh: int, window_activations: int) -> "MitigationSpec":
        """Graphene with an already-scaled ``t_rh`` and window length."""
        return cls.make(
            "graphene", t_rh=t_rh, window_activations=window_activations
        )

    @classmethod
    def blockhammer(
        cls, t_rh: int, blacklist_threshold: int, window_ns: int
    ) -> "MitigationSpec":
        """BlockHammer with already-scaled parameters."""
        return cls.make(
            "blockhammer",
            t_rh=t_rh,
            blacklist_threshold=blacklist_threshold,
            window_ns=window_ns,
        )

    @classmethod
    def ideal_vfm(cls, t_rh: int, mitigation_threshold: int = 0) -> "MitigationSpec":
        """Oracle victim-focused mitigation."""
        return cls.make(
            "ideal_vfm", t_rh=t_rh, mitigation_threshold=mitigation_threshold
        )

    # --------------------------------------------------------------------
    @property
    def param_dict(self) -> Dict[str, Any]:
        """The parameters as a plain dict."""
        return dict(self.params)

    def canonical(self) -> Dict[str, Any]:
        """Stable plain-data form folded into cache keys."""
        return {"kind": self.kind, "params": self.param_dict}

    def build(self) -> Mitigation:
        """Instantiate a fresh mitigation from this recipe."""
        try:
            builder = _REGISTRY[self.kind]
        except KeyError:
            raise ValueError(
                f"unknown mitigation kind {self.kind!r}; "
                f"registered: {registered_kinds()}"
            ) from None
        return builder(self.param_dict)


# ----------------------------------------------------------------------
# Built-in builders
# ----------------------------------------------------------------------
def _build_none(params: Mapping[str, Any]) -> Mitigation:
    from repro.mitigations.none import NoMitigation

    return NoMitigation()


def _build_rrs(params: Mapping[str, Any]) -> Mitigation:
    from repro.core.config import DEFAULT_K, RRSConfig
    from repro.core.rrs import RandomizedRowSwap
    from repro.dram.config import DRAMConfig

    t_rh = int(params.get("t_rh", 4800))
    scale = int(params.get("scale", 1))
    k = int(params.get("k", 0)) or DEFAULT_K
    config = RRSConfig.for_threshold(t_rh, DRAMConfig(), k=k)
    if scale > 1:
        config = config.scaled(scale)
    return RandomizedRowSwap(config, DRAMConfig().scaled(scale))


def _build_graphene(params: Mapping[str, Any]) -> Mitigation:
    from repro.mitigations.graphene import Graphene

    return Graphene(**params)


def _build_blockhammer(params: Mapping[str, Any]) -> Mitigation:
    from repro.mitigations.blockhammer import BlockHammer, BlockHammerConfig

    return BlockHammer(BlockHammerConfig(**params))


def _build_ideal_vfm(params: Mapping[str, Any]) -> Mitigation:
    from repro.mitigations.ideal_vfm import IdealVictimRefresh

    return IdealVictimRefresh(**params)


register_mitigation("none", _build_none)
register_mitigation("rrs", _build_rrs)
register_mitigation("graphene", _build_graphene)
register_mitigation("blockhammer", _build_blockhammer)
register_mitigation("ideal_vfm", _build_ideal_vfm)
