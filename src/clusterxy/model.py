"""Model declarations for the generalized cluster-XY spin-chain family.

A model is a translation-invariant spin-1/2 ring Hamiltonian

    H = -sum_j [ sum_blocks J * P_j Z_{j+1} ... Z_{j+n} P_{j+n+1}  +  h Z_j ]

where each interaction block has endpoint operators P in {X, Y}, a coupling
J, and ``n`` mediating Z operators between the endpoints.  This module
declares and validates such models, provides the named preset families used
throughout the scans, and expands any model into explicit Pauli strings for
the brute-force reference solver.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable


class BlockKind(Enum):
    """Endpoint operator of an interaction block."""

    X = "x"
    Y = "y"


@dataclass(frozen=True)
class BlockSpec:
    """One Z-mediated endpoint interaction: kind, coupling strength, and the
    number of mediating Z operators between the two endpoints."""

    kind: BlockKind
    strength: float
    mediators: int

    def __post_init__(self):
        if not isinstance(self.kind, BlockKind):
            object.__setattr__(self, "kind", BlockKind(self.kind))
        if not math.isfinite(self.strength):
            raise ValueError(f"block strength must be finite, got {self.strength}")
        if self.mediators < 0:
            raise ValueError(f"mediators must be >= 0, got {self.mediators}")


@dataclass(frozen=True)
class ModelSpec:
    """A validated member of the cluster-XY family on a periodic ring."""

    sites: int
    field: float
    blocks: tuple[BlockSpec, ...]

    def __post_init__(self):
        if self.sites < 2:
            raise ValueError(f"sites must be >= 2, got {self.sites}")
        if not math.isfinite(self.field):
            raise ValueError(f"field must be finite, got {self.field}")
        object.__setattr__(self, "blocks", tuple(self.blocks))
        for blk in self.blocks:
            if blk.mediators > self.sites - 2:
                raise ValueError(
                    f"block with {blk.mediators} mediators does not fit on "
                    f"{self.sites} sites (needs mediators <= sites - 2)"
                )


@dataclass(frozen=True)
class PauliString:
    """A single Pauli term: real coefficient times a tensor product of
    one-site operators, encoded as a length-``sites`` string over I/X/Y/Z."""

    coefficient: float
    letters: str

    def __post_init__(self):
        if not math.isfinite(self.coefficient):
            raise ValueError("coefficient must be finite")
        if set(self.letters) - set("IXYZ"):
            raise ValueError(f"invalid letters {self.letters!r}")


def make_model(sites: int, field: float, blocks: Iterable[BlockSpec | tuple]) -> ModelSpec:
    """Validate and construct a ModelSpec.

    ``blocks`` may contain BlockSpec instances or (kind, strength, mediators)
    tuples.  Raises ValueError on invalid or fractional sizes, a block too
    long for the ring, or non-finite parameters.
    """
    normalized = []
    for blk in blocks:
        if not isinstance(blk, BlockSpec):
            kind, strength, mediators = blk
            blk = BlockSpec(BlockKind(kind), float(strength), _whole("mediators", mediators))
        normalized.append(blk)
    return ModelSpec(_whole("sites", sites), float(field), tuple(normalized))


def _whole(name: str, value) -> int:
    """``value`` as an int; ValueError if it has a fractional part."""
    if not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value}")
    return int(value)


def preset_xnmy(n: int, m: int, r: float, h: float, sites: int) -> ModelSpec:
    """XY chain whose XX term is mediated by ``n`` Z's and whose YY term by
    ``m`` Z's, with anisotropy ``r`` and transverse field ``h``.

    n = m = 0 is the standard XY model (r = 1 the transverse-field Ising
    model), n = m = 1 the XzY model, and n = m = sites/2 - 1 the halfway
    model (sites even).
    """
    return make_model(
        sites,
        h,
        [
            BlockSpec(BlockKind.X, (1.0 + r) / 2.0, _whole("n", n)),
            BlockSpec(BlockKind.Y, (1.0 - r) / 2.0, _whole("m", m)),
        ],
    )


def preset_xny(n: int, r: float, h: float, sites: int) -> ModelSpec:
    """XY chain with equal Z-mediation ``n`` on both the XX and YY terms."""
    return preset_xnmy(n, n, r, h, sites)


def preset_halfway_xy(r: float, h: float, sites: int) -> ModelSpec:
    """XY chain whose interactions span half the ring (n = sites/2 - 1)."""
    if sites % 2 != 0:
        raise ValueError("halfway interaction requires an even number of sites")
    return preset_xny(sites // 2 - 1, r, h, sites)


def preset_ghz_cluster(g: float, sites: int) -> ModelSpec:
    """Rotated GHZ-cluster chain: two X blocks plus a transverse field.

    The field is (1+g)^2 and the X couplings are {-2(g^2-1), -(g-1)^2}
    with 0 and 1 mediators.  g = 0 is the GHZ point, g = -1 the cluster
    point, g = 1 a pure paramagnet.
    """
    if sites < 4 or sites % 2 != 0:
        raise ValueError("GHZ-cluster preset requires even sites >= 4")
    return make_model(
        sites,
        (1.0 + g) ** 2,
        [
            BlockSpec(BlockKind.X, -2.0 * (g * g - 1.0), 0),
            BlockSpec(BlockKind.X, -((g - 1.0) ** 2), 1),
        ],
    )


def preset_spt_afm(lam: float, sites: int, halfway: bool = False) -> ModelSpec:
    """Cluster term (XZX, or its halfway-span variant) competing with an
    antiferromagnetic YY coupling of strength ``lam``; zero field."""
    if sites < 4:
        raise ValueError("SPT-AFM preset requires sites >= 4")
    if halfway and sites % 2 != 0:
        raise ValueError("halfway variant requires an even number of sites")
    x_mediators = sites // 2 - 1 if halfway else 1
    return make_model(
        sites,
        0.0,
        [
            BlockSpec(BlockKind.X, 1.0, x_mediators),
            BlockSpec(BlockKind.Y, -float(lam), 0),
        ],
    )


def preset_free(h: float, sites: int) -> ModelSpec:
    """Non-interacting spins in a transverse field (no blocks)."""
    return make_model(sites, h, [])


def _build_xny(params: dict, sites: int) -> ModelSpec:
    n = params["n"]
    m = params["m"] if params.get("m") is not None else n
    if params.get("halfway"):
        n = m = sites // 2 - 1
    return preset_xnmy(n, m, params["r"], params["h"], sites)


@dataclass(frozen=True)
class Preset:
    """A named model family: the parameters it lists, a one-line
    description, its builder(parameters, sites), and the unlisted switches
    the builder also reads."""

    parameters: tuple[str, ...]
    description: str
    build: Callable[[dict, int], ModelSpec]
    switches: tuple[str, ...] = ()


#: The preset families by name, in listing order.
PRESETS: dict[str, Preset] = {
    "free": Preset(
        ("h",), "non-interacting spins in a transverse field",
        lambda p, n: preset_free(p["h"], n),
    ),
    "xy": Preset(
        ("r", "h"), "standard XY chain (anisotropy r, field h)",
        lambda p, n: preset_xny(0, p["r"], p["h"], n),
    ),
    "xzy": Preset(
        ("r", "h"), "XY chain with one mediating Z per interaction",
        lambda p, n: preset_xny(1, p["r"], p["h"], n),
    ),
    "xny": Preset(
        ("n", "m", "r", "h"), "XY chain with n (and m) mediating Z's", _build_xny, ("halfway",)
    ),
    "halfway-xy": Preset(
        ("r", "h"), "XY chain with interactions spanning half the ring",
        lambda p, n: preset_halfway_xy(p["r"], p["h"], n),
    ),
    "ghz-cluster": Preset(
        ("g",), "rotated GHZ-cluster chain", lambda p, n: preset_ghz_cluster(p["g"], n)
    ),
    "spt-afm": Preset(
        ("lambda", "halfway"), "cluster term competing with an AFM YY coupling",
        lambda p, n: preset_spt_afm(p["lambda"], n, halfway=bool(p.get("halfway"))),
    ),
    "spt-afm-halfway": Preset(
        ("lambda",), "spt-afm with the halfway-span cluster term",
        lambda p, n: preset_spt_afm(p["lambda"], n, halfway=True),
    ),
}


def to_pauli_strings(spec: ModelSpec) -> list[PauliString]:
    """Expand a model into explicit Pauli strings with periodic wrap.

    For every site j and every block this emits one string with coefficient
    -strength, endpoint letters at j and j + mediators + 1 (mod sites), and
    Z letters in between; plus, when the field is nonzero, one -field * Z
    string per site.
    """
    n = spec.sites
    strings: list[PauliString] = []
    for j in range(n):
        for blk in spec.blocks:
            letters = ["I"] * n
            letters[j] = blk.kind.name
            letters[(j + blk.mediators + 1) % n] = blk.kind.name
            for t in range(1, blk.mediators + 1):
                letters[(j + t) % n] = "Z"
            strings.append(PauliString(-blk.strength, "".join(letters)))
        if spec.field != 0.0:
            letters = ["I"] * n
            letters[j] = "Z"
            strings.append(PauliString(-spec.field, "".join(letters)))
    return strings


# --- model-definition files -------------------------------------------------

def model_to_dict(spec: ModelSpec) -> dict:
    """JSON-ready dictionary with the resolved model parameters."""
    return {
        "sites": spec.sites,
        "field": spec.field,
        "blocks": [
            {"kind": blk.kind.value, "strength": blk.strength, "mediators": blk.mediators}
            for blk in spec.blocks
        ],
    }


def model_from_dict(data: dict) -> ModelSpec:
    try:
        blocks = [
            (blk["kind"], blk["strength"], blk["mediators"]) for blk in data["blocks"]
        ]
        return make_model(data["sites"], data["field"], blocks)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed model definition: {exc}") from exc


def load_model(path) -> ModelSpec:
    """Read a model definition file (JSON with sites/field/blocks)."""
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def save_model(spec: ModelSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")
