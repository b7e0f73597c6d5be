"""Dimension bookkeeping for holomorphic quadratic differentials under
pinching.

A surface is a multiset of components (genus_i, punctures_i), each of
general type: 2*genus + punctures > 2.  The space of holomorphic
quadratic differentials (at worst simple poles at the punctures) has

    dim_C = sum_i 3*(genus_i - 1) + punctures_i.

Pinching a short geodesic is a combinatorial move: a nonseparating
pinch sends (g, k) to (g-1, k+2); a separating pinch splits (g, k)
into (g1, k1+1) and (g2, k2+1) with g1+g2 = g, k1+k2 = k.  Either way
the dimension drops by exactly one, and at most 3g-3+k disjoint short
geodesics can be pinched on a single component.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidMoveError, ValidationError, is_int, read_json

NONSEPARATING = "nonseparating"
SEPARATING = "separating"


def _general_type(g: int, k: int) -> bool:
    return 2 * g + k > 2


@dataclass(frozen=True)
class SurfaceTopology:
    """Components as (genus, punctures) pairs, every one of general type."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not all(is_int(g) and is_int(k) for g, k in comps):
            raise ValidationError(
                f"genus/punctures must be integers: {comps!r}")
        comps = tuple((int(g), int(k)) for g, k in comps)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValidationError("a surface needs at least one component")
        for g, k in comps:
            if g < 0 or k < 0:
                raise ValidationError(f"negative genus/puncture count: ({g}, {k})")
            if not _general_type(g, k):
                raise ValidationError(
                    f"component (genus={g}, punctures={k}) is not of general "
                    f"type (needs 2g + k > 2)")

    @classmethod
    def closed(cls, genus: int) -> "SurfaceTopology":
        return cls(((genus, 0),))

    def canonical(self) -> tuple:
        """Order-insensitive key for comparing surfaces as multisets."""
        return tuple(sorted(self.components))


@dataclass(frozen=True)
class PinchMove:
    """A pinch applied to one component.

    For a separating pinch, ``split`` distributes the parent's genus
    and punctures: ((g1, k1), (g2, k2)) with g1+g2 = g and k1+k2 = k.
    """

    component: int
    kind: str
    split: tuple | None = None

    def __post_init__(self):
        if not is_int(self.component):
            raise ValidationError("component must be an integer")
        if self.kind not in (NONSEPARATING, SEPARATING):
            raise ValidationError(f"unknown pinch kind {self.kind!r}")
        if self.kind == SEPARATING:
            try:
                (g1, k1), (g2, k2) = self.split
            except (TypeError, ValueError) as exc:
                raise ValidationError(
                    "separating split must be ((g1, k1), (g2, k2))") from exc
            if not all(is_int(x) for x in (g1, k1, g2, k2)):
                raise ValidationError(
                    f"split entries must be integers: {self.split!r}")
            object.__setattr__(
                self, "split",
                ((int(g1), int(k1)), (int(g2), int(k2))))
        elif self.split is not None:
            raise ValidationError("nonseparating pinch takes no split")


def hol_dimension(t: SurfaceTopology) -> int:
    """dim of holomorphic quadratic differentials with simple poles."""
    return sum(3 * (g - 1) + k for g, k in t.components)


def max_short_geodesics(t: SurfaceTopology) -> int:
    """Largest number of disjoint short geodesics: sum of 3g - 3 + k.

    That is the same count per component as :func:`hol_dimension`, so
    this returns ``hol_dimension(t)``: one pinch per dimension.
    """
    return hol_dimension(t)


def pinch(t: SurfaceTopology, move: PinchMove) -> SurfaceTopology:
    """Apply one pinch; raises InvalidMoveError if it cannot be performed."""
    if not 0 <= move.component < len(t.components):
        raise InvalidMoveError(
            f"component index {move.component} out of range "
            f"(surface has {len(t.components)})")
    g, k = t.components[move.component]
    comps = list(t.components)
    if move.kind == NONSEPARATING:
        if g < 1:
            raise InvalidMoveError(
                f"nonseparating pinch needs genus >= 1, component has {g}")
        # of general type, as its parent: 2(g - 1) + (k + 2) = 2g + k > 2
        comps[move.component] = (g - 1, k + 2)
    else:
        (g1, k1), (g2, k2) = move.split
        if min(g1, k1, g2, k2) < 0 or g1 + g2 != g or k1 + k2 != k:
            raise InvalidMoveError(
                f"split {move.split} does not partition (genus={g}, "
                f"punctures={k})")
        children = ((g1, k1 + 1), (g2, k2 + 1))
        for child in children:
            if not _general_type(*child):
                raise InvalidMoveError(
                    f"pinch result {child} is not of general type")
        comps[move.component:move.component + 1] = children
    return SurfaceTopology(tuple(comps))


def degeneration_dims(t: SurfaceTopology, moves) -> list[int]:
    """Dimension after each pinch of a move script, in order.

    The first invalid move aborts with an InvalidMoveError carrying its
    index in the script.
    """
    dims = []
    current = t
    for i, mv in enumerate(moves):
        try:
            current = pinch(current, mv)
        except InvalidMoveError as exc:
            raise InvalidMoveError(f"move {i}: {exc}", index=i) from exc
        dims.append(hol_dimension(current))
    return dims


def enumerate_moves(t: SurfaceTopology) -> list[PinchMove]:
    """All distinct valid pinches of a surface.

    Separating splits are listed once per unordered outcome, with the
    lexicographically smaller (genus, punctures) share first.
    """
    out: list[PinchMove] = []
    for ci, (g, k) in enumerate(t.components):
        if g >= 1:   # (g - 1, k + 2) is of general type, as (g, k) is
            out.append(PinchMove(ci, NONSEPARATING))
        for g1 in range(g + 1):
            g2 = g - g1
            for k1 in range(k + 1):
                k2 = k - k1
                if (g1, k1) > (g2, k2):
                    continue
                if _general_type(g1, k1 + 1) and _general_type(g2, k2 + 1):
                    out.append(PinchMove(ci, SEPARATING,
                                         ((g1, k1), (g2, k2))))
    return out


# --- JSON ---------------------------------------------------------------------

def topology_from_json(data) -> SurfaceTopology:
    """Parse {"components": [{"genus": g, "punctures": k}, ...]}."""
    if not isinstance(data, dict) or "components" not in data:
        raise ValidationError("topology file needs a 'components' key")
    if not isinstance(data["components"], list):
        raise ValidationError("topology 'components' must be a JSON array")
    comps = []
    for item in data["components"]:
        if not isinstance(item, dict) or not {"genus", "punctures"} <= set(item):
            raise ValidationError(
                f"components need genus/punctures keys, got {item!r}")
        comps.append((item["genus"], item["punctures"]))
    return SurfaceTopology(tuple(comps))


def topology_to_json(t: SurfaceTopology) -> dict:
    return {"components": [{"genus": g, "punctures": k}
                           for g, k in t.components]}


def moves_from_json(data) -> list[PinchMove]:
    """Parse a move script: a JSON array of move objects."""
    if not isinstance(data, list):
        raise ValidationError("move script must be a JSON array")
    moves = []
    for i, item in enumerate(data):
        if not isinstance(item, dict) or "component" not in item \
                or "kind" not in item:
            raise ValidationError(f"move {i} needs component/kind keys")
        split = item.get("split") if item["kind"] == SEPARATING else None
        try:
            moves.append(PinchMove(item["component"], item["kind"], split))
        except ValidationError as exc:
            raise ValidationError(f"move {i}: {exc}") from exc
    return moves


def load_topology(path) -> SurfaceTopology:
    return topology_from_json(read_json(path))


def load_moves(path) -> list[PinchMove]:
    return moves_from_json(read_json(path))
