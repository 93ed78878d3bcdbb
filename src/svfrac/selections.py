"""Extremal, regular, and policy selections of interval-valued maps."""

from __future__ import annotations

from dataclasses import dataclass

from .gridmap import GridMap, Selection
from .regularity import lipschitz_constant, total_variation


@dataclass
class SelectionCertificate:
    """A selection together with its measured regularity versus the parent map.

    Quantities are measured on the grid rather than re-derived analytically,
    so a certificate is meaningful for any GridMap, not only integral maps.
    """

    kind: str  # lower-extremal | upper-extremal | midpoint
    selection: Selection
    variation: float
    lipschitz: float
    parent_variation: float
    parent_lipschitz: float
    membership_checked: bool

    def to_json(self) -> dict:
        """The fields, floats at 15 significant digits, the selection as "values"."""
        obj = {k: float(f"{v:.15g}") if isinstance(v, float) else v for k, v in vars(self).items()}
        obj["values"] = [float(f"{y:.15g}") for y in obj.pop("selection").values]
        return obj


def _certify(g: GridMap, sel: Selection, kind: str) -> SelectionCertificate:
    return SelectionCertificate(
        kind=kind,
        selection=sel,
        variation=total_variation(sel),
        lipschitz=lipschitz_constant(sel),
        parent_variation=total_variation(g),
        parent_lipschitz=lipschitz_constant(g),
        membership_checked=sel.is_selection_of(g),
    )


def extremal_selections(g: GridMap) -> tuple[Selection, Selection]:
    """Pointwise min and max selections (g_minus, g_plus); g_minus <= g_plus."""
    return g.extremal_lower(), g.extremal_upper()


def midpoint_selection(g: GridMap) -> Selection:
    """Midpoint selection, the default policy of the inclusion solver."""
    return Selection(g.a, g.b, 0.5 * (g.lo + g.hi))


def certify_extremals(g: GridMap) -> tuple[SelectionCertificate, SelectionCertificate]:
    """Certificates of the lower- and upper-extremal selections. For interval
    values each is continuous, with variation and Lipschitz constant at most
    the map's, so either witnesses both regularity kinds. The caller asserts
    the hypotheses (integral map of order > 1 from a BV resp. Lipschitz map);
    a certificate records the measured inequalities either way."""
    lo, hi = extremal_selections(g)
    return _certify(g, lo, "lower-extremal"), _certify(g, hi, "upper-extremal")


def certify_midpoint(g: GridMap) -> SelectionCertificate:
    return _certify(g, midpoint_selection(g), "midpoint")
