"""Shared hypothesis strategies."""

from fractions import Fraction

from hypothesis import strategies as st

from symsum.areas import AreaValue
from symsum.core import AtomNode, RationalSurface, SurfaceMark

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)
positive_fractions = st.fractions(
    min_value=Fraction(1, 12), max_value=50, max_denominator=12
)

area_values = st.builds(AreaValue, fractions, fractions)
positive_areas = st.builds(AreaValue, positive_fractions, fractions)

genera = st.integers(min_value=0, max_value=3)
normal_numbers = st.integers(min_value=-6, max_value=6)


@st.composite
def marks(draw, label="M", paired_with=None):
    return SurfaceMark(
        label,
        draw(genera),
        draw(normal_numbers),
        draw(positive_areas),
        paired_with,
    )


@st.composite
def marked_atoms(draw, s_label="S", t_label="T"):
    """A rational-surface atom carrying one orthogonally paired (S, T)."""
    k = draw(st.integers(min_value=0, max_value=9))
    s = draw(marks(label=s_label, paired_with=t_label))
    t = draw(marks(label=t_label, paired_with=s_label))
    return AtomNode(RationalSurface(k), (s, t))
