"""Moment-map corner figures as static SVG.

Every figure is a pure function of its input data and renders to
byte-identical SVG for identical input.  Canonical layout: the first
mark of a triple runs along the horizontal axis, the second along the
vertical axis.  Slanted edges cut off the far ends: the edge over the
horizontal end has slope -1/i(T) (vertical when i(T) = 0), the edge
over the vertical end has slope -i(S) (horizontal when i(S) = 0).
Scale: one area unit is 100 user units and one eps a nominal 10 (eps is
formal; any positive display width is a convention), narrowed per figure
so that each positive area draws positive (`eps_width`); the caption
states the width used.

Edge styles: solid = surface preimage, heavy dotted = attached
boundary, light dotted = open boundary, bold = the connected-sum
neighborhood line.
"""

from __future__ import annotations

from fractions import Fraction

from .areas import AreaValue, exact_str
from .core import AdmissibilityError, ManifoldExpr, MarkError, SurfaceMark, pairwise_violations

UNIT = 100
EPS_UNIT = 10
SLANT = 40.0
PAD = 60.0

STYLES = {
    "solid": 'stroke="#000000" stroke-width="2"',
    "heavy": 'stroke="#000000" stroke-width="3" stroke-dasharray="7,5"',
    "light": 'stroke="#000000" stroke-width="1" stroke-dasharray="2,3"',
    "bold": 'stroke="#000000" stroke-width="4"',
}

Triple = tuple[ManifoldExpr, str, str]


# SVG 1.1 (section 4.2) asks viewers to hold single-precision numbers,
# up to about 3.4e38; a figure spans at most two lengths and its margins
MAX_LEN = 1e38


def eps_width(areas) -> Fraction:
    """The display width of one eps in a figure of `areas`, exactly: at
    most EPS_UNIT, and at most a tenth of UNIT * c / |e| for each area
    c + e*eps with e < 0, which then draws at least 0.9 of its constant
    part."""
    widths = [UNIT * a.const / -a.eps_coeff / 10 for a in areas if a.eps_coeff < 0]
    return min([Fraction(EPS_UNIT), *widths])


def display_len(a: AreaValue, eps: Fraction) -> float:
    """The drawn length of the area `a` at the eps width `eps`, worked out
    exactly and rounded to a float once."""
    try:
        length = float(a.const * UNIT + a.eps_coeff * eps)
        if abs(length) <= MAX_LEN:
            return length
    except OverflowError:
        pass
    raise MarkError(f"area {a} is too large to draw")


def _eps_text(eps: Fraction) -> str:
    """The caption's eps width: as a float, or exactly where its float is
    0, so a positive width never reads as 0."""
    return f"{float(eps):g}" if float(eps) else exact_str(eps)


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _line(x1, y1, x2, y2, style: str) -> str:
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f"{STYLES[style]} />"
    )


def _text(x, y, s: str) -> str:
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="monospace" '
        f'font-size="14">{s}</text>'
    )


def _svg(width: float, height: float, body: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def slope_along_s(t_mark: SurfaceMark) -> str:
    """Annotation for the slanted edge over the horizontal (S) end."""
    if t_mark.normal_number == 0:
        return "-1/0 (vertical)"
    return exact_str(Fraction(-1, t_mark.normal_number))


def slope_along_t(s_mark: SurfaceMark) -> str:
    """Annotation for the slanted edge over the vertical (T) end."""
    return exact_str(Fraction(-s_mark.normal_number))


def _corner(ox: float, oy: float, s: SurfaceMark, t: SurfaceMark, eps: Fraction) -> list[str]:
    """One corner figure with origin (ox, oy) in svg coordinates (y down)."""
    ls = display_len(s.area, eps)
    lt = display_len(t.area, eps)
    body = [
        _line(ox, oy, ox + ls, oy, "solid"),
        _line(ox, oy, ox, oy - lt, "solid"),
        _text(ox + ls / 2 - 10, oy + 18, s.label),
        _text(ox - 46, oy - lt / 2, t.label),
    ]
    # slanted edge over the S end: slope -1/i(T); vertical when i(T) = 0
    if t.normal_number == 0:
        body.append(_line(ox + ls, oy, ox + ls, oy - SLANT, "light"))
    else:
        slope = -1.0 / t.normal_number
        body.append(_line(ox + ls, oy, ox + ls + SLANT, oy - slope * SLANT, "light"))
    body.append(_text(ox + ls + 4, oy - SLANT - 4, f"slope={slope_along_s(t)}"))
    # slanted edge over the T end: slope -i(S), so horizontal when i(S) = 0
    slope = float(-s.normal_number)
    run = SLANT / max(1.0, abs(slope))
    body.append(_line(ox, oy - lt, ox + run, oy - lt - slope * run, "light"))
    body.append(_text(ox + 4, oy - lt - 8, f"slope={slope_along_t(s)}"))
    if s.normal_number > 0 or t.normal_number > 0:
        body.append(_text(ox + 4, oy + 34, "concave side"))
    return body


def _get_marks(t: Triple) -> tuple[SurfaceMark, SurfaceMark]:
    e, s_lbl, t_lbl = t
    s, tm = e.mark(s_lbl), e.mark(t_lbl)
    if s.orthogonal_at != tm.label:
        raise MarkError(
            f"figure needs {s_lbl} and {t_lbl} orthogonally paired"
        )
    return s, tm


def render_triple(t: Triple) -> str:
    s, tm = _get_marks(t)
    eps = eps_width((s.area, tm.area))
    ls, lt = display_len(s.area, eps), display_len(tm.area, eps)
    w = ls + SLANT + 2 * PAD
    h = lt + SLANT + 2 * PAD
    body = [_text(PAD, 24, f"corner neighborhood; 1 area unit = 100, eps = {_eps_text(eps)}")]
    body += _corner(PAD, h - PAD, s, tm, eps)
    return _svg(w, h, body)


def render_pair_sum(t1: Triple, t2: Triple) -> str:
    s1, tm1 = _get_marks(t1)
    s2, tm2 = _get_marks(t2)
    bad = pairwise_violations(tm1, s2)
    if bad:
        raise AdmissibilityError(bad)
    eps = eps_width((s1.area, tm1.area, tm2.area))
    ls1 = display_len(s1.area, eps)
    lt2 = display_len(tm2.area, eps)
    mid = display_len(tm1.area, eps)
    w = ls1 + lt2 + 2 * PAD
    h = mid + SLANT + 2 * PAD
    oy = h - PAD
    jx = PAD + ls1
    body = [
        _text(PAD, 24, f"pairwise sum; 1 area unit = 100, eps = {_eps_text(eps)}"),
        # the connected-sum neighborhood along the base
        _line(PAD, oy, PAD + ls1 + lt2, oy, "bold"),
        _text(PAD + ls1 / 2 - 10, oy + 18, s1.label),
        _text(jx + lt2 / 2 - 10, oy + 18, tm2.label),
        _text(PAD, oy + 36, f"{s1.label}#{tm2.label}"),
        # identified boundary over the gluing locus
        _line(jx, oy, jx, oy - mid, "heavy"),
        _text(jx + 4, oy - mid - 6, f"{tm1.label}={s2.label}"),
        # open outer walls
        _line(PAD, oy, PAD, oy - SLANT, "light"),
        _line(PAD + ls1 + lt2, oy, PAD + ls1 + lt2, oy - SLANT, "light"),
        _text(PAD + 4, oy - SLANT - 8, f"slope={slope_along_t(s1)}"),
        _text(
            PAD + ls1 + lt2 - 120, oy - SLANT - 8, f"slope={slope_along_s(tm2)}"
        ),
    ]
    return _svg(w, h, body)


def render_four_sum(quad: tuple[Triple, Triple, Triple, Triple]) -> str:
    pairs = [_get_marks(t) for t in quad]
    eps = eps_width([m.area for pair in pairs for m in pair])
    cell_w = max(display_len(s.area, eps) for s, _ in pairs) + SLANT + 2 * PAD
    cell_h = max(display_len(t.area, eps) for _, t in pairs) + SLANT + 2 * PAD
    body = [_text(PAD, 24, f"4-fold sum corners; 1 area unit = 100, eps = {_eps_text(eps)}")]
    for i, (s, tm) in enumerate(pairs):
        ox = PAD + (i % 2) * cell_w
        oy = (1 + i // 2) * cell_h
        body.append(_text(ox, oy - cell_h + PAD, f"summand {i + 1}"))
        body += _corner(ox, oy, s, tm, eps)
    return _svg(2 * cell_w + PAD, 2 * cell_h + PAD, body)
