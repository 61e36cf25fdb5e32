"""Deterministic SVG renderings of exchanges, induction steps, and towers.

Conventions shared by all three pictures: the upper row of a map shows the
domain pieces, the lower row the image pieces, both annotated with piece
labels and exact rational tick positions; dashed vertical lines mark the
induction region.  Geometry is scaled through floats for drawing only; every
printed tick label is the exact fraction.  Output is byte-stable for a fixed
input except for the version comment on the second line.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from . import __version__
from .iet import Ar9Map
from .induction import InductionStage
from .towers import TowerFamily
from .words import A9

_WIDTH = 760.0
_MARGIN = 30.0
_ROW_H = 30.0
_FONT = 'font-family="monospace"'


def _fmt(x: float) -> str:
    return f"{x:.3f}".rstrip("0").rstrip(".")


class _Canvas:
    """Tiny accumulating SVG writer with a fixed coordinate transform."""

    def __init__(self, left: Fraction, right: Fraction, height: float):
        self.left, self.span = left, right - left
        self.height = height
        self.parts: list[str] = []

    def scaled(self, d: Fraction) -> float:
        """The length d as drawn, from its exact share of the span."""
        return float(d / self.span) * (_WIDTH - 2 * _MARGIN)

    def x(self, v: Fraction) -> float:
        return _MARGIN + self.scaled(v - self.left)

    def rect(self, left: Fraction, right: Fraction, y: float, h: float,
             fill: str = "none") -> None:
        self.parts.append(
            f'<rect x="{_fmt(self.x(left))}" y="{_fmt(y)}" '
            f'width="{_fmt(self.scaled(right - left))}" '
            f'height="{_fmt(h)}" fill="{fill}" stroke="black" stroke-width="1"/>'
        )

    def dashed(self, v: Fraction, y0: float, y1: float) -> None:
        x = _fmt(self.x(v))
        self.parts.append(
            f'<line x1="{x}" y1="{_fmt(y0)}" x2="{x}" y2="{_fmt(y1)}" '
            f'stroke="black" stroke-width="0.7" stroke-dasharray="4 3"/>'
        )

    def text(self, x: float, y: float, s: str, size: int = 11,
             anchor: str = "middle") -> None:
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" {_FONT} font-size="{size}" '
            f'text-anchor="{anchor}">{s}</text>'
        )

    def render(self) -> str:
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_WIDTH)}" '
            f'height="{_fmt(self.height)}" '
            f'viewBox="0 0 {_fmt(_WIDTH)} {_fmt(self.height)}">\n'
            f"<!-- ar-iet {__version__} -->\n"
        )
        return head + "\n".join(self.parts) + "\n</svg>\n"


def _support_extent(m: Ar9Map) -> tuple[Fraction, Fraction]:
    blocks = m.role_blocks
    return min(b.left for b in blocks), max(b.right for b in blocks)


def _draw_map_rows(cv: _Canvas, m: Ar9Map, y: float, caption: str) -> None:
    """Two labelled rows: domain pieces above, image pieces below."""
    cv.text(_MARGIN, y - 6, caption, anchor="start")
    for ch in A9:
        piece = m.domain[ch]
        cv.rect(piece.left, piece.right, y, _ROW_H)
        cv.text((cv.x(piece.left) + cv.x(piece.right)) / 2, y + 19, ch)
        cv.text(cv.x(piece.left), y + _ROW_H + 12, str(piece.left), size=8,
                anchor="start")
    y2 = y + _ROW_H + 22
    for ch in A9:
        piece = m.image[ch]
        cv.rect(piece.left, piece.right, y2, _ROW_H)
        cv.text((cv.x(piece.left) + cv.x(piece.right)) / 2, y2 + 19, ch)
    for block in m.role_blocks:
        cv.dashed(block.left, y - 4, y2 + _ROW_H + 4)
        cv.dashed(block.right, y - 4, y2 + _ROW_H + 4)


_MAP_BLOCK_H = 2 * _ROW_H + 22 + 40


def render_layout(m: Ar9Map) -> str:
    """The nine-piece exchange as a two-row figure: domain above, image below."""
    left, right = _support_extent(m)
    cv = _Canvas(left, right, _MAP_BLOCK_H + 40)
    _draw_map_rows(cv, m, 30.0, f"triple {m.triple}, order {m.order}")
    return cv.render()


def render_induction(m: Ar9Map, stages: Iterable[InductionStage]) -> str:
    """The original exchange with each induced stage drawn below it, aligned;
    dashed boxes mark the pieces of the induction region (letters 1-4)."""
    stages = list(stages)
    left, right = _support_extent(m)
    height = (len(stages) + 1) * _MAP_BLOCK_H + 60
    cv = _Canvas(left, right, height)
    y = 30.0
    _draw_map_rows(cv, m, y, f"triple {m.triple}, order {m.order}")
    for ch in "1234":
        piece = m.domain[ch]
        cv.dashed(piece.left, y - 12, y + 2 * _ROW_H + 30)
        cv.dashed(piece.right, y - 12, y + 2 * _ROW_H + 30)
    for stage in stages:
        y += _MAP_BLOCK_H
        caption = (f"stage {stage.index}: case {stage.case}, "
                   f"triple {stage.map.triple}, order {stage.map.order}")
        _draw_map_rows(cv, stage.map, y, caption)
    return cv.render()


def render_towers(f: TowerFamily) -> str:
    """Cutting-and-stacking picture: level j of every tower drawn at height j
    above the common axis, bases labelled by their nine letters."""
    m = f.base_map
    left, right = _support_extent(m)
    max_h = max(t.height for t in f.nine.values())
    row = 24.0
    base_y = 40.0 + max_h * row
    cv = _Canvas(left, right, base_y + 60)
    cv.text(_MARGIN, 20, f"stage {f.stage} towers, triple {m.triple}, "
            f"order {f.order}", anchor="start")
    for ch in A9:
        for j, level in enumerate(f.levels(ch)):
            cv.rect(level.left, level.right, base_y - (j + 1) * row, row)
        base = f.base(ch)
        cv.text((cv.x(base.left) + cv.x(base.right)) / 2, base_y + 14, ch)
        cv.text(cv.x(base.left), base_y + 28, str(base.left), size=8,
                anchor="start")
    for block in m.role_blocks:
        cv.dashed(block.left, base_y - max_h * row - 6, base_y + 4)
        cv.dashed(block.right, base_y - max_h * row - 6, base_y + 4)
    return cv.render()
