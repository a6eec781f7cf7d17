"""Deterministic SVG rendering of marked subdivisions and tropical curves.

Conventions (also documented in the README): marked lattice points are solid
black, unmarked ones white with a black outline, curve edges of weight >= 2
carry a weight label, the origin gets a distinct marker on curve renders, and
rays are clipped at the padded viewport.  The y-axis points up.
"""

from fractions import Fraction

from .curves import TropicalCurve
from .subdivisions import MarkedSubdivision

SCALE = 60
POINT_RADIUS = 5
STROKE = "#202020"
CURVE_COLOR = "#1f6f43"
ORIGIN_COLOR = "#c01818"
FONT = "font-family=\"monospace\" font-size=\"14\""


def _fmt(x) -> str:
    """x to three decimals, exactly; a tie goes to the even digit."""
    x = Fraction(x)
    q, r = divmod(abs(x.numerator) * 1000, x.denominator)
    if 2 * r > x.denominator or (2 * r == x.denominator and q % 2):
        q += 1
    return f"{'-' if x < 0 else ''}{q // 1000}.{q % 1000:03d}"


class _Canvas:
    def __init__(self, xmin, xmax, ymin, ymax, padding):
        pad_x = (xmax - xmin) * padding
        pad_y = (ymax - ymin) * padding
        pad = max(pad_x, pad_y, Fraction(1))
        self.xmin, self.xmax = xmin - pad, xmax + pad
        self.ymin, self.ymax = ymin - pad, ymax + pad
        self.width = (self.xmax - self.xmin) * SCALE
        self.height = (self.ymax - self.ymin) * SCALE

    def to_svg(self, p):
        x = (Fraction(p[0]) - self.xmin) * SCALE
        y = (self.ymax - Fraction(p[1])) * SCALE
        return _fmt(x), _fmt(y)

    def clip_ray(self, start, direction):
        """Largest segment of start + t*direction, t >= 0, inside the canvas."""
        best = None
        sx, sy = Fraction(start[0]), Fraction(start[1])
        dx, dy = direction
        for bound, coord, d in (
            (self.xmin, sx, dx),
            (self.xmax, sx, dx),
            (self.ymin, sy, dy),
            (self.ymax, sy, dy),
        ):
            if d == 0:
                continue
            t = (Fraction(bound) - coord) / d
            if t > 0:
                other = (sx + t * dx, sy + t * dy)
                if (
                    self.xmin <= other[0] <= self.xmax
                    and self.ymin <= other[1] <= self.ymax
                ):
                    if best is None or t > best[0]:
                        best = (t, other)
        return best[1] if best else (sx, sy)


def _header(width, height):
    return (
        "<svg xmlns=\"http://www.w3.org/2000/svg\" version=\"1.1\" "
        f"width=\"{_fmt(width)}\" height=\"{_fmt(height)}\" "
        f"viewBox=\"0 0 {_fmt(width)} {_fmt(height)}\">"
    )


def _subdivision_body(ms: MarkedSubdivision, canvas, parts):
    marked = set(ms.marked_union())
    for cell in ms.cells:
        pts = " ".join(",".join(canvas.to_svg(p)) for p in cell.polygon)
        parts.append(
            f"<polygon points=\"{pts}\" fill=\"none\" stroke=\"{STROKE}\" stroke-width=\"2\"/>"
        )
    for idx, p in enumerate(ms.config.points):
        x, y = canvas.to_svg(p)
        fill = STROKE if idx in marked else "#ffffff"
        parts.append(
            f"<circle cx=\"{x}\" cy=\"{y}\" r=\"{POINT_RADIUS}\" "
            f"fill=\"{fill}\" stroke=\"{STROKE}\" stroke-width=\"1.5\"/>"
        )


def _curve_body(curve: TropicalCurve, canvas, parts):
    for e in curve.edges:
        a = curve.vertices[e.ends[0]]
        b = curve.vertices[e.ends[1]]
        (x1, y1), (x2, y2) = canvas.to_svg(a), canvas.to_svg(b)
        parts.append(
            f"<line x1=\"{x1}\" y1=\"{y1}\" x2=\"{x2}\" y2=\"{y2}\" "
            f"stroke=\"{CURVE_COLOR}\" stroke-width=\"2.5\"/>"
        )
        if e.weight >= 2:
            mx = (Fraction(a[0]) + Fraction(b[0])) / 2
            my = (Fraction(a[1]) + Fraction(b[1])) / 2
            tx, ty = canvas.to_svg((mx, my))
            parts.append(
                f"<text x=\"{tx}\" y=\"{ty}\" dx=\"6\" dy=\"-6\" {FONT} "
                f"fill=\"{CURVE_COLOR}\">{e.weight}</text>"
            )
    for r in curve.rays:
        start = curve.vertices[r.vertex]
        end = canvas.clip_ray(start, r.direction)
        (x1, y1), (x2, y2) = canvas.to_svg(start), canvas.to_svg(end)
        parts.append(
            f"<line x1=\"{x1}\" y1=\"{y1}\" x2=\"{x2}\" y2=\"{y2}\" "
            f"stroke=\"{CURVE_COLOR}\" stroke-width=\"2.5\"/>"
        )
        if r.weight >= 2:
            mx = (Fraction(start[0]) + Fraction(end[0])) / 2
            my = (Fraction(start[1]) + Fraction(end[1])) / 2
            tx, ty = canvas.to_svg((mx, my))
            parts.append(
                f"<text x=\"{tx}\" y=\"{ty}\" dx=\"6\" dy=\"-6\" {FONT} "
                f"fill=\"{CURVE_COLOR}\">{r.weight}</text>"
            )
    for v in curve.vertices:
        x, y = canvas.to_svg(v)
        parts.append(
            f"<circle cx=\"{x}\" cy=\"{y}\" r=\"3.5\" fill=\"{CURVE_COLOR}\"/>"
        )
    ox, oy = canvas.to_svg((0, 0))
    parts.append(
        f"<circle cx=\"{ox}\" cy=\"{oy}\" r=\"{POINT_RADIUS}\" fill=\"{ORIGIN_COLOR}\"/>"
    )


def _curve_bbox(curve: TropicalCurve):
    xs = [Fraction(v[0]) for v in curve.vertices] + [Fraction(0)]
    ys = [Fraction(v[1]) for v in curve.vertices] + [Fraction(0)]
    for r in curve.rays:
        v = curve.vertices[r.vertex]
        xs.append(Fraction(v[0]) + r.direction[0])
        ys.append(Fraction(v[1]) + r.direction[1])
    return min(xs), max(xs), min(ys), max(ys)


def _layout(obj, padding):
    """Canvas and body elements of a MarkedSubdivision or TropicalCurve."""
    padding = Fraction(padding)
    parts = []
    if isinstance(obj, MarkedSubdivision):
        xs = [p[0] for p in obj.config.points]
        ys = [p[1] for p in obj.config.points]
        canvas = _Canvas(
            Fraction(min(xs)), Fraction(max(xs)), Fraction(min(ys)), Fraction(max(ys)), padding
        )
        _subdivision_body(obj, canvas, parts)
    elif isinstance(obj, TropicalCurve):
        canvas = _Canvas(*_curve_bbox(obj), padding)
        _curve_body(obj, canvas, parts)
    else:
        raise TypeError("render_svg expects a MarkedSubdivision or TropicalCurve")
    return canvas, parts


def render_svg(obj, padding=Fraction(1, 5)) -> str:
    """Standalone SVG document for a MarkedSubdivision or a TropicalCurve.

    The output is byte-identical for identical input.  padding widens the
    viewport relative to the data bounding box (default 20%); rays are
    truncated at that viewport.
    """
    canvas, parts = _layout(obj, padding)
    return "\n".join([_header(canvas.width, canvas.height), *parts, "</svg>"]) + "\n"


def render_pair(ms: MarkedSubdivision, curve: TropicalCurve, padding=Fraction(1, 5)) -> str:
    """Subdivision and dual curve side by side in one document."""
    left, left_parts = _layout(ms, padding)
    right, right_parts = _layout(curve, padding)
    shift = left.width + 40
    return "\n".join(
        [
            _header(shift + right.width, max(left.height, right.height)),
            "<g>",
            *left_parts,
            "</g>",
            f"<g transform=\"translate({_fmt(shift)},0)\">",
            *right_parts,
            "</g>",
            "</svg>",
        ]
    ) + "\n"
