"""Minimal SVG emission for sweep region charts and response-time curves.

Hand-rolled vector output keeps the toolkit free of plotting dependencies;
the charts aim for legibility, not publication styling.
"""

from __future__ import annotations

from itertools import groupby

WIDTH, HEIGHT = 860, 620
LEFT, RIGHT, TOP, BOTTOM = 70, 30, 40, 60

MT_COLOR = "#4878a8"
BT_COLOR = "#e0883c"
SERIES_COLORS = {
    "et_mt": MT_COLOR,
    "et_bt": BT_COLOR,
    "et_fcfs": "#555555",
    "et_scf": "#2c8a5b",
}
SERIES_LABELS = {
    "et_mt": "measured trust (best b)",
    "et_bt": "blind trust (best b)",
    "et_fcfs": "FCFS",
    "et_scf": "smallest class first",
}


def _scale(lo, hi, pixels_lo, pixels_hi):
    span = hi - lo if hi > lo else 1.0

    def to_px(v):
        return pixels_lo + (v - lo) / span * (pixels_hi - pixels_lo)

    return to_px


def _ticks(lo, hi, count=6):
    span = hi - lo if hi > lo else 1.0
    raw = span / count
    mag = 10.0 ** int(f"{raw:e}".split("e")[1])
    step = min((m * mag for m in (1, 2, 5, 10) if m * mag >= raw), default=mag)
    first = lo if lo % step == 0 else (int(lo / step) + 1) * step
    t = first
    out = []
    while t <= hi + 1e-12:
        out.append(round(t, 10))
        t += step
    return out


def _axes(parts, xlo, xhi, ylo, yhi, xlabel, ylabel):
    xp = _scale(xlo, xhi, LEFT, WIDTH - RIGHT)
    yp = _scale(ylo, yhi, HEIGHT - BOTTOM, TOP)
    parts.append(f'<rect x="{LEFT}" y="{TOP}" width="{WIDTH-LEFT-RIGHT}" '
                 f'height="{HEIGHT-TOP-BOTTOM}" fill="none" stroke="#333"/>')
    for t in _ticks(xlo, xhi):
        px = xp(t)
        parts.append(f'<line x1="{px:.1f}" y1="{HEIGHT-BOTTOM}" x2="{px:.1f}" '
                     f'y2="{HEIGHT-BOTTOM+5}" stroke="#333"/>')
        parts.append(f'<text x="{px:.1f}" y="{HEIGHT-BOTTOM+20}" font-size="12" '
                     f'text-anchor="middle">{t:g}</text>')
    for t in _ticks(ylo, yhi):
        py = yp(t)
        parts.append(f'<line x1="{LEFT-5}" y1="{py:.1f}" x2="{LEFT}" y2="{py:.1f}" stroke="#333"/>')
        parts.append(f'<text x="{LEFT-8}" y="{py+4:.1f}" font-size="12" '
                     f'text-anchor="end">{t:g}</text>')
    parts.append(f'<text x="{(LEFT+WIDTH-RIGHT)/2}" y="{HEIGHT-15}" font-size="14" '
                 f'text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="18" y="{(TOP+HEIGHT-BOTTOM)/2}" font-size="14" text-anchor="middle" '
                 f'transform="rotate(-90 18 {(TOP+HEIGHT-BOTTOM)/2})">{ylabel}</text>')
    return xp, yp


def _document(parts) -> str:
    body = "\n".join(parts)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">\n<rect width="100%" height="100%" '
            f'fill="white"/>\n{body}\n</svg>\n')


def sweep_chart(rows) -> str:
    """Filled (x, b) regions where each trust policy is incentive compatible.

    rows: iterables of (x, b, ic_mt, ic_bt) sorted by (x, b).
    """
    rows = sorted(rows, key=lambda r: (r[0], r[1]))
    xs = sorted({r[0] for r in rows})
    if not xs:
        raise ValueError("no rows to chart")
    x_step = min((b - a for a, b in zip(xs, xs[1:])), default=0.01)
    parts = []
    xp, yp = _axes(parts, xs[0], xs[-1] + x_step, 0.0, 1.0,
                   "error rate x", "punishment probability b")

    def runs(flags_bs):
        for flag, grp in groupby(flags_bs, key=lambda fb: fb[0]):
            if not flag:
                continue
            grp = list(grp)
            yield grp[0][1], grp[-1][1]

    b_step = 0.0
    for x, grp in groupby(rows, key=lambda r: r[0]):
        grp = list(grp)
        bs = [r[1] for r in grp]
        if len(bs) > 1:
            b_step = bs[1] - bs[0]
        for column, color in ((2, MT_COLOR), (3, BT_COLOR)):
            for b_lo, b_hi in runs([(r[column], r[1]) for r in grp]):
                x0, x1 = xp(x), xp(x + x_step)
                y0, y1 = yp(b_hi + b_step), yp(b_lo)
                parts.append(f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{x1-x0:.2f}" '
                             f'height="{y1-y0:.2f}" fill="{color}" fill-opacity="0.55"/>')
    parts.append(f'<text x="{WIDTH/2}" y="24" font-size="16" text-anchor="middle">'
                 'incentive compatible region</text>')
    lx = WIDTH - RIGHT - 230
    for t, (label, color) in enumerate((("measured trust", MT_COLOR), ("blind trust", BT_COLOR))):
        y = TOP + 16 + 20 * t
        parts.append(f'<rect x="{lx}" y="{y-11}" width="14" height="14" fill="{color}" '
                     f'fill-opacity="0.55"/>')
        parts.append(f'<text x="{lx+20}" y="{y}" font-size="13">{label}</text>')
    return _document(parts)


def curve_chart(rows) -> str:
    """Line chart of mean response against error rate; gaps where infeasible.

    rows: dicts with keys x, et_mt, et_bt, et_fcfs, et_scf (None = absent).
    """
    rows = sorted(rows, key=lambda r: r["x"])
    series_keys = ["et_mt", "et_bt", "et_fcfs", "et_scf"]
    finite = [r[k] for r in rows for k in series_keys if r[k] is not None]
    if not finite:
        raise ValueError("no finite values to chart")
    ylo, yhi = min(finite), max(finite)
    pad = 0.08 * (yhi - ylo or 1.0)
    parts = []
    xp, yp = _axes(parts, rows[0]["x"], rows[-1]["x"], ylo - pad, yhi + pad,
                   "error rate x", "mean response time")
    for key in series_keys:
        color = SERIES_COLORS[key]
        segment = []
        segments = []
        for r in rows:
            if r[key] is None:
                if segment:
                    segments.append(segment)
                segment = []
            else:
                segment.append((xp(r["x"]), yp(r[key])))
        if segment:
            segments.append(segment)
        for seg in segments:
            pts = " ".join(f"{px:.2f},{py:.2f}" for px, py in seg)
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                         f'stroke-width="2"/>')
    parts.append(f'<text x="{WIDTH/2}" y="24" font-size="16" text-anchor="middle">'
                 'mean response time at the best incentive compatible b</text>')
    lx = LEFT + 14
    for t, key in enumerate(series_keys):
        y = TOP + 16 + 20 * t
        parts.append(f'<line x1="{lx}" y1="{y-4}" x2="{lx+18}" y2="{y-4}" '
                     f'stroke="{SERIES_COLORS[key]}" stroke-width="3"/>')
        parts.append(f'<text x="{lx+24}" y="{y}" font-size="13">{SERIES_LABELS[key]}</text>')
    return _document(parts)
