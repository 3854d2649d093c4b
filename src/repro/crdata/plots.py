"""Figure rendering without matplotlib: SVG documents and ASCII previews.

CRData tools "return output files and figures after running R"
(Sec. IV-B); Galaxy shows both in the history panel.  We render real SVG
(inspectable, deterministic) for the figure outputs plus a text preview.
"""

from __future__ import annotations

import numpy as np

SVG_W, SVG_H = 640, 420
MARGIN = 50


def _svg_header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_W}" height="{SVG_H}">',
        f'<title>{title}</title>',
        f'<rect width="{SVG_W}" height="{SVG_H}" fill="white"/>',
        f'<text x="{SVG_W // 2}" y="24" text-anchor="middle" '
        f'font-size="16" font-family="sans-serif">{title}</text>',
    ]


def _scale(values: np.ndarray, lo_px: float, hi_px: float) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    vmin, vmax = float(v.min()), float(v.max())
    if vmax == vmin:
        return np.full(v.shape, 0.5 * (lo_px + hi_px))
    return lo_px + (v - vmin) / (vmax - vmin) * (hi_px - lo_px)


def scatter_svg(
    x: np.ndarray,
    y: np.ndarray,
    title: str,
    highlight: np.ndarray | None = None,
    max_points: int = 2000,
) -> str:
    """Scatter plot (volcano, MA, PCA).  ``highlight`` marks points red."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    if x.shape != y.shape:
        raise ValueError("x/y shape mismatch")
    if highlight is None:
        highlight = np.zeros(x.shape, dtype=bool)
    if x.size > max_points:  # deterministic thinning for huge inputs
        idx = np.linspace(0, x.size - 1, max_points).astype(int)
        x, y, highlight = x[idx], y[idx], highlight[idx]
    px = _scale(x, MARGIN, SVG_W - MARGIN)
    py = _scale(y, SVG_H - MARGIN, MARGIN)  # y axis grows upward
    parts = _svg_header(title)
    parts.append(
        f'<line x1="{MARGIN}" y1="{SVG_H - MARGIN}" x2="{SVG_W - MARGIN}" '
        f'y2="{SVG_H - MARGIN}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
        f'y2="{SVG_H - MARGIN}" stroke="black"/>'
    )
    for xi, yi, hot in zip(px.tolist(), py.tolist(), np.asarray(highlight).tolist()):
        color = "#cc3333" if hot else "#3366aa"
        parts.append(f'<circle cx="{xi:.1f}" cy="{yi:.1f}" r="2.5" fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def heatmap_svg(
    matrix: np.ndarray,
    row_labels: list[str],
    col_labels: list[str],
    title: str = "Heatmap",
    max_rows: int = 60,
) -> str:
    """Blue-white-red heatmap of a (rows × cols) matrix."""
    m = np.asarray(matrix, dtype=float)
    if m.shape[0] > max_rows:
        m = m[:max_rows]
        row_labels = row_labels[:max_rows]
    rows, cols = m.shape
    if len(row_labels) != rows or len(col_labels) != cols:
        raise ValueError("label length mismatch")
    # symmetric scaling around the median
    center = np.median(m)
    spread = max(1e-9, np.abs(m - center).max())
    cell_w = (SVG_W - 2 * MARGIN) / cols
    cell_h = (SVG_H - 2 * MARGIN) / rows
    parts = _svg_header(title)
    for i in range(rows):
        for j in range(cols):
            z = float(np.clip((m[i, j] - center) / spread, -1, 1))
            if z >= 0:
                r, g, b = 255, int(255 * (1 - z)), int(255 * (1 - z))
            else:
                r, g, b = int(255 * (1 + z)), int(255 * (1 + z)), 255
            parts.append(
                f'<rect x="{MARGIN + j * cell_w:.1f}" y="{MARGIN + i * cell_h:.1f}" '
                f'width="{cell_w:.1f}" height="{cell_h:.1f}" fill="rgb({r},{g},{b})"/>'
            )
    for j, lab in enumerate(col_labels):
        parts.append(
            f'<text x="{MARGIN + (j + 0.5) * cell_w:.1f}" y="{SVG_H - MARGIN + 16}" '
            f'text-anchor="middle" font-size="9" font-family="sans-serif">{lab}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def lines_svg(
    series: dict[str, tuple[np.ndarray, np.ndarray]],
    title: str,
) -> str:
    """Step/line chart (KM curves, density plots, coverage)."""
    if not series:
        raise ValueError("no series")
    all_x = np.concatenate([np.asarray(x, float) for x, _ in series.values()])
    all_y = np.concatenate([np.asarray(y, float) for _, y in series.values()])
    parts = _svg_header(title)
    colors = ["#3366aa", "#cc3333", "#33aa66", "#aa8833", "#8833aa"]
    xmin, xmax = float(all_x.min()), float(all_x.max()) or 1.0
    ymin, ymax = float(all_y.min()), float(all_y.max())
    if xmax == xmin:
        xmax = xmin + 1
    if ymax == ymin:
        ymax = ymin + 1
    for k, (name, (x, y)) in enumerate(series.items()):
        x, y = np.asarray(x, float), np.asarray(y, float)
        px = MARGIN + (x - xmin) / (xmax - xmin) * (SVG_W - 2 * MARGIN)
        py = SVG_H - MARGIN - (y - ymin) / (ymax - ymin) * (SVG_H - 2 * MARGIN)
        points = " ".join(f"{a:.1f},{b:.1f}" for a, b in zip(px, py))
        color = colors[k % len(colors)]
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{SVG_W - MARGIN}" y="{MARGIN + 14 * (k + 1)}" text-anchor="end" '
            f'font-size="11" fill="{color}" font-family="sans-serif">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def boxplot_svg(summaries: np.ndarray, labels: list[str], title: str) -> str:
    """Boxplots from five-number summaries, shape (5 × n)."""
    s = np.asarray(summaries, dtype=float)
    if s.shape[0] != 5 or s.shape[1] != len(labels):
        raise ValueError("summaries must be (5 × n) matching labels")
    n = s.shape[1]
    lo, hi = float(s.min()), float(s.max())
    if hi == lo:
        hi = lo + 1
    width = (SVG_W - 2 * MARGIN) / n

    def ypix(v: float) -> float:
        return SVG_H - MARGIN - (v - lo) / (hi - lo) * (SVG_H - 2 * MARGIN)

    parts = _svg_header(title)
    for j in range(n):
        cx = MARGIN + (j + 0.5) * width
        w = width * 0.6
        mn, q1, med, q3, mx = s[:, j]
        parts.append(
            f'<line x1="{cx:.1f}" y1="{ypix(mn):.1f}" x2="{cx:.1f}" '
            f'y2="{ypix(mx):.1f}" stroke="black"/>'
        )
        parts.append(
            f'<rect x="{cx - w / 2:.1f}" y="{ypix(q3):.1f}" width="{w:.1f}" '
            f'height="{max(1.0, ypix(q1) - ypix(q3)):.1f}" fill="#99bbdd" stroke="black"/>'
        )
        parts.append(
            f'<line x1="{cx - w / 2:.1f}" y1="{ypix(med):.1f}" x2="{cx + w / 2:.1f}" '
            f'y2="{ypix(med):.1f}" stroke="black" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{cx:.1f}" y="{SVG_H - MARGIN + 16}" text-anchor="middle" '
            f'font-size="9" font-family="sans-serif">{labels[j]}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def ascii_heatmap(matrix: np.ndarray, max_rows: int = 20, max_cols: int = 40) -> str:
    """Terminal-friendly preview (the dataset 'peek')."""
    chars = " .:-=+*#%@"
    m = np.asarray(matrix, dtype=float)[:max_rows, :max_cols]
    lo, hi = float(m.min()), float(m.max())
    span = (hi - lo) or 1.0
    lines = []
    for row in m:
        idx = ((row - lo) / span * (len(chars) - 1)).astype(int)
        lines.append("".join(chars[i] for i in idx))
    return "\n".join(lines)
