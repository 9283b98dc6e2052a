package report

import (
	"fmt"
	"io"
)

// Segment fill colors for SVG figures (cpu, driver, stall, then extras).
var svgColors = []string{"#4878a8", "#e8a33d", "#c8504f", "#6aa56a", "#9470b1"}

// RenderSVG writes the figure as a standalone SVG document: one
// horizontal stacked bar per entry, a legend, and value labels — a
// faithful, plottable version of the paper's elapsed-time breakdown
// figures.
func (f *Figure) RenderSVG(w io.Writer) error {
	const (
		barH     = 16
		gap      = 6
		leftPad  = 150
		rightPad = 90
		topPad   = 56
		plotW    = 560
	)
	maxTotal := 0.0
	for _, b := range f.Bars {
		total := 0.0
		for _, s := range b.Segments {
			total += s
		}
		if total > maxTotal {
			maxTotal = total
		}
	}
	if maxTotal <= 0 {
		maxTotal = 1
	}
	height := topPad + len(f.Bars)*(barH+gap) + 20
	width := leftPad + plotW + rightPad

	var err error
	p := func(format string, args ...interface{}) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p(`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="11">`+"\n", width, height)
	p(`<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	p(`<text x="%d" y="18" font-size="14" font-weight="bold">%s</text>`+"\n", leftPad, xmlEscape(f.Title))
	// Legend.
	x := leftPad
	for i, name := range f.SegNames {
		color := svgColors[i%len(svgColors)]
		p(`<rect x="%d" y="28" width="10" height="10" fill="%s"/>`+"\n", x, color)
		p(`<text x="%d" y="37">%s</text>`+"\n", x+14, xmlEscape(name))
		x += 14 + 8*len(name) + 20
	}
	// Bars.
	for i, b := range f.Bars {
		y := topPad + i*(barH+gap)
		p(`<text x="%d" y="%d" text-anchor="end">%s</text>`+"\n", leftPad-8, y+barH-4, xmlEscape(b.Label))
		bx := float64(leftPad)
		total := 0.0
		for si, s := range b.Segments {
			wseg := float64(s / maxTotal * plotW)
			color := svgColors[si%len(svgColors)]
			if wseg > 0 {
				p(`<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s"/>`+"\n", bx, y, wseg, barH, color)
			}
			bx += wseg
			total += s
		}
		p(`<text x="%.1f" y="%d">%s%s</text>`+"\n", bx+6, y+barH-4, F(total), xmlEscape(f.Unit))
	}
	p("</svg>\n")
	return err
}

// xmlEscape escapes the five XML special characters.
func xmlEscape(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '&':
			out = append(out, "&amp;"...)
		case '<':
			out = append(out, "&lt;"...)
		case '>':
			out = append(out, "&gt;"...)
		case '"':
			out = append(out, "&quot;"...)
		case '\'':
			out = append(out, "&apos;"...)
		default:
			out = append(out, c)
		}
	}
	return string(out)
}
