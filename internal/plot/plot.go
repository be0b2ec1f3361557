// Package plot renders line charts as ASCII/Unicode text, so the
// regenerated paper figures can be eyeballed in a terminal next to the
// originals. It supports linear and logarithmic y-axes (the paper's
// probability plots are log-scale), multiple series with distinct
// markers, axis tick labels and a legend.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// markers cycle across series.
var markers = []byte{'*', '+', 'x', 'o', '#', '@', '%', '&'}

// Series is one named line.
type Series struct {
	Name string
	X, Y []float64
}

// Chart is a renderable chart.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	// LogY plots y on a log10 axis; non-positive values are clamped to
	// FloorY (which must then be positive).
	LogY bool
	// FloorY is the smallest plottable y in LogY mode (default 1e-5).
	FloorY float64
	// Width and Height are the plot-area size in characters (defaults
	// 64×20).
	Width, Height int

	series []Series
}

// New creates a chart.
func New(title, xlabel, ylabel string) *Chart {
	return &Chart{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// Add appends a series; x and y must have equal length.
func (c *Chart) Add(name string, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("plot: series %q has %d x vs %d y", name, len(x), len(y)))
	}
	c.series = append(c.series, Series{Name: name, X: x, Y: y})
}

func (c *Chart) dims() (w, h int) {
	w, h = c.Width, c.Height
	if w <= 0 {
		w = 64
	}
	if h <= 0 {
		h = 20
	}
	return w, h
}

func (c *Chart) floorY() float64 {
	if c.FloorY > 0 {
		return c.FloorY
	}
	return 1e-5
}

// yTransform maps a data y to plot space.
func (c *Chart) yTransform(y float64) float64 {
	if !c.LogY {
		return y
	}
	if y < c.floorY() {
		y = c.floorY()
	}
	return math.Log10(y)
}

// Render draws the chart.
func (c *Chart) Render() string {
	w, h := c.dims()
	// Data ranges.
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	points := 0
	for _, s := range c.series {
		for i := range s.X {
			x, y := s.X[i], c.yTransform(s.Y[i])
			if math.IsNaN(x) || math.IsNaN(y) {
				continue
			}
			points++
			xmin, xmax = math.Min(xmin, x), math.Max(xmax, x)
			ymin, ymax = math.Min(ymin, y), math.Max(ymax, y)
		}
	}
	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	if points == 0 {
		b.WriteString("(no data)\n")
		return b.String()
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	// Plot points; later series overwrite earlier at collisions.
	for si, s := range c.series {
		m := markers[si%len(markers)]
		for i := range s.X {
			x, y := s.X[i], c.yTransform(s.Y[i])
			if math.IsNaN(x) || math.IsNaN(y) {
				continue
			}
			col := int(math.Round((x - xmin) / (xmax - xmin) * float64(w-1)))
			row := h - 1 - int(math.Round((y-ymin)/(ymax-ymin)*float64(h-1)))
			grid[row][col] = m
		}
	}

	yLabels := c.yAxisLabels(ymin, ymax, h)
	labelW := 0
	for _, l := range yLabels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	for r := 0; r < h; r++ {
		fmt.Fprintf(&b, "%*s |%s\n", labelW, yLabels[r], string(grid[r]))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", labelW), strings.Repeat("-", w))
	// X axis: min, mid, max.
	xAxis := fmt.Sprintf("%-*.4g%*s%*.4g",
		w/3, xmin, w/3, fmt.Sprintf("%.4g", (xmin+xmax)/2), w-2*(w/3), xmax)
	fmt.Fprintf(&b, "%s  %s\n", strings.Repeat(" ", labelW), xAxis)
	if c.XLabel != "" || c.YLabel != "" {
		fmt.Fprintf(&b, "%s  x: %s   y: %s\n", strings.Repeat(" ", labelW), c.XLabel, c.YLabel)
	}
	// Legend.
	var legend []string
	for si, s := range c.series {
		legend = append(legend, fmt.Sprintf("%c %s", markers[si%len(markers)], s.Name))
	}
	fmt.Fprintf(&b, "%s  %s\n", strings.Repeat(" ", labelW), strings.Join(legend, "   "))
	return b.String()
}

// yAxisLabels builds one label per row, populated at a few tick rows.
func (c *Chart) yAxisLabels(ymin, ymax float64, h int) []string {
	labels := make([]string, h)
	ticks := 4
	if h < 8 {
		ticks = 2
	}
	for t := 0; t <= ticks; t++ {
		row := int(math.Round(float64(t) / float64(ticks) * float64(h-1)))
		v := ymax - (ymax-ymin)*float64(t)/float64(ticks)
		if c.LogY {
			labels[row] = fmt.Sprintf("%.3g", math.Pow(10, v))
		} else {
			labels[row] = fmt.Sprintf("%.3g", v)
		}
	}
	return labels
}
