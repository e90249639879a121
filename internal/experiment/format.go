package experiment

import (
	"fmt"
	"strings"

	"deadlinedist/internal/analysis"
	"deadlinedist/internal/textplot"
)

// String renders the table as aligned text: one row per system size, one
// column per curve (mean ± 95% CI of the measure over the batch).
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s [%s]\n", t.Title, t.Scenario)
	fmt.Fprintf(&sb, "%-10s", t.XLabel)
	for _, c := range t.Curves {
		fmt.Fprintf(&sb, " %22s", c.Label)
	}
	sb.WriteByte('\n')
	for si := range t.Curves[0].Points {
		fmt.Fprintf(&sb, "%-10d", t.Curves[0].Points[si].Size)
		for _, c := range t.Curves {
			p := c.Points[si]
			if p.Failed != "" {
				fmt.Fprintf(&sb, " %22s", "FAILED("+p.Failed+")")
				continue
			}
			fmt.Fprintf(&sb, " %13.2f ±%7.2f", p.Stats.Mean(), p.Stats.CI95())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// CSV renders the table as comma-separated values with a header row.
func (t *Table) CSV() string {
	var sb strings.Builder
	sb.WriteString("size")
	for _, c := range t.Curves {
		fmt.Fprintf(&sb, ",%s mean,%s ci95", c.Label, c.Label)
	}
	sb.WriteByte('\n')
	for si := range t.Curves[0].Points {
		fmt.Fprintf(&sb, "%d", t.Curves[0].Points[si].Size)
		for _, c := range t.Curves {
			p := c.Points[si]
			if p.Failed != "" {
				fmt.Fprintf(&sb, ",FAILED(%s),", p.Failed)
				continue
			}
			fmt.Fprintf(&sb, ",%.4f,%.4f", p.Stats.Mean(), p.Stats.CI95())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Plot renders the table as an ASCII line chart.
func (t *Table) Plot(width, height int) string {
	series := make([]textplot.Series, 0, len(t.Curves))
	for _, c := range t.Curves {
		s := textplot.Series{Name: c.Label}
		for _, p := range c.Points {
			if p.Failed != "" {
				continue // incomplete cells have no value to plot
			}
			s.X = append(s.X, float64(p.Size))
			s.Y = append(s.Y, p.Stats.Mean())
		}
		series = append(series, s)
	}
	return textplot.Render(fmt.Sprintf("%s [%s] (y: %s)", t.Title, t.Scenario, t.YLabel),
		series, width, height)
}

// Mean returns the mean of the curve with the given label at the given
// size, and whether it was found. A convenience for tests and reports.
func (t *Table) Mean(label string, size int) (float64, bool) {
	for _, c := range t.Curves {
		if c.Label != label {
			continue
		}
		for _, p := range c.Points {
			if p.Size == size {
				if p.Failed != "" {
					return 0, false
				}
				return p.Stats.Mean(), true
			}
		}
	}
	return 0, false
}

// PairedDiff returns summary statistics of the per-graph difference
// (labelA − labelB) at the given size. Because both curves were measured
// on the identical workload batch, the paired confidence interval is far
// tighter than the marginal intervals shown in the table; a negative mean
// whose |mean| exceeds CI95 means labelA is significantly better
// (lateness: lower is better). The boolean reports whether both curves and
// the size exist and retain raw observations.
func (t *Table) PairedDiff(labelA, labelB string, size int) (analysis.Stats, bool) {
	var a, b []float64
	for _, c := range t.Curves {
		for _, p := range c.Points {
			if p.Size != size || p.Failed != "" {
				continue
			}
			switch c.Label {
			case labelA:
				a = p.Raw
			case labelB:
				b = p.Raw
			}
		}
	}
	var s analysis.Stats
	if a == nil || b == nil || len(a) != len(b) || len(a) == 0 {
		return s, false
	}
	for i := range a {
		s.Add(a[i] - b[i])
	}
	return s, true
}
