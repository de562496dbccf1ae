package experiments

import (
	"fmt"
	"strings"
)

// RenderTable renders a series-based result as an aligned text table:
// one row per x-label, one column per series, cells "mean ±ci".
func RenderTable(r *Result) string {
	if len(r.Series) == 0 {
		return r.Text
	}
	// Collect row labels in first-series order, appending any extras.
	var labels []string
	seen := map[string]bool{}
	for _, s := range r.Series {
		for _, p := range s.Points {
			if !seen[p.Label] {
				seen[p.Label] = true
				labels = append(labels, p.Label)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s", r.XLabel)
	for _, s := range r.Series {
		fmt.Fprintf(&b, " %18s", s.Name)
	}
	b.WriteString("\n")
	for _, l := range labels {
		fmt.Fprintf(&b, "%-18s", l)
		for _, s := range r.Series {
			p := s.Point(l)
			if p == nil {
				fmt.Fprintf(&b, " %18s", "-")
				continue
			}
			fmt.Fprintf(&b, " %18s", fmt.Sprintf("%.1f ±%.1f", p.Mean, p.CI))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RenderCSV renders a series-based result as CSV (label, then one
// mean/ci column pair per series).
func RenderCSV(r *Result) string {
	if len(r.Series) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString(csvEscape(r.XLabel))
	for _, s := range r.Series {
		fmt.Fprintf(&b, ",%s,%s_ci95", csvEscape(s.Name), csvEscape(s.Name))
	}
	b.WriteString("\n")
	var labels []string
	seen := map[string]bool{}
	for _, s := range r.Series {
		for _, p := range s.Points {
			if !seen[p.Label] {
				seen[p.Label] = true
				labels = append(labels, p.Label)
			}
		}
	}
	for _, l := range labels {
		b.WriteString(csvEscape(l))
		for _, s := range r.Series {
			p := s.Point(l)
			if p == nil {
				b.WriteString(",,")
				continue
			}
			fmt.Fprintf(&b, ",%.3f,%.3f", p.Mean, p.CI)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// Render produces the full human-readable report of a result: the
// series table, then the text (a figure's relative panel follows its
// absolute one), then the notes.
func Render(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n\n", r.Title)
	if len(r.Series) > 0 {
		b.WriteString(RenderTable(r))
	}
	if r.Text != "" {
		b.WriteString(r.Text)
		if !strings.HasSuffix(r.Text, "\n") {
			b.WriteString("\n")
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}
