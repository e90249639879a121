// Package report renders reproduction artifacts — experiment tables and
// claim verdicts — as a single self-contained Markdown document, so a run
// of cmd/dlexp -report produces something a reader can diff against
// EXPERIMENTS.md or publish as-is.
package report

import (
	"fmt"
	"io"
	"strings"
	"time"

	"deadlinedist/internal/experiment"
)

// Options tunes the rendered report.
type Options struct {
	// Title heads the document.
	Title string
	// Graphs and Seed echo the run configuration in the preamble.
	Graphs int
	Seed   uint64
	// Elapsed, when non-zero, is recorded in the preamble.
	Elapsed time.Duration
	// PairedPairs lists curve pairs to augment each table with paired
	// per-graph difference rows (labelA minus labelB), when both exist.
	PairedPairs [][2]string
}

// Write renders the document: a preamble, one section per figure with its
// tables, and (when provided) a claim-verdict section.
func Write(w io.Writer, opts Options, order []string, tables map[string][]*experiment.Table,
	claims []experiment.ClaimResult) error {

	title := opts.Title
	if title == "" {
		title = "Reproduction report"
	}
	fmt.Fprintf(w, "# %s\n\n", title)
	fmt.Fprintf(w, "Batch: %d task graphs per point, seed %d.", opts.Graphs, opts.Seed)
	if opts.Elapsed > 0 {
		fmt.Fprintf(w, " Total runtime %v.", opts.Elapsed.Round(time.Millisecond))
	}
	fmt.Fprintf(w, " Values are mean maximum task lateness ± 95%% CI; more negative is better.\n")

	if len(claims) > 0 {
		passed := 0
		for _, c := range claims {
			if c.Passed {
				passed++
			}
		}
		fmt.Fprintf(w, "\n## Claims: %d/%d reproduced\n\n", passed, len(claims))
		fmt.Fprintln(w, "| ID | Status | Statement | Evidence |")
		fmt.Fprintln(w, "|----|--------|-----------|----------|")
		for _, c := range claims {
			status := "FAIL"
			switch {
			case c.Passed:
				status = "PASS"
			case c.NotEvaluable:
				status = "N/A"
			}
			fmt.Fprintf(w, "| %s | %s | %s | %s |\n",
				c.Claim.ID, status, mdEscape(c.Claim.Statement), mdEscape(c.Detail))
		}
	}

	for _, key := range order {
		ts, ok := tables[key]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "\n## Figure %s\n", key)
		for _, t := range ts {
			fmt.Fprintf(w, "\n### %s [%s]\n\n", mdEscape(t.Title), mdEscape(t.Scenario))
			if err := writeTable(w, t, opts.PairedPairs); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeTable(w io.Writer, t *experiment.Table, pairs [][2]string) error {
	fmt.Fprint(w, "| processors |")
	for _, c := range t.Curves {
		fmt.Fprintf(w, " %s |", mdEscape(c.Label))
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, "|---|")
	for range t.Curves {
		fmt.Fprint(w, "---|")
	}
	fmt.Fprintln(w)
	for si := range t.Curves[0].Points {
		fmt.Fprintf(w, "| %d |", t.Curves[0].Points[si].Size)
		for _, c := range t.Curves {
			p := c.Points[si]
			fmt.Fprintf(w, " %.2f ± %.2f |", p.Stats.Mean(), p.Stats.CI95())
		}
		fmt.Fprintln(w)
	}

	// Paired differences, when the requested pairs exist in this table.
	for _, pair := range pairs {
		var rows []string
		for _, p := range t.Curves[0].Points {
			d, ok := t.PairedDiff(pair[0], pair[1], p.Size)
			if !ok {
				rows = nil
				break
			}
			sig := ""
			if m := d.Mean(); (m < 0 && -m > d.CI95()) || (m > 0 && m > d.CI95()) {
				sig = " *"
			}
			rows = append(rows, fmt.Sprintf("| %d | %.2f ± %.2f%s |", p.Size, d.Mean(), d.CI95(), sig))
		}
		if rows == nil {
			continue
		}
		fmt.Fprintf(w, "\nPaired per-graph difference %s − %s (* = significant at 95%%):\n\n",
			mdEscape(pair[0]), mdEscape(pair[1]))
		fmt.Fprintln(w, "| processors | difference |")
		fmt.Fprintln(w, "|---|---|")
		for _, r := range rows {
			fmt.Fprintln(w, r)
		}
	}
	return nil
}

// mdEscape neutralizes the characters that would break Markdown tables.
func mdEscape(s string) string {
	s = strings.ReplaceAll(s, "|", "\\|")
	return strings.ReplaceAll(s, "\n", " ")
}
