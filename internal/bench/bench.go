// Package bench regenerates every table and figure in the paper's
// evaluation (Sevilla et al., IPDPS 2018): Figure 2 (compile-phase
// resource usage), Figures 3a-3c (POSIX overheads), Table I (the
// policy spectrum), Figure 5 (per-mechanism microbenchmarks), and
// Figures 6a-6c (use cases). Each experiment builds a fresh simulated
// cluster, runs the paper's workload, and reports rows shaped like the
// paper's plots, normalized the same way.
package bench

import (
	"fmt"
	"sort"
	"strings"
)

// Options scales experiments. Scale 1.0 is paper scale (100K creates per
// client, 1M updates for Fig 6c); tests use smaller scales, which
// preserve the normalized shapes.
type Options struct {
	Scale float64
	Seed  int64

	// Sink, when non-nil, collects every run's metric registry and, when
	// it traces, its trace recorder (the -metrics/-trace flags).
	// Observation is passive: tables are byte-identical with or without a
	// sink.
	Sink *Sink
}

// scaled returns n scaled down, with a floor to keep workloads
// meaningful.
func (o Options) scaled(n, floor int) int {
	s := o.Scale
	if s <= 0 {
		s = 1
	}
	m := int(float64(n) * s)
	if m < floor {
		m = floor
	}
	return m
}

// Result is one regenerated table or figure.
type Result struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, converting values with %v for convenience.
func (r *Result) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// Notef appends a formatted note.
func (r *Result) Notef(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Render draws the result as an aligned text table.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], cell)
		}
		b.WriteByte('\n')
	}
	line(r.Columns)
	sep := make([]string, len(r.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is a registered experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Result, error)
}

var registry = map[string]*Experiment{}

func register(id, title string, run func(Options) (*Result, error)) {
	registry[id] = &Experiment{ID: id, Title: title, Run: run}
}

// IDs lists registered experiment ids in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Lookup returns a registered experiment.
func Lookup(id string) (*Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// Run executes the experiment with the given options.
func Run(id string, opts Options) (*Result, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return e.Run(opts)
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f2x(v float64) string { return fmt.Sprintf("%.2fx", v) }
func f0(v float64) string  { return fmt.Sprintf("%.0f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
