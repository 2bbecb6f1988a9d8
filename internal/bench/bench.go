// Package bench regenerates the paper's experimental tables. Each table
// is a grid of (model size × verification method) cells; every cell runs
// on a fresh BDD manager under a resource budget calibrated to play the
// role of the paper's limits ("Exceeded 60MB", "Exceeded 40 minutes" on
// a Sun 4/75).
//
// Absolute numbers are not expected to match a 1990s workstation; the
// shape is: which methods complete each row, the relative node counts of
// the iterates, and the per-conjunct size profiles of the implicit
// methods.
package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bdd"
	"repro/internal/resource"
	"repro/internal/verify"
)

// Budget is the per-cell resource bound — the unified resource.Budget.
// The grids set NodeLimit (at 16 bytes per node record, 3M nodes ≈ 48MB
// of node storage is the analog of the paper's 60MB ceiling) and Timeout
// (the paper's 40 minutes, scaled to modern hardware); the runners
// thread the caller's context through it so every cell is individually
// cancelable.
type Budget = resource.Budget

// DefaultBudget is the budget used by cmd/icibench.
var DefaultBudget = Budget{NodeLimit: 3_000_000, Timeout: 60 * time.Second}

// QuickBudget keeps `go test -bench` runs short.
var QuickBudget = Budget{NodeLimit: 1_000_000, Timeout: 10 * time.Second}

// Cell is one table entry: a model constructor and a method.
type Cell struct {
	Group  string // e.g. "8-Bit Wide Typed FIFO Buffer, depth 5"
	Method verify.Method
	Label  string // row label override (defaults to the method name)
	Build  func(m *bdd.Manager) verify.Problem
	Opt    verify.Options // method-specific options (core policy etc.)
}

// RowLabel is the label printed for this cell's row.
func (c Cell) RowLabel() string {
	if c.Label != "" {
		return c.Label
	}
	return string(c.Method)
}

// CellResult pairs a cell with its outcome and the manager-level peak.
type CellResult struct {
	Cell      Cell
	Result    verify.Result
	PeakLive  int // peak live nodes across the whole run (incl. intermediates)
	TotalVars int
}

// RunCell executes one cell on a fresh manager under the budget.
// Canceling ctx aborts the cell's BDD operations promptly (the
// manager's strided budget checks), yielding an Exhausted result whose
// Err matches context.Canceled.
//
// A zero cell budget field inherits the grid default; to run a cell
// with NO bound at all, set the field to resource.Unlimited — the
// sentinel survives the inheritance step and is then normalized to the
// truly unbounded zero value.
func RunCell(ctx context.Context, c Cell, budget Budget) CellResult {
	m := bdd.NewWithSize(1<<16, 20)
	p := c.Build(m)
	opt := c.Opt
	if opt.Budget.NodeLimit == 0 {
		opt.Budget.NodeLimit = budget.NodeLimit
	}
	if opt.Budget.Timeout == 0 {
		opt.Budget.Timeout = budget.Timeout
	}
	opt.Budget = opt.Budget.Norm()
	res := verify.RunContext(ctx, p, c.Method, opt)
	return CellResult{Cell: c, Result: res, PeakLive: m.PeakNodes(), TotalVars: m.NumVars()}
}

// Table is an ordered list of cells with a title.
type Table struct {
	Title string
	Cells []Cell

	// ShowEffort appends the observability counters (termination-test
	// and greedy-evaluation effort, per-phase times) to each text row.
	// The icibench -effort flag sets it on every table it runs.
	ShowEffort bool
}

// rowWriter renders results in table order: title, a group header
// whenever the group changes, then one row per cell. Both the streaming
// sequential runner and the parallel runner emit through it, so the two
// produce byte-identical tables.
type rowWriter struct {
	w          io.Writer
	group      string
	showEffort bool
}

func newRowWriter(w io.Writer, title string, showEffort bool) *rowWriter {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	return &rowWriter{w: w, showEffort: showEffort}
}

func (rw *rowWriter) row(cr CellResult) {
	if cr.Cell.Group != rw.group {
		rw.group = cr.Cell.Group
		fmt.Fprintf(rw.w, "\nExample: %s\n", rw.group)
		fmt.Fprintf(rw.w, "%-5s %-9s %-5s %-10s %s\n", "Meth.", "Time", "Iter", "Mem", "BDD Nodes")
	}
	line := formatRow(cr)
	if rw.showEffort {
		line += effortText(cr.Result)
	}
	fmt.Fprintln(rw.w, line)
}

func (rw *rowWriter) done() { fmt.Fprintln(rw.w) }

// Filter returns the table restricted to cells whose method is in
// methods (nil or empty keeps every cell). The icibench -engines flag
// resolves to this.
func (t Table) Filter(methods []verify.Method) Table {
	if len(methods) == 0 {
		return t
	}
	keep := make(map[verify.Method]bool, len(methods))
	for _, m := range methods {
		keep[m] = true
	}
	out := Table{Title: t.Title}
	for _, c := range t.Cells {
		if keep[c.Method] {
			out.Cells = append(out.Cells, c)
		}
	}
	return out
}

// Run executes every cell and renders the paper-style rows to w,
// streaming each row as its cell finishes. Canceling ctx makes the
// remaining cells finish promptly as Exhausted/canceled.
func (t Table) Run(ctx context.Context, w io.Writer, budget Budget) []CellResult {
	rw := newRowWriter(w, t.Title, t.ShowEffort)
	results := make([]CellResult, 0, len(t.Cells))
	for _, c := range t.Cells {
		cr := RunCell(ctx, c, budget)
		rw.row(cr)
		results = append(results, cr)
	}
	rw.done()
	return results
}

// RunParallel executes the cells concurrently on the given number of
// workers (0 or negative = GOMAXPROCS) and renders the rows in table
// order once all cells have finished. Every cell owns a fresh Manager,
// so cells are independent; the rendered table and all deterministic
// result fields (outcome, iterations, node counts, memory) are identical
// to a sequential Run. Wall-clock fields can differ — concurrent cells
// contend for cores, so a grid whose budgets sit near a cell's true cost
// may tip a borderline cell into "Exceeded time budget".
//
// Each cell observes ctx through its own budget, so cancellation aborts
// in-flight cells individually and the workers drain without leaking
// goroutines. RunCell turns every resource overrun into a result, so a
// panic here is a bug and ends the program, as it does under Run.
func (t Table) RunParallel(ctx context.Context, w io.Writer, budget Budget, workers int) []CellResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || len(t.Cells) < 2 {
		return t.Run(ctx, w, budget)
	}
	results := make([]CellResult, len(t.Cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, len(t.Cells)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(t.Cells) {
					return
				}
				results[i] = RunCell(ctx, t.Cells[i], budget)
			}
		}()
	}
	wg.Wait()
	rw := newRowWriter(w, t.Title, t.ShowEffort)
	for _, cr := range results {
		rw.row(cr)
	}
	rw.done()
	return results
}

// formatRow renders one result in the paper's column layout.
func formatRow(cr CellResult) string {
	r := cr.Result
	label := cr.Cell.RowLabel()
	switch r.Outcome {
	case verify.Exhausted:
		return fmt.Sprintf("%-5s %s", label, exhaustedText(r))
	case verify.Violated:
		return fmt.Sprintf("%-5s VIOLATED at depth %d (%s)", label, r.ViolationDepth, fmtDur(r.Elapsed))
	}
	return fmt.Sprintf("%-5s %-9s %-5d %-10s %d%s",
		label, fmtDur(r.Elapsed), r.Iterations, fmtMem(r.MemBytes), r.PeakStateNodes,
		fmtProfile(r.PeakProfile))
}

// effortText renders the per-row effort suffix of ShowEffort tables:
// the exact termination test's call/split counts, the greedy
// evaluation's pair/merge counts, and the per-phase wall-time split.
// Wall times vary run to run; the counters are deterministic.
func effortText(r verify.Result) string {
	ph := r.PhaseDurations
	return fmt.Sprintf("  [taut=%d splits=%d pairs=%d merges=%d | img=%.2fs pol=%.2fs term=%.2fs gc=%.2fs]",
		r.Term.TautCalls, r.Term.ShannonSplits, r.Eval.PairsScored, r.Eval.MergesApplied,
		ph[verify.PhaseImage].Seconds(), ph[verify.PhasePolicy].Seconds(),
		ph[verify.PhaseTerm].Seconds(), ph[verify.PhaseGC].Seconds())
}

// exhaustedText prefers the result's typed termination cause and falls
// back to classifying the Why string for results built elsewhere.
func exhaustedText(r verify.Result) string {
	switch r.Cause() {
	case "node-limit":
		return "Exceeded node budget."
	case "deadline":
		return "Exceeded time budget."
	case "canceled":
		return "Canceled."
	default:
		return exhaustedLabel(r.Why)
	}
}

// exhaustedLabel mirrors the paper's "Exceeded 60MB." / "Exceeded 40
// minutes." annotations.
func exhaustedLabel(why string) string {
	switch {
	case strings.Contains(why, "node limit"):
		return "Exceeded node budget."
	case strings.Contains(why, "timeout"), strings.Contains(why, "deadline"):
		return "Exceeded time budget."
	default:
		return "Exceeded " + why + "."
	}
}

func fmtDur(d time.Duration) string {
	secs := d.Seconds()
	return fmt.Sprintf("%d:%05.2f", int(secs)/60, secs-float64(int(secs)/60*60))
}

func fmtMem(bytes int) string {
	return fmt.Sprintf("%dK", (bytes+1023)/1024)
}

// fmtProfile renders the per-conjunct size breakdown: "(5 x 9 nodes)"
// when all conjuncts have equal size, "(102, 45)" otherwise, and nothing
// for monolithic (single-conjunct) iterates.
func fmtProfile(profile []int) string {
	if len(profile) < 2 {
		return ""
	}
	allEqual := true
	for _, s := range profile[1:] {
		if s != profile[0] {
			allEqual = false
			break
		}
	}
	if allEqual {
		return fmt.Sprintf(" (%d x %d nodes)", len(profile), profile[0])
	}
	parts := make([]string, len(profile))
	for i, s := range profile {
		parts[i] = fmt.Sprint(s)
	}
	return " (" + strings.Join(parts, ", ") + ")"
}
