package bench

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bdd"
	"repro/internal/models"
	"repro/internal/verify"
)

// smallTable is a two-group grid small enough for repeated runs.
func smallTable() Table {
	mk := func(group string, depth int, meth verify.Method) Cell {
		return Cell{
			Group:  group,
			Method: meth,
			Build: func(m *bdd.Manager) verify.Problem {
				return models.BuildFIFO(models.DefaultFIFO(depth)).MustInstantiate(m)
			},
		}
	}
	return Table{
		Title: "Parallel grid crosscheck",
		Cells: []Cell{
			mk("FIFO depth 3", 3, verify.Forward),
			mk("FIFO depth 3", 3, verify.Backward),
			mk("FIFO depth 3", 3, verify.XICI),
			mk("FIFO depth 4", 4, verify.Forward),
			mk("FIFO depth 4", 4, verify.XICI),
		},
	}
}

// TestRunParallelMatchesRun: the parallel grid must render the identical
// table and report identical deterministic fields for every cell.
func TestRunParallelMatchesRun(t *testing.T) {
	budget := Budget{NodeLimit: 500_000, Timeout: 30 * time.Second}
	tab := smallTable()

	var seqOut, parOut strings.Builder
	seq := tab.Run(context.Background(), &seqOut, budget)
	parl := tab.RunParallel(context.Background(), &parOut, budget, 4)

	if len(parl) != len(seq) {
		t.Fatalf("row count %d != %d", len(parl), len(seq))
	}
	for i := range seq {
		s, p := seq[i], parl[i]
		if p.Cell.Group != s.Cell.Group || p.Cell.Method != s.Cell.Method {
			t.Fatalf("row %d reordered: %s/%s vs %s/%s",
				i, p.Cell.Group, p.Cell.Method, s.Cell.Group, s.Cell.Method)
		}
		if p.Result.Outcome != s.Result.Outcome || p.Result.Why != s.Result.Why {
			t.Errorf("row %d outcome %v (%s) != %v (%s)",
				i, p.Result.Outcome, p.Result.Why, s.Result.Outcome, s.Result.Why)
		}
		if p.Result.Iterations != s.Result.Iterations {
			t.Errorf("row %d iterations %d != %d", i, p.Result.Iterations, s.Result.Iterations)
		}
		if p.Result.PeakStateNodes != s.Result.PeakStateNodes {
			t.Errorf("row %d peak nodes %d != %d", i, p.Result.PeakStateNodes, s.Result.PeakStateNodes)
		}
		if p.Result.MemBytes != s.Result.MemBytes {
			t.Errorf("row %d mem %d != %d", i, p.Result.MemBytes, s.Result.MemBytes)
		}
		if p.PeakLive != s.PeakLive || p.TotalVars != s.TotalVars {
			t.Errorf("row %d manager stats (%d,%d) != (%d,%d)",
				i, p.PeakLive, p.TotalVars, s.PeakLive, s.TotalVars)
		}
	}

	// Rendered tables are byte-identical except for the wall-time and
	// memory columns; compare structure line by line, masking those.
	seqLines := strings.Split(seqOut.String(), "\n")
	parLines := strings.Split(parOut.String(), "\n")
	if len(parLines) != len(seqLines) {
		t.Fatalf("rendered line count %d != %d", len(parLines), len(seqLines))
	}
	for i := range seqLines {
		if maskTimes(parLines[i]) != maskTimes(seqLines[i]) {
			t.Errorf("line %d differs:\n  seq: %q\n  par: %q", i, seqLines[i], parLines[i])
		}
	}
}

// maskTimes blanks the m:ss.cc wall-time column of a rendered row.
func maskTimes(line string) string {
	fields := strings.Fields(line)
	for i, f := range fields {
		if len(f) >= 7 && f[1] == ':' && strings.Count(f, ".") == 1 {
			fields[i] = "TIME"
		}
	}
	return strings.Join(fields, " ")
}

// TestRunParallelDegenerate: one worker or one cell falls back to the
// streaming sequential path.
func TestRunParallelDegenerate(t *testing.T) {
	budget := Budget{NodeLimit: 500_000, Timeout: 30 * time.Second}
	tab := smallTable()
	tab.Cells = tab.Cells[:1]
	var out strings.Builder
	rs := tab.RunParallel(context.Background(), &out, budget, 8)
	if len(rs) != 1 || rs[0].Result.Outcome != verify.Verified {
		t.Fatalf("single-cell parallel run: %+v", rs)
	}
	if !strings.Contains(out.String(), "Example: FIFO depth 3") {
		t.Fatal("group header missing")
	}
}

// TestReportRoundTrip: the -json document survives a marshal/unmarshal
// round trip with its deterministic fields intact.
func TestReportRoundTrip(t *testing.T) {
	budget := Budget{NodeLimit: 500_000, Timeout: 30 * time.Second}
	tab := smallTable()
	var sink strings.Builder
	results := tab.Run(context.Background(), &sink, budget)

	rep := &Report{Quick: true, Workers: 2}
	rep.Add(tab.Title, 1500*time.Millisecond, budget, results)
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := rep.Write(path); err != nil {
		t.Fatalf("Write: %v", err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	var got Report
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.Schema != ReportSchema {
		t.Fatalf("schema %q, want %q", got.Schema, ReportSchema)
	}
	if !got.Quick || got.Workers != 2 {
		t.Fatalf("flags lost: %+v", got)
	}
	if len(got.Tables) != 1 || got.Tables[0].Title != tab.Title {
		t.Fatalf("tables lost: %+v", got.Tables)
	}
	cells := got.Tables[0].Cells
	if len(cells) != len(results) {
		t.Fatalf("cell count %d != %d", len(cells), len(results))
	}
	for i, c := range cells {
		want := NewCellReport(results[i])
		if c.Group != want.Group || c.Method != want.Method || c.Label != want.Label ||
			c.Outcome != want.Outcome || c.Iterations != want.Iterations ||
			c.PeakStateNodes != want.PeakStateNodes || c.PeakLiveNodes != want.PeakLiveNodes ||
			c.TotalVars != want.TotalVars || c.MemBytes != want.MemBytes {
			t.Fatalf("cell %d round trip:\n got %+v\nwant %+v", i, c, want)
		}
		if c.Outcome != "verified" {
			t.Fatalf("cell %d outcome %q", i, c.Outcome)
		}
	}
}

// TestNewCellReportViolation: violation depth only appears on violations.
func TestNewCellReportViolation(t *testing.T) {
	cell := Cell{
		Group:  "buggy FIFO",
		Method: verify.Forward,
		Build: func(m *bdd.Manager) verify.Problem {
			cfg := models.DefaultFIFO(3)
			cfg.Bug = true
			return models.BuildFIFO(cfg).MustInstantiate(m)
		},
	}
	cr := RunCell(context.Background(), cell, Budget{NodeLimit: 500_000, Timeout: 30 * time.Second})
	if cr.Result.Outcome != verify.Violated {
		t.Fatalf("bug model outcome %v (%s)", cr.Result.Outcome, cr.Result.Why)
	}
	rep := NewCellReport(cr)
	if rep.Outcome != "violated" || rep.ViolationDepth != cr.Result.ViolationDepth || rep.ViolationDepth == 0 {
		t.Fatalf("violation report: %+v", rep)
	}
}
