package bench

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/bdd"
	"repro/internal/models"
	"repro/internal/resource"
	"repro/internal/verify"
)

func TestFmtProfile(t *testing.T) {
	cases := []struct {
		in   []int
		want string
	}{
		{nil, ""},
		{[]int{5}, ""},
		{[]int{9, 9, 9}, " (3 x 9 nodes)"},
		{[]int{102, 45}, " (102, 45)"},
		{[]int{390, 169, 81}, " (390, 169, 81)"},
	}
	for _, c := range cases {
		if got := fmtProfile(c.in); got != c.want {
			t.Fatalf("fmtProfile(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestFmtDurAndMem(t *testing.T) {
	if got := fmtDur(83*time.Second + 450*time.Millisecond); got != "1:23.45" {
		t.Fatalf("fmtDur = %q", got)
	}
	if got := fmtDur(30 * time.Millisecond); got != "0:00.03" {
		t.Fatalf("fmtDur = %q", got)
	}
	if got := fmtMem(2048); got != "2K" {
		t.Fatalf("fmtMem = %q", got)
	}
	if got := fmtMem(1); got != "1K" {
		t.Fatalf("fmtMem rounds up: %q", got)
	}
}

func TestExhaustedLabels(t *testing.T) {
	if got := exhaustedLabel("bdd: node limit exceeded (x)"); got != "Exceeded node budget." {
		t.Fatalf("node label = %q", got)
	}
	if got := exhaustedLabel("timeout 5s exceeded"); got != "Exceeded time budget." {
		t.Fatalf("timeout label = %q", got)
	}
	if got := exhaustedLabel("bdd: operation deadline exceeded"); got != "Exceeded time budget." {
		t.Fatalf("deadline label = %q", got)
	}
	if got := exhaustedLabel("iteration bound 5 reached"); !strings.Contains(got, "iteration bound") {
		t.Fatalf("generic label = %q", got)
	}
}

func TestRunCellBudgets(t *testing.T) {
	cell := Cell{
		Group:  "test",
		Method: verify.XICI,
		Build: func(m *bdd.Manager) verify.Problem {
			return models.BuildFIFO(models.DefaultFIFO(3)).MustInstantiate(m)
		},
	}
	cr := RunCell(context.Background(), cell, Budget{NodeLimit: 500_000, Timeout: 30 * time.Second})
	if cr.Result.Outcome != verify.Verified {
		t.Fatalf("outcome %v (%s)", cr.Result.Outcome, cr.Result.Why)
	}
	if cr.PeakLive <= 0 || cr.TotalVars <= 0 {
		t.Fatal("missing manager stats")
	}
	// A hopeless budget must yield an Exceeded row, not an error.
	cr2 := RunCell(context.Background(), cell, Budget{NodeLimit: 50, Timeout: time.Second})
	if cr2.Result.Outcome != verify.Exhausted {
		t.Fatalf("tiny budget outcome %v", cr2.Result.Outcome)
	}
	if !strings.Contains(formatRow(cr2), "Exceeded") {
		t.Fatalf("exhausted row rendering: %q", formatRow(cr2))
	}
}

func TestRunCellUnlimitedSentinel(t *testing.T) {
	cell := Cell{
		Group:  "test",
		Method: verify.XICI,
		Build: func(m *bdd.Manager) verify.Problem {
			return models.BuildFIFO(models.DefaultFIFO(3)).MustInstantiate(m)
		},
	}
	// Control: under a hopeless grid node limit the cell exhausts.
	grid := Budget{NodeLimit: 50, Timeout: 30 * time.Second}
	if cr := RunCell(context.Background(), cell, grid); cr.Result.Outcome != verify.Exhausted {
		t.Fatalf("control cell outcome %v, want exhausted", cr.Result.Outcome)
	}
	// The sentinel must survive the zero-inherits-grid-default step and
	// lift the limit entirely: the same cell now verifies.
	cell.Opt.Budget.NodeLimit = resource.Unlimited
	cr := RunCell(context.Background(), cell, grid)
	if cr.Result.Outcome != verify.Verified {
		t.Fatalf("unlimited cell outcome %v (%s)", cr.Result.Outcome, cr.Result.Why)
	}
	// Same story for the time axis.
	cell.Opt.Budget = Budget{Timeout: resource.Unlimited}
	cr = RunCell(context.Background(), cell, Budget{NodeLimit: 500_000, Timeout: time.Nanosecond})
	if cr.Result.Outcome != verify.Verified {
		t.Fatalf("unlimited-timeout cell outcome %v (%s)", cr.Result.Outcome, cr.Result.Why)
	}
}

func TestCellReportStatsBlock(t *testing.T) {
	cell := Cell{
		Group:  "test",
		Method: verify.XICI,
		Build: func(m *bdd.Manager) verify.Problem {
			return models.BuildFIFO(models.DefaultFIFO(3)).MustInstantiate(m)
		},
	}
	cr := RunCell(context.Background(), cell, Budget{NodeLimit: 500_000, Timeout: 30 * time.Second})
	var rep Report
	rep.Add("t", time.Second, DefaultBudget, []CellResult{cr})
	rep.Schema = ReportSchema

	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	// The v3 contract: schema tag, an always-present stats key, and a
	// live XICI cell reports non-zero exact-termination effort.
	for _, want := range []string{`"schema":"icibench/v3"`, `"stats":{`, `"taut_calls"`, `"step_resolved"`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("report JSON missing %s:\n%s", want, data)
		}
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	st := back.Tables[0].Cells[0].Stats
	if st.TautCalls == 0 {
		t.Error("XICI cell reports zero taut_calls")
	}
	if st.StepResolved[0]+st.StepResolved[1]+st.StepResolved[2]+st.ShannonSplits != st.TautCalls {
		t.Errorf("stats block breaks the bucket invariant: %+v", st)
	}
	if st.PairsScored == 0 || st.Rounds == 0 {
		t.Errorf("XICI cell reports no evaluation effort: %+v", st)
	}
	if len(st.SizeTrajectory) == 0 {
		t.Error("stats block lost the size trajectory")
	}
}

func TestEffortText(t *testing.T) {
	var r verify.Result
	r.Term.TautCalls = 7
	r.Term.ShannonSplits = 2
	r.Eval.PairsScored = 30
	r.Eval.MergesApplied = 4
	got := effortText(r)
	for _, want := range []string{"taut=7", "splits=2", "pairs=30", "merges=4", "img=", "gc="} {
		if !strings.Contains(got, want) {
			t.Fatalf("effortText %q missing %q", got, want)
		}
	}
}

func TestRowLabelOverride(t *testing.T) {
	c := Cell{Method: verify.XICI}
	if c.RowLabel() != "XICI" {
		t.Fatal("default row label")
	}
	c.Label = "XICI*"
	if c.RowLabel() != "XICI*" {
		t.Fatal("label override")
	}
}

func TestQuickTablesRunGreen(t *testing.T) {
	if testing.Short() {
		t.Skip("quick tables still take a few seconds")
	}
	var sb strings.Builder
	for _, tb := range []func() (Table, Budget){
		func() (Table, Budget) { return Table1(true) },
		func() (Table, Budget) { return Table2(true) },
		func() (Table, Budget) { return Table3(true, true) },
	} {
		tab, budget := tb()
		results := tab.Run(context.Background(), &sb, budget)
		if len(results) == 0 {
			t.Fatalf("%s produced no rows", tab.Title)
		}
		for _, cr := range results {
			if cr.Result.Outcome == verify.Violated {
				t.Fatalf("%s %s: violated on a correct model", cr.Cell.Group, cr.Cell.RowLabel())
			}
		}
	}
	out := sb.String()
	for _, want := range []string{"Meth.", "Iter", "BDD Nodes", "FIFO", "XICI*"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestFullTableDefinitions(t *testing.T) {
	// Full tables must be well-formed without running them: every cell
	// has a builder, a method, and belongs to a group.
	for _, tb := range []func() (Table, Budget){
		func() (Table, Budget) { return Table1(false) },
		func() (Table, Budget) { return Table2(false) },
		func() (Table, Budget) { return Table3(false, true) },
	} {
		tab, budget := tb()
		if budget.NodeLimit <= 0 || budget.Timeout <= 0 {
			t.Fatalf("%s has no budget", tab.Title)
		}
		if len(tab.Cells) == 0 {
			t.Fatalf("%s is empty", tab.Title)
		}
		for i, c := range tab.Cells {
			if c.Build == nil || c.Method == "" || c.Group == "" {
				t.Fatalf("%s cell %d incomplete", tab.Title, i)
			}
		}
	}
	// The assisted flag adds the user-partition group.
	with, _ := Table3(false, true)
	without, _ := Table3(false, false)
	if len(with.Cells) <= len(without.Cells) {
		t.Fatal("assisted Table 3 did not add cells")
	}
}
