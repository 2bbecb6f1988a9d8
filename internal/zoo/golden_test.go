package zoo

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/lang"
	"repro/internal/verify"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestGoldenRoundTrip pins the canonical serialized form of one member
// per registered family and closes the loop: IR -> canonical text ->
// lang.ParseModel must reproduce the IR exactly (DeepEqual).
// The committed golden files make any canonical-form drift — which
// would silently split the icid content-addressed cache — a visible
// diff.
func TestGoldenRoundTrip(t *testing.T) {
	members := []struct {
		entry string
		size  Size
	}{
		{"fifo", Size{"width": 3, "depth": 2, "bound": 5}},
		{"network", Size{"procs": 2}},
		{"filter", Size{"depth": 2, "width": 1}},
		{"pipeline", Size{"regs": 2, "width": 1}},
		{"coherence", Size{"caches": 2}},
		{"link", Size{"data-bits": 1}},
		{"elevator", Size{"floors": 3}},
		{"traffic", Size{"roads": 2}},
		{"protostack", Size{"layers": 2}},
		{"fsm/turnstile", Size{}},
		{"fsm/door", Size{}},
	}
	for _, mb := range members {
		mb := mb
		t.Run(mb.entry, func(t *testing.T) {
			mo, err := Build(mb.entry, mb.size)
			if err != nil {
				t.Fatal(err)
			}
			canon := mo.Format()

			golden := filepath.Join("testdata", "golden", filepath.Base(mb.entry)+".canon")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(canon), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if canon != string(want) {
				t.Errorf("canonical form drifted from %s (regenerate with -update if intended)", golden)
			}

			// Round trip through the text frontend.
			back, err := lang.ParseModel(canon)
			if err != nil {
				t.Fatalf("canonical text does not parse: %v", err)
			}
			back.Name = mo.Name
			if !reflect.DeepEqual(mo, back) {
				t.Fatal("IR -> canon -> ParseModel -> IR is not the identity")
			}

			// And the canonical form is a fixed point of lang.Canon, so
			// a zoo-built model and its text submission share one icid
			// cache key.
			again, err := lang.Canon(canon)
			if err != nil {
				t.Fatal(err)
			}
			if again != canon {
				t.Error("lang.Canon is not a fixed point on the canonical form")
			}
		})
	}
}

// problemCase is one model build the problem golden pins: a zoo entry
// at a parameter assignment.
type problemCase struct {
	entry string
	size  Size
}

// problemCases lists every entry at each of its sizes, with bug 0 and,
// where the entry has the knob, bug 1; then the ten configurations
// outside those grids that the pre-IR crosscheck covered (other widths
// and bounds, slot-major order, separate register files).
// internal/models' TestIRMatchesLegacy reads the blocks of those
// sixteen crosscheck configurations from the same file.
func problemCases() []problemCase {
	var cases []problemCase
	for _, name := range Names() {
		e, _ := Get(name)
		for _, s := range e.Sizes {
			cases = append(cases, problemCase{name, s})
			if _, ok := e.Defaults["bug"]; ok {
				bugged := Size{"bug": 1}
				for k, v := range s {
					bugged[k] = v
				}
				cases = append(cases, problemCase{name, bugged})
			}
		}
	}
	return append(cases,
		problemCase{"fifo", Size{"width": 4, "depth": 3, "bound": 9}},
		problemCase{"fifo", Size{"width": 4, "depth": 2, "bound": 9, "slot-major": 1}},
		problemCase{"network", Size{"procs": 3, "bug": 1}},
		problemCase{"filter", Size{"depth": 4, "width": 3}},
		problemCase{"filter", Size{"depth": 4, "width": 3, "assist": 1}},
		problemCase{"filter", Size{"depth": 2, "width": 2, "bug": 1}},
		problemCase{"pipeline", Size{"regs": 2, "width": 2}},
		problemCase{"pipeline", Size{"regs": 2, "width": 1, "assist": 1}},
		problemCase{"pipeline", Size{"regs": 2, "width": 1, "separate-reg-files": 1}},
		problemCase{"coherence", Size{"caches": 3, "bug": 1}},
	)
}

// writeProblem records an instantiated problem: its name, its
// variables in level order with their roles, and for each root the
// node count and the SHA-256 of its WriteDOT text. WriteDOT numbers
// nodes in first-visit order, so a root's line depends only on its
// function and the variable order, not on how the manager built it.
func writeProblem(t *testing.T, out *bytes.Buffer, m *bdd.Manager, p verify.Problem) {
	t.Helper()
	ma := p.Machine
	role := map[bdd.Var]string{}
	for _, v := range ma.CurVars() {
		role[v] = "state"
		role[ma.NextVar(v)] = "next"
	}
	for _, v := range ma.InputVars() {
		role[v] = "input"
	}
	fmt.Fprintf(out, "name %s\n", p.Name)
	for v := bdd.Var(0); int(v) < m.NumVars(); v++ {
		r, ok := role[v]
		if !ok {
			t.Fatalf("%s: variable %s is neither state, next nor input", p.Name, m.VarName(v))
		}
		fmt.Fprintf(out, "var %d %s %s\n", v, m.VarName(v), r)
	}
	root := func(label string, f bdd.Ref) {
		h := sha256.New()
		_ = m.WriteDOT(h, f) // writes to a hash never fail
		fmt.Fprintf(out, "%s %d %x\n", label, m.Size(f), h.Sum(nil))
	}
	root("init", ma.Init())
	root("constraint", ma.InputConstraint())
	for _, v := range ma.CurVars() {
		root("next "+m.VarName(v), ma.NextFn(v))
	}
	root("good", p.Good)
	for i, g := range p.GoodList {
		root(fmt.Sprintf("good[%d]", i), g)
	}
	for _, d := range p.Deps {
		root("dep "+m.VarName(d.Var), d.Def)
	}
}

// TestProblemGolden pins the BDDs every model build produces: for each
// case, the variables (names, order, state/next/input roles) and every
// function of the instantiated problem — initial set, input
// constraint, next-state functions, property in both forms and the
// dependency definitions. The golden was first generated while the IR
// builders were still checked Ref for Ref against the pre-IR
// constructors, so it carries that check forward. Regenerate it with
// -update only for an intended change to a model.
func TestProblemGolden(t *testing.T) {
	var out bytes.Buffer
	for _, c := range problemCases() {
		e, ok := Get(c.entry)
		if !ok {
			t.Fatalf("unknown entry %q", c.entry)
		}
		full := Size{}
		for _, s := range []Size{e.Defaults, c.size} {
			for k, v := range s {
				full[k] = v
			}
		}
		fmt.Fprintf(&out, "problem %s %v\n", c.entry, strings.TrimPrefix(fmt.Sprint(full), "map"))

		mo, err := e.Model(c.size)
		if err != nil {
			t.Fatalf("%s %v: %v", c.entry, c.size, err)
		}
		m := bdd.New()
		p, err := mo.Instantiate(m)
		if err != nil {
			t.Fatalf("%s %v: instantiate: %v", c.entry, c.size, err)
		}
		writeProblem(t, &out, m, p)
	}

	golden := filepath.Join("testdata", "problems.golden")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	problem := ""
	for i := 0; i < len(got) && i < len(wantLines); i++ {
		if strings.HasPrefix(wantLines[i], "problem ") {
			problem = wantLines[i]
		}
		if got[i] != wantLines[i] {
			t.Fatalf("%s line %d, under %q:\ngot  %q\nwant %q\n(regenerate with -update if the change is intended)",
				golden, i+1, problem, got[i], wantLines[i])
		}
	}
	if len(got) != len(wantLines) {
		t.Fatalf("%s: %d lines, want %d (regenerate with -update if the change is intended)",
			golden, len(got), len(wantLines))
	}
}
