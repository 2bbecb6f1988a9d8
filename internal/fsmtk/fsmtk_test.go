package fsmtk

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/verify"
)

func readSample(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestImportVerdicts imports every sample machine, instantiates it, and
// checks the expected verdict and depth — the end-to-end importer
// contract.
func TestImportVerdicts(t *testing.T) {
	cases := []struct {
		file    string
		outcome verify.Outcome
		depth   int // checked for violated only
	}{
		{"turnstile.fsm", verify.Violated, 1},
		{"door.fsm", verify.Verified, 0},
		{"worker.fsm", verify.Violated, 2},
		{"light.fsm", verify.Violated, 2},
		{"lift.fsm", verify.Verified, 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			mo, err := Import(readSample(t, tc.file))
			if err != nil {
				t.Fatal(err)
			}
			prob, err := mo.Instantiate(bdd.New())
			if err != nil {
				t.Fatal(err)
			}
			res := verify.Run(prob, verify.Forward, verify.Options{WantTrace: true})
			if res.Outcome != tc.outcome {
				t.Fatalf("outcome %v, want %v", res.Outcome, tc.outcome)
			}
			if tc.outcome == verify.Violated {
				if res.ViolationDepth != tc.depth {
					t.Errorf("violation depth %d, want %d", res.ViolationDepth, tc.depth)
				}
				if res.Trace == nil {
					t.Fatal("violated without a trace")
				}
				gl := prob.GoodList
				if len(gl) == 0 {
					gl = []bdd.Ref{prob.Good}
				}
				if err := res.Trace.Validate(prob.Machine, gl); err != nil {
					t.Errorf("trace does not replay: %v", err)
				}
			}
		})
	}
}

// TestMooreDependency checks that Moore outputs compile to observation
// variables with declared functional dependencies — the paper's FD
// optimization, derived automatically from the machine structure.
func TestMooreDependency(t *testing.T) {
	mo, err := Import(readSample(t, "door.fsm"))
	if err != nil {
		t.Fatal(err)
	}
	m := bdd.New()
	prob, err := mo.Instantiate(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(prob.Deps) != 1 {
		t.Fatalf("Deps = %d, want 1 (the moore output)", len(prob.Deps))
	}
	if name := m.VarName(prob.Deps[0].Var); name != "out.shut" {
		t.Fatalf("dependency on %q, want out.shut", name)
	}
	// The dependency definition must actually hold on every reachable
	// state: out.shut <-> (door is closed or locked). Cheap sanity: the
	// initial state satisfies it.
	d := prob.Deps[0]
	equiv := m.Xnor(m.VarRef(d.Var), d.Def)
	if m.And(prob.Machine.Init(), equiv.Not()) != bdd.Zero {
		t.Fatal("moore dependency does not hold in the initial state")
	}
}

// TestAcceptingOutput checks the synthetic "accept" observation
// variable of dfa/nfa machines.
func TestAcceptingOutput(t *testing.T) {
	mo, err := Import(readSample(t, "light.fsm"))
	if err != nil {
		t.Fatal(err)
	}
	m := bdd.New()
	prob := mo.MustInstantiate(m)
	found := false
	for v := 0; v < m.NumVars(); v++ {
		if m.VarName(bdd.Var(v)) == "out.accept" {
			found = true
		}
	}
	if !found {
		t.Fatal("accepting list did not produce an out.accept variable")
	}
	if len(prob.Deps) != 1 {
		t.Fatalf("Deps = %d, want 1 (accept is a state function)", len(prob.Deps))
	}
}

// TestNFAChoiceBits checks that only nondeterministic machines get
// choice inputs.
func TestNFAChoiceBits(t *testing.T) {
	has := func(file, name string) bool {
		mo, err := Import(readSample(t, file))
		if err != nil {
			t.Fatal(err)
		}
		m := bdd.New()
		mo.MustInstantiate(m)
		for v := 0; v < m.NumVars(); v++ {
			if m.VarName(bdd.Var(v)) == name {
				return true
			}
		}
		return false
	}
	if !has("worker.fsm", "ch0") {
		t.Error("nfa with two alternatives lacks a choice bit")
	}
	if has("lift.fsm", "ch0") {
		t.Error("dfa grew a choice bit")
	}
}

// TestParseStaticErrors rejects malformed machines with field context.
func TestParseStaticErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"unknown-type",
			`{"type":"pushdown","states":["a"],"inputs":["x"],"initial":"a"}`,
			`type: unknown machine type "pushdown"`},
		{"no-states",
			`{"type":"dfa","states":[],"inputs":["x"],"initial":"a"}`,
			"states: machine has no states"},
		{"empty-state-name",
			`{"type":"dfa","states":["a",""],"inputs":["x"],"initial":"a"}`,
			"states[1]: empty state name"},
		{"duplicate-state",
			`{"type":"dfa","states":["a","b","a"],"inputs":["x"],"initial":"a"}`,
			`states[2]: duplicate state "a"`},
		{"no-inputs",
			`{"type":"dfa","states":["a"],"inputs":[],"initial":"a"}`,
			"inputs: machine has no input symbols"},
		{"duplicate-symbol",
			`{"type":"dfa","states":["a"],"inputs":["x","x"],"initial":"a"}`,
			`inputs[1]: duplicate symbol "x"`},
		{"no-initial",
			`{"type":"dfa","states":["a"],"inputs":["x"]}`,
			"initial: no initial state"},
		{"unknown-initial",
			`{"type":"dfa","states":["a"],"inputs":["x"],"initial":"z"}`,
			`initial: unknown state "z"`},
		{"bad-transition-from",
			`{"type":"dfa","states":["a"],"inputs":["x"],"initial":"a","transitions":[{"from":"z","on":"x","to":"a"}]}`,
			`transitions[0].from: unknown state "z"`},
		{"bad-transition-to",
			`{"type":"dfa","states":["a"],"inputs":["x"],"initial":"a","transitions":[{"from":"a","on":"x","to":"z"}]}`,
			`transitions[0].to: unknown state "z"`},
		{"bad-transition-symbol",
			`{"type":"dfa","states":["a"],"inputs":["x"],"initial":"a","transitions":[{"from":"a","on":"y","to":"a"}]}`,
			`transitions[0].on: unknown input symbol "y"`},
		{"nondeterministic-dfa",
			`{"type":"dfa","states":["a","b"],"inputs":["x"],"initial":"a","transitions":[{"from":"a","on":"x","to":"a"},{"from":"a","on":"x","to":"b"}]}`,
			`transitions[1]: duplicate transition from "a" on "x" (dfa machines are deterministic)`},
		{"edge-output-on-dfa",
			`{"type":"dfa","states":["a"],"inputs":["x"],"initial":"a","outputs":["o"],"transitions":[{"from":"a","on":"x","to":"a","out":["o"]}]}`,
			"transitions[0].out: edge outputs are only valid for mealy machines"},
		{"unknown-edge-output",
			`{"type":"mealy","states":["a"],"inputs":["x"],"initial":"a","transitions":[{"from":"a","on":"x","to":"a","out":["o"]}]}`,
			`transitions[0].out: unknown output "o"`},
		{"moore-map-on-dfa",
			`{"type":"dfa","states":["a"],"inputs":["x"],"initial":"a","outputs":["o"],"moore":{"a":["o"]}}`,
			"moore: per-state output map is only valid for moore machines"},
		{"moore-unknown-state",
			`{"type":"moore","states":["a"],"inputs":["x"],"initial":"a","outputs":["o"],"moore":{"z":["o"]}}`,
			"moore.z: unknown state"},
		{"moore-unknown-output",
			`{"type":"moore","states":["a"],"inputs":["x"],"initial":"a","moore":{"a":["o"]}}`,
			`moore.a: unknown output "o"`},
		{"illegal-output-name",
			`{"type":"mealy","states":["a"],"inputs":["x"],"initial":"a","outputs":["bad name"]}`,
			`outputs[0]: "bad name" is not a legal output name`},
		{"duplicate-output",
			`{"type":"mealy","states":["a"],"inputs":["x"],"initial":"a","outputs":["o","o"]}`,
			`outputs[1]: duplicate output "o"`},
		{"unknown-accepting",
			`{"type":"dfa","states":["a"],"inputs":["x"],"initial":"a","accepting":["z"]}`,
			`accepting[0]: unknown state "z"`},
		{"accept-collision",
			`{"type":"dfa","states":["a"],"inputs":["x"],"initial":"a","outputs":["accept"],"accepting":["a"]}`,
			`output name "accept" is already declared`},
		{"unknown-never-state",
			`{"type":"dfa","states":["a"],"inputs":["x"],"initial":"a","property":{"never":["z"]}}`,
			`property.never[0]: unknown state "z"`},
		{"unknown-never-output",
			`{"type":"dfa","states":["a"],"inputs":["x"],"initial":"a","property":{"never_output":["o"]}}`,
			`property.never_output[0]: unknown output "o"`},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.src))
			if err == nil {
				t.Fatalf("accepted malformed input, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestSyntaxErrorLocation checks that JSON syntax errors report the
// line and column of the offending byte.
func TestSyntaxErrorLocation(t *testing.T) {
	src := "{\n  \"type\": \"dfa\",\n  \"states\": oops\n}"
	_, err := Parse([]byte(src))
	if err == nil {
		t.Fatal("accepted malformed JSON")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error %q does not locate line 3", err)
	}
}

// TestSampleCorpus imports every committed sample — the importer half
// of the CI zoo-smoke job.
func TestSampleCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.fsm"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 5 {
		t.Fatalf("sample corpus has %d machines, want >= 5", len(paths))
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		mo, err := Import(b)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if _, err := mo.Instantiate(bdd.New()); err != nil {
			t.Fatalf("%s: instantiate: %v", p, err)
		}
	}
}
