package lang

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/difftest"
)

var update = flag.Bool("update", false, "rewrite testdata/canon.golden")

// canonSources are hand-written models covering what Canon normalizes
// away: comments and layout, eq and user defs, foldable constants,
// forward references, and the param, goal and dep forms.
var canonSources = []struct{ name, src string }{
	{"mutex", mutexModel},
	{"broken-mutex", brokenMutex},
	{"layout", "; header comment\n\n  (input   a\tb) ; trailing\n(state s\n  :init 1\n  :next (and a\n b))   \r\n(good s);no space\n"},
	{"eq", "(input a b)\n(state s :init 0 :next (eq a b))\n(good (eq s (xnor a b)))\n"},
	{"defs", `(input a b c)
(def ab (and a b))
(def either (or ab (not ab) c))
(state s :init 0 :next (xor ab c))
(state t :init 1 :next (ite either s ab))
(good (imp ab t))
(good (nand ab s))
`},
	{"def-constant", "(input a)\n(def on (or a true))\n(state s :init 0 :next (and on a))\n(good (imp on s))\n"},
	{"fold-and-true", "(input a)\n(state s :init 0 :next (and a true))\n(good s)\n"},
	{"fold-ite-true", "(input a b)\n(state s :init 0 :next (ite true a b))\n(good (ite false a s))\n"},
	{"fold-not-not", "(input a)\n(state s :init 0 :next (not (not a)))\n(good (not (not (not s))))\n"},
	{"fold-empty", "(input a)\n(state s :init 0 :next (or))\n(state t :init 1 :next (and))\n(good (or s (and) a))\n"},
	{"fold-binary", `(input a b)
(state s :init 0 :next (xor a true))
(state t :init 0 :next (xnor false b))
(state u :init 0 :next (imp a false))
(state v :init 0 :next (nand a true))
(state w :init 0 :next (nor false b))
(good (and s t u v w (imp false a) (xor false b)))
`},
	{"fold-ite-branches", `(input a b c)
(state s :init 0 :next (ite a true b))
(state t :init 0 :next (ite a false b))
(state u :init 0 :next (ite a b true))
(state v :init 0 :next (ite a b false))
(state w :init 0 :next (ite a c c))
(good (or s t u v w))
`},
	{"forward-ref", "(state s :init 0 :next t)\n(state t :init 1 :next s)\n(good (or s t))\n"},
	{"forward-ref-input", "(state s :init 0 :next (and s late))\n(good (not s))\n(input late)\n"},
	{"param-goal-dep", `(param width 2)
(param bug 0)
(input i)
(state a :init 0 :next i)
(state b :init 0 :next a)
(state c :init 1 :next (not a))
(dep c (not a))
(constraint (or i a))
(good (imp b a))
(goal (and (imp b a) (xor a c)))
`},
	{"goal-only", "(input i)\n(state x :init 0 :next (and x i))\n(goal (not x))\n"},
	{"shared", `(input a b c)
(def m (and a (or b c)))
(state s :init 0 :next (xor m s))
(state t :init 0 :next (and m t))
(good (nor m (and s t)))
`},
	{"variadic", "(input a b c d)\n(state s :init 0 :next (and a b c d (or) (and)))\n(good (nand s s))\n"},
	{"ops", "(input a b c)\n(state s :init 0 :next (ite a (xnor b c) (imp b (or c false (nor a b)))))\n(good true)\n(good (not false))\n"},
}

// canonCases returns the hand-written sources plus 20 fixed-seed
// difftest models in their serialized form.
func canonCases(t *testing.T) []struct{ name, src string } {
	cases := append([]struct{ name, src string }(nil), canonSources...)
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 20; i++ {
		p := difftest.RandomParams(rng)
		mo, err := difftest.BuildModel(p)
		if err != nil {
			t.Fatalf("difftest model %d: %v", i, err)
		}
		cases = append(cases, struct{ name, src string }{fmt.Sprintf("difftest-%02d-%s", i, p.Kind), mo.Format()})
	}
	return cases
}

// TestCanonGolden pins Canon's output byte for byte. Canonical text is
// icid's result-cache and store key, so any drift here would split the
// cache; regenerate with -update only for an intended change.
func TestCanonGolden(t *testing.T) {
	const golden = "testdata/canon.golden"
	cases := canonCases(t)
	var b strings.Builder
	for _, c := range cases {
		canon, err := Canon(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&b, "-- %s --\n%s", c.name, canon)
	}
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	want, got := goldenSections(string(data)), goldenSections(b.String())
	if len(want) != len(got) {
		t.Fatalf("%s holds %d models, the test has %d (regenerate with -update if intended)", golden, len(want), len(got))
	}
	for _, c := range cases {
		if got[c.name] != want[c.name] {
			t.Errorf("%s: Canon drifted from %s\ngot:\n%s\nwant:\n%s", c.name, golden, got[c.name], want[c.name])
		}
	}
}

// goldenSections splits a golden file into its "-- name --" sections.
func goldenSections(s string) map[string]string {
	out := map[string]string{}
	name := ""
	for _, line := range strings.SplitAfter(s, "\n") {
		if strings.HasPrefix(line, "-- ") && strings.HasSuffix(line, " --\n") {
			name = line[3 : len(line)-4]
			out[name] = ""
			continue
		}
		out[name] += line
	}
	return out
}
