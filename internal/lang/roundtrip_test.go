package lang

import (
	"reflect"
	"testing"

	"repro/internal/bdd"
	"repro/internal/verify"
)

// The wire-format contract: the canonical text parses back to the same
// IR, and is a fixed point of Canon. Every model the service accepts goes
// through this cycle (Canon is the cache key), so an asymmetry here
// would silently alias distinct models.
func TestRoundTrip(t *testing.T) {
	sources := map[string]string{
		"mutex":  mutexModel,
		"broken": brokenMutex,
		"frozen": `
(input tick)
(state x :init 0 :next (xor x tick))
(state y :init 1 :next x)
(constraint (not tick))
(good (not x))
(good y)
`,
		"ops": `
(input a b c)
(state s :init 0 :next (ite a (xnor b c) (imp b (or c false (nor a b)))))
(good true)
(good (not false))
`,
		"forward-ref": `
(state s :init 0 :next t)
(state t :init 1 :next s)
(good (or s t))
`,
		"variadic": `
(input a b c d)
(state s :init 0 :next (and a b c d (or) (and)))
(good (nand s s))
`,
		"comments": "; header\n(input a)\n(state s :init 1 :next a) ; trailing\n(good s)\n",
	}
	for name, src := range sources {
		mo, err := ParseModel(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		canon, err := Canon(src)
		if err != nil {
			t.Fatalf("%s: Canon: %v", name, err)
		}
		mo2, err := ParseModel(canon)
		if err != nil {
			t.Fatalf("%s: reparse of canonical text failed: %v\ncanon:\n%s", name, err, canon)
		}
		if !reflect.DeepEqual(mo, mo2) {
			t.Fatalf("%s: canonical text parses to a different model\nfirst:  %#v\nsecond: %#v\ncanon:\n%s",
				name, mo, mo2, canon)
		}
		if canon2 := mo2.Format(); canon2 != canon {
			t.Fatalf("%s: Canon is not a fixed point\nfirst:\n%s\nsecond:\n%s", name, canon, canon2)
		}
	}
}

// A model and its canonicalized form must compile to the same problem:
// same variable counts, same partition size, same verdict.
func TestCanonPreservesSemantics(t *testing.T) {
	canon, err := Canon(mutexModel)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := Parse(bdd.New(), mutexModel, "orig")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Parse(bdd.New(), canon, "canon")
	if err != nil {
		t.Fatal(err)
	}
	if p1.Machine.StateBits() != p2.Machine.StateBits() || p1.Machine.InputBits() != p2.Machine.InputBits() {
		t.Fatalf("variable counts diverge after canonicalization")
	}
	if len(p1.GoodList) != len(p2.GoodList) {
		t.Fatalf("partition size diverges: %d vs %d", len(p1.GoodList), len(p2.GoodList))
	}
	r1 := verify.Run(p1, verify.XICI, verify.Options{})
	r2 := verify.Run(p2, verify.XICI, verify.Options{})
	if r1.Outcome != r2.Outcome || r1.Iterations != r2.Iterations {
		t.Fatalf("verdicts diverge: %v/%d vs %v/%d", r1.Outcome, r1.Iterations, r2.Outcome, r2.Iterations)
	}
}

// ParseModel alone must reject every error Parse rejects, so the service
// can validate a submission without building any BDDs.
func TestParseModelStaticErrors(t *testing.T) {
	cases := map[string]string{
		"unclosed":        `(input a`,
		"stray-paren":     `)`,
		"bad-top":         `foo`,
		"unknown-form":    `(frob x)`,
		"dup-var":         "(input a)\n(state a :init 0 :next a)\n(good true)",
		"bad-init":        `(state s :init 2 :next s)`,
		"missing-next":    `(state s :init 0)`,
		"undeclared":      "(state s :init 0 :next q)\n(good true)",
		"unknown-op":      "(state s :init 0 :next (wibble s))\n(good true)",
		"no-good":         `(state s :init 0 :next s)`,
		"arity-not":       "(state s :init 0 :next (not s s))\n(good true)",
		"arity-ite":       "(state s :init 0 :next (ite s s))\n(good true)",
		"constraint-args": "(state s :init 0 :next s)\n(constraint s s)\n(good true)",
		"empty-expr":      "(state s :init 0 :next ())\n(good true)",
		"undeclared-good": "(state s :init 0 :next s)\n(good (and s q))",
		"undeclared-fold": "(state s :init 0 :next s)\n(good (or q true))",
		"no-state":        "(good true)",
		"input-only":      "(input a)\n(good a)",
		"var-true":        "(input true)\n(state s :init 0 :next s)\n(good s)",
		"def-before-use":  "(state s :init 0 :next d)\n(def d s)\n(good s)",
		"def-self":        "(state s :init 0 :next s)\n(def d (not d))\n(good s)",
		"def-var-clash":   "(def s true)\n(state s :init 0 :next s)\n(good s)",
		"dup-def":         "(def d true)\n(def d false)\n(state s :init 0 :next d)\n(good s)",
		"def-constant":    "(def true false)\n(state s :init 0 :next s)\n(good s)",
	}
	for name, src := range cases {
		if _, err := ParseModel(src); err == nil {
			t.Fatalf("%s: expected a static error from ParseModel", name)
		}
	}
}
