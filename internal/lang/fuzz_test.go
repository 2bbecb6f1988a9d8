package lang

import (
	"errors"
	"testing"

	"repro/internal/bdd"
	"repro/internal/resource"
)

// fuzzNodeLimit keeps each fuzz input's instantiation small.
const fuzzNodeLimit = 5000

// FuzzParseModel: text that ParseModel accepts has a canonical form
// that is a fixed point of Canon, and it instantiates on a fresh
// manager, where the only failure allowed is the node budget's.
func FuzzParseModel(f *testing.F) {
	for _, c := range canonSources {
		f.Add(c.src)
	}
	// Models that parsed before ParseModel ran ir.Validate, but never
	// instantiated.
	f.Add("(good true)")
	f.Add("(input a)\n(good a)")
	f.Add("(input true)\n(state s :init 0 :next s)\n(good s)")
	f.Fuzz(func(t *testing.T, src string) {
		if _, err := ParseModel(src); err != nil {
			return
		}
		canon, err := Canon(src)
		if err != nil {
			t.Fatalf("Canon rejects what ParseModel accepts: %v", err)
		}
		again, err := Canon(canon)
		if err != nil {
			t.Fatalf("canonical text rejected: %v\n%s", err, canon)
		}
		if again != canon {
			t.Fatalf("Canon is not a fixed point\nfirst:\n%s\nsecond:\n%s", canon, again)
		}
		m := bdd.New()
		m.ApplyBudget(resource.Budget{NodeLimit: fuzzNodeLimit})
		var perr error
		err = bdd.Guard(func() { _, perr = Parse(m, src, "fuzz") })
		if err != nil && !errors.Is(err, resource.ErrNodeLimit) {
			t.Fatalf("instantiation failed outside the node budget: %v", err)
		}
		if perr != nil {
			t.Fatalf("ParseModel accepted a model Parse rejects: %v", perr)
		}
	})
}
