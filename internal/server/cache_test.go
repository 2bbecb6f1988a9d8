package server

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/resource"
	"repro/internal/verify"
)

// TestCacheKeyStable pins cacheKey to the digests earlier builds
// produced for the same inputs. Persistent proof stores are addressed by
// these keys, so a change to the hashed text orphans every stored
// result; such a change must be deliberate.
func TestCacheKeyStable(t *testing.T) {
	cases := []struct {
		model, engine string
		opt           verify.Options
		budget        resource.Budget
		want          string
	}{
		{
			model: "fifo/w8-d5", engine: "XICI",
			opt:  verify.Options{Termination: verify.TermExact},
			want: "153927db103d30c85b175f5658ac182cebc4c72eaa5e4021e9c51b38fc2e39c5",
		},
		{
			model: "(state s :init 0 :next (not s))\n(good true)\n", engine: "PDR",
			opt: verify.Options{Termination: verify.TermFast, WantTrace: true, GCEvery: 3,
				Core: core.Options{GrowThreshold: 1.25}},
			budget: resource.Budget{NodeLimit: 200000, Timeout: 30 * time.Second, MaxIterations: 500},
			want:   "a0a8ec1b3276c771b761b6af353cb6e2a2f89936cb21f921fd1af1f968544972",
		},
	}
	for i, c := range cases {
		if got := cacheKey(c.model, c.engine, c.opt, c.budget); got != c.want {
			t.Errorf("case %d: cacheKey = %s, want %s", i, got, c.want)
		}
	}
}
