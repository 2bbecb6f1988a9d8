package core

import (
	"math/rand"
	"testing"

	"repro/internal/bdd"
)

// benchList builds a deterministic list of n interacting conjuncts over
// a wider universe than the truth-table tests: each conjunct is a dense
// DNF over an 8-variable window, windows overlapping so greedy finds
// profitable merges and pair scoring has real BDD work to do.
func benchList(n int) (*bdd.Manager, List) {
	const (
		vars   = 48
		window = 20
		terms  = 10
	)
	m := bdd.New()
	m.NewVars("x", vars)
	rng := rand.New(rand.NewSource(181))
	cs := make([]bdd.Ref, n)
	for i := range cs {
		base := (i * 4) % (vars - window)
		f := bdd.Zero
		for t := 0; t < terms; t++ {
			cube := bdd.One
			for v := base; v < base+window; v++ {
				// Sparse cubes (~1/4 of the window constrained) keep the
				// conjunction of overlapping conjuncts satisfiable.
				switch rng.Intn(8) {
				case 0:
					cube = m.And(cube, m.VarRef(bdd.Var(v)))
				case 1:
					cube = m.And(cube, m.NVarRef(bdd.Var(v)))
				}
			}
			f = m.Or(f, cube)
		}
		cs[i] = f
	}
	return m, NewList(m, cs...)
}

// BenchmarkEvaluatePolicy compares the two implementations of the
// Figure 1 greedy evaluation on the same list: the seed's full-rescan
// loop (kept as the reference) and the incremental heap-driven loop. A
// fresh Manager per iteration keeps
// the computed-cache state identical across variants — otherwise the
// first variant to run would warm the And memo for the rest.
func BenchmarkEvaluatePolicy(b *testing.B) {
	for _, n := range []int{8, 12} {
		run := func(name string, eval func(List) List) {
			b.Run(name, func(b *testing.B) {
				var size int
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					_, l := benchList(n)
					b.StartTimer()
					size = eval(l).SharedSize()
				}
				b.ReportMetric(float64(size), "list-nodes")
			})
		}
		prefix := map[int]string{8: "n8/", 12: "n12/"}[n]
		run(prefix+"rescan", func(l List) List {
			return evaluateGreedyRescan(l, Options{})
		})
		run(prefix+"heap", func(l List) List {
			return EvaluateGreedy(l, Options{})
		})
	}
}
