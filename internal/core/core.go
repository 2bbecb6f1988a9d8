// Package core implements the paper's primary contribution: implicitly
// conjoined lists of BDDs and the two new techniques of Hu, York & Dill,
// "New Techniques for Efficient Verification with Implicitly Conjoined
// BDDs" (DAC 1994):
//
//   - the evaluation and simplification policy of Section III.A
//     (cross-simplification with Restrict plus the greedy pairwise
//     conjunction evaluation of Figure 1), and
//   - the exact termination test of Section III.B (list equality via
//     implication checks, each reduced to disjunction-tautology checking
//     with Shannon expansion, accelerated by Theorem 3).
//
// A List represents a set of states (equivalently, a Boolean function) as
// the conjunction of its elements without ever building the monolithic
// BDD for that conjunction. The representation is not canonical; all the
// machinery in this package exists to keep lists small and to compare
// them despite the lack of canonicity.
package core

import (
	"fmt"
	"strings"

	"repro/internal/bdd"
)

// List is an implicitly conjoined list of BDDs: the represented function
// is the conjunction of all Conjuncts. The empty list represents True.
//
// Lists are plain values over a shared *bdd.Manager; copying the struct
// aliases the underlying slice, use Clone for an independent copy.
type List struct {
	M         *bdd.Manager
	Conjuncts []bdd.Ref
}

// NewList builds a list over m from the given conjuncts, normalizing away
// constants (One is dropped; any Zero collapses the list to false).
func NewList(m *bdd.Manager, conjuncts ...bdd.Ref) List {
	l := List{M: m, Conjuncts: append([]bdd.Ref(nil), conjuncts...)}
	l.Normalize()
	return l
}

// Clone returns an independent copy of l.
func (l List) Clone() List {
	return List{M: l.M, Conjuncts: append([]bdd.Ref(nil), l.Conjuncts...)}
}

// Len returns the number of conjuncts.
func (l List) Len() int { return len(l.Conjuncts) }

// IsFalse reports whether the list is the canonical false list.
func (l List) IsFalse() bool {
	return len(l.Conjuncts) == 1 && l.Conjuncts[0] == bdd.Zero
}

// IsTrue reports whether the list is empty (the implicit conjunction of
// nothing, i.e. True).
func (l List) IsTrue() bool { return len(l.Conjuncts) == 0 }

// Normalize removes constant-One conjuncts, deduplicates identical
// conjuncts, and collapses the list to [Zero] if it contains Zero or a
// complementary pair (X and ¬X make the whole conjunction false —
// detectable in constant time thanks to complement edges).
func (l *List) Normalize() {
	seen := make(map[bdd.Ref]struct{}, len(l.Conjuncts))
	out := l.Conjuncts[:0]
	for _, c := range l.Conjuncts {
		if c == bdd.One {
			continue
		}
		if c == bdd.Zero {
			l.Conjuncts = append(l.Conjuncts[:0], bdd.Zero)
			return
		}
		if _, dup := seen[c]; dup {
			continue
		}
		if _, compl := seen[c.Not()]; compl {
			l.Conjuncts = append(l.Conjuncts[:0], bdd.Zero)
			return
		}
		seen[c] = struct{}{}
		out = append(out, c)
	}
	l.Conjuncts = out
}

// Explicit evaluates the implicit conjunction into a single BDD. This is
// exactly the operation the whole method exists to avoid; it is provided
// for small examples, tests, and the monolithic baseline algorithms.
func (l List) Explicit() bdd.Ref {
	return l.M.AndN(l.Conjuncts...)
}

// SharedSize returns the number of distinct BDD nodes used by the whole
// list, counting shared nodes once — the paper's "BDD Nodes" metric for
// a G_i represented as an implicit conjunction.
func (l List) SharedSize() int {
	if len(l.Conjuncts) == 0 {
		return 1
	}
	return l.M.SharedSize(l.Conjuncts...)
}

// Sizes returns the individual BDD sizes of the conjuncts — the
// parenthesized per-conjunct breakdown reported in the paper's tables.
func (l List) Sizes() []int {
	out := make([]int, len(l.Conjuncts))
	for i, c := range l.Conjuncts {
		out[i] = l.M.Size(c)
	}
	return out
}

// ContainsSet reports whether the set S (a single BDD) is contained in
// the set represented by the list, i.e. S ⇒ ∧l. Per Section II.C this
// decomposes into one small check per conjunct, never touching the
// monolithic conjunction.
func (l List) ContainsSet(s bdd.Ref) bool {
	for _, c := range l.Conjuncts {
		if !l.M.Implies(s, c) {
			return false
		}
	}
	return true
}

// ViolatingConjunct returns the index of some conjunct X with S ∧ ¬X
// non-empty, or -1 if S is contained in the list. Used to extract
// counterexample states.
func (l List) ViolatingConjunct(s bdd.Ref) int {
	for i, c := range l.Conjuncts {
		if !l.M.Implies(s, c) {
			return i
		}
	}
	return -1
}

// Eval evaluates the implicit conjunction under a total assignment.
func (l List) Eval(assignment []bool) bool {
	for _, c := range l.Conjuncts {
		if !l.M.Eval(c, assignment) {
			return false
		}
	}
	return true
}

// String renders the size profile of the list, mirroring the paper's
// "(i × j nodes)" table annotations.
func (l List) String() string {
	if l.IsTrue() {
		return "true"
	}
	if l.IsFalse() {
		return "false"
	}
	sizes := l.Sizes()
	parts := make([]string, len(sizes))
	for i, s := range sizes {
		parts[i] = fmt.Sprint(s)
	}
	return fmt.Sprintf("%d nodes (%s)", l.SharedSize(), strings.Join(parts, ", "))
}
