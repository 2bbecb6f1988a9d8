package ir

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bdd"
)

// Isomorphism-exploiting instantiation. The zoo's parameterized
// families replicate components by construction — every cell of a FIFO
// stage, every stage of a pipeline — so their partitioned transition
// relations contain many next-state DAGs that are identical up to a
// renaming of their support variables. Instead of evaluating each
// replica into BDDs independently, Instantiate canonicalizes every
// state bit's next-state expression into a shape signature, groups the
// bits whose signatures (and whose supports' relative variable order)
// match, builds one template BDD per class on a scratch manager, and
// stamps out each member with bdd.Transfer under the member's variable
// map. Because Transfer rebuilds by ITE on the destination, the
// transferred Ref is bit-identical to what direct evaluation would
// produce — the pass changes construction effort, never results.

// isoMinNodes is the smallest DAG worth templating: below this the
// direct evaluation is cheaper than a scratch manager plus a Transfer.
const isoMinNodes = 4

// isoShape is the canonical form of one expression DAG up to variable
// renaming: operators serialize positionally, revisited shared nodes by
// their visit-order id, and variables by first-occurrence index. Two
// DAGs with equal signatures are isomorphic — equal after mapping the
// i-th distinct variable of one to the i-th of the other.
type isoShape struct {
	sig     string
	support []string // distinct variable names in first-occurrence order
	nodes   int      // DAG vertices visited (shared nodes once)
}

func nextSignature(n *Node) isoShape {
	var b strings.Builder
	ids := map[*Node]int{}
	varIdx := map[string]int{}
	var support []string
	var walk func(n *Node)
	walk = func(n *Node) {
		if id, ok := ids[n]; ok {
			fmt.Fprintf(&b, "#%d", id)
			return
		}
		ids[n] = len(ids)
		switch n.Op {
		case OpVar:
			idx, ok := varIdx[n.Name]
			if !ok {
				idx = len(varIdx)
				varIdx[n.Name] = idx
				support = append(support, n.Name)
			}
			fmt.Fprintf(&b, "v%d", idx)
		case OpTrue, OpFalse:
			b.WriteString(n.Op)
		default:
			b.WriteString(n.Op)
			b.WriteByte('(')
			for i, a := range n.Args {
				if i > 0 {
					b.WriteByte(',')
				}
				walk(a)
			}
			b.WriteByte(')')
		}
	}
	walk(n)
	return isoShape{sig: b.String(), support: support, nodes: len(ids)}
}

// isoRanks returns, for each support variable, its rank in the concrete
// level order of the destination manager. Members of a class are only
// interchangeable when these patterns match: the template is built with
// its variables declared in rank order, so a matching member's variable
// map is monotone in levels and the Transfer rebuild stays linear.
func isoRanks(support []string, vars map[string]bdd.Var) []int {
	order := make([]int, len(support))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return vars[support[order[a]]] < vars[support[order[b]]]
	})
	ranks := make([]int, len(support))
	for r, j := range order {
		ranks[j] = r
	}
	return ranks
}

// isoGroup is one set of states whose next-state DAGs are isomorphic
// and rank-compatible; members carries (state, shape) pairs in
// declaration order.
type isoGroup struct {
	shape   isoShape
	ranks   []int
	members []*State
	shapes  []isoShape
}

// isoGroups partitions the states by signature and rank pattern,
// preserving declaration order within and across groups.
func isoGroups(states []*State, vars map[string]bdd.Var) []*isoGroup {
	index := map[string]*isoGroup{}
	var groups []*isoGroup
	for _, s := range states {
		sh := nextSignature(s.Next)
		ranks := isoRanks(sh.support, vars)
		key := fmt.Sprintf("%s|%v", sh.sig, ranks)
		g, ok := index[key]
		if !ok {
			g = &isoGroup{shape: sh, ranks: ranks}
			index[key] = g
			groups = append(groups, g)
		}
		g.members = append(g.members, s)
		g.shapes = append(g.shapes, sh)
	}
	return groups
}

// seedIsoMemo builds one template BDD per isomorphism class of at least
// two members and seeds the instantiation memo with the per-member
// Transfer results, so the evaluation loop finds every replicated
// next-state function already built.
func seedIsoMemo(m *bdd.Manager, states []*State, vars map[string]bdd.Var, memo map[*Node]bdd.Ref) {
	for _, g := range isoGroups(states, vars) {
		if len(g.members) < 2 || g.shape.nodes < isoMinNodes {
			continue
		}
		// Scratch manager with the template variables declared in rank
		// order, so template levels mirror the members' concrete order.
		scratch := bdd.New()
		scratchVar := make([]bdd.Var, len(g.shape.support))
		byRank := make([]int, len(g.shape.support))
		for j, r := range g.ranks {
			byRank[r] = j
		}
		for r := 0; r < len(byRank); r++ {
			j := byRank[r]
			scratchVar[j] = scratch.NewVar(fmt.Sprintf("t%d", j))
		}
		tmpl := evalOnScratch(scratch, g.members[0].Next, scratchVar, g.shape.support)

		for i, s := range g.members {
			if _, done := memo[s.Next]; done {
				continue // two bits sharing one Next DAG
			}
			varMap := make([]bdd.Var, len(scratchVar))
			for j, name := range g.shapes[i].support {
				varMap[scratchVar[j]] = vars[name]
			}
			memo[s.Next] = bdd.Transfer(m, scratch, tmpl, varMap)
		}
		scratch.Close()
	}
}

// evalOnScratch evaluates the representative's DAG on the scratch
// manager, reading each variable through its template index.
func evalOnScratch(m *bdd.Manager, root *Node, scratchVar []bdd.Var, support []string) bdd.Ref {
	varIdx := make(map[string]int, len(support))
	for i, name := range support {
		varIdx[name] = i
	}
	memo := map[*Node]bdd.Ref{}
	var eval func(n *Node) bdd.Ref
	eval = func(n *Node) bdd.Ref {
		if r, ok := memo[n]; ok {
			return r
		}
		var r bdd.Ref
		switch n.Op {
		case OpTrue:
			r = bdd.One
		case OpFalse:
			r = bdd.Zero
		case OpVar:
			r = m.VarRef(scratchVar[varIdx[n.Name]])
		case OpNot:
			r = eval(n.Args[0]).Not()
		case OpAnd:
			args := make([]bdd.Ref, len(n.Args))
			for i, a := range n.Args {
				args[i] = eval(a)
			}
			r = m.AndN(args...)
		case OpOr:
			args := make([]bdd.Ref, len(n.Args))
			for i, a := range n.Args {
				args[i] = eval(a)
			}
			r = m.OrN(args...)
		case OpXor:
			r = m.Xor(eval(n.Args[0]), eval(n.Args[1]))
		case OpXnor:
			r = m.Xnor(eval(n.Args[0]), eval(n.Args[1]))
		case OpImp:
			r = m.Imp(eval(n.Args[0]), eval(n.Args[1]))
		case OpNand:
			r = m.Nand(eval(n.Args[0]), eval(n.Args[1]))
		case OpNor:
			r = m.Nor(eval(n.Args[0]), eval(n.Args[1]))
		case OpITE:
			r = m.ITE(eval(n.Args[0]), eval(n.Args[1]), eval(n.Args[2]))
		default:
			panic(fmt.Sprintf("ir: unreachable operator %q past Validate", n.Op))
		}
		memo[n] = r
		return r
	}
	return eval(root)
}

// IsoClass describes one isomorphism class Instantiate exploits: at
// least two state bits whose next-state DAGs are identical up to
// variable renaming (with level-order-compatible supports) and large
// enough to template.
type IsoClass struct {
	// States are the member state bits, declaration order.
	States []string
	// Vars is the template's support size; Nodes its DAG vertex count.
	Vars  int
	Nodes int
}

// IsoClasses reports the isomorphism classes of the model's next-state
// functions that Instantiate templates — the observability hook behind
// the replication findings in EXPERIMENTS.md. Variable ranks are
// computed against a model-order declaration, exactly as Instantiate
// declares them.
func IsoClasses(mo *Model) ([]IsoClass, error) {
	if err := mo.Validate(); err != nil {
		return nil, err
	}
	// Mirror Instantiate's declaration order with synthetic levels: each
	// state bit takes two (current + next), inputs one.
	vars := map[string]bdd.Var{}
	var states []*State
	level := 0
	for _, d := range mo.Decls {
		switch d := d.(type) {
		case *Input:
			for _, n := range d.Names {
				vars[n] = bdd.Var(level)
				level++
			}
		case *State:
			vars[d.Name] = bdd.Var(level)
			level += 2
			states = append(states, d)
		}
	}
	var out []IsoClass
	for _, g := range isoGroups(states, vars) {
		if len(g.members) < 2 || g.shape.nodes < isoMinNodes {
			continue
		}
		cls := IsoClass{Vars: len(g.shape.support), Nodes: g.shape.nodes}
		for _, s := range g.members {
			cls.States = append(cls.States, s.Name)
		}
		out = append(out, cls)
	}
	return out, nil
}
