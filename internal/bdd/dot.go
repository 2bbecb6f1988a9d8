package bdd

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteDOT writes a Graphviz rendering of the BDDs rooted at the given
// refs. Solid edges are then-branches, dashed edges else-branches, and
// dotted marks on an edge indicate complementation. Roots are drawn as
// plaintext labels root0, root1, ...
func (m *Manager) WriteDOT(w io.Writer, roots ...Ref) error {
	var b strings.Builder
	b.WriteString("digraph bdd {\n")
	b.WriteString("  rankdir=TB;\n")

	// Number the reachable nodes in first-visit order from the roots,
	// so the text depends only on the functions and the variable order,
	// not on where the manager allocated each node.
	id := make(map[uint32]int)
	var order []uint32
	var walk func(r Ref)
	walk = func(r Ref) {
		idx := r.index()
		if _, ok := id[idx]; ok {
			return
		}
		id[idx] = len(order)
		order = append(order, idx)
		n := &m.nodes[idx]
		if n.level == terminalLevel {
			return
		}
		walk(n.low)
		walk(n.high)
	}
	for _, r := range roots {
		walk(r)
	}

	byLevel := make(map[uint32][]uint32)
	for _, idx := range order {
		n := &m.nodes[idx]
		if n.level == terminalLevel {
			fmt.Fprintf(&b, "  n%d [shape=box,label=\"1\"];\n", id[idx])
			continue
		}
		byLevel[n.level] = append(byLevel[n.level], idx)
		fmt.Fprintf(&b, "  n%d [shape=circle,label=\"%s\"];\n", id[idx], m.VarName(Var(n.level)))
	}

	levels := make([]uint32, 0, len(byLevel))
	for l := range byLevel {
		levels = append(levels, l)
	}
	sort.Slice(levels, func(i, j int) bool { return levels[i] < levels[j] })
	for _, l := range levels {
		b.WriteString("  { rank=same;")
		for _, idx := range byLevel[l] {
			fmt.Fprintf(&b, " n%d;", id[idx])
		}
		b.WriteString(" }\n")
	}

	edge := func(from uint32, to Ref, style string) {
		extra := ""
		if to.complement() {
			extra = ",arrowhead=odot"
		}
		fmt.Fprintf(&b, "  n%d -> n%d [style=%s%s];\n", id[from], id[to.index()], style, extra)
	}
	for _, idx := range order {
		n := &m.nodes[idx]
		if n.level == terminalLevel {
			continue
		}
		edge(idx, n.high, "solid")
		edge(idx, n.low, "dashed")
	}

	for i, r := range roots {
		fmt.Fprintf(&b, "  root%d [shape=plaintext,label=\"root%d\"];\n", i, i)
		extra := ""
		if r.complement() {
			extra = ",arrowhead=odot"
		}
		fmt.Fprintf(&b, "  root%d -> n%d [style=bold%s];\n", i, id[r.index()], extra)
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders a compact textual form of f: a disjunction of up to a
// few satisfying cubes, or the constant name. Intended for debugging and
// error messages, not parsing.
func (m *Manager) String(f Ref) string {
	switch f {
	case One:
		return "true"
	case Zero:
		return "false"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "<%d nodes, top %s", m.Size(f), m.VarName(m.TopVar(f)))
	cube := m.AnySat(f)
	b.WriteString(", e.g. ")
	for i, lit := range cube {
		if i > 0 {
			b.WriteString(" ")
		}
		if !lit.Val {
			b.WriteString("!")
		}
		b.WriteString(m.VarName(lit.Var))
	}
	b.WriteString(">")
	return b.String()
}
