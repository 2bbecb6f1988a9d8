package ir

import (
	"fmt"
	"strings"
)

// Format renders the model as canonical source text in the lang
// surface syntax extended with (param ...), (goal ...), (dep ...), and
// (def ...) forms. Shared subgraphs — any operator node referenced
// more than once — are serialized once as numbered def bindings
// ($0, $1, ...) emitted before the declarations, in first-use
// post-order, so the text stays linear in the DAG size (a nested adder
// tree would otherwise print exponentially).
//
// The output is a fixed point: parsing it back (lang.ParseModel)
// reproduces the DAG including its sharing, and re-Formatting
// reproduces the text byte for byte. That is what makes the canonical
// form safe to hash as a content address shared by Go-built and
// text-built models.
func (mo *Model) Format() string {
	// First pass: reference counts over the whole declaration list.
	// Every pointer occurrence counts; children are walked only on
	// first sight so the count is the in-degree, not the path count.
	refs := map[*Node]int{}
	var count func(n *Node)
	count = func(n *Node) {
		refs[n]++
		if refs[n] > 1 {
			return
		}
		for _, a := range n.Args {
			count(a)
		}
	}
	for _, root := range mo.exprs() {
		count(root)
	}

	// Second pass: emit defs for shared operator nodes in post-order
	// (dependencies first), assigning stable $k names as bodies print.
	names := map[*Node]string{}
	var defs strings.Builder
	var emit func(n *Node)
	emit = func(n *Node) {
		if n.Op == OpVar || n.Op == OpTrue || n.Op == OpFalse {
			return
		}
		if _, done := names[n]; done {
			return
		}
		for _, a := range n.Args {
			emit(a)
		}
		if refs[n] >= 2 {
			body := formatNode(n, names, true)
			name := fmt.Sprintf("$%d", len(names))
			fmt.Fprintf(&defs, "(def %s %s)\n", name, body)
			names[n] = name
		}
	}
	for _, root := range mo.exprs() {
		emit(root)
	}

	var b strings.Builder
	b.WriteString(defs.String())
	for _, d := range mo.Decls {
		switch d := d.(type) {
		case *Param:
			fmt.Fprintf(&b, "(param %s %s)\n", d.Name, d.Value)
		case *Input:
			b.WriteString("(input")
			for _, n := range d.Names {
				b.WriteByte(' ')
				b.WriteString(n)
			}
			b.WriteString(")\n")
		case *State:
			init := "0"
			if d.Init {
				init = "1"
			}
			fmt.Fprintf(&b, "(state %s :init %s :next %s)\n", d.Name, init, formatNode(d.Next, names, false))
		case *Constraint:
			fmt.Fprintf(&b, "(constraint %s)\n", formatNode(d.Expr, names, false))
		case *Good:
			fmt.Fprintf(&b, "(good %s)\n", formatNode(d.Expr, names, false))
		case *Goal:
			fmt.Fprintf(&b, "(goal %s)\n", formatNode(d.Expr, names, false))
		case *Dep:
			fmt.Fprintf(&b, "(dep %s %s)\n", d.Name, formatNode(d.Def, names, false))
		}
	}
	return b.String()
}

// String renders the model as canonical source (same as Format).
func (mo *Model) String() string { return mo.Format() }

// exprs yields the declaration expressions in declaration order — the
// traversal order both Format passes use.
func (mo *Model) exprs() []*Node {
	var out []*Node
	for _, d := range mo.Decls {
		switch d := d.(type) {
		case *State:
			if d.Next != nil {
				out = append(out, d.Next)
			}
		case *Constraint:
			out = append(out, d.Expr)
		case *Good:
			out = append(out, d.Expr)
		case *Goal:
			out = append(out, d.Expr)
		case *Dep:
			out = append(out, d.Def)
		}
	}
	return out
}

// formatNode prints one node, substituting def names for shared
// subgraphs. asDefBody suppresses the name lookup on the node itself
// (a def body prints its own structure, with its children named).
func formatNode(n *Node, names map[*Node]string, asDefBody bool) string {
	if !asDefBody {
		if name, ok := names[n]; ok {
			return name
		}
	}
	switch n.Op {
	case OpVar:
		return n.Name
	case OpTrue:
		return "true"
	case OpFalse:
		return "false"
	}
	parts := make([]string, 0, len(n.Args)+1)
	parts = append(parts, n.Op)
	for _, a := range n.Args {
		parts = append(parts, formatNode(a, names, false))
	}
	return "(" + strings.Join(parts, " ") + ")"
}
