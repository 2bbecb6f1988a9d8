// Package ir is the manager-independent model intermediate
// representation every frontend lowers to: a pure expression DAG over
// named variables plus an ordered declaration list (inputs, log-encoded
// state bits with initial values, environment constraints, property
// conjuncts, an optional monolithic goal, functional dependencies, and
// named parameters). A Model carries no BDDs and references no manager;
// Instantiate builds the verify.Problem on any caller-supplied manager
// and produces identical functions on every one, because BDD
// canonicity makes the result depend only on the variable declaration
// order the IR fixes.
//
// The IR also has a canonical serialized form (Format) that extends the
// lang surface syntax, so Go-built models, text submissions, and .fsm
// imports all share one content address (the icid cache key). Shared
// subgraphs serialize as (def $k ...) bindings, keeping the text linear
// in the DAG size rather than exponential in its depth.
//
// Constructors fold constants as they build (And drops true arguments,
// ite with a constant condition selects a branch, and so on), so an IR
// expression is always fold-normal: re-lowering a canonicalized model
// reproduces it node for node, which is what makes Format a fixed
// point and DeepEqual round-trips exact.
package ir

import (
	"fmt"
	"strings"
)

// Expression operators. OpVar/OpTrue/OpFalse are leaves; the rest take
// Args. OpAnd/OpOr are variadic with at least two arguments in
// fold-normal form (fewer fold away in the constructors).
const (
	OpVar   = "var"
	OpTrue  = "true"
	OpFalse = "false"
	OpAnd   = "and"
	OpOr    = "or"
	OpNot   = "not"
	OpXor   = "xor"
	OpXnor  = "xnor"
	OpImp   = "imp"
	OpNand  = "nand"
	OpNor   = "nor"
	OpITE   = "ite"
)

// opArity maps operators to argument counts; -1 is variadic. Leaves
// take none.
var opArity = map[string]int{
	OpVar: 0, OpTrue: 0, OpFalse: 0,
	OpAnd: -1, OpOr: -1,
	OpNot: 1,
	OpXor: 2, OpXnor: 2, OpImp: 2, OpNand: 2, OpNor: 2,
	OpITE: 3,
}

// Node is one vertex of the expression DAG. Nodes are shared by
// pointer: a subexpression used twice is the same *Node, and Format
// preserves that sharing via def bindings. Treat nodes as immutable
// once built.
type Node struct {
	Op   string
	Name string  // OpVar only: the variable name
	Args []*Node // operator arguments, nil for leaves
}

var (
	nTrue  = &Node{Op: OpTrue}
	nFalse = &Node{Op: OpFalse}
)

// Bool returns the constant node for b. Constants are singletons, so
// pointer comparison against Bool(true)/Bool(false) is meaningful.
func Bool(b bool) *Node {
	if b {
		return nTrue
	}
	return nFalse
}

// True reports whether n is the constant true.
func (n *Node) True() bool { return n.Op == OpTrue }

// False reports whether n is the constant false.
func (n *Node) False() bool { return n.Op == OpFalse }

// Var returns a fresh variable reference node. Builders cache one node
// per variable, but distinct nodes with equal names denote the same
// variable.
func Var(name string) *Node { return &Node{Op: OpVar, Name: name} }

// And returns the conjunction of args, folding constants: true
// arguments vanish, any false argument collapses the result, zero
// arguments yield true and one argument yields itself.
func And(args ...*Node) *Node {
	kept := make([]*Node, 0, len(args))
	for _, a := range args {
		switch a.Op {
		case OpTrue:
		case OpFalse:
			return nFalse
		default:
			kept = append(kept, a)
		}
	}
	switch len(kept) {
	case 0:
		return nTrue
	case 1:
		return kept[0]
	}
	return &Node{Op: OpAnd, Args: kept}
}

// Or returns the disjunction of args with the dual folds of And.
func Or(args ...*Node) *Node {
	kept := make([]*Node, 0, len(args))
	for _, a := range args {
		switch a.Op {
		case OpFalse:
		case OpTrue:
			return nTrue
		default:
			kept = append(kept, a)
		}
	}
	switch len(kept) {
	case 0:
		return nFalse
	case 1:
		return kept[0]
	}
	return &Node{Op: OpOr, Args: kept}
}

// Not returns the negation of a, folding constants and double
// negation.
func Not(a *Node) *Node {
	switch a.Op {
	case OpTrue:
		return nFalse
	case OpFalse:
		return nTrue
	case OpNot:
		return a.Args[0]
	}
	return &Node{Op: OpNot, Args: []*Node{a}}
}

// Xor returns a XOR b, folding constant operands.
func Xor(a, b *Node) *Node {
	switch {
	case a.Op == OpFalse:
		return b
	case b.Op == OpFalse:
		return a
	case a.Op == OpTrue:
		return Not(b)
	case b.Op == OpTrue:
		return Not(a)
	}
	return &Node{Op: OpXor, Args: []*Node{a, b}}
}

// Xnor returns a XNOR b (equivalence), folding constant operands.
func Xnor(a, b *Node) *Node {
	switch {
	case a.Op == OpTrue:
		return b
	case b.Op == OpTrue:
		return a
	case a.Op == OpFalse:
		return Not(b)
	case b.Op == OpFalse:
		return Not(a)
	}
	return &Node{Op: OpXnor, Args: []*Node{a, b}}
}

// Imp returns a IMPLIES b, folding constant operands.
func Imp(a, b *Node) *Node {
	switch {
	case a.Op == OpFalse, b.Op == OpTrue:
		return nTrue
	case a.Op == OpTrue:
		return b
	case b.Op == OpFalse:
		return Not(a)
	}
	return &Node{Op: OpImp, Args: []*Node{a, b}}
}

// Nand returns NOT(a AND b), folding through Not/And when an operand
// is constant.
func Nand(a, b *Node) *Node {
	if a.Op == OpTrue || a.Op == OpFalse || b.Op == OpTrue || b.Op == OpFalse {
		return Not(And(a, b))
	}
	return &Node{Op: OpNand, Args: []*Node{a, b}}
}

// Nor returns NOT(a OR b), folding through Not/Or when an operand is
// constant.
func Nor(a, b *Node) *Node {
	if a.Op == OpTrue || a.Op == OpFalse || b.Op == OpTrue || b.Op == OpFalse {
		return Not(Or(a, b))
	}
	return &Node{Op: OpNor, Args: []*Node{a, b}}
}

// ITE returns if-then-else: c ? t : e, folding constant conditions and
// constant branches (into And/Or/Imp shapes) and the degenerate t == e
// case.
func ITE(c, t, e *Node) *Node {
	switch c.Op {
	case OpTrue:
		return t
	case OpFalse:
		return e
	}
	if t == e {
		return t
	}
	switch {
	case t.Op == OpTrue:
		return Or(c, e)
	case t.Op == OpFalse:
		return And(Not(c), e)
	case e.Op == OpTrue:
		return Imp(c, t)
	case e.Op == OpFalse:
		return And(c, t)
	}
	return &Node{Op: OpITE, Args: []*Node{c, t, e}}
}

// Decl is one model declaration. Order is semantically significant:
// variables enter the BDD in declaration order, and the good list is
// the declaration-ordered conjunct sequence the ICI engines consume.
type Decl interface{ isDecl() }

// Param records a named model parameter (width, depth, a seeded-bug
// flag...). Parameters do not affect Instantiate — the model is already
// elaborated — but they are part of the canonical form, document the
// construction, and let registries reconstruct the builder call.
type Param struct {
	Name  string
	Value string
}

// Input declares one or more primary-input bits.
type Input struct {
	Names []string
}

// State declares a state bit with its scalar initial value; Next is
// its next-state function (set after construction by builders, present
// in every valid model).
type State struct {
	Name string
	Init bool
	Next *Node
}

// Constraint is an environment assumption over state and input
// variables; all constraints are conjoined.
type Constraint struct {
	Expr *Node
}

// Good is one property conjunct of the implicit conjunction.
type Good struct {
	Expr *Node
}

// Goal is the optional monolithic property. When present it becomes
// verify.Problem.Good directly — distinct from the good list, which
// may be empty (an unpartitioned property) or a strengthening
// partition (assisting invariants). At most one per model.
type Goal struct {
	Expr *Node
}

// Dep declares a functional dependency: state variable Name is always
// equal to Def over the reachable states (the FD engine's input).
type Dep struct {
	Name string
	Def  *Node
}

func (*Param) isDecl()      {}
func (*Input) isDecl()      {}
func (*State) isDecl()      {}
func (*Constraint) isDecl() {}
func (*Good) isDecl()       {}
func (*Goal) isDecl()       {}
func (*Dep) isDecl()        {}

// Model is a complete manager-independent verification model: the
// declarations in order. The zero value is an empty (invalid) model.
type Model struct {
	Name  string
	Decls []Decl
}

// Goods counts the property conjuncts.
func (mo *Model) Goods() int {
	n := 0
	for _, d := range mo.Decls {
		if _, ok := d.(*Good); ok {
			n++
		}
	}
	return n
}

// validName reports whether a name can survive the canonical text
// round trip: non-empty, no s-expression delimiters, not a constant,
// and not in the reserved '$' namespace Format uses for def bindings.
func validName(name string) bool {
	if name == "" || name == "true" || name == "false" {
		return false
	}
	if strings.HasPrefix(name, "$") {
		return false
	}
	return !strings.ContainsAny(name, " \t\n\r();")
}

// Validate checks the model statically: well-formed unique names, a
// next function on every state, declared variables only, correct
// operator arities, at least one property (good or goal), at most one
// goal, and deps naming declared states. A model that validates will
// Instantiate on any fresh manager (resource limits aside).
func (mo *Model) Validate() error {
	declared := map[string]bool{}
	states := map[string]bool{}
	params := map[string]bool{}
	goals := 0
	for _, d := range mo.Decls {
		switch d := d.(type) {
		case *Param:
			if d.Name == "" || strings.ContainsAny(d.Name, " \t\n\r();") ||
				d.Value == "" || strings.ContainsAny(d.Value, " \t\n\r();") {
				return fmt.Errorf("ir: malformed param %q=%q", d.Name, d.Value)
			}
			if params[d.Name] {
				return fmt.Errorf("ir: duplicate param %q", d.Name)
			}
			params[d.Name] = true
		case *Input:
			for _, n := range d.Names {
				if !validName(n) {
					return fmt.Errorf("ir: invalid variable name %q", n)
				}
				if declared[n] {
					return fmt.Errorf("ir: duplicate variable %q", n)
				}
				declared[n] = true
			}
		case *State:
			if !validName(d.Name) {
				return fmt.Errorf("ir: invalid variable name %q", d.Name)
			}
			if declared[d.Name] {
				return fmt.Errorf("ir: duplicate variable %q", d.Name)
			}
			declared[d.Name] = true
			states[d.Name] = true
		case *Goal:
			goals++
		}
	}
	if len(states) == 0 {
		return fmt.Errorf("ir: model has no state bits")
	}
	if mo.Goods()+goals == 0 {
		return fmt.Errorf("ir: model has no property (good or goal)")
	}
	if goals > 1 {
		return fmt.Errorf("ir: model has %d goal declarations, at most one allowed", goals)
	}

	checked := map[*Node]bool{}
	var check func(n *Node) error
	check = func(n *Node) error {
		if n == nil {
			return fmt.Errorf("ir: nil expression node")
		}
		if checked[n] {
			return nil
		}
		checked[n] = true
		want, known := opArity[n.Op]
		if !known {
			return fmt.Errorf("ir: unknown operator %q", n.Op)
		}
		if want >= 0 && len(n.Args) != want {
			return fmt.Errorf("ir: %s takes %d arguments, got %d", n.Op, want, len(n.Args))
		}
		if want < 0 && len(n.Args) < 2 {
			return fmt.Errorf("ir: %s node with %d arguments is not fold-normal", n.Op, len(n.Args))
		}
		if n.Op == OpVar {
			if !declared[n.Name] {
				return fmt.Errorf("ir: undeclared variable %q", n.Name)
			}
		} else if n.Name != "" {
			return fmt.Errorf("ir: non-variable node with a name %q", n.Name)
		}
		// Fold-normality: the constructors never leave a constant
		// argument, a double negation, or a degenerate ite in place, and
		// the canonical form relies on that (re-lowering the printed text
		// must reproduce the DAG exactly).
		for _, a := range n.Args {
			if a != nil && (a.Op == OpTrue || a.Op == OpFalse) {
				return fmt.Errorf("ir: %s node with a constant argument is not fold-normal", n.Op)
			}
		}
		if n.Op == OpNot && n.Args[0] != nil && n.Args[0].Op == OpNot {
			return fmt.Errorf("ir: double negation is not fold-normal")
		}
		if n.Op == OpITE && len(n.Args) == 3 && n.Args[1] == n.Args[2] {
			return fmt.Errorf("ir: ite with identical branches is not fold-normal")
		}
		for _, a := range n.Args {
			if err := check(a); err != nil {
				return err
			}
		}
		return nil
	}

	for _, d := range mo.Decls {
		switch d := d.(type) {
		case *State:
			if d.Next == nil {
				return fmt.Errorf("ir: state %q has no next-state function", d.Name)
			}
			if err := check(d.Next); err != nil {
				return err
			}
		case *Constraint:
			if err := check(d.Expr); err != nil {
				return err
			}
		case *Good:
			if err := check(d.Expr); err != nil {
				return err
			}
		case *Goal:
			if err := check(d.Expr); err != nil {
				return err
			}
		case *Dep:
			if !states[d.Name] {
				return fmt.Errorf("ir: dep of undeclared state %q", d.Name)
			}
			if err := check(d.Def); err != nil {
				return err
			}
		}
	}
	return nil
}
