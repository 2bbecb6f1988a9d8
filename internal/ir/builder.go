package ir

import "fmt"

// Builder constructs a Model imperatively, the way the Go model
// constructors are written: declare bits (declaration order is variable
// order — interleave by declaring interleaved), assign next-state
// functions, add constraints, goods, a goal, and deps, then Build.
// Variables are handled as their *Node references, so expression code
// reads exactly like the manager-based original with Refs replaced by
// nodes.
type Builder struct {
	model  Model
	vars   map[string]*Node
	states map[*Node]*State
}

// NewBuilder starts an empty model with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		model:  Model{Name: name},
		vars:   map[string]*Node{},
		states: map[*Node]*State{},
	}
}

// Param records a named parameter.
func (b *Builder) Param(name, value string) {
	b.model.Decls = append(b.model.Decls, &Param{Name: name, Value: value})
}

// ParamInt records an integer parameter.
func (b *Builder) ParamInt(name string, v int) { b.Param(name, fmt.Sprintf("%d", v)) }

// ParamBool records a boolean parameter.
func (b *Builder) ParamBool(name string, v bool) { b.Param(name, fmt.Sprintf("%t", v)) }

func (b *Builder) declare(name string) *Node {
	if _, dup := b.vars[name]; dup {
		panic(fmt.Sprintf("ir: duplicate variable %q", name))
	}
	n := Var(name)
	b.vars[name] = n
	return n
}

// Input declares a primary-input bit and returns its reference node.
func (b *Builder) Input(name string) *Node {
	n := b.declare(name)
	b.model.Decls = append(b.model.Decls, &Input{Names: []string{name}})
	return n
}

// Inputs declares n input bits named prefix0..prefix(n-1) as one
// declaration group.
func (b *Builder) Inputs(prefix string, n int) []*Node {
	decl := &Input{}
	out := make([]*Node, n)
	for i := range out {
		name := fmt.Sprintf("%s%d", prefix, i)
		out[i] = b.declare(name)
		decl.Names = append(decl.Names, name)
	}
	b.model.Decls = append(b.model.Decls, decl)
	return out
}

// State declares a state bit with its initial value and returns its
// reference node. Its next-state function is assigned later with
// SetNext.
func (b *Builder) State(name string, init bool) *Node {
	n := b.declare(name)
	st := &State{Name: name, Init: init}
	b.states[n] = st
	b.model.Decls = append(b.model.Decls, st)
	return n
}

// States declares n state bits named prefix0..prefix(n-1), all with
// the given initial value.
func (b *Builder) States(prefix string, n int, init bool) []*Node {
	out := make([]*Node, n)
	for i := range out {
		out[i] = b.State(fmt.Sprintf("%s%d", prefix, i), init)
	}
	return out
}

// SetNext assigns the next-state function of a declared state bit.
func (b *Builder) SetNext(v *Node, f *Node) {
	st, ok := b.states[v]
	if !ok {
		panic(fmt.Sprintf("ir: SetNext of non-state node %s", v.Name))
	}
	st.Next = f
}

// SetInit overrides the initial value of a declared state bit —
// for generators that only learn initial values after wiring the
// next-state functions (the fuzzer's random machines draw them last).
func (b *Builder) SetInit(v *Node, init bool) {
	st, ok := b.states[v]
	if !ok {
		panic(fmt.Sprintf("ir: SetInit of non-state node %s", v.Name))
	}
	st.Init = init
}

// NextFn returns the next-state function already assigned to a state
// bit — the hook models with functionally-derived state (the coherence
// directory) use to reuse transition expressions.
func (b *Builder) NextFn(v *Node) *Node {
	st, ok := b.states[v]
	if !ok || st.Next == nil {
		panic(fmt.Sprintf("ir: no next-state function for %s", v.Name))
	}
	return st.Next
}

// Constrain adds an environment assumption.
func (b *Builder) Constrain(f *Node) {
	b.model.Decls = append(b.model.Decls, &Constraint{Expr: f})
}

// Good appends one property conjunct.
func (b *Builder) Good(f *Node) {
	b.model.Decls = append(b.model.Decls, &Good{Expr: f})
}

// Goal sets the monolithic property (at most once; Validate enforces).
func (b *Builder) Goal(f *Node) {
	b.model.Decls = append(b.model.Decls, &Goal{Expr: f})
}

// Dep declares a functional dependency for a state bit.
func (b *Builder) Dep(v *Node, def *Node) {
	if _, ok := b.states[v]; !ok {
		panic(fmt.Sprintf("ir: Dep of non-state node %s", v.Name))
	}
	b.model.Decls = append(b.model.Decls, &Dep{Name: v.Name, Def: def})
}

// Build validates and returns the model. It panics on validation
// failure: builder misuse is a bug in the calling constructor, like a
// model constructor's panic on a bad config.
func (b *Builder) Build() *Model {
	mo := b.model
	if err := mo.Validate(); err != nil {
		panic(err)
	}
	return &mo
}
