// Package lang provides a small textual model language so the verifier
// can be driven without writing Go — the kind of front end the paper's
// Ever verifier provided. Models are sequences of s-expressions:
//
//	; a comment
//	(input  tick)                       ; primary inputs
//	(state  x :init 0 :next (xor x tick))
//	(state  y :init 0 :next x)
//	(constraint (not tick))             ; optional environment assumption
//	(good (nand x y))                   ; property conjuncts: one form
//	(good ...)                          ; per conjunct = the partition
//
// Variable order is declaration order (interleave by declaring
// interleaved). Boolean operators: and, or, not, xor, xnor, eq, imp,
// ite, nand, nor; constants: true, false. The `good` forms together are
// the implicit conjunction the ICI methods consume. The canonical form
// ir.Format prints adds (param NAME VALUE), (goal EXPR), (dep STATE
// EXPR) and (def NAME EXPR); a def binds a name to a subexpression that
// later expressions share, and must come before its first use.
//
// The text is read straight into the manager-free ir.Model, through the
// IR's folding constructors, so the result is fold-normal. This package
// checks only what the text alone can get wrong: form shapes,
// operators, arities, the def rules, and undeclared names, which
// folding can drop before the IR sees them. ir.Validate decides
// everything else (variable names, duplicates, state bits, properties,
// goals, deps), so a model that ParseModel accepts will instantiate on
// any fresh manager, resource limits aside.
package lang

import (
	"fmt"
	"strings"

	"repro/internal/bdd"
	"repro/internal/ir"
	"repro/internal/verify"
)

// ParseModel reads source text into a validated IR model. The model's
// Name is empty; the caller names it.
func ParseModel(src string) (*ir.Model, error) {
	mo, err := lower(src)
	if err != nil {
		return nil, err
	}
	if err := mo.Validate(); err != nil {
		return nil, err
	}
	return mo, nil
}

// Parse builds the verification problem for source text on the given
// manager. ir.Instantiate validates the model and builds the BDDs, so a
// text model and the equivalent Go-built model produce Ref-identical
// functions on the same manager.
func Parse(m *bdd.Manager, src, name string) (verify.Problem, error) {
	mo, err := lower(src)
	if err != nil {
		return verify.Problem{}, err
	}
	mo.Name = name
	return mo.Instantiate(m)
}

// Canon returns the canonical form of source text: the model is read
// into the fold-normal IR and re-serialized, so comments, layout,
// constant subexpressions, def naming, and the eq/xnor spelling all
// normalize away. Two sources with the same canonical form denote the
// same model bit for bit, and because the IR serializer is shared with
// the Go-built model registry, text submissions and builtin models hash
// to the same content address (the icid result-cache key).
func Canon(src string) (string, error) {
	mo, err := ParseModel(src)
	if err != nil {
		return "", err
	}
	return mo.Format(), nil
}

// ops maps each operator to its argument count (-1 is variadic) and its
// folding IR constructor.
var ops = map[string]struct {
	arity int
	build func(a []*ir.Node) *ir.Node
}{
	"and":  {-1, func(a []*ir.Node) *ir.Node { return ir.And(a...) }},
	"or":   {-1, func(a []*ir.Node) *ir.Node { return ir.Or(a...) }},
	"not":  {1, func(a []*ir.Node) *ir.Node { return ir.Not(a[0]) }},
	"xor":  {2, func(a []*ir.Node) *ir.Node { return ir.Xor(a[0], a[1]) }},
	"xnor": {2, func(a []*ir.Node) *ir.Node { return ir.Xnor(a[0], a[1]) }},
	"eq":   {2, func(a []*ir.Node) *ir.Node { return ir.Xnor(a[0], a[1]) }},
	"imp":  {2, func(a []*ir.Node) *ir.Node { return ir.Imp(a[0], a[1]) }},
	"nand": {2, func(a []*ir.Node) *ir.Node { return ir.Nand(a[0], a[1]) }},
	"nor":  {2, func(a []*ir.Node) *ir.Node { return ir.Nor(a[0], a[1]) }},
	"ite":  {3, func(a []*ir.Node) *ir.Node { return ir.ITE(a[0], a[1], a[2]) }},
}

// lowering carries the name bindings while the forms are read in order.
// A name that is not a def when an expression mentions it is a
// variable, which may be declared after its first use.
type lowering struct {
	vars     map[string]*ir.Node // one shared node per variable name
	refs     []string            // variable names in first-reference order
	defs     map[string]*ir.Node // def name → its shared subgraph
	declared map[string]bool     // input and state names
}

// lower reads the source and lowers it to an IR model without
// validating it.
func lower(src string) (*ir.Model, error) {
	forms, err := read(src)
	if err != nil {
		return nil, err
	}
	l := &lowering{vars: map[string]*ir.Node{}, defs: map[string]*ir.Node{}, declared: map[string]bool{}}
	mo := &ir.Model{}
	for _, f := range forms {
		form, ok := f.([]any)
		if !ok || len(form) == 0 {
			return nil, fmt.Errorf("lang: top-level form must be a list, got %v", f)
		}
		head, ok := form[0].(string)
		if !ok {
			return nil, fmt.Errorf("lang: form head must be a symbol")
		}
		d, err := l.form(head, form)
		if err != nil {
			return nil, err
		}
		if d != nil {
			mo.Decls = append(mo.Decls, d)
		}
	}
	// Folding can drop a reference, as in (or q true), before
	// ir.Validate would see it, so undeclared names are caught here.
	for _, name := range l.refs {
		if !l.declared[name] {
			return nil, fmt.Errorf("lang: undeclared variable %q", name)
		}
	}
	return mo, nil
}

// form lowers one top-level form. A def returns no declaration: its
// subgraph is shared at the use sites.
func (l *lowering) form(head string, form []any) (ir.Decl, error) {
	switch head {
	case "input":
		in := &ir.Input{}
		for _, a := range form[1:] {
			name, ok := a.(string)
			if !ok {
				return nil, fmt.Errorf("lang: input names must be symbols")
			}
			if err := l.declare(name); err != nil {
				return nil, err
			}
			in.Names = append(in.Names, name)
		}
		return in, nil
	case "state":
		if len(form) != 6 {
			return nil, fmt.Errorf("lang: state form is (state NAME :init 0|1 :next EXPR)")
		}
		name, ok := form[1].(string)
		if !ok {
			return nil, fmt.Errorf("lang: state name must be a symbol")
		}
		if form[2] != ":init" {
			return nil, fmt.Errorf("lang: state %q: expected :init", name)
		}
		if form[3] != "0" && form[3] != "1" {
			return nil, fmt.Errorf("lang: state %q: :init must be 0 or 1", name)
		}
		if form[4] != ":next" {
			return nil, fmt.Errorf("lang: state %q: expected :next", name)
		}
		if err := l.declare(name); err != nil {
			return nil, err
		}
		next, err := l.expr(form[5])
		if err != nil {
			return nil, err
		}
		return &ir.State{Name: name, Init: form[3] == "1", Next: next}, nil
	case "constraint", "good", "goal":
		if len(form) != 2 {
			return nil, fmt.Errorf("lang: %s takes one expression", head)
		}
		e, err := l.expr(form[1])
		if err != nil {
			return nil, err
		}
		switch head {
		case "constraint":
			return &ir.Constraint{Expr: e}, nil
		case "good":
			return &ir.Good{Expr: e}, nil
		}
		return &ir.Goal{Expr: e}, nil
	case "param":
		if len(form) != 3 {
			return nil, fmt.Errorf("lang: param form is (param NAME VALUE)")
		}
		name, ok1 := form[1].(string)
		val, ok2 := form[2].(string)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("lang: param name and value must be symbols")
		}
		return &ir.Param{Name: name, Value: val}, nil
	case "def":
		if len(form) != 3 {
			return nil, fmt.Errorf("lang: def form is (def NAME EXPR)")
		}
		name, ok := form[1].(string)
		if !ok {
			return nil, fmt.Errorf("lang: def name must be a symbol")
		}
		switch {
		case name == "true" || name == "false":
			return nil, fmt.Errorf("lang: def cannot rebind constant %q", name)
		case l.declared[name]:
			return nil, fmt.Errorf("lang: duplicate variable %q", name)
		case l.defs[name] != nil:
			return nil, fmt.Errorf("lang: duplicate def %q", name)
		}
		e, err := l.expr(form[2])
		if err != nil {
			return nil, err
		}
		if l.vars[name] != nil {
			return nil, fmt.Errorf("lang: def %q used before its definition", name)
		}
		l.defs[name] = e
		return nil, nil
	case "dep":
		if len(form) != 3 {
			return nil, fmt.Errorf("lang: dep form is (dep STATE EXPR)")
		}
		name, ok := form[1].(string)
		if !ok {
			return nil, fmt.Errorf("lang: dep state name must be a symbol")
		}
		e, err := l.expr(form[2])
		if err != nil {
			return nil, err
		}
		return &ir.Dep{Name: name, Def: e}, nil
	}
	return nil, fmt.Errorf("lang: unknown form %q", head)
}

// declare records an input or state name; defs and variables share one
// namespace.
func (l *lowering) declare(name string) error {
	if l.defs[name] != nil {
		return fmt.Errorf("lang: duplicate variable %q", name)
	}
	l.declared[name] = true
	return nil
}

// expr lowers one expression through the IR's folding constructors.
func (l *lowering) expr(e any) (*ir.Node, error) {
	if s, ok := e.(string); ok {
		switch s {
		case "true", "false":
			return ir.Bool(s == "true"), nil
		}
		if n := l.defs[s]; n != nil {
			return n, nil
		}
		if l.vars[s] == nil {
			l.vars[s] = ir.Var(s)
			l.refs = append(l.refs, s)
		}
		return l.vars[s], nil
	}
	list := e.([]any)
	if len(list) == 0 {
		return nil, fmt.Errorf("lang: empty expression")
	}
	head, ok := list[0].(string)
	if !ok {
		return nil, fmt.Errorf("lang: operator must be a symbol")
	}
	op, known := ops[head]
	if !known {
		return nil, fmt.Errorf("lang: unknown operator %q", head)
	}
	if op.arity >= 0 && len(list)-1 != op.arity {
		return nil, fmt.Errorf("lang: %s takes %d arguments, got %d", head, op.arity, len(list)-1)
	}
	args := make([]*ir.Node, len(list)-1)
	for i, a := range list[1:] {
		n, err := l.expr(a)
		if err != nil {
			return nil, err
		}
		args[i] = n
	}
	return op.build(args), nil
}

// --- s-expression reader -------------------------------------------------

// read tokenizes and parses a whole source file into top-level forms.
// An s-expression is an atom (a string) or a list ([]any).
func read(src string) ([]any, error) {
	toks := tokenize(src)
	var forms []any
	pos := 0
	for pos < len(toks) {
		f, next, err := parseOne(toks, pos)
		if err != nil {
			return nil, err
		}
		forms = append(forms, f)
		pos = next
	}
	return forms, nil
}

func tokenize(src string) []string {
	var toks []string
	for i := 0; i < len(src); {
		c := src[i]
		switch {
		case c == ';': // comment to end of line
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '(' || c == ')':
			toks = append(toks, string(c))
			i++
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		default:
			j := i
			for j < len(src) && !strings.ContainsRune(" \t\n\r();", rune(src[j])) {
				j++
			}
			toks = append(toks, src[i:j])
			i = j
		}
	}
	return toks
}

// parseOne parses the s-expression starting at toks[pos], which exists.
func parseOne(toks []string, pos int) (any, int, error) {
	switch toks[pos] {
	case "(":
		var out []any
		pos++
		for {
			if pos >= len(toks) {
				return nil, pos, fmt.Errorf("lang: unclosed parenthesis")
			}
			if toks[pos] == ")" {
				return out, pos + 1, nil
			}
			elem, next, err := parseOne(toks, pos)
			if err != nil {
				return nil, pos, err
			}
			out = append(out, elem)
			pos = next
		}
	case ")":
		return nil, pos, fmt.Errorf("lang: unexpected ')'")
	}
	return toks[pos], pos + 1, nil
}
