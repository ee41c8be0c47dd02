package jdl

import (
	"fmt"
	"strconv"
	"strings"
)

// Value is an attribute value: a string, number, boolean, list, or
// unevaluated expression (Requirements/Rank).
type Value interface {
	// JDL renders the value in canonical JDL syntax.
	JDL() string
}

// String is a JDL string literal.
type String string

// JDL renders the string with quoting and escapes.
func (s String) JDL() string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`, "\t", `\t`)
	return `"` + r.Replace(string(s)) + `"`
}

// Number is a JDL numeric literal.
type Number float64

// JDL renders the number in plain decimal notation, without a
// trailing ".0" for integers: the lexer reads no exponents, so 1e19
// prints as 10000000000000000000. The digits are the shortest that
// parse back to the same float64.
func (n Number) JDL() string {
	return strconv.FormatFloat(float64(n), 'f', -1, 64)
}

// Bool is a JDL boolean literal.
type Bool bool

// JDL renders "true" or "false".
func (b Bool) JDL() string {
	if b {
		return "true"
	}
	return "false"
}

// List is a brace-delimited list of values.
type List []Value

// JDL renders the list in {a, b, c} form.
func (l List) JDL() string {
	parts := make([]string, len(l))
	for i, v := range l {
		parts[i] = v.JDL()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Expr is an unevaluated expression value (Requirements, Rank).
type Expr struct{ Node ExprNode }

// JDL renders the expression source.
func (e Expr) JDL() string { return e.Node.String() }

// ExprNode is a node in the Requirements/Rank expression tree.
type ExprNode interface {
	fmt.Stringer
	// Eval evaluates the node against a machine's attribute set.
	// Attribute values may be string, bool, or any integer/float type.
	Eval(attrs map[string]any) (any, error)
}

// EvalError describes an expression evaluation failure.
type EvalError struct{ Msg string }

func (e *EvalError) Error() string { return "jdl: eval: " + e.Msg }

func evalErrf(format string, args ...any) error {
	return &EvalError{Msg: fmt.Sprintf(format, args...)}
}

// Lit is a literal operand.
type Lit struct{ V Value }

func (l Lit) String() string { return l.V.JDL() }

// Eval returns the Go value of the literal.
func (l Lit) Eval(map[string]any) (any, error) {
	switch v := l.V.(type) {
	case String:
		return string(v), nil
	case Number:
		return float64(v), nil
	case Bool:
		return bool(v), nil
	}
	return nil, evalErrf("literal %s not usable in expression", l.V.JDL())
}

// Ref references a machine attribute, written other.Name (classad
// convention for "the candidate resource's attribute") or bare Name.
type Ref struct {
	Scoped bool // written with the other. prefix
	Name   string
}

func (r Ref) String() string {
	if r.Scoped {
		return "other." + r.Name
	}
	return r.Name
}

// Eval looks the attribute up case-insensitively.
func (r Ref) Eval(attrs map[string]any) (any, error) {
	if v, ok := attrs[r.Name]; ok {
		return normalize(v)
	}
	for k, v := range attrs {
		if strings.EqualFold(k, r.Name) {
			return normalize(v)
		}
	}
	return nil, evalErrf("undefined attribute %q", r.Name)
}

func normalize(v any) (any, error) {
	switch x := v.(type) {
	case string:
		return x, nil
	case bool:
		return x, nil
	case float64:
		return x, nil
	case float32:
		return float64(x), nil
	case int:
		return float64(x), nil
	case int32:
		return float64(x), nil
	case int64:
		return float64(x), nil
	case uint:
		return float64(x), nil
	case uint64:
		return float64(x), nil
	}
	return nil, evalErrf("attribute value %v has unsupported type %T", v, v)
}

// Not is logical negation.
type Not struct{ X ExprNode }

func (n Not) String() string { return "!" + parenthesize(n.X, 6) }

// Eval evaluates the operand and negates it.
func (n Not) Eval(attrs map[string]any) (any, error) {
	v, err := n.X.Eval(attrs)
	if err != nil {
		return nil, err
	}
	b, ok := v.(bool)
	if !ok {
		return nil, evalErrf("! applied to non-boolean %v", v)
	}
	return !b, nil
}

// Binary is a binary operator node. Op is one of == != < <= > >= &&
// || + - * /.
type Binary struct {
	Op   string
	L, R ExprNode
}

// precedence returns the operator's binding strength (higher binds
// tighter); non-binary nodes are atoms.
func precedence(op string) int {
	switch op {
	case "||":
		return 1
	case "&&":
		return 2
	case "==", "!=", "<", "<=", ">", ">=":
		return 3
	case "+", "-":
		return 4
	case "*", "/":
		return 5
	}
	return 0
}

func (b Binary) String() string {
	p := precedence(b.Op)
	// Operators parse left-associatively, so a right operand at equal
	// precedence keeps its parentheses: a - (b - c), and a + (b + c),
	// whose float rounding differs from (a + b) + c. Comparisons do not
	// chain, so a comparison operand needs them on the left too:
	// (a < b) == c.
	leftMin, rightMin := p, p+1
	if p == precedence("==") {
		leftMin = p + 1
	}
	return parenthesize(b.L, leftMin) + " " + b.Op + " " + parenthesize(b.R, rightMin)
}

// parenthesize renders n, wrapping binary children that bind more
// loosely than the parent requires.
func parenthesize(n ExprNode, minPrec int) string {
	if bn, ok := n.(Binary); ok && precedence(bn.Op) < minPrec {
		return "(" + bn.String() + ")"
	}
	return n.String()
}

// Eval evaluates the operator with short-circuiting for && and ||.
func (b Binary) Eval(attrs map[string]any) (any, error) {
	if b.Op == "&&" || b.Op == "||" {
		lv, err := b.L.Eval(attrs)
		if err != nil {
			return nil, err
		}
		lb, ok := lv.(bool)
		if !ok {
			return nil, evalErrf("%s applied to non-boolean %v", b.Op, lv)
		}
		if b.Op == "&&" && !lb {
			return false, nil
		}
		if b.Op == "||" && lb {
			return true, nil
		}
		rv, err := b.R.Eval(attrs)
		if err != nil {
			return nil, err
		}
		rb, ok := rv.(bool)
		if !ok {
			return nil, evalErrf("%s applied to non-boolean %v", b.Op, rv)
		}
		return rb, nil
	}

	lv, err := b.L.Eval(attrs)
	if err != nil {
		return nil, err
	}
	rv, err := b.R.Eval(attrs)
	if err != nil {
		return nil, err
	}
	switch b.Op {
	case "+", "-", "*", "/":
		return arith(b.Op, lv, rv)
	}
	cb, err := compareBool(b.Op, lv, rv)
	if err != nil {
		return nil, err
	}
	return cb, nil
}

// arith evaluates numeric operators; "+" also concatenates strings
// (classad convention).
func arith(op string, lv, rv any) (any, error) {
	if ls, ok := lv.(string); ok && op == "+" {
		rs, ok := rv.(string)
		if !ok {
			return nil, evalErrf("cannot concatenate string with %T", rv)
		}
		return ls + rs, nil
	}
	l, ok := lv.(float64)
	if !ok {
		return nil, evalErrf("operator %s needs numbers, got %T", op, lv)
	}
	r, ok := rv.(float64)
	if !ok {
		return nil, evalErrf("operator %s needs numbers, got %T", op, rv)
	}
	switch op {
	case "+":
		return l + r, nil
	case "-":
		return l - r, nil
	case "*":
		return l * r, nil
	case "/":
		if r == 0 {
			return nil, evalErrf("division by zero")
		}
		return l / r, nil
	}
	return nil, evalErrf("unknown operator %s", op)
}

// compareBool evaluates a comparison operator. Returning an unboxed
// bool lets the compiled path (compile.go) chain comparisons into
// logical connectives without interface boxing.
func compareBool(op string, lv, rv any) (bool, error) {
	switch l := lv.(type) {
	case float64:
		r, ok := rv.(float64)
		if !ok {
			return false, evalErrf("cannot compare number with %T", rv)
		}
		switch op {
		case "==":
			return l == r, nil
		case "!=":
			return l != r, nil
		case "<":
			return l < r, nil
		case "<=":
			return l <= r, nil
		case ">":
			return l > r, nil
		case ">=":
			return l >= r, nil
		}
	case string:
		r, ok := rv.(string)
		if !ok {
			return false, evalErrf("cannot compare string with %T", rv)
		}
		switch op {
		case "==":
			return strings.EqualFold(l, r), nil
		case "!=":
			return !strings.EqualFold(l, r), nil
		case "<":
			return l < r, nil
		case "<=":
			return l <= r, nil
		case ">":
			return l > r, nil
		case ">=":
			return l >= r, nil
		}
	case bool:
		r, ok := rv.(bool)
		if !ok {
			return false, evalErrf("cannot compare boolean with %T", rv)
		}
		switch op {
		case "==":
			return l == r, nil
		case "!=":
			return l != r, nil
		}
		return false, evalErrf("operator %s not defined on booleans", op)
	}
	return false, evalErrf("unsupported operand type %T", lv)
}

// EvalBool evaluates a Requirements-style expression to a boolean.
func (e Expr) EvalBool(attrs map[string]any) (bool, error) {
	v, err := e.Node.Eval(attrs)
	if err != nil {
		return false, err
	}
	b, ok := v.(bool)
	if !ok {
		return false, evalErrf("expression yields %T, want boolean", v)
	}
	return b, nil
}

// EvalNumber evaluates a Rank-style expression to a number. Boolean
// results are promoted to 1/0 (classad convention).
func (e Expr) EvalNumber(attrs map[string]any) (float64, error) {
	v, err := e.Node.Eval(attrs)
	if err != nil {
		return 0, err
	}
	switch x := v.(type) {
	case float64:
		return x, nil
	case bool:
		if x {
			return 1, nil
		}
		return 0, nil
	}
	return 0, evalErrf("expression yields %T, want number", v)
}
