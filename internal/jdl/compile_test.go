package jdl

import (
	"math"
	"sort"
	"strings"
	"testing"
)

// sliceResolver lays a fixed attribute set out as a flat slice, like
// infosys.Schema does, for compiling against plain maps in tests.
type sliceResolver struct {
	index map[string]int
}

func (r *sliceResolver) Offset(name string) (int, bool) {
	i, ok := r.index[strings.ToLower(name)]
	return i, ok
}

// flatten builds a resolver plus value slice over attrs, in sorted
// name order.
func flatten(attrs map[string]any) (*sliceResolver, []any) {
	names := make([]string, 0, len(attrs))
	for k := range attrs {
		names = append(names, k)
	}
	sort.Strings(names)
	r := &sliceResolver{index: make(map[string]int, len(names))}
	vals := make([]any, len(names))
	for i, n := range names {
		r.index[strings.ToLower(n)] = i
		vals[i] = attrs[n]
	}
	return r, vals
}

// interpreterCases are expressions both evaluation paths must agree
// on; they also seed FuzzCompiledMatchesAST.
var interpreterCases = []struct {
	expr string
	num  bool // evaluate as Rank (number) instead of Requirements (bool)
}{
	{expr: `other.Arch == "i686"`},
	{expr: `other.arch == "I686"`}, // case-insensitive names and strings
	{expr: `other.Arch == "x86_64"`},
	{expr: `other.MemoryMB >= 256 && other.OS == "linux"`},
	{expr: `other.MemoryMB < 256 || other.HasMPI`},
	{expr: `!other.HasMPI`},
	{expr: `!(other.FreeCPUs > 0 && other.QueuedJobs == 0)`},
	{expr: `other.FreeCPUs * 2 >= other.TotalCPUs`},
	{expr: `other.Load + 0.5 == 2`},
	{expr: `other.Site + "-cluster" == "uab-cluster"`}, // string concat stays generic
	{expr: `other.Missing == 1`},                       // undefined attribute -> error
	{expr: `other.Arch > 5`},                           // type mismatch -> error
	{expr: `other.HasMPI && other.Load`},               // non-boolean operand -> error
	{expr: `other.FreeCPUs - other.QueuedJobs / 2`, num: true},
	{expr: `(other.TotalCPUs - other.FreeCPUs) * other.Load`, num: true},
	{expr: `other.FreeCPUs / (other.TotalCPUs - 4)`, num: true}, // division by zero -> error
	{expr: `other.MemoryMB / 0.5`, num: true},
	{expr: `other.Load + other.FreeCPUs`, num: true}, // "+" on the generic path
	{expr: `other.HasMPI`, num: true},                // bool promotes to 1/0
	{expr: `other.Missing * 3`, num: true},           // undefined attribute -> error
	{expr: `other.Site * 2`, num: true},              // type mismatch -> error
}

// TestCompiledMatchesInterpreter runs a table of expressions through
// both evaluation paths and requires identical results — including
// identical error-ness — so the compiled fast path can never diverge
// from the JDL semantics the interpreter defines.
func TestCompiledMatchesInterpreter(t *testing.T) {
	attrs := map[string]any{
		"Arch": "i686", "OS": "linux", "MemoryMB": 512,
		"FreeCPUs": 3, "TotalCPUs": 4, "QueuedJobs": 2,
		"HasMPI": true, "Load": 1.5, "Site": "uab",
	}
	r, vals := flatten(attrs)
	for _, c := range interpreterCases {
		field := "Requirements"
		if c.num {
			field = "Rank"
		}
		j, err := ParseJob(`Executable = "x"; ` + field + ` = ` + c.expr + `;`)
		if err != nil {
			t.Fatalf("parse %q: %v", c.expr, err)
		}
		if c.num {
			want, wantErr := j.Rank.EvalNumber(attrs)
			got, gotErr := Compile(j.Rank, r).EvalNumber(vals)
			if (wantErr != nil) != (gotErr != nil) {
				t.Errorf("%s: interpreter err=%v, compiled err=%v", c.expr, wantErr, gotErr)
			} else if wantErr == nil && got != want {
				t.Errorf("%s: interpreter %v, compiled %v", c.expr, want, got)
			}
		} else {
			want, wantErr := j.Requirements.EvalBool(attrs)
			got, gotErr := Compile(j.Requirements, r).EvalBool(vals)
			if (wantErr != nil) != (gotErr != nil) {
				t.Errorf("%s: interpreter err=%v, compiled err=%v", c.expr, wantErr, gotErr)
			} else if wantErr == nil && got != want {
				t.Errorf("%s: interpreter %v, compiled %v", c.expr, want, got)
			}
		}
	}
}

// fuzzAttrNames are the attributes FuzzCompiledMatchesAST fills; the
// seed expressions reference them.
var fuzzAttrNames = []string{"Arch", "OS", "MemoryMB", "FreeCPUs", "TotalCPUs", "QueuedJobs", "HasMPI", "Load", "Site"}

// fuzzAttrs builds the attribute set for FuzzCompiledMatchesAST: three
// bits of layout per attribute pick its Go type (and so whether an
// expression meets a type mismatch or a missing value), drawn from
// the fuzzed s, x, n and b.
func fuzzAttrs(layout uint64, s string, x float64, n int64, b bool) map[string]any {
	kinds := []any{s, x, int(n), b, nil, float32(x), uint64(n), int64(n)}
	attrs := make(map[string]any, len(fuzzAttrNames))
	for i, name := range fuzzAttrNames {
		attrs[name] = kinds[(layout>>(3*i))&7]
	}
	return attrs
}

// parseExprNode parses one expression without the constant folding
// Parse applies to attribute values, so literal-only trees reach both
// evaluators too.
func parseExprNode(src string) (ExprNode, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	n, err := p.orExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errf("trailing %v %q", p.tok.kind, p.tok.text)
	}
	return n, nil
}

// FuzzCompiledMatchesAST is the differential check behind the compiled
// fast path: for any expression and attribute vector, Compiled's
// EvalBool and EvalNumber give the interpreter's value and the same
// error-ness.
func FuzzCompiledMatchesAST(f *testing.F) {
	// The layout of TestCompiledMatchesInterpreter's attributes: string,
	// string, int, int, int, int, bool, float64, string.
	const tableLayout = 0 | 0<<3 | 2<<6 | 2<<9 | 2<<12 | 2<<15 | 3<<18 | 1<<21 | 0<<24
	for _, c := range interpreterCases {
		f.Add(c.expr, uint64(tableLayout), "i686", 1.5, int64(4), true)
	}
	f.Fuzz(func(t *testing.T, src string, layout uint64, s string, x float64, n int64, b bool) {
		node, err := parseExprNode(src)
		if err != nil {
			return
		}
		attrs := fuzzAttrs(layout, s, x, n, b)
		r, vals := flatten(attrs)
		e := Expr{Node: node}
		c := Compile(&e, r)

		wantB, wantErr := e.EvalBool(attrs)
		gotB, gotErr := c.EvalBool(vals)
		if (wantErr != nil) != (gotErr != nil) || (wantErr == nil && gotB != wantB) {
			t.Fatalf("EvalBool(%s) over %v: interpreter %v, %v; compiled %v, %v", src, attrs, wantB, wantErr, gotB, gotErr)
		}
		wantN, wantErr := e.EvalNumber(attrs)
		gotN, gotErr := c.EvalNumber(vals)
		same := gotN == wantN || (math.IsNaN(gotN) && math.IsNaN(wantN))
		if (wantErr != nil) != (gotErr != nil) || (wantErr == nil && !same) {
			t.Fatalf("EvalNumber(%s) over %v: interpreter %v, %v; compiled %v, %v", src, attrs, wantN, wantErr, gotN, gotErr)
		}
	})
}

func TestCompileNilExpression(t *testing.T) {
	if Compile(nil, &sliceResolver{}) != nil {
		t.Fatal("nil expression should compile to nil")
	}
}

func TestCompiledShortCircuit(t *testing.T) {
	// The right operand errors, but the left decides: && false, || true.
	attrs := map[string]any{"A": false, "B": true, "Bad": "str"}
	r, vals := flatten(attrs)
	for _, c := range []struct {
		expr string
		want bool
	}{
		{`other.A && (other.Bad > 1)`, false},
		{`other.B || (other.Bad > 1)`, true},
	} {
		j, err := ParseJob(`Executable = "x"; Requirements = ` + c.expr + `;`)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Compile(j.Requirements, r).EvalBool(vals)
		if err != nil || got != c.want {
			t.Errorf("%s = %v, %v; want %v, nil", c.expr, got, err, c.want)
		}
	}
}

// TestCompiledPredicatesCache verifies the per-job cache: the same
// resolver returns the same programs without recompiling, and a new
// resolver (a schema change) triggers recompilation.
func TestCompiledPredicatesCache(t *testing.T) {
	j, err := ParseJob(`Executable = "x";
Requirements = other.Arch == "i686";
Rank = other.FreeCPUs;`)
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := flatten(map[string]any{"Arch": "i686", "FreeCPUs": 3})
	req1, rank1 := j.CompiledPredicates(r1)
	req2, rank2 := j.CompiledPredicates(r1)
	if req1 != req2 || rank1 != rank2 {
		t.Fatal("same resolver should return cached programs")
	}
	r2, _ := flatten(map[string]any{"Arch": "i686", "FreeCPUs": 3, "New": 1})
	req3, _ := j.CompiledPredicates(r2)
	if req3 == req1 {
		t.Fatal("new resolver should recompile")
	}
}

var benchAttrs = map[string]any{
	"Arch": "i686", "OS": "linux", "MemoryMB": 512.0,
	"FreeCPUs": 3.0, "TotalCPUs": 4.0, "QueuedJobs": 2.0,
}

func benchPredicates(b *testing.B) *Job {
	b.Helper()
	j, err := ParseJob(`Executable = "x";
Requirements = other.Arch == "i686" && other.MemoryMB >= 256;
Rank = other.FreeCPUs - other.QueuedJobs / 2;`)
	if err != nil {
		b.Fatal(err)
	}
	return j
}

func BenchmarkCompiledEval(b *testing.B) {
	j := benchPredicates(b)
	r, vals := flatten(benchAttrs)
	req, rank := j.CompiledPredicates(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, err := req.EvalBool(vals); err != nil || !ok {
			b.Fatal(ok, err)
		}
		if _, err := rank.EvalNumber(vals); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkASTEval(b *testing.B) {
	j := benchPredicates(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, err := j.Requirements.EvalBool(benchAttrs); err != nil || !ok {
			b.Fatal(ok, err)
		}
		if _, err := j.Rank.EvalNumber(benchAttrs); err != nil {
			b.Fatal(err)
		}
	}
}
