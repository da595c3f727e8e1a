package objectlog

import (
	"testing"

	"partdiff/internal/types"
)

func TestSimplifyEqConstantSubstitution(t *testing.T) {
	// h(X) ← q(X,Y) ∧ Y = 5  ⇒  h(X) ← q(X,5)
	c := NewClause(Lit("h", V("X")),
		Lit("q", V("X"), V("Y")),
		Lit(BuiltinEQ, V("Y"), CInt(5)))
	s, ok := Simplify(c)
	if !ok {
		t.Fatal("statically empty?")
	}
	if s.String() != "h(X) ← q(X,5)" {
		t.Errorf("got %s", s)
	}
	// Constant on the left works too.
	c2 := NewClause(Lit("h", V("X")),
		Lit("q", V("X"), V("Y")),
		Lit(BuiltinEQ, CInt(5), V("Y")))
	s2, _ := Simplify(c2)
	if s2.String() != "h(X) ← q(X,5)" {
		t.Errorf("got %s", s2)
	}
}

func TestSimplifyEqVariableAliasing(t *testing.T) {
	// h(Y) ← q(X) ∧ Y = X  ⇒  h(X) ← q(X)
	c := NewClause(Lit("h", V("Y")),
		Lit("q", V("X")),
		Lit(BuiltinEQ, V("X"), V("Y")))
	s, ok := Simplify(c)
	if !ok || len(s.Body) != 1 {
		t.Fatalf("got %s", s)
	}
	if !s.Head.Args[0].Equal(s.Body[0].Args[0]) {
		t.Errorf("aliasing lost: %s", s)
	}
	// eq(X,X) is just dropped.
	c2 := NewClause(Lit("h", V("X")), Lit("q", V("X")), Lit(BuiltinEQ, V("X"), V("X")))
	s2, ok := Simplify(c2)
	if !ok || len(s2.Body) != 1 {
		t.Errorf("got %s", s2)
	}
}

func TestSimplifyConstantArithmetic(t *testing.T) {
	// h(T) ← q(X) ∧ T = 2 * 3 ∧ X < T  ⇒  h(6) ← q(X) ∧ X < 6
	c := NewClause(Lit("h", V("T")),
		Lit("q", V("X")),
		Lit(BuiltinTimes, CInt(2), CInt(3), V("T")),
		Lit(BuiltinLT, V("X"), V("T")))
	s, ok := Simplify(c)
	if !ok {
		t.Fatal("empty?")
	}
	if s.String() != "h(6) ← q(X) ∧ X < 6" {
		t.Errorf("got %s", s)
	}
	// Chained folding: A = 1+1, B = A*3 folds completely.
	c2 := NewClause(Lit("h", V("B")),
		Lit(BuiltinPlus, CInt(1), CInt(1), V("A")),
		Lit(BuiltinTimes, V("A"), CInt(3), V("B")))
	s2, ok := Simplify(c2)
	if !ok || len(s2.Body) != 0 || !s2.Head.Args[0].Const.Equal(types.Int(6)) {
		t.Errorf("got %s", s2)
	}
}

func TestSimplifyDecidesConstantComparisons(t *testing.T) {
	// True comparison disappears.
	c := NewClause(Lit("h", V("X")), Lit("q", V("X")), Lit(BuiltinLT, CInt(1), CInt(2)))
	s, ok := Simplify(c)
	if !ok || len(s.Body) != 1 {
		t.Errorf("got %s ok=%v", s, ok)
	}
	// False comparison empties the clause.
	c2 := NewClause(Lit("h", V("X")), Lit("q", V("X")), Lit(BuiltinGE, CInt(1), CInt(2)))
	if _, ok := Simplify(c2); ok {
		t.Error("statically false clause survived")
	}
	// Constant eq mismatch empties.
	c3 := NewClause(Lit("h", V("X")), Lit("q", V("X")), Lit(BuiltinEQ, CInt(1), CInt(2)))
	if _, ok := Simplify(c3); ok {
		t.Error("1=2 survived")
	}
	// Constant arithmetic mismatch empties.
	c4 := NewClause(Lit("h", V("X")), Lit("q", V("X")),
		Lit(BuiltinPlus, CInt(1), CInt(1), CInt(3)))
	if _, ok := Simplify(c4); ok {
		t.Error("1+1=3 survived")
	}
	// Constant division by zero empties.
	c5 := NewClause(Lit("h", V("X")), Lit("q", V("X")),
		Lit(BuiltinDiv, CInt(1), CInt(0), V("R")))
	if _, ok := Simplify(c5); ok {
		t.Error("1/0 survived")
	}
}

func TestSimplifySubstitutesIntoNegationAndHead(t *testing.T) {
	// h(Y) ← q(X) ∧ Y = 7 ∧ ¬r(Y)  ⇒  h(7) ← q(X) ∧ ¬r(7)
	c := NewClause(Lit("h", V("Y")),
		Lit("q", V("X")),
		Lit(BuiltinEQ, V("Y"), CInt(7)),
		NotLit("r", V("Y")))
	s, ok := Simplify(c)
	if !ok {
		t.Fatal("empty?")
	}
	if s.String() != "h(7) ← q(X) ∧ ¬r(7)" {
		t.Errorf("got %s", s)
	}
}

func TestSimplifyLeavesDynamicLiteralsAlone(t *testing.T) {
	c := NewClause(Lit("h", V("X"), V("T")),
		Lit("q", V("X"), V("A")),
		Lit(BuiltinPlus, V("A"), CInt(1), V("T")),
		Lit(BuiltinLT, V("A"), V("T")))
	s, ok := Simplify(c)
	if !ok || len(s.Body) != 3 {
		t.Errorf("over-simplified: %s", s)
	}
	if s.String() != c.String() {
		t.Errorf("changed: %s vs %s", s, c)
	}
}

func TestSimplifyDoesNotMutateInput(t *testing.T) {
	c := NewClause(Lit("h", V("X")),
		Lit("q", V("X"), V("Y")),
		Lit(BuiltinEQ, V("Y"), CInt(5)))
	before := c.String()
	Simplify(c)
	if c.String() != before {
		t.Error("Simplify mutated its input")
	}
}

func TestSimplifyDef(t *testing.T) {
	d := &Def{Name: "v", Arity: 1, Clauses: []Clause{
		NewClause(Lit("v", V("X")), Lit("q", V("X")), Lit(BuiltinLT, CInt(1), CInt(2))),
		NewClause(Lit("v", V("X")), Lit("q", V("X")), Lit(BuiltinLT, CInt(2), CInt(1))),
	}}
	out := SimplifyDef(d)
	if len(out.Clauses) != 1 {
		t.Errorf("SimplifyDef kept %d clauses", len(out.Clauses))
	}
	if out.Name != "v" || out.Arity != 1 {
		t.Error("metadata lost")
	}
	// Aggregate metadata survives.
	d2 := &Def{Name: "a", Arity: 2, Aggregate: AggSum, GroupCols: 1, Clauses: d.Clauses}
	out2 := SimplifyDef(d2)
	if out2.Aggregate != AggSum || out2.GroupCols != 1 {
		t.Error("aggregate metadata lost")
	}
}

func TestSimplifyExpansionResidue(t *testing.T) {
	// The typical residue of Expand + specialization:
	// cnd(I) ← type:item(I) ∧ I = #1-as-int ∧ quantity(I,Q) ∧ Q < 140
	c := NewClause(Lit("cnd", V("I")),
		Lit("type:item", V("I")),
		Lit(BuiltinEQ, V("I"), CInt(1)),
		Lit("quantity", V("I"), V("Q")),
		Lit(BuiltinLT, V("Q"), CInt(140)))
	s, ok := Simplify(c)
	if !ok {
		t.Fatal("empty?")
	}
	if s.String() != "cnd(1) ← type:item(1) ∧ quantity(1,Q) ∧ Q < 140" {
		t.Errorf("got %s", s)
	}
}

func TestStaticallyEmpty(t *testing.T) {
	// sv constrains its second column to 3.
	prog := NewProgram()
	if err := prog.Define(&Def{Name: "sv", Arity: 2, Clauses: []Clause{
		NewClause(Lit("sv", V("I"), V("S")), Lit("status", V("I")), Lit(BuiltinEQ, V("S"), CInt(3))),
	}}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		c    Clause
		prog *Program
		want bool
	}{
		{"dead as written", NewClause(Lit("c", V("I")), Lit("status", V("I")), Lit(BuiltinEQ, CInt(1), CInt(2))), nil, true},
		{"dead across views", NewClause(Lit("c", V("I")), Lit("sv", V("I"), CInt(9))), prog, true},
		{"admitted constant", NewClause(Lit("c", V("I")), Lit("sv", V("I"), CInt(3))), prog, false},
		{"no program, no expansion", NewClause(Lit("c", V("I")), Lit("sv", V("I"), CInt(9))), nil, false},
		{"expansion failure is no proof", NewClause(Lit("c", V("I")), Lit("sv", V("I"))), prog, false},
	} {
		if got := StaticallyEmpty(tc.c, tc.prog); got != tc.want {
			t.Errorf("%s: StaticallyEmpty(%s) = %v, want %v", tc.name, tc.c, got, tc.want)
		}
	}
}
