package propnet

import (
	"strings"
	"testing"

	"partdiff/internal/diff"
	"partdiff/internal/maint"
	"partdiff/internal/objectlog"
	"partdiff/internal/storage"
)

// deadPQRDef is the §4.3 view p with two extra disjuncts that can never
// hold: clause 1 joins the shared view sv on a constant sv's body
// contradicts (OL302), clause 2 is contradictory as written (OL201).
func deadPQRDef() *objectlog.Def {
	V, C, lit := objectlog.V, objectlog.CInt, objectlog.Lit
	d := pqrDef()
	d.Clauses = append(d.Clauses,
		objectlog.NewClause(lit("p", V("X"), V("Z")), lit("q", V("X"), V("Z")), lit("sv", V("X"), C(9))),
		objectlog.NewClause(lit("p", V("X"), V("Z")), lit("r", V("X"), V("Z")), lit(objectlog.BuiltinEQ, C(1), C(2))))
	return d
}

// buildDeadPQR builds a network over st for view p, with sv(I, S) ←
// status(I) ∧ S = 3 defined in the program so expansion can see it.
func buildDeadPQR(t *testing.T, st *storage.Store, p *objectlog.Def, mnt *maint.Maintainer) *Network {
	t.Helper()
	V, C, lit := objectlog.V, objectlog.CInt, objectlog.Lit
	prog := objectlog.NewProgram()
	if err := prog.Define(&objectlog.Def{Name: "sv", Arity: 2, Clauses: []objectlog.Clause{
		objectlog.NewClause(lit("sv", V("I"), V("S")), lit("status", V("I")), lit(objectlog.BuiltinEQ, V("S"), C(3))),
	}}); err != nil {
		t.Fatal(err)
	}
	n := New(st, prog, diff.DefaultOptions())
	n.SetMaintainer(mnt)
	if err := n.AddView(p, true); err != nil {
		t.Fatal(err)
	}
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	return n
}

func deadPQRStore() *storage.Store {
	st := storage.NewStore()
	st.CreateRelation("q", 2, nil)
	st.CreateRelation("r", 2, nil)
	st.CreateRelation("status", 1, nil)
	st.Insert("q", tup(1, 1))
	st.Insert("r", tup(1, 2))
	st.Insert("status", tup(1))
	return st
}

// TestBuildDropsDeadDisjuncts checks that a statically empty disjunct
// compiles no differentials, standard or counting, while its edges stay
// so the stratification is unchanged.
func TestBuildDropsDeadDisjuncts(t *testing.T) {
	cfg := maint.DefaultConfig()
	cfg.Hybrid = false
	for name, mnt := range map[string]*maint.Maintainer{"standard": nil, "counting": maint.New(cfg)} {
		n := buildDeadPQR(t, deadPQRStore(), deadPQRDef(), mnt)
		p, _ := n.Node("p")
		var diffs, counting int
		influents := map[string]bool{}
		for _, e := range p.in {
			influents[e.From.Pred] = true
			for _, d := range append(append([]diff.Differential(nil), e.Diffs...), e.CountDiffs...) {
				if d.Disjunct != 0 {
					t.Errorf("%s: dead disjunct %d compiled %s", name, d.Disjunct, d.Name())
				}
			}
			diffs += len(e.Diffs)
			counting += len(e.CountDiffs)
		}
		// Clause 0 has two occurrences × two signs.
		if diffs != 4 {
			t.Errorf("%s: %d differentials into p, want 4", name, diffs)
		}
		if wantCounting := map[string]int{"standard": 0, "counting": 4}[name]; counting != wantCounting {
			t.Errorf("%s: %d counting differentials into p, want %d", name, counting, wantCounting)
		}
		if !influents["q"] || !influents["r"] || !influents["sv"] {
			t.Errorf("%s: p lost an influent edge: %v", name, influents)
		}
		if strings.Contains(n.Dot(), "Δp/Δ+sv") {
			t.Errorf("%s: Dot renders a dead differential:\n%s", name, n.Dot())
		}
	}
}

// TestDeadDisjunctEquivalence runs the same changes through p with and
// without its dead disjuncts: the Δ-sets agree and so does the work.
func TestDeadDisjunctEquivalence(t *testing.T) {
	st := deadPQRStore()
	dead := buildDeadPQR(t, st, deadPQRDef(), nil)
	plain := buildDeadPQR(t, st, pqrDef(), nil)
	both := func(insert bool, rel string, vs ...int64) {
		tp := tup(vs...)
		var changed bool
		if insert {
			changed, _ = st.Insert(rel, tp)
		} else {
			changed, _ = st.Delete(rel, tp)
		}
		if !changed {
			t.Fatalf("mutation %v %s%v had no effect", insert, rel, vs)
		}
		for _, n := range []*Network{dead, plain} {
			d := n.BaseDelta(rel)
			if insert {
				d.Insert(tp)
			} else {
				d.Delete(tp)
			}
		}
	}
	both(true, "q", 2, 1)
	both(true, "r", 1, 3)
	both(false, "q", 1, 1)

	resD, err := dead.Propagate()
	if err != nil {
		t.Fatal(err)
	}
	resP, err := plain.Propagate()
	if err != nil {
		t.Fatal(err)
	}
	dd, dp := resD["p"], resP["p"]
	if dd == nil || dp == nil {
		t.Fatal("missing Δp")
	}
	if !dd.Plus().Equal(dp.Plus()) || !dd.Minus().Equal(dp.Minus()) {
		t.Fatalf("Δp with dead disjuncts = <%s, %s>, without <%s, %s>",
			dd.Plus(), dd.Minus(), dp.Plus(), dp.Minus())
	}
	if dead.Executed() != plain.Executed() {
		t.Errorf("executed %d differentials with dead disjuncts, %d without", dead.Executed(), plain.Executed())
	}
}

// buildDeclared builds the §4.3 network over a store where r carries a
// declared capability. Capabilities no longer shape the network: every
// differential of p compiles.
func buildDeclared(t *testing.T, rCap storage.Capability) (*storage.Store, *Network) {
	t.Helper()
	st := storage.NewStore()
	st.CreateRelation("q", 2, nil)
	st.CreateRelation("r", 2, nil)
	st.Insert("q", tup(1, 1))
	st.Insert("r", tup(1, 2))
	if err := st.DeclareCapability("r", rCap); err != nil {
		t.Fatal(err)
	}
	n := New(st, objectlog.NewProgram(), diff.DefaultOptions())
	if err := n.AddView(pqrDef(), true); err != nil {
		t.Fatal(err)
	}
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	return st, n
}

// TestStaticPruningDropsImpossibleTriggers checks that a trigger made
// impossible by a declared capability costs nothing at run time without
// any pruning: with r append-only the Δ−r differential still compiles,
// but the store rejects every delete on r, so Δ−r stays empty and the
// differential never runs. The drop that saves work, dead disjuncts, is
// checked by TestBuildDropsDeadDisjuncts.
func TestStaticPruningDropsImpossibleTriggers(t *testing.T) {
	st, n := buildDeclared(t, storage.CapInserts)
	p, _ := n.Node("p")
	var diffs int
	for _, e := range p.in {
		diffs += len(e.Diffs)
	}
	// Two occurrences × two signs, Δ−r included.
	if diffs != 4 {
		t.Fatalf("%d differentials into p, want 4", diffs)
	}
	if _, err := st.Delete("r", tup(1, 2)); err == nil {
		t.Fatal("delete on append-only r was accepted")
	}
	apply(t, st, n, true, "q", tup(2, 1))
	apply(t, st, n, true, "r", tup(1, 3))
	apply(t, st, n, false, "q", tup(1, 1))
	res, err := n.Propagate()
	if err != nil {
		t.Fatal(err)
	}
	if res["p"] == nil {
		t.Fatal("missing Δp")
	}
	var liveR bool
	for _, e := range n.Trace() {
		if e.Influent == "r" && e.TriggerSign == objectlog.DeltaMinus {
			t.Errorf("impossible trigger ran: %+v", e)
		}
		if e.Influent == "r" && e.TriggerSign == objectlog.DeltaPlus {
			liveR = true
		}
	}
	if !liveR {
		t.Errorf("Δ+r differential did not run: %+v", n.Trace())
	}
}

// TestStaticPruningDotRendering checks that Dot and DotHeat render a
// frozen influent's differentials like any other — no dashed rows, no
// OL codes — and leave out only the differentials of dead disjuncts.
func TestStaticPruningDotRendering(t *testing.T) {
	_, frozen := buildDeclared(t, storage.CapFrozen)
	dead := buildDeadPQR(t, deadPQRStore(), deadPQRDef(), nil)
	for name, out := range map[string]string{"Dot": frozen.Dot(), "DotHeat": frozen.DotHeat()} {
		if strings.Contains(out, "style=dashed") || strings.Contains(out, "OL3") {
			t.Errorf("%s renders a pruned row:\n%s", name, out)
		}
		for _, want := range []string{"Δp/Δ+q", "Δp/Δ+r", "Δp/Δ-r", "nr -> np"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s output missing %q:\n%s", name, want, out)
			}
		}
	}
	for name, out := range map[string]string{"Dot": dead.Dot(), "DotHeat": dead.DotHeat()} {
		if strings.Contains(out, "Δp/Δ+sv") || strings.Contains(out, "Δp/Δ-sv") {
			t.Errorf("%s renders a dead differential:\n%s", name, out)
		}
		if !strings.Contains(out, "nsv -> np") {
			t.Errorf("%s lost the sv→p edge:\n%s", name, out)
		}
	}
}
