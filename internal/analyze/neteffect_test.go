package analyze

import (
	"strings"
	"testing"

	"partdiff/internal/diff"
	"partdiff/internal/objectlog"
)

// netAnalyzer builds an analyzer over the given views (all defined in
// the program) and runs AnalyzeNet with the given base capabilities.
func netAnalyzer(t *testing.T, caps map[string]Cap, views ...*objectlog.Def) *NetResult {
	t.Helper()
	prog := objectlog.NewProgram()
	for _, d := range views {
		if err := prog.Define(d); err != nil {
			t.Fatal(err)
		}
	}
	a := New(prog, WithRelations(func(name string) (int, bool) {
		switch name {
		case "b", "g", "status":
			return 1, true
		}
		return 0, false
	}))
	baseCap := func(name string) Cap {
		if c, ok := caps[name]; ok {
			return c
		}
		return CapBoth
	}
	return a.AnalyzeNet(views, baseCap, diff.DefaultOptions())
}

func hasCode(rep Report, code string) bool {
	for _, d := range rep {
		if d.Code == code {
			return true
		}
	}
	return false
}

// diagsOf returns the diagnostics of one code.
func diagsOf(rep Report, code string) Report {
	var out Report
	for _, d := range rep {
		if d.Code == code {
			out = append(out, d)
		}
	}
	return out
}

func TestNetCapabilityFixpoint(t *testing.T) {
	V, lit := objectlog.V, objectlog.Lit
	v := def("v", 1, objectlog.NewClause(lit("v", V("X")), lit("b", V("X"))))
	w := def("w", 1, objectlog.NewClause(lit("w", V("X")), lit("g", V("X"))))
	u := def("u", 1, objectlog.NewClause(lit("u", V("X")), lit("v", V("X"))))
	res := netAnalyzer(t, map[string]Cap{"b": CapInsert, "g": CapNone}, v, w, u)
	want := map[string]Cap{"v": CapInsert, "w": CapNone, "u": CapInsert}
	for name, c := range want {
		if got := res.Caps[name]; got != c {
			t.Errorf("cap(%s) = %s, want %s", name, got, c)
		}
	}
}

func TestNetNegatedOccurrenceCrossesSigns(t *testing.T) {
	V, lit, not := objectlog.V, objectlog.Lit, objectlog.NotLit
	// v gains when g loses (trigger Δ−g) and loses when g gains. With g
	// append-only the Δ−g trigger is impossible, so only the Δ+g-
	// triggered (deletion-effect) differential of the ¬g occurrence
	// can run.
	v := def("v", 1, objectlog.NewClause(lit("v", V("X")), lit("b", V("X")), not("g", V("X"))))
	res := netAnalyzer(t, map[string]Cap{"g": CapInsert}, v)
	if got := res.Caps["v"]; got != CapBoth {
		t.Fatalf("cap(v) = %s, want insert+delete (b unrestricted)", got)
	}
	// Occurrence b: both signs live. Occurrence ¬g: Δ−g trigger dead.
	ol301 := diagsOf(res.Report, CodeUnreachableDelta)
	if len(ol301) != 1 || ol301[0].Literal != 1 || !strings.Contains(ol301[0].Message, "Δv/Δ-g") {
		t.Fatalf("want one OL301 on the Δ−g differential of literal 1:\n%s", res.Report)
	}
}

func TestNetOL301(t *testing.T) {
	V, lit := objectlog.V, objectlog.Lit
	v := def("v", 1, objectlog.NewClause(lit("v", V("X")), lit("b", V("X"))))

	res := netAnalyzer(t, map[string]Cap{"b": CapInsert}, v)
	if !hasCode(res.Report, CodeUnreachableDelta) {
		t.Fatalf("append-only influent produced no OL301:\n%s", res.Report)
	}
	for _, d := range res.Report {
		if d.Code == CodeUnreachableDelta && d.Severity != Info {
			t.Errorf("OL301 severity = %s, want info", d.Severity)
		}
	}
	// Only the Δ− differential of v is trigger-impossible; the insert
	// capability keeps Δ+ live.
	ol301 := diagsOf(res.Report, CodeUnreachableDelta)
	if len(ol301) != 1 || ol301[0].Pred != "v" || ol301[0].Clause != 0 || ol301[0].Literal != 0 ||
		!strings.Contains(ol301[0].Message, "Δv/Δ-b") {
		t.Fatalf("want one OL301 on Δv/Δ-b at clause 0, literal 0:\n%s", res.Report)
	}

	// Negative fixture: unrestricted base → no OL301.
	res = netAnalyzer(t, nil, v)
	if hasCode(res.Report, CodeUnreachableDelta) {
		t.Fatalf("unrestricted base still reported:\n%s", res.Report)
	}
}

func TestNetOL302(t *testing.T) {
	V, C, lit := objectlog.V, objectlog.CInt, objectlog.Lit
	// sv constrains its second column to 3; c asks for 9 — a
	// contradiction visible only after expanding sv.
	sv := def("sv", 2, objectlog.NewClause(lit("sv", V("I"), V("S")),
		lit("status", V("I")), lit(objectlog.BuiltinEQ, V("S"), C(3))))
	c := def("c", 1, objectlog.NewClause(lit("c", V("I")), lit("sv", V("I"), C(9))))

	res := netAnalyzer(t, nil, sv, c)
	if !hasCode(res.Report, CodeDeadAcrossViews) {
		t.Fatalf("interprocedural contradiction produced no OL302:\n%s", res.Report)
	}
	ol302 := diagsOf(res.Report, CodeDeadAcrossViews)
	if len(ol302) != 1 || ol302[0].Severity != Warning || ol302[0].Pred != "c" ||
		ol302[0].Clause != 0 || ol302[0].Literal != -1 {
		t.Fatalf("want one OL302 warning on c, clause 0:\n%s", res.Report)
	}
	// A dead view contributes no change capability.
	if got := res.Caps["c"]; got != CapNone {
		t.Errorf("cap(c) = %s, want frozen", got)
	}

	// Negative fixture: asking for the admitted constant is satisfiable.
	c2 := def("c2", 1, objectlog.NewClause(lit("c2", V("I")), lit("sv", V("I"), C(3))))
	res = netAnalyzer(t, nil, sv, c2)
	if hasCode(res.Report, CodeDeadAcrossViews) || res.Caps["c2"] != CapBoth {
		t.Fatalf("satisfiable composition flagged dead (cap %s):\n%s", res.Caps["c2"], res.Report)
	}
}

func TestNetOL303(t *testing.T) {
	V, lit := objectlog.V, objectlog.Lit
	mk := func(name string) *objectlog.Def {
		return def(name, 1, objectlog.NewClause(lit(name, V("A")), lit("b", V("A")), lit("g", V("A"))))
	}
	r1, r2 := mk("cnd_r1"), mk("cnd_r2")

	res := netAnalyzer(t, nil, r1, r2)
	if !hasCode(res.Report, CodeDuplicateDifferential) {
		t.Fatalf("identical conditions produced no OL303:\n%s", res.Report)
	}
	found := false
	for _, d := range res.Report {
		if d.Code != CodeDuplicateDifferential {
			continue
		}
		if d.Severity != Info {
			t.Errorf("OL303 severity = %s, want info", d.Severity)
		}
		if d.Pred == "cnd_r2" && strings.Contains(d.Message, "cnd_r1") {
			found = true
		}
	}
	if !found {
		t.Fatalf("OL303 does not name the duplicated view:\n%s", res.Report)
	}

	// Negative fixture: structurally different conditions.
	other := def("cnd_r3", 1, objectlog.NewClause(lit("cnd_r3", V("A")), lit("b", V("A"))))
	res = netAnalyzer(t, nil, r1, other)
	if hasCode(res.Report, CodeDuplicateDifferential) {
		t.Fatalf("distinct conditions flagged OL303:\n%s", res.Report)
	}
}

func TestNetAggregateReevalCapability(t *testing.T) {
	V, lit := objectlog.V, objectlog.Lit
	agg := &objectlog.Def{Name: "s", Arity: 2, Aggregate: "sum", GroupCols: 1,
		Clauses: []objectlog.Clause{
			objectlog.NewClause(lit("s", V("X"), V("X")), lit("b", V("X"))),
		}}
	frozenAgg := &objectlog.Def{Name: "sg", Arity: 2, Aggregate: "sum", GroupCols: 1,
		Clauses: []objectlog.Clause{
			objectlog.NewClause(lit("sg", V("X"), V("X")), lit("g", V("X"))),
		}}
	res := netAnalyzer(t, map[string]Cap{"b": CapInsert, "g": CapNone}, agg, frozenAgg)
	// Any admitted influent change can move a re-evaluated extent both
	// ways; a fully frozen influent set freezes the aggregate too.
	if got := res.Caps["s"]; got != CapBoth {
		t.Errorf("cap(s) = %s, want insert+delete", got)
	}
	if got := res.Caps["sg"]; got != CapNone {
		t.Errorf("cap(sg) = %s, want frozen", got)
	}
}

func TestNetIntraproceduralDeadDisjunctPrunes(t *testing.T) {
	V, C, lit := objectlog.V, objectlog.CInt, objectlog.Lit
	// The second disjunct is dead without any expansion (OL201 is the
	// per-definition diagnostic); the network analysis skips its
	// differentials — no OL301 for its Δ− trigger, which b's
	// append-only capability would otherwise flag — and does not
	// re-report it as OL302.
	v := &objectlog.Def{Name: "v", Arity: 1, Clauses: []objectlog.Clause{
		objectlog.NewClause(lit("v", V("X")), lit("b", V("X"))),
		objectlog.NewClause(lit("v", V("X")), lit("b", V("X")), lit(objectlog.BuiltinEQ, C(1), C(2))),
	}}
	res := netAnalyzer(t, map[string]Cap{"b": CapInsert}, v)
	if hasCode(res.Report, CodeDeadAcrossViews) {
		t.Fatalf("intraprocedurally dead disjunct re-reported as OL302:\n%s", res.Report)
	}
	for _, d := range diagsOf(res.Report, CodeUnreachableDelta) {
		if d.Clause != 0 {
			t.Errorf("dead disjunct reported as OL301: %s", d)
		}
	}
	if n := len(diagsOf(res.Report, CodeUnreachableDelta)); n != 1 {
		t.Fatalf("want one OL301 for the live disjunct's Δ−b, got %d:\n%s", n, res.Report)
	}
}
