package objectlog

import "partdiff/internal/types"

// Simplify statically simplifies a conjunctive clause, as a traditional
// query rewriter would before cost-based optimization (§1: each partial
// differential "is a relatively simple database query which is
// optimized using traditional query optimization techniques"):
//
//   - eq literals unify: eq(X, c) substitutes c for X everywhere and
//     disappears; eq(X, Y) renames Y to X; eq(c, c) is removed;
//     eq(c1, c2) with different constants makes the clause empty.
//   - arithmetic over constants folds: times(2, 3, X) substitutes 6 for
//     X; a constant-vs-constant result mismatch (or division by zero)
//     makes the clause empty.
//   - comparisons over constants are decided.
//
// It returns the simplified clause; ok is false when the clause is
// statically empty (contributes no tuples).
func Simplify(c Clause) (simplified Clause, ok bool) {
	c = c.Clone()
	for {
		action, i, v, t, empty := findSimplification(c)
		if empty {
			return c, false
		}
		switch action {
		case simpNone:
			return c, true
		case simpDrop:
			c.Body = append(append([]Literal(nil), c.Body[:i]...), c.Body[i+1:]...)
		case simpSubst:
			sub := map[string]Term{v: t}
			nc := Clause{Head: c.Head.Substitute(sub)}
			for j, l := range c.Body {
				if j == i {
					continue
				}
				nc.Body = append(nc.Body, l.Substitute(sub))
			}
			c = nc
		}
	}
}

// StaticallyEmpty reports whether the clause produces no tuples in any
// database state: it simplifies to a contradiction as written, or every
// expansion of the derived predicates it references through prog dies
// on a head-unification constant conflict or simplifies to one. The
// answer is a proof, never a heuristic — the propagation network drops
// the differentials of a clause on it — so expansion failures (e.g.
// arity defects, which per-definition analysis reports separately)
// yield false. A nil prog checks the clause as written only.
func StaticallyEmpty(c Clause, prog *Program) bool {
	if _, ok := Simplify(c); !ok {
		return true
	}
	if prog == nil {
		return false
	}
	expanded, err := Expand(c, prog, nil)
	if err != nil {
		return false
	}
	for _, ec := range expanded {
		if _, ok := Simplify(ec); ok {
			return false
		}
	}
	return true
}

type simpAction int

const (
	simpNone simpAction = iota
	simpDrop
	simpSubst
)

// findSimplification scans for the first applicable simplification.
func findSimplification(c Clause) (action simpAction, idx int, v string, t Term, empty bool) {
	for i, l := range c.Body {
		switch {
		case l.Pred == BuiltinEQ && !l.Negated && len(l.Args) == 2:
			a, b := l.Args[0], l.Args[1]
			switch {
			case !a.IsVar && !b.IsVar:
				if !a.Const.Equal(b.Const) {
					return simpNone, 0, "", Term{}, true
				}
				return simpDrop, i, "", Term{}, false
			case a.IsVar && !b.IsVar:
				return simpSubst, i, a.Var, b, false
			case !a.IsVar && b.IsVar:
				return simpSubst, i, b.Var, a, false
			default:
				if a.Var == b.Var {
					return simpDrop, i, "", Term{}, false
				}
				return simpSubst, i, b.Var, a, false
			}
		case IsArithmetic(l.Pred) && len(l.Args) == 3 && !l.Args[0].IsVar && !l.Args[1].IsVar:
			var res types.Value
			var err error
			switch l.Pred {
			case BuiltinPlus:
				res, err = types.Add(l.Args[0].Const, l.Args[1].Const)
			case BuiltinMinus:
				res, err = types.Sub(l.Args[0].Const, l.Args[1].Const)
			case BuiltinTimes:
				res, err = types.Mul(l.Args[0].Const, l.Args[1].Const)
			default:
				res, err = types.Div(l.Args[0].Const, l.Args[1].Const)
			}
			if err != nil {
				return simpNone, 0, "", Term{}, true
			}
			r := l.Args[2]
			if !r.IsVar {
				if !r.Const.Equal(res) {
					return simpNone, 0, "", Term{}, true
				}
				return simpDrop, i, "", Term{}, false
			}
			return simpSubst, i, r.Var, C(res), false
		case IsComparison(l.Pred) && len(l.Args) == 2 && !l.Args[0].IsVar && !l.Args[1].IsVar:
			if constCmp(l.Pred, l.Args[0].Const, l.Args[1].Const) == l.Negated {
				return simpNone, 0, "", Term{}, true
			}
			return simpDrop, i, "", Term{}, false
		}
	}
	return simpNone, 0, "", Term{}, false
}

func constCmp(pred string, a, b types.Value) bool {
	switch pred {
	case BuiltinEQ:
		return a.Equal(b)
	case BuiltinNE:
		return !a.Equal(b)
	}
	cv := a.Compare(b)
	switch pred {
	case BuiltinLT:
		return cv < 0
	case BuiltinLE:
		return cv <= 0
	case BuiltinGT:
		return cv > 0
	default: // BuiltinGE
		return cv >= 0
	}
}

// SimplifyDef simplifies every clause of a definition, dropping
// statically empty disjuncts. The returned definition may have no
// clauses (statically empty view).
func SimplifyDef(d *Def) *Def {
	out := &Def{Name: d.Name, Arity: d.Arity, Aggregate: d.Aggregate, GroupCols: d.GroupCols}
	for _, c := range d.Clauses {
		if sc, ok := Simplify(c); ok {
			out.Clauses = append(out.Clauses, sc)
		}
	}
	return out
}
