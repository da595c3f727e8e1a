// Whole-network Δ-effect analysis: an interprocedural,
// abstract-interpretation-style lint pass over the compiled program
// that classifies every partial differential before it ever runs.
//
// The analysis works on a two-bit change-capability lattice per
// predicate (can it gain tuples? can it lose tuples?). Base relations
// start from their declared storage capabilities (insert-only,
// delete-only, frozen, both — enforced by the store, so a declaration
// is a proof, not a hint); view capabilities are the least fixpoint of
// propagating trigger→effect signs through the compiled differentials.
// A differential whose trigger Δ-set is provably always empty is
// reported as OL301: it never runs, because propagation skips a
// differential whose seed Δ is empty. A disjunct that is unsatisfiable
// once constants are propagated through view composition is reported
// as OL302; objectlog.StaticallyEmpty owns that proof, and the
// propagation network compiles no differentials for such a disjunct.
// Structurally identical differentials compiled under different views
// are reported as shared-subnetwork candidates (OL303).

package analyze

import (
	"fmt"
	"sort"

	"partdiff/internal/diff"
	"partdiff/internal/objectlog"
)

// Cap is the change-capability lattice element of one predicate: which
// signs of change its extent can undergo. It mirrors
// storage.Capability bit-for-bit but is defined here independently so
// the analyzer does not depend on the storage layer.
type Cap uint8

// The capability lattice. CapNone (frozen) is bottom, CapBoth is top.
const (
	CapNone   Cap = 0
	CapInsert Cap = 1 << 0
	CapDelete Cap = 1 << 1
	CapBoth       = CapInsert | CapDelete
)

// Has reports whether the capability admits the given change sign.
func (c Cap) Has(k objectlog.DeltaKind) bool { return c&capBit(k) != 0 }

// String names the lattice element.
func (c Cap) String() string {
	switch c {
	case CapNone:
		return "frozen"
	case CapInsert:
		return "insert-only"
	case CapDelete:
		return "delete-only"
	default:
		return "insert+delete"
	}
}

// capBit maps a Δ-sign to its capability bit.
func capBit(k objectlog.DeltaKind) Cap {
	if k == objectlog.DeltaPlus {
		return CapInsert
	}
	return CapDelete
}

// NetResult is the outcome of a whole-network analysis.
type NetResult struct {
	// Report holds the OL3xx diagnostics, ordered by pass (OL302
	// warnings, then OL301 infos, then OL303 infos), each pass in view
	// order.
	Report Report
	// Caps is the fixpoint change capability of every analyzed view.
	Caps map[string]Cap
}

// AnalyzeNet runs the whole-network Δ-effect analysis over the given
// views (typically the full view set of a propagation network, closed
// over derived influents). baseCap reports the declared change
// capability of a base relation (nil, or any name it does not know,
// means unrestricted). opts must match the differential-generation
// options the network uses, so the analysis sees exactly the
// differentials the network compiles.
//
// Views that fail classification or generation are skipped: their
// defects are definition-time errors reported by AnalyzeDef, not
// network-level facts.
func (a *Analyzer) AnalyzeNet(views []*objectlog.Def, baseCap func(string) Cap, opts diff.Options) *NetResult {
	res := &NetResult{Caps: map[string]Cap{}}
	sorted := make([]*objectlog.Def, len(views))
	copy(sorted, views)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })

	// Classify and compile once, up front.
	plans := map[string]diff.Plan{}
	diffs := map[string][]diff.Differential{}
	for _, def := range sorted {
		plan, err := diff.Classify(def, a.prog)
		if err != nil {
			continue
		}
		if plan == diff.Differenced {
			ds, err := diff.Generate(def, opts)
			if err != nil {
				continue
			}
			diffs[def.Name] = ds
		}
		plans[def.Name] = plan
	}
	analyzed := func(name string) bool { _, ok := plans[name]; return ok }

	// Pass 1: interprocedural dead disjuncts (OL302). A disjunct dead
	// as written is OL201 territory (reported by the per-def analyzer);
	// here we only warn when the contradiction needs constants
	// propagated through the views the disjunct joins. Dead disjuncts of
	// either kind compile no differentials, so later passes skip them.
	type disjunct struct {
		view   string
		clause int
	}
	dead := map[disjunct]bool{}
	for _, def := range sorted {
		if plans[def.Name] != diff.Differenced {
			continue
		}
		for ci, c := range def.Clauses {
			if !objectlog.StaticallyEmpty(c, a.prog) {
				continue
			}
			dead[disjunct{def.Name, ci}] = true
			if _, ok := objectlog.Simplify(c); !ok {
				continue
			}
			res.Report = append(res.Report, Diagnostic{
				Code:     CodeDeadAcrossViews,
				Severity: Warning,
				Pred:     def.Name,
				Clause:   ci,
				Literal:  -1,
				Message:  "disjunct is statically empty once the views it joins are expanded; its differentials are not compiled",
				Hint:     "constants flowing through the view composition contradict — fix the disjunct or drop it",
			})
		}
	}

	// Pass 2: change-capability fixpoint. Views start at bottom; each
	// round a view gains the effect sign of every live differential
	// whose trigger sign its influent can produce. Monotone over a
	// finite lattice, so it terminates.
	for _, def := range sorted {
		if analyzed(def.Name) {
			res.Caps[def.Name] = CapNone
		}
	}
	capOf := func(name string) Cap {
		if c, ok := res.Caps[name]; ok {
			return c
		}
		if a.prog != nil && a.prog.IsDerived(name) {
			return CapBoth // derived but outside the analyzed set: unknown
		}
		if baseCap == nil {
			return CapBoth
		}
		return baseCap(name)
	}
	// live reports whether a differential can ever run: its disjunct is
	// not dead and its influent can produce the trigger sign.
	live := func(d diff.Differential) bool {
		return !dead[disjunct{d.View, d.Disjunct}] && capOf(d.Influent).Has(d.TriggerSign)
	}
	for changed := true; changed; {
		changed = false
		for _, def := range sorted {
			if !analyzed(def.Name) {
				continue
			}
			var c Cap
			if plans[def.Name] == diff.Differenced {
				for _, d := range diffs[def.Name] {
					if live(d) {
						c |= capBit(d.EffectSign)
					}
				}
			} else {
				// Re-evaluated views (aggregates, recursive components)
				// are recomputed wholesale: any influent change can move
				// their extent either way.
				for _, infl := range def.Influents() {
					if infl != def.Name && capOf(infl) != CapNone {
						c = CapBoth
						break
					}
				}
			}
			if c != res.Caps[def.Name] {
				res.Caps[def.Name] = c
				changed = true
			}
		}
	}

	// Pass 3: trigger-impossible differentials of live disjuncts
	// (OL301).
	for _, def := range sorted {
		for _, d := range diffs[def.Name] {
			if dead[disjunct{def.Name, d.Disjunct}] || capOf(d.Influent).Has(d.TriggerSign) {
				continue
			}
			word := "insertions"
			if d.TriggerSign == objectlog.DeltaMinus {
				word = "deletions"
			}
			res.Report = append(res.Report, Diagnostic{
				Code:     CodeUnreachableDelta,
				Severity: Info,
				Pred:     def.Name,
				Clause:   d.Disjunct,
				Literal:  d.Occurrence,
				Message:  fmt.Sprintf("differential %s can never fire: %s admits no %s (capability %s)", d.Name(), d.Influent, word, capOf(d.Influent)),
				Hint:     "the differential never runs: its trigger Δ-set is always empty",
			})
		}
	}

	// Pass 4: duplicate differentials across views (OL303). Group live
	// differentials by trigger/effect signs and the canonical rendering
	// of their clause with the head predicate anonymized; a group
	// spanning several views marks a shared-subnetwork candidate.
	type group struct{ views []string }
	groups := map[string]*group{}
	var keys []string
	for _, def := range sorted {
		for _, d := range diffs[def.Name] {
			if !live(d) {
				continue
			}
			k := fmt.Sprintf("%s|%s|%s", d.TriggerSign, d.EffectSign, objectlog.CanonicalBody(d.Clause))
			g, ok := groups[k]
			if !ok {
				g = &group{}
				groups[k] = g
				keys = append(keys, k)
			}
			if len(g.views) == 0 || g.views[len(g.views)-1] != def.Name {
				g.views = append(g.views, def.Name)
			}
		}
	}
	reported := map[string]bool{} // view pair → already diagnosed
	for _, k := range keys {
		g := groups[k]
		for i := 1; i < len(g.views); i++ {
			pair := g.views[0] + "↔" + g.views[i]
			if reported[pair] {
				continue
			}
			reported[pair] = true
			res.Report = append(res.Report, Diagnostic{
				Code:     CodeDuplicateDifferential,
				Severity: Info,
				Pred:     g.views[i],
				Clause:   -1,
				Literal:  -1,
				Message:  fmt.Sprintf("compiles differentials structurally identical to those of %s", g.views[0]),
				Hint:     "share the condition via `create shared function` so the subnetwork is computed once",
			})
		}
	}
	return res
}
