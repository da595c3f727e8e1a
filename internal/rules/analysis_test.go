package rules

import (
	"strings"
	"testing"

	"partdiff/internal/analyze"
	"partdiff/internal/storage"
	"partdiff/internal/types"
)

// TestAnalysisCacheSingleRunPerDef asserts the per-definition analysis
// cache: analyzing the same (unchanged) rule condition repeatedly —
// e.g. the session's eager create-rule pass followed by DefineRule's
// own validation, or repeated \lint sweeps — runs the analyzer once.
func TestAnalysisCacheSingleRunPerDef(t *testing.T) {
	f := newFixture(t, Incremental)
	def := lowStockDef("cond_watch", false)

	rep1 := f.mgr.AnalyzeRuleDef(def, 0)
	if err := rep1.Err(); err != nil {
		t.Fatal(err)
	}
	if got := f.mgr.AnalysisRuns(); got != 1 {
		t.Fatalf("AnalysisRuns after first analysis = %d, want 1", got)
	}
	// DefineRule re-validates the identical definition: cache hit.
	if err := f.mgr.DefineRule(&Rule{Name: "watch", CondDef: def, Action: f.recorder("watch")}); err != nil {
		t.Fatal(err)
	}
	if got := f.mgr.AnalysisRuns(); got != 1 {
		t.Fatalf("AnalysisRuns after DefineRule = %d, want 1 (cache miss on unchanged def)", got)
	}
	// A structurally changed definition under the same name re-runs.
	changed := lowStockDef("cond_watch", true)
	f.mgr.AnalyzeRuleDef(changed, 1)
	if got := f.mgr.AnalysisRuns(); got != 2 {
		t.Fatalf("AnalysisRuns after changed def = %d, want 2", got)
	}
	// Invalidation drops the memo: the next analysis runs again.
	f.mgr.InvalidateAnalysis()
	f.mgr.AnalyzeRuleDef(changed, 1)
	if got := f.mgr.AnalysisRuns(); got != 3 {
		t.Fatalf("AnalysisRuns after invalidation = %d, want 3", got)
	}
}

// TestManagerDeclaredCapability declares threshold read-only: the
// store rejects its mutation, the network lint reports the
// threshold-triggered differentials as OL301, and the rule still fires
// on quantity changes.
func TestManagerDeclaredCapability(t *testing.T) {
	f := newFixture(t, Incremental)
	f.set(t, "quantity", 1, 10)
	f.set(t, "threshold", 1, 5)
	if err := f.mgr.DeclareCapability("threshold", storage.CapFrozen); err != nil {
		t.Fatal(err)
	}
	f.defineLowStock(t, "low", true, 0)
	if _, err := f.mgr.Activate("low"); err != nil {
		t.Fatal(err)
	}
	var ol301 int
	for _, d := range f.mgr.AnalyzeNetwork().Report {
		if d.Code != analyze.CodeUnreachableDelta {
			continue
		}
		ol301++
		if !strings.Contains(d.Message, "/Δ+threshold") && !strings.Contains(d.Message, "/Δ-threshold") {
			t.Errorf("OL301 on a differential not triggered by threshold: %s", d)
		}
	}
	if ol301 == 0 {
		t.Fatal("frozen threshold produced no OL301")
	}
	f.inTxn(t, func() { f.set(t, "quantity", 1, 3) })
	if len(f.fired["low"]) != 1 {
		t.Fatalf("rule fired %d times, want 1", len(f.fired["low"]))
	}

	// Enforcement: mutating the frozen relation is rejected.
	if _, err := f.store.Set("threshold", []types.Value{types.Int(1)}, []types.Value{types.Int(9)}); err == nil {
		t.Fatal("mutation of frozen relation admitted")
	}
}
