package rules

import (
	"io"

	"partdiff/internal/eval"
)

// EnableAdaptiveStats switches the manager's join optimizer from the
// static cost model to observed workload statistics: an eval.Stats
// table is installed on the propagation network's evaluator (and handed
// to every rebuilt network, so history survives definition changes).
// Idempotent; returns the live table so the embedding session can share
// it with its ad-hoc query evaluator.
func (m *Manager) EnableAdaptiveStats() *eval.Stats {
	if m.stats == nil {
		m.stats = eval.NewStats()
		if m.net != nil {
			m.net.Evaluator().SetStats(m.stats)
		}
	}
	return m.stats
}

// AdaptiveStats returns the observed-statistics table, nil when the
// static cost model is in use.
func (m *Manager) AdaptiveStats() *eval.Stats { return m.stats }

// ProfileSource maps a propagation-network view node to the name a
// human knows it by: condition functions resolve to their rule's
// activation key, shared views to "shared:<name>", anything else to
// "view:<name>". This is the attribution function handed to the
// profiler's report writer — the network itself only knows node names.
func (m *Manager) ProfileSource(view string) string {
	for _, a := range m.activations {
		if a.CondName == view {
			return a.Key
		}
	}
	if m.sharedNames[view] {
		return "shared:" + view
	}
	return "view:" + view
}

// ProfileReport writes the propagation profiler's report with rule
// attribution (see obs.Profiler.WriteReport for the format). topK <= 0
// means all rows.
func (m *Manager) ProfileReport(w io.Writer, topK int) error {
	return m.obs.Profiler.WriteReport(w, topK, m.ProfileSource, m.StrategyOf)
}
