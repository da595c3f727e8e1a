package storage

import (
	"fmt"

	"partdiff/internal/obs"
)

// Capability describes which physical changes a base relation admits.
// It is a two-bit lattice: the default CapAll admits both signs, and
// DeclareCapability can only restrict, never widen. Because the store
// rejects mutations outside a relation's declared capability, a
// declaration is an enforced contract, not a hint — the static network
// analyzer (internal/analyze) may soundly prove that Δ-sets of a given
// sign are always empty for restricted relations and report the partial
// differentials they would have triggered as never running (OL301).
type Capability uint8

// The capability bits.
const (
	// CapFrozen admits no changes at all (a read-only relation, e.g. a
	// dimension table sealed after loading).
	CapFrozen Capability = 0
	// CapInserts admits insertions (+ events).
	CapInserts Capability = 1 << 0
	// CapDeletes admits deletions (− events).
	CapDeletes Capability = 1 << 1
	// CapAll is the default: both signs admitted.
	CapAll = CapInserts | CapDeletes
)

// CanInsert reports whether + events are admitted.
func (c Capability) CanInsert() bool { return c&CapInserts != 0 }

// CanDelete reports whether − events are admitted.
func (c Capability) CanDelete() bool { return c&CapDeletes != 0 }

// String names the capability as in the declare statement.
func (c Capability) String() string {
	switch c {
	case CapFrozen:
		return "readonly"
	case CapInserts:
		return "append only"
	case CapDeletes:
		return "delete only"
	default:
		return "read-write"
	}
}

// ParseCapability maps the declare-statement spellings to a capability.
func ParseCapability(s string) (Capability, bool) {
	switch s {
	case "readonly", "read-only", "frozen":
		return CapFrozen, true
	case "append only", "append-only", "insert only", "insert-only":
		return CapInserts, true
	case "delete only", "delete-only":
		return CapDeletes, true
	case "read-write", "readwrite":
		return CapAll, true
	}
	return 0, false
}

// DeclareCapability restricts the admitted change kinds of a relation.
// Declarations are monotone: the new capability must be a subset of the
// current one, so a proof derived from an earlier declaration can never
// be invalidated later. The restriction takes effect immediately;
// recovery paths (snapshot load, logged-event replay) bypass it, since
// they reconstruct history that may predate the declaration.
func (s *Store) DeclareCapability(rel string, cap Capability) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.rels[rel]; !ok {
		return fmt.Errorf("relation %q does not exist", rel)
	}
	cur := CapAll
	if c, ok := s.caps[rel]; ok {
		cur = c
	}
	if cap&^cur != 0 {
		return fmt.Errorf("relation %q is declared %s; capabilities can only be restricted, not widened to %s", rel, cur, cap)
	}
	if s.caps == nil {
		s.caps = map[string]Capability{}
	}
	s.caps[rel] = cap
	return nil
}

// Capability returns the declared capability of a relation (CapAll when
// none was declared, or when the relation does not exist).
func (s *Store) Capability(rel string) Capability {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if c, ok := s.caps[rel]; ok {
		return c
	}
	return CapAll
}

// SuspendEnforcement suspends capability enforcement until the matching
// ResumeEnforcement. Transaction rollback holds a suspension across its
// inverse replay: undoing an admitted insertion into an append-only
// relation requires a deletion the relation's users are denied, and the
// pre-transaction state it restores trivially satisfied the declaration.
// Calls nest.
func (s *Store) SuspendEnforcement() { s.capSuspend.Add(1) }

// ResumeEnforcement closes the scope opened by SuspendEnforcement.
func (s *Store) ResumeEnforcement() { s.capSuspend.Add(-1) }

// checkCapability enforces a declared capability against an intended
// mutation. Caller holds s.mu.
func (s *Store) checkCapability(rel string, kind EventKind) error {
	if s.capSuspend.Load() > 0 {
		return nil
	}
	c, ok := s.caps[rel]
	if !ok {
		return nil
	}
	if kind == InsertEvent && !c.CanInsert() {
		return s.capViolation(fmt.Errorf("relation %q is declared %s: insertions are not admitted", rel, c))
	}
	if kind == DeleteEvent && !c.CanDelete() {
		return s.capViolation(fmt.Errorf("relation %q is declared %s: deletions are not admitted", rel, c))
	}
	return nil
}

// capViolation reports a rejected mutation on the event bus. Published
// directly (not staged): the violation describes an attempt that never
// becomes part of any committed state.
func (s *Store) capViolation(err error) error {
	if s.bus.Active() {
		s.bus.Publish(obs.Event{Type: obs.EventSystem, Op: "capability_violation", Detail: err.Error()})
	}
	s.rec.Trigger(obs.TrigCapViolation, err.Error())
	return err
}
