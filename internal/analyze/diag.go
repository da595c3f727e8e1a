package analyze

import (
	"fmt"
	"strings"

	"partdiff/internal/objectlog"
)

// Diagnostic codes. Every layer that rejects a rule condition — the
// analyzer, the expander, the differencing compiler, the evaluator —
// reports the same code for the same defect, so a failure at commit
// time can be reproduced with \lint at definition time.
const (
	// CodeUnsafe (OL001): a clause is not range restricted. Defined in
	// objectlog so the evaluator can report it without importing this
	// package.
	CodeUnsafe = objectlog.CodeUnsafe

	// CodeUnstratifiedNegation (OL002): a predicate negates a member of
	// its own recursive component. Defined in objectlog so the
	// evaluator's fixpoint machinery reports the same code.
	CodeUnstratifiedNegation = objectlog.CodeUnstratifiedNegation

	// CodeUnstratifiedAggregate (OL003): an aggregate view is part of a
	// recursive component (aggregation over its own fixpoint).
	CodeUnstratifiedAggregate = "OL003"

	// CodeUnknownPredicate (OL004): a literal references a predicate
	// that is neither a builtin, a type extent, a derived definition,
	// nor a catalog function / stored relation. Warning severity: the
	// predicate may legitimately be defined later.
	CodeUnknownPredicate = "OL004"

	// CodeArityMismatch (OL005): a literal's argument count differs
	// from the predicate's declared arity.
	CodeArityMismatch = "OL005"

	// CodeConflictingTypes (OL006): a variable (or constant) is used at
	// argument positions with irreconcilable declared types.
	CodeConflictingTypes = "OL006"

	// CodeIncomparable (OL007): a comparison over values of different
	// type classes, or arithmetic over a non-numeric operand.
	CodeIncomparable = "OL007"

	// CodeAnnotatedLiteral (OL101): a definition contains a Δ- or
	// old-annotated literal; differentials must be generated from plain
	// clauses, so such definitions cannot enter the network. Defined in
	// objectlog so the differencing compiler reports the same code.
	CodeAnnotatedLiteral = objectlog.CodeAnnotatedLiteral

	// CodeReevaluated (OL102): the predicate (or an influent of a rule
	// condition) is aggregate or recursive and will be monitored by
	// re-evaluation instead of partial differencing. Informational:
	// correct, but without the paper's incremental cost profile.
	CodeReevaluated = "OL102"

	// CodeDeadClause (OL201): a disjunct is statically empty
	// (contradictory ground literals) and contributes no tuples.
	CodeDeadClause = "OL201"

	// CodeNeverTriggered (OL202): a rule condition references no stored
	// function, so no update can ever change it.
	CodeNeverTriggered = "OL202"

	// CodeDuplicateClause (OL203): two disjuncts of a definition are
	// identical up to variable renaming; the later one is shadowed.
	CodeDuplicateClause = "OL203"

	// CodeUnreachableDelta (OL301): a differential's trigger Δ-set is
	// provably always empty — the change capabilities declared on the
	// base relations (insert-only, delete-only, frozen) never produce
	// the trigger sign at the influent — so the differential never runs.
	// Informational: a lint on the declarations, the network is
	// unchanged.
	CodeUnreachableDelta = "OL301"

	// CodeDeadAcrossViews (OL302): a disjunct is unsatisfiable once
	// constants are propagated interprocedurally through the views it
	// joins — dead like OL201, but only visible after expansion through
	// view composition. Its differentials are not compiled into the
	// propagation network. Warning severity: the condition (or part of
	// it) can never hold.
	CodeDeadAcrossViews = "OL302"

	// CodeDuplicateDifferential (OL303): two views compile structurally
	// identical differentials (equal up to variable renaming and head
	// naming) — typically two rules monitoring the same condition.
	// Informational: a shared-subnetwork candidate (`create shared
	// function`, §6 of the paper).
	CodeDuplicateDifferential = "OL303"
)

// Severity ranks a diagnostic.
type Severity int

// The severities. Errors make the definition rejectable; warnings are
// suspicious but legal; infos describe monitoring strategy fallbacks.
const (
	Info Severity = iota
	Warning
	Error
)

// String renders the severity.
func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warning:
		return "warning"
	default:
		return "info"
	}
}

// Diagnostic is one analyzer finding, locatable to a clause (disjunct)
// and body literal of a definition.
type Diagnostic struct {
	Code     string
	Severity Severity
	// Pred is the definition the finding is about.
	Pred string
	// Clause is the disjunct index within the definition, or -1.
	Clause int
	// Literal is the body literal index within the clause, or -1 (e.g.
	// head or whole-definition findings).
	Literal int
	// Message states the defect.
	Message string
	// Hint suggests a fix, when one is known.
	Hint string
}

// String renders "severity[CODE] pred, clause N, literal M: message
// (hint)".
func (d Diagnostic) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s[%s] %s", d.Severity, d.Code, d.Pred)
	if d.Clause >= 0 {
		fmt.Fprintf(&sb, ", clause %d", d.Clause)
	}
	if d.Literal >= 0 {
		fmt.Fprintf(&sb, ", literal %d", d.Literal)
	}
	fmt.Fprintf(&sb, ": %s", d.Message)
	if d.Hint != "" {
		fmt.Fprintf(&sb, " (hint: %s)", d.Hint)
	}
	return sb.String()
}

// Report is an ordered list of diagnostics from one analysis.
type Report []Diagnostic

// HasErrors reports whether any diagnostic has Error severity.
func (r Report) HasErrors() bool {
	for _, d := range r {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// Clean reports whether the report has no errors and no warnings
// (infos allowed).
func (r Report) Clean() bool {
	for _, d := range r {
		if d.Severity >= Warning {
			return false
		}
	}
	return true
}

// Filter returns the diagnostics of exactly the given severity.
func (r Report) Filter(s Severity) Report {
	var out Report
	for _, d := range r {
		if d.Severity == s {
			out = append(out, d)
		}
	}
	return out
}

// Errors returns the Error diagnostics.
func (r Report) Errors() Report { return r.Filter(Error) }

// Warnings returns the Warning diagnostics.
func (r Report) Warnings() Report { return r.Filter(Warning) }

// Err returns nil when the report has no errors, otherwise an error
// rendering the first error diagnostic (and the count of further ones).
func (r Report) Err() error {
	errs := r.Errors()
	if len(errs) == 0 {
		return nil
	}
	if len(errs) == 1 {
		return fmt.Errorf("%s", errs[0])
	}
	return fmt.Errorf("%s (and %d more errors)", errs[0], len(errs)-1)
}

// String renders the report one diagnostic per line.
func (r Report) String() string {
	lines := make([]string, len(r))
	for i, d := range r {
		lines[i] = d.String()
	}
	return strings.Join(lines, "\n")
}
