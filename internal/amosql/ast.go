package amosql

import (
	"fmt"
	"strings"

	"partdiff/internal/types"
)

// Stmt is a parsed AMOSQL statement.
type Stmt interface{ stmt() }

// ParamDecl declares a typed variable: "item i" (the name may be empty
// for unnamed stored-function parameters).
type ParamDecl struct {
	Type string
	Name string
}

func (p ParamDecl) String() string {
	if p.Name == "" {
		return p.Type
	}
	return p.Type + " " + p.Name
}

// CreateType is: create type NAME [under SUPER {, SUPER}];
type CreateType struct {
	Name   string
	Unders []string
}

// CreateInstances is: create TYPE instances :v1, :v2, ...;
type CreateInstances struct {
	TypeName string
	Vars     []string
}

// CreateFunction is: create [shared] function NAME(params) -> RESULT
// [as SELECT];  Body==nil means a stored function.
type CreateFunction struct {
	Name   string
	Params []ParamDecl
	Result string
	Body   *SelectQuery
	Shared bool
}

// CreateRule is:
//
//	create [nervous] rule NAME(params) as
//	    [on EVENT_FN {, EVENT_FN}]
//	    when [for each DECLS where] PREDICATE
//	    do PROC(args) [priority N];
//
// The optional `on` clause makes this an ECA rule: the condition is
// only tested when one of the named stored functions (or type extents,
// named by type) was updated.
type CreateRule struct {
	Name       string
	Params     []ParamDecl
	Events     []string
	ForEach    []ParamDecl
	Where      Expr
	ActionProc string
	ActionArgs []Expr
	Nervous    bool
	Priority   int64
}

// SelectQuery is the declarative core: select EXPRS [for each DECLS]
// [where PREDICATE].
type SelectQuery struct {
	Exprs   []Expr
	ForEach []ParamDecl
	Where   Expr
}

// SelectStmt is a top-level query statement.
type SelectStmt struct {
	Query SelectQuery
}

// UpdateStmt is: set|add|remove FN(args) = VALUE;
type UpdateStmt struct {
	Op    string // "set", "add", "remove"
	Fn    string
	Args  []Expr
	Value Expr
}

// ActivateStmt is: activate RULE(args);
type ActivateStmt struct {
	Rule string
	Args []Expr
}

// DeactivateStmt is: deactivate RULE(args);
type DeactivateStmt struct {
	Rule string
	Args []Expr
}

// DeleteInstances is: delete :v1, :v2; — it retracts every stored
// tuple referencing the objects (rules see the deletions), removes them
// from their type extents, and destroys the objects.
type DeleteInstances struct {
	Vars []string
}

// DeclareStmt is: declare NAME readonly|append only|delete only|read-write;
// It restricts the admitted change kinds of a stored function (or a
// type's extent, named by type), enforced by the store; the
// whole-network Δ-effect lint reports the differentials the restriction
// makes trigger-impossible (OL301). Capability holds the raw capability
// text for storage.ParseCapability.
type DeclareStmt struct {
	Name       string
	Capability string
}

// ExplainStmt is: explain select ...; | explain rule NAME;
// It renders the compiled ObjectLog (and, for activated rules, the
// generated partial differentials) instead of executing.
type ExplainStmt struct {
	Query *SelectQuery // nil when explaining a rule
	Rule  string
}

// TxnStmt is: begin; | commit; | rollback;
type TxnStmt struct {
	Kind string
}

func (CreateType) stmt()      {}
func (CreateInstances) stmt() {}
func (CreateFunction) stmt()  {}
func (CreateRule) stmt()      {}
func (SelectStmt) stmt()      {}
func (UpdateStmt) stmt()      {}
func (ActivateStmt) stmt()    {}
func (DeactivateStmt) stmt()  {}
func (DeleteInstances) stmt() {}
func (DeclareStmt) stmt()     {}
func (ExplainStmt) stmt()     {}
func (TxnStmt) stmt()         {}

// Expr is a parsed expression.
type Expr interface {
	expr()
	String() string
}

// ConstExpr is a literal value.
type ConstExpr struct {
	Value types.Value
}

// VarRef references a query variable (for-each variable or rule
// parameter).
type VarRef struct {
	Name string
}

// IfaceRef references a session interface variable (:name).
type IfaceRef struct {
	Name string
}

// Call is a function application f(e1, ..., en).
type Call struct {
	Fn   string
	Args []Expr
}

// Binary is a binary operation: arithmetic (+ - * /), comparison
// (= != < <= > >=), or boolean connective (and, or).
type Binary struct {
	Op   string
	L, R Expr
}

// Unary is negation: "not" (boolean) or "-" (numeric).
type Unary struct {
	Op string
	X  Expr
}

func (ConstExpr) expr() {}
func (VarRef) expr()    {}
func (IfaceRef) expr()  {}
func (Call) expr()      {}
func (Binary) expr()    {}
func (Unary) expr()     {}

func (e ConstExpr) String() string { return e.Value.String() }
func (e VarRef) String() string    { return e.Name }
func (e IfaceRef) String() string  { return ":" + e.Name }

func (e Call) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", e.Fn, strings.Join(parts, ", "))
}

func (e Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

func (e Unary) String() string {
	if e.Op == "not" {
		return fmt.Sprintf("not %s", e.X)
	}
	return fmt.Sprintf("%s%s", e.Op, e.X)
}
