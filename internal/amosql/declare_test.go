package amosql

import (
	"strings"
	"testing"

	"partdiff/internal/rules"
	"partdiff/internal/storage"
	"partdiff/internal/types"
)

func TestDeclareParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		name string
		cap  string
	}{
		{"declare quantity readonly;", "quantity", "readonly"},
		{"declare quantity append only;", "quantity", "append only"},
		{"declare quantity delete only;", "quantity", "delete only"},
		{"declare quantity read-write;", "quantity", "read-write"},
		{"declare quantity Append Only;", "quantity", "append only"},
	} {
		st, err := ParseOne(tc.in)
		if err != nil {
			t.Errorf("%q: %v", tc.in, err)
			continue
		}
		d, ok := st.(DeclareStmt)
		if !ok || d.Name != tc.name || d.Capability != tc.cap {
			t.Errorf("%q parsed to %+v, want {%s %s}", tc.in, st, tc.name, tc.cap)
		}
	}
	for _, bad := range []string{"declare;", "declare quantity;", "declare quantity = 3;"} {
		if _, err := ParseOne(bad); err == nil {
			t.Errorf("%q: expected parse error", bad)
		}
	}
}

// declareFixture builds a session with the low-stock schema, a
// recording rule, and initial data.
func declareFixture(t *testing.T) (*Session, *[]string) {
	t.Helper()
	s := NewSession(rules.Incremental)
	var fired []string
	if err := s.RegisterProcedure("record", func(args []types.Value) error {
		fired = append(fired, args[0].String())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	s.MustExec(`
		create type item;
		create function quantity(item) -> integer;
		create function threshold(item) -> integer;
		create rule low() as
			when for each item i where quantity(i) < threshold(i)
			do record(i);
		create item instances :i1;
		set quantity(:i1) = 10;
		set threshold(:i1) = 5;
		activate low();
	`)
	return s, &fired
}

// TestDeclareEnforcementAndPruning drives the full path of a declaration
// after activation: the statement restricts the store, excluded updates
// are rejected, the propagation network is left as it is (the
// differentials the restriction makes trigger-impossible never run
// anyway), monitoring of the unrestricted relations is unaffected, and
// \lint reports the impossible differentials as OL301.
func TestDeclareEnforcementAndPruning(t *testing.T) {
	s, fired := declareFixture(t)
	net := s.Rules().Network()
	if net == nil {
		t.Fatal("no network after activate")
	}
	s.MustExec(`declare threshold readonly;`)

	if got := s.Store().Capability("threshold"); got != storage.CapFrozen {
		t.Fatalf("threshold capability = %v, want frozen", got)
	}
	if _, err := s.Exec(`set threshold(:i1) = 7;`); err == nil ||
		!strings.Contains(err.Error(), "readonly") {
		t.Fatalf("update of readonly threshold: got %v, want rejection", err)
	}
	if s.Rules().Network() != net {
		t.Fatal("declaration rebuilt the propagation network")
	}
	// Monitoring on quantity is unaffected.
	s.MustExec(`set quantity(:i1) = 3;`)
	if len(*fired) != 1 {
		t.Fatalf("rule fired %v, want one firing", *fired)
	}
	// OL301 verdicts surface in the whole-program analysis (\lint).
	rep := s.AnalyzeAll()
	found := false
	for _, d := range rep {
		if d.Code == "OL301" {
			found = true
		}
	}
	if !found {
		t.Fatalf("AnalyzeAll misses OL301 verdicts:\n%s", rep)
	}
}

// TestDeclareTypeExtent declares a capability on a type, which resolves
// to the extent relation: instance creation is rejected once frozen.
func TestDeclareTypeExtent(t *testing.T) {
	s, _ := declareFixture(t)
	s.MustExec(`declare item readonly;`)
	if _, err := s.Exec(`create item instances :i2;`); err == nil ||
		!strings.Contains(err.Error(), "readonly") {
		t.Fatalf("instance creation in frozen extent: got %v, want rejection", err)
	}
}

func TestDeclareErrors(t *testing.T) {
	s, _ := declareFixture(t)
	if _, err := s.Exec(`declare nosuch readonly;`); err == nil {
		t.Fatal("declare on unknown relation accepted")
	}
	if _, err := s.Exec(`declare quantity frobnicate;`); err == nil ||
		!strings.Contains(err.Error(), "capability") {
		t.Fatalf("bad capability: got %v", err)
	}
	// Capabilities only narrow: readonly cannot be widened back.
	s.MustExec(`declare quantity append only;`)
	if _, err := s.Exec(`declare quantity read-write;`); err == nil {
		t.Fatal("capability widening accepted")
	}
}
