package partdiff

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"partdiff/internal/faultinject"
)

// The network build drops the differentials of disjuncts it has PROVED
// can never produce a tuple, and declared capabilities only restrict
// what the store admits, so incremental monitoring must be observably
// identical to naive re-evaluation — which compiles no differentials at
// all — on declared-capability schemas too: same stored state, same
// rule firings in the same order, same query results. These tests drive
// the property over the shipped example scripts and seeded random
// workloads.

// twinDBs opens an incremental/naive DB pair with identical recording
// procedures and print outputs.
func twinDBs(t *testing.T, procs []string) (on, off *DB, firedOn, firedOff *[]string, outOn, outOff *bytes.Buffer) {
	t.Helper()
	var fOn, fOff []string
	mk := func(fired *[]string, opts ...Option) *DB {
		db := Open(opts...)
		for _, p := range procs {
			p := p
			if err := db.RegisterProcedure(p, func(args []Value) error {
				*fired = append(*fired, fmt.Sprintf("%s%v", p, args))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	on = mk(&fOn)
	off = mk(&fOff, WithMode(Naive))
	var bOn, bOff bytes.Buffer
	on.SetOutput(&bOn)
	off.SetOutput(&bOff)
	return on, off, &fOn, &fOff, &bOn, &bOff
}

// assertTwinsEqual compares the observable state of the twin DBs.
func assertTwinsEqual(t *testing.T, on, off *DB, firedOn, firedOff *[]string, outOn, outOff *bytes.Buffer) {
	t.Helper()
	if !reflect.DeepEqual(*firedOn, *firedOff) {
		t.Errorf("firings diverge:\nincremental: %v\nnaive:       %v", *firedOn, *firedOff)
	}
	sOn, sOff := on.Session().Store().Snapshot(), off.Session().Store().Snapshot()
	if !reflect.DeepEqual(sOn, sOff) {
		t.Errorf("stored state diverges:\nincremental: %v\nnaive:       %v", sOn, sOff)
	}
	if outOn.String() != outOff.String() {
		t.Errorf("print output diverges:\nincremental: %q\nnaive:       %q", outOn.String(), outOff.String())
	}
	if err := on.CheckInvariants(); err != nil {
		t.Errorf("incremental DB invariants: %v", err)
	}
}

// TestPruningEquivalenceScripts replays every shipped example script on
// an incremental and a naive database and compares everything
// observable.
func TestPruningEquivalenceScripts(t *testing.T) {
	scripts, err := filepath.Glob("examples/scripts/*.amosql")
	if err != nil {
		t.Fatal(err)
	}
	if len(scripts) == 0 {
		t.Fatal("no example scripts found")
	}
	for _, path := range scripts {
		t.Run(filepath.Base(path), func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			on, off, fOn, fOff, bOn, bOff := twinDBs(t, []string{"order"})
			resOn, errOn := on.Exec(string(src))
			resOff, errOff := off.Exec(string(src))
			if (errOn == nil) != (errOff == nil) {
				t.Fatalf("script errors diverge: incremental %v, naive %v", errOn, errOff)
			}
			if errOn != nil {
				t.Fatalf("script failed: %v", errOn)
			}
			if !reflect.DeepEqual(resOn, resOff) {
				t.Errorf("statement results diverge:\nincremental: %v\nnaive:       %v", resOn, resOff)
			}
			assertTwinsEqual(t, on, off, fOn, fOff, bOn, bOff)
		})
	}
}

// pruneSchema extends the fault-sweep schema with an append-only event
// log monitored by a second rule, so the capability declarations make
// differentials trigger-impossible (Δ− of events, any Δ of threshold;
// \lint reports them as OL301) while random updates still flow through
// the network.
const pruneSchema = `
create type item;
create function quantity(item) -> integer;
create function threshold(item) -> integer;
create function events(item) -> integer;
create rule low() as
    when for each item i where quantity(i) < threshold(i)
    do record(i);
create rule busy() as
    when for each item i, integer n where events(i) = n and n > 2
    do record2(i);
create item instances :i1, :i2, :i3;
set threshold(:i1) = 10;
set threshold(:i2) = 10;
set threshold(:i3) = 10;
declare threshold readonly;
declare events append only;
activate low();
activate busy();
`

// genPruneScript draws a random update script that respects the
// declared capabilities: quantity updates plus event-log appends.
func genPruneScript(rng *rand.Rand, steps int) []string {
	items := []string{":i1", ":i2", ":i3"}
	script := make([]string, 0, steps)
	for j := 0; j < steps; j++ {
		it := items[rng.Intn(len(items))]
		if rng.Intn(3) == 0 {
			script = append(script, fmt.Sprintf("add events(%s) = %d;", it, rng.Intn(6)))
		} else {
			script = append(script, fmt.Sprintf("set quantity(%s) = %d;", it, rng.Intn(20)))
		}
	}
	return script
}

// assertOL301 fails the test unless the lint of db reports a
// trigger-impossible differential: the declarations must bite, or a
// check over pruneSchema holds vacuously.
func assertOL301(t *testing.T, db *DB) {
	t.Helper()
	for _, d := range db.Session().AnalyzeAll() {
		if d.Code == "OL301" {
			return
		}
	}
	t.Fatal("schema declarations make no differential trigger-impossible (no OL301)")
}

// TestPruningEquivalenceRandom runs seeded random workloads through an
// incremental/naive twin pair over the declared-capability schema,
// comparing state and firings after every transaction.
func TestPruningEquivalenceRandom(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			on, off, fOn, fOff, bOn, bOff := twinDBs(t, []string{"record", "record2"})
			on.MustExec(pruneSchema)
			off.MustExec(pruneSchema)
			assertOL301(t, on)
			rng := rand.New(rand.NewSource(seed))
			for txn := 0; txn < 8; txn++ {
				script := genPruneScript(rng, 1+rng.Intn(6))
				errOn := runScript(on, script)
				errOff := runScript(off, script)
				if (errOn == nil) != (errOff == nil) {
					t.Fatalf("txn %d: errors diverge: incremental %v, naive %v", txn, errOn, errOff)
				}
				assertTwinsEqual(t, on, off, fOn, fOff, bOn, bOff)
			}
		})
	}
}

// TestFaultSweepPruned re-runs the fault-sweep discipline over the
// declared-capability schema: a fault at every operation index must
// surface, roll back cleanly (capability enforcement suspended for the
// undo), and leave a survivor that replays to the same state and
// firings as a fresh DB.
func TestFaultSweepPruned(t *testing.T) {
	seeds := []int64{1, 2}
	stride := 1
	if testing.Short() {
		seeds = seeds[:1]
		stride = 3
	}
	mkDB := func(fired *[]string) *DB {
		db := Open()
		for _, p := range []string{"record", "record2"} {
			p := p
			db.RegisterProcedure(p, func(args []Value) error {
				*fired = append(*fired, fmt.Sprintf("%s%v", p, args[0]))
				return nil
			})
		}
		db.MustExec(pruneSchema)
		return db
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			script := genPruneScript(rand.New(rand.NewSource(seed)), 8)

			var baseFired []string
			base := mkDB(&baseFired)
			assertOL301(t, base)
			inj := faultinject.New()
			base.Session().SetInjector(inj)
			baseFired = nil
			if err := runScript(base, script); err != nil {
				t.Fatalf("clean run failed: %v", err)
			}
			baseState := base.Session().Store().Snapshot()
			ops := inj.Ops()
			if ops == 0 {
				t.Fatal("clean run hit no fault points; sweep is vacuous")
			}

			for idx := 0; idx < ops; idx += stride {
				kind := faultinject.Error
				if idx%2 == 1 {
					kind = faultinject.Panic
				}
				var fired []string
				db := mkDB(&fired)
				inj := faultinject.New()
				db.Session().SetInjector(inj)
				pre := db.Session().Store().Snapshot()
				fired = nil
				inj.ArmIndex(idx, kind)

				err := runScript(db, script)
				if err == nil {
					t.Errorf("op %d (%v): injected fault did not surface", idx, kind)
					continue
				}
				if errors.Is(err, ErrCorrupt) {
					t.Errorf("op %d (%v): forward-phase fault poisoned the DB: %v", idx, kind, err)
					continue
				}
				if got := db.Session().Store().Snapshot(); !reflect.DeepEqual(got, pre) {
					t.Errorf("op %d (%v): store differs from pre-transaction snapshot", idx, kind)
				}
				if ierr := db.CheckInvariants(); ierr != nil {
					t.Errorf("op %d (%v): invariants after rollback: %v", idx, kind, ierr)
				}
				fired = nil
				if rerr := runScript(db, script); rerr != nil {
					t.Errorf("op %d (%v): survivor replay failed: %v", idx, kind, rerr)
					continue
				}
				if !reflect.DeepEqual(fired, baseFired) {
					t.Errorf("op %d (%v): survivor fired %v, fresh DB fired %v", idx, kind, fired, baseFired)
				}
				if got := db.Session().Store().Snapshot(); !reflect.DeepEqual(got, baseState) {
					t.Errorf("op %d (%v): survivor state diverges from baseline", idx, kind)
				}
			}
		})
	}
}

// TestDeclareSurvivesReopen checks the `declare` statement is journaled
// like other DDL: after reopening from the data directory the
// restriction is still enforced and still shows in the lint.
func TestDeclareSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	var fired []string
	rec := func(args []Value) error {
		fired = append(fired, fmt.Sprintf("%v", args[0]))
		return nil
	}
	db, err := OpenDir(dir, WithProcedure("record", rec), WithProcedure("record2", rec))
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(pruneSchema)
	db.MustExec(`set quantity(:i1) = 3;`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenDir(dir, WithProcedure("record", rec), WithProcedure("record2", rec))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.Exec(`set threshold(:i1) = 3;`); err == nil {
		t.Fatal("readonly declaration lost across reopen")
	}
	if _, err := db2.Exec(`remove events(:i1) = 3;`); err == nil {
		t.Fatal("append-only declaration lost across reopen")
	}
	db2.MustExec(`set quantity(:i2) = 3;`)
	assertOL301(t, db2)
}

// deadbranchSchema is a rule with a live low-stock disjunct plus a dead
// one: the shared view flagged constrains its result to 3, and the
// disjunct asks for 9. Differencing stops specializing at shared views,
// so only the network build's expansion proves the disjunct empty
// (OL302).
const deadbranchSchema = `
create type item;
create function quantity(item) -> integer;
create function threshold(item) -> integer;
create function status(item) -> integer;
create shared function flagged(item i) -> integer
    as select s for each integer s where status(i) = s and s = 3;
create rule watch_dead() as
    when for each item i
    where quantity(i) < threshold(i)
       or (quantity(i) < -1000 and flagged(i) = 9)
    do order(i, quantity(i));
create item instances :i1, :i2, :i3, :i4;
set quantity(:i1) = 5000;
set quantity(:i2) = 5000;
set quantity(:i3) = 5000;
set quantity(:i4) = 5000;
set threshold(:i1) = 100;
set threshold(:i2) = 100;
set threshold(:i3) = 100;
set threshold(:i4) = 100;
set status(:i1) = 3;
set status(:i2) = 3;
set status(:i3) = 3;
set status(:i4) = 3;
activate watch_dead();
`

// TestDeadBranchWork pins the work the OL302 fold saves: over 100
// quantity updates only the live disjunct's two quantity differentials
// run — 200 executions, where compiling the dead disjunct would make
// 400 — and the rule fires exactly as under naive re-evaluation.
func TestDeadBranchWork(t *testing.T) {
	inc, naive, firedInc, firedNaive, outInc, outNaive := twinDBs(t, []string{"order"})
	inc.MustExec(deadbranchSchema)
	naive.MustExec(deadbranchSchema)
	inc.SetProfiling(true)
	for txn := 0; txn < 100; txn++ {
		// Every 5th update drops an item below its threshold, so the
		// rule fires; the others restore it or stay far above.
		q := 5000 + txn
		if txn%5 == 0 {
			q = 50
		}
		stmt := fmt.Sprintf("begin; set quantity(:i%d) = %d; commit;", txn%4+1, q)
		inc.MustExec(stmt)
		naive.MustExec(stmt)
	}
	var execs int64
	for _, pt := range inc.Observability().Profiler.Snapshot() {
		execs += pt.Execs
	}
	if execs != 200 {
		t.Errorf("profiler counted %d differential executions, want 200", execs)
	}
	if len(*firedInc) == 0 {
		t.Fatal("the rule never fired; the firing comparison is vacuous")
	}
	assertTwinsEqual(t, inc, naive, firedInc, firedNaive, outInc, outNaive)
}
