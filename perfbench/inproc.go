package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strconv"
	"time"

	"partdiff"
	"partdiff/internal/storage"
	"partdiff/internal/txn"
	"partdiff/internal/types"
)

// Sizes of the in-process workloads.
const (
	pointItems      = 10000
	bulkItems       = 1000
	queriesPerRound = 100 // point queries in each round's probe phase
	firesPerRound   = 20  // push/restore pairs in each round's probe phase
)

// inventorySchema is the §3.1 schema with the monitor_items rule; the
// action calls the benchmark's order procedure.
const inventorySchema = `
create type item;
create type supplier;
create function quantity(item) -> integer;
create function max_stock(item) -> integer;
create function min_stock(item) -> integer;
create function consume_freq(item) -> integer;
create function supplies(supplier) -> item;
create function delivery_time(item i, supplier s) -> integer;
create function threshold(item i) -> integer
    as
    select consume_freq(i) *
        delivery_time(i, s) + min_stock(i)
    for each supplier s where supplies(s) = i;
create rule monitor_items() as
     when for each item i
     where quantity(i) < threshold(i)
     do order(i, max_stock(i) - quantity(i));
`

// allItemsQuery reads back every modelled function of every item.
const allItemsQuery = `select i, quantity(i), min_stock(i), consume_freq(i), delivery_time(i, s)
    for each item i, supplier s where supplies(s) = i;`

// inventory is one in-process database built from a model.
type inventory struct {
	db    *partdiff.DB
	st    *storage.Store
	items []types.Value
	sups  []types.Value
	index map[string]int // rendered item OID → item index

	// The order procedure, the rule action, counts its calls and
	// records the items it is called for and the time of the first call
	// since the fields were last reset.
	orders  int
	fired   []int
	firedAt time.Time
}

// newInventory opens a database, creates the schema, populates it from
// m through the storage layer and activates monitor_items, timing the
// populate and activate steps.
func newInventory(m *model) (inv *inventory, populate, activate time.Duration, err error) {
	inv = &inventory{index: map[string]int{}}
	inv.db = partdiff.Open()
	if err = inv.db.RegisterProcedure("order", func(args []types.Value) error {
		inv.orders++
		if inv.firedAt.IsZero() {
			inv.firedAt = time.Now()
		}
		i, ok := inv.index[args[0].String()]
		if !ok {
			i = -1
		}
		inv.fired = append(inv.fired, i)
		return nil
	}); err != nil {
		return nil, 0, 0, err
	}
	if _, err = inv.db.Exec(inventorySchema); err != nil {
		return nil, 0, 0, fmt.Errorf("schema: %w", err)
	}
	sess := inv.db.Session()
	cat := sess.Catalog()
	inv.st = sess.Store()
	start := time.Now()
	for i, it := range m.Items {
		io, err := cat.NewObject("item")
		if err != nil {
			return nil, 0, 0, err
		}
		so, err := cat.NewObject("supplier")
		if err != nil {
			return nil, 0, 0, err
		}
		iv, sv := types.Obj(io), types.Obj(so)
		inv.items = append(inv.items, iv)
		inv.sups = append(inv.sups, sv)
		inv.index[iv.String()] = i
		if _, err := inv.st.Insert("type:item", types.Tuple{iv}); err != nil {
			return nil, 0, 0, err
		}
		if _, err := inv.st.Insert("type:supplier", types.Tuple{sv}); err != nil {
			return nil, 0, 0, err
		}
		if _, err := inv.st.Set("supplies", []types.Value{sv}, []types.Value{iv}); err != nil {
			return nil, 0, 0, err
		}
		if _, err := inv.st.Set("max_stock", []types.Value{iv}, []types.Value{types.Int(maxStock)}); err != nil {
			return nil, 0, 0, err
		}
		for _, op := range []setOp{
			{fnQuantity, i, it.Quantity}, {fnMinStock, i, it.MinStock},
			{fnConsumeFreq, i, it.ConsumeFreq}, {fnDeliveryTime, i, it.DeliveryTime},
		} {
			if err := inv.set(op); err != nil {
				return nil, 0, 0, err
			}
		}
	}
	populate = time.Since(start)
	start = time.Now()
	if _, err = inv.db.Exec("activate monitor_items();"); err != nil {
		return nil, 0, 0, fmt.Errorf("activate: %w", err)
	}
	return inv, populate, time.Since(start), nil
}

// set performs one update through Store.Set, inside the current
// transaction when one is open.
func (inv *inventory) set(op setOp) error {
	key := []types.Value{inv.items[op.Item]}
	if op.Fn == fnDeliveryTime {
		key = append(key, inv.sups[op.Item])
	}
	_, err := inv.st.Set(op.Fn, key, []types.Value{types.Int(op.Value)})
	return err
}

func (inv *inventory) meters() (meters, error) {
	var b bytes.Buffer
	if err := inv.db.WriteMetrics(&b); err != nil {
		return nil, err
	}
	return parseMeters(&b)
}

// inprocWorkload is a transaction stream for the in-process loop:
// next returns the ops of the next transaction. warmup transactions,
// about a second's worth, run untimed before the window.
type inprocWorkload struct {
	items, warmup int
	next          func(m *model, seed uint64) func() []setOp
}

var (
	pointWorkload = inprocWorkload{items: pointItems, warmup: 5000,
		next: func(m *model, seed uint64) func() []setOp {
			g := newPointGen(seed, m)
			ops := make([]setOp, 1)
			return func() []setOp { ops[0] = g.next(); return ops }
		}}
	bulkWorkload = inprocWorkload{items: bulkItems, warmup: 5,
		next: func(m *model, seed uint64) func() []setOp { return newBulkGen(seed, m).next }}
)

// phaseClock is written by the benchmark's own transaction hook, which
// runs after the session's hooks: its OnCommit marks the end of the
// check phase, its OnPersist the end of the persist phase.
type phaseClock struct {
	tr                  *tracer
	on                  bool
	afterCheck, persist int64
}

func (pc *phaseClock) hook() txn.Hook {
	return txn.Hook{
		Name: "perfbench",
		OnCommit: func() error {
			if pc.on {
				pc.afterCheck = pc.tr.now()
			}
			return nil
		},
		OnPersist: func(_, _ []storage.Event) error {
			if pc.on {
				pc.persist = pc.tr.now()
			}
			return nil
		},
	}
}

// runInproc runs fig6_point or fig7_bulk. The window is cut into
// rounds. Each round runs workload transactions for a second, then a
// short probe phase of point queries and firing probes, so the
// probes sample the same stretch of time as the transactions. Only the
// transaction phases count towards the window's length and the
// transaction metrics.
func runInproc(w inprocWorkload, cfg runConfig, r *result) error {
	// Set-up, repeated; the last database is the one measured.
	var inv *inventory
	var m *model
	var setups, pops, acts []float64
	for k := 0; moreSetups(k, setups); k++ {
		if inv != nil {
			if err := inv.db.Close(); err != nil {
				return err
			}
		}
		m = bulkModel(cfg.seed, w.items)
		// Start every set-up from a collected heap, so that none pays
		// for collecting the one before.
		inv = nil
		runtime.GC()
		start := time.Now()
		var pop, act time.Duration
		var err error
		if inv, pop, act, err = newInventory(m); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		pops = append(pops, pop.Seconds())
		acts = append(acts, act.Seconds())
	}
	defer inv.db.Close()
	r.e2e["setup_s"] = median(setups)
	r.layer["setup.populate_s"] = median(pops)
	r.layer["setup.activate_s"] = median(acts)

	tr := newTracer(0)
	pc := &phaseClock{tr: tr}
	if cfg.trace {
		tr = newTracer(1 << 20)
		pc.tr = tr
		inv.db.Session().Txns().AddHook(pc.hook())
	}
	next := w.next(m, cfg.seed)

	// One transaction: Begin, the Set calls, Commit. A traced
	// transaction records its spans.
	var failure error
	txnOnce := func(idx int64, traced bool) (lat int64) {
		ops := next()
		pc.on = traced
		t0 := tr.now()
		if err := inv.db.Begin(); err != nil {
			failure = err
			return 0
		}
		ws := tr.now()
		for _, op := range ops {
			if err := inv.set(op); err != nil {
				failure = err
				_ = inv.db.Rollback()
				return 0
			}
		}
		tc := tr.now()
		if err := inv.db.Commit(); err != nil {
			failure = err
			return 0
		}
		t1 := tr.now()
		for _, op := range ops {
			m.apply(op)
		}
		if traced {
			root := tr.add("txn", t0, t1, -1, idx)
			tr.add("storage.write", ws, tc, root, idx)
			tr.add("txn.check", tc, pc.afterCheck, root, idx)
			tr.add("txn.persist", pc.afterCheck, pc.persist, root, idx)
			tr.add("txn.ack", pc.persist, t1, root, idx)
		}
		return t1 - t0
	}

	// Warm-up, untimed.
	for k := 0; k < w.warmup && failure == nil; k++ {
		txnOnce(-1, false)
	}

	// The measured window. With tracing, transactions alternate between
	// traced and untraced so the difference of their medians is the
	// tracing overhead.
	pr := newProber(inv, m, cfg.seed)
	var acc, last meters
	var ms0, ms1 runtime.MemStats
	var allocs, bytes, gcs, pauseNs uint64
	var busy time.Duration
	plain, traced := newLatencies(1<<20), newLatencies(1<<19)
	var txns int64
	runtime.GC()
	window := time.Duration(cfg.seconds) * time.Second
	for round := 0; busy < window && failure == nil; round++ {
		before, err := inv.meters()
		if err != nil {
			return err
		}
		orders := inv.orders
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for end := start.Add(time.Second); failure == nil && time.Now().Before(end); txns++ {
			t := cfg.trace && txns%2 == 1
			lat := txnOnce(txns, t)
			if failure != nil {
				break
			}
			if t {
				traced.add(lat)
			} else {
				plain.add(lat)
			}
		}
		busy += time.Since(start)
		runtime.ReadMemStats(&ms1)
		allocs += ms1.Mallocs - ms0.Mallocs
		bytes += ms1.TotalAlloc - ms0.TotalAlloc
		gcs += uint64(ms1.NumGC - ms0.NumGC)
		pauseNs += ms1.PauseTotalNs - ms0.PauseTotalNs
		if last, err = inv.meters(); err != nil {
			return err
		}
		acc = acc.add(last.sub(before))
		if inv.orders != orders {
			r.fail("round %d: %d rule firings, want 0", round, inv.orders-orders)
		}
		if failure == nil {
			pr.round(r)
		}
	}
	r.attempted += int(txns)
	if failure != nil {
		r.attempted++
		r.fail("transaction %d: %v", txns, failure)
		return nil
	}

	all := plain
	if cfg.trace {
		all = &latencies{ns: append(append([]int64(nil), plain.ns...), traced.ns...)}
	}
	s := all.summarize()
	r.txnLatency(s, float64(txns)/busy.Seconds())
	r.e2e["allocs_per_txn"] = float64(allocs) / float64(txns)
	r.e2e["bytes_per_txn"] = float64(bytes) / float64(txns)
	r.layer["go.gc_cycles_per_ktxn"] = float64(gcs) * 1000 / float64(txns)
	r.layer["go.gc_pause_ms"] = float64(pauseNs) / 1e6
	r.meterLayers(acc, last, float64(txns))
	pr.report(r)
	if cfg.trace {
		ps, ts := plain.summarize(), traced.summarize()
		r.layer["trace.overhead_us"] = ts.P50us - ps.P50us
		r.note("trace: traced p50 %.3f us (n=%d), untraced p50 %.3f us (n=%d)", ts.P50us, ts.N, ps.P50us, ps.N)
		r.spanLayers(tr)
	}
	plain, traced, all = nil, nil, nil

	runtime.GC()
	runtime.ReadMemStats(&ms1)
	r.e2e["heap_mb"] = float64(ms1.HeapAlloc) / (1 << 20)

	// Output checks after the window.
	r.attempted++
	if res, err := inv.db.Query(allItemsQuery); err != nil {
		r.fail("query: %v", err)
	} else if msg := compareRows(m, render(res.Tuples), inv.index); msg != "" {
		r.fail("all-items query: %s", msg)
	}
	r.attempted++
	if err := inv.db.CheckInvariants(); err != nil {
		r.fail("CheckInvariants: %v", err)
	}
	if cfg.trace {
		return r.writeTrace(cfg, tr)
	}
	return nil
}

// pointQuery reads back every modelled function of the item bound to
// the interface variable :it.
const pointQuery = `select quantity(:it), min_stock(:it), consume_freq(:it), delivery_time(:it, s)
    for each supplier s where supplies(s) = :it;`

// prober runs the probe phase of each round: point queries of
// seeded-random items, each checked against the model, and firing
// probes. A firing probe is a transaction that pushes one item's
// quantity below its threshold, timed from Begin to the call of the
// rule action, followed by a transaction that restores it; the oracle
// checks which items each fires for.
type prober struct {
	inv            *inventory
	m              *model
	rnd            *rand.Rand
	g              *probeGen
	queries, fires *latencies
}

func newProber(inv *inventory, m *model, seed uint64) *prober {
	return &prober{inv: inv, m: m, rnd: newRand(seed, 7), g: newProbeGen(seed, m),
		queries: newLatencies(1 << 12), fires: newLatencies(1 << 10)}
}

func (p *prober) round(r *result) {
	// Probe on a collected heap, so that no probe shares its time with
	// a collection left over from the transaction phase.
	runtime.GC()
	for q := 0; q < queriesPerRound; q++ {
		i := p.rnd.IntN(len(p.m.Items))
		p.inv.db.SetVar("it", p.inv.items[i])
		start := time.Now()
		res, err := p.inv.db.Query(pointQuery)
		p.queries.add(int64(time.Since(start)))
		r.attempted++
		if err != nil {
			r.fail("point query: %v", err)
			continue
		}
		rows := render(res.Tuples)
		if len(rows) != 1 {
			r.fail("point query of item %d: %d rows, want 1", i, len(rows))
			continue
		}
		one := &model{Items: []item{p.m.Items[i]}}
		row := append([]string{"item"}, rows[0]...)
		if msg := compareRows(one, [][]string{row}, map[string]int{"item": 0}); msg != "" {
			r.fail("point query of item %d: %s", i, msg)
		}
	}
	for f := 0; f < firesPerRound; f++ {
		push, restore := p.g.next()
		for _, op := range []setOp{push, restore} {
			want := p.m.firings([]setOp{op})
			p.inv.fired, p.inv.firedAt = p.inv.fired[:0], time.Time{}
			start := time.Now()
			err := p.inv.txn(op)
			r.attempted++
			if err != nil {
				r.fail("firing probe: %v", err)
				return
			}
			p.m.apply(op)
			if fmt.Sprint(p.inv.fired) != fmt.Sprint(want) {
				r.fail("firing probe on item %d: fired for %v, oracle says %v", op.Item, p.inv.fired, want)
			}
			if op == push && !p.inv.firedAt.IsZero() {
				p.fires.add(int64(p.inv.firedAt.Sub(start)))
			}
		}
	}
}

func (p *prober) report(r *result) {
	q, f := p.queries.summarize(), p.fires.summarize()
	r.e2e["query_p50_us"] = q.P50us
	r.e2e["fire_notify_p50_us"] = f.P50us
	r.note("probes: %d point queries, %d firing probes", q.N, f.N)
}

// compareRows checks rows of (item, quantity, min_stock, consume_freq,
// delivery_time) against the model: one row per item, every value
// equal. index maps the rendered item to its model index. It returns ""
// when they agree, otherwise the first difference.
func compareRows(m *model, rows [][]string, index map[string]int) string {
	if len(rows) != len(m.Items) {
		return fmt.Sprintf("%d rows, want %d", len(rows), len(m.Items))
	}
	seen := make([]bool, len(m.Items))
	for _, row := range rows {
		if len(row) != 5 {
			return fmt.Sprintf("row %v: %d columns, want 5", row, len(row))
		}
		i, ok := index[row[0]]
		if !ok || seen[i] {
			return fmt.Sprintf("row %v: unknown or repeated item", row)
		}
		seen[i] = true
		it := m.Items[i]
		for j, want := range []int64{it.Quantity, it.MinStock, it.ConsumeFreq, it.DeliveryTime} {
			if got, err := strconv.ParseInt(row[j+1], 10, 64); err != nil || got != want {
				return fmt.Sprintf("item %d column %d = %s, want %d", i, j+1, row[j+1], want)
			}
		}
	}
	return ""
}

// render converts result tuples to rows of rendered values.
func render(ts []types.Tuple) [][]string {
	rows := make([][]string, len(ts))
	for i, t := range ts {
		rows[i] = make([]string, len(t))
		for j, v := range t {
			rows[i][j] = v.String()
		}
	}
	return rows
}

// txn runs ops in one transaction.
func (inv *inventory) txn(ops ...setOp) error {
	if err := inv.db.Begin(); err != nil {
		return err
	}
	for _, op := range ops {
		if err := inv.set(op); err != nil {
			_ = inv.db.Rollback()
			return err
		}
	}
	return inv.db.Commit()
}
