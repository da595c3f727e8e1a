package main

import (
	"math/rand/v2"
	"sort"
)

// item is the benchmark's model of one §3.1 inventory item and its one
// supplier. The rule condition of monitor_items holds for the item when
// quantity < threshold, with threshold = consume_freq·delivery_time +
// min_stock.
type item struct {
	Quantity, MinStock, ConsumeFreq, DeliveryTime int64
}

func (it item) threshold() int64 { return it.ConsumeFreq*it.DeliveryTime + it.MinStock }

func (it item) low() bool { return it.Quantity < it.threshold() }

// Stored functions an update may set.
const (
	fnQuantity     = "quantity"
	fnMinStock     = "min_stock"
	fnConsumeFreq  = "consume_freq"
	fnDeliveryTime = "delivery_time"
)

// setOp is one `set fn(item) = value` update.
type setOp struct {
	Fn    string
	Item  int
	Value int64
}

// model is the benchmark's expected state of every item.
type model struct{ Items []item }

// with returns the item after op, which must name this item.
func (it item) with(op setOp) item {
	switch op.Fn {
	case fnQuantity:
		it.Quantity = op.Value
	case fnMinStock:
		it.MinStock = op.Value
	case fnConsumeFreq:
		it.ConsumeFreq = op.Value
	case fnDeliveryTime:
		it.DeliveryTime = op.Value
	}
	return it
}

func (m *model) apply(op setOp) { m.Items[op.Item] = m.Items[op.Item].with(op) }

// firings is the firing oracle: the items whose rule condition the
// transaction ops turns from false to true, in increasing order. It
// leaves m unchanged.
func (m *model) firings(ops []setOp) []int {
	after := map[int]item{}
	for _, op := range ops {
		it, ok := after[op.Item]
		if !ok {
			it = m.Items[op.Item]
		}
		after[op.Item] = it.with(op)
	}
	var out []int
	for i, it := range after {
		if !m.Items[i].low() && it.low() {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// Value ranges. Bulk and point workloads keep every quantity at or
// above bulkQuantityMin and every threshold at or below 21·3+100 = 163,
// so the rule never fires.
const (
	bulkQuantityMin  = 4800
	bulkQuantitySpan = 5200 // quantities in [4800, 9999]
	maxStock         = 10000
	bulkMinStock     = 100
	freqMax          = 21 // consume_freq in [1, 21]
	deliveryMax      = 3  // delivery_time in [1, 3]
)

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// differentIn draws a value in [lo, lo+span) that differs from old, so
// every update is a real change.
func differentIn(r *rand.Rand, old, lo, span int64) int64 {
	v := lo + r.Int64N(span-1)
	if v >= old && old >= lo && old < lo+span {
		v++
	}
	return v
}

// bulkModel is the seeded initial state of the in-process workloads.
func bulkModel(seed uint64, n int) *model {
	r := newRand(seed, 1)
	m := &model{Items: make([]item, n)}
	for i := range m.Items {
		m.Items[i] = item{
			Quantity:     bulkQuantityMin + r.Int64N(bulkQuantitySpan),
			MinStock:     bulkMinStock,
			ConsumeFreq:  1 + r.Int64N(freqMax),
			DeliveryTime: 1 + r.Int64N(deliveryMax),
		}
	}
	return m
}

// pointGen generates the fig6_point stream: one quantity update of a
// seeded-random item per transaction, far above every threshold.
type pointGen struct {
	r *rand.Rand
	m *model
}

func newPointGen(seed uint64, m *model) *pointGen { return &pointGen{r: newRand(seed, 2), m: m} }

func (g *pointGen) next() setOp {
	i := g.r.IntN(len(g.m.Items))
	return setOp{Fn: fnQuantity, Item: i,
		Value: differentIn(g.r, g.m.Items[i].Quantity, bulkQuantityMin, bulkQuantitySpan)}
}

// bulkGen generates the fig7_bulk stream: every transaction gives every
// item a new quantity, delivery_time and consume_freq.
type bulkGen struct {
	r   *rand.Rand
	m   *model
	ops []setOp
}

func newBulkGen(seed uint64, m *model) *bulkGen {
	return &bulkGen{r: newRand(seed, 3), m: m, ops: make([]setOp, 0, 3*len(m.Items))}
}

// next returns the ops of the next transaction; the slice is reused by
// the following call.
func (g *bulkGen) next() []setOp {
	g.ops = g.ops[:0]
	for i, it := range g.m.Items {
		g.ops = append(g.ops,
			setOp{fnQuantity, i, differentIn(g.r, it.Quantity, bulkQuantityMin, bulkQuantitySpan)},
			setOp{fnDeliveryTime, i, differentIn(g.r, it.DeliveryTime, 1, deliveryMax)},
			setOp{fnConsumeFreq, i, differentIn(g.r, it.ConsumeFreq, 1, freqMax)})
	}
	return g.ops
}

// probeGen generates the post-window firing probe of the in-process
// workloads: a push of one item's quantity below its threshold (the
// rule fires once), then a restore far above it.
type probeGen struct {
	r *rand.Rand
	m *model
}

func newProbeGen(seed uint64, m *model) *probeGen { return &probeGen{r: newRand(seed, 4), m: m} }

func (g *probeGen) next() (push, restore setOp) {
	i := g.r.IntN(len(g.m.Items))
	thr := g.m.Items[i].threshold()
	push = setOp{fnQuantity, i, thr - 1 - g.r.Int64N(thr)}
	restore = setOp{fnQuantity, i, bulkQuantityMin + g.r.Int64N(bulkQuantitySpan)}
	return push, restore
}

// Serving-workload value ranges: quantities in [400, 999] stay above
// every in-range threshold (at most 21·3+140 = 203).
const (
	serveQuantityMin  = 400
	serveQuantitySpan = 600
	serveMinStockMin  = 100
	serveMinStockSpan = 41
	serveFireShare    = 0.05
)

func serveModel(seed uint64, n int) *model {
	r := newRand(seed, 5)
	m := &model{Items: make([]item, n)}
	for i := range m.Items {
		m.Items[i] = item{
			Quantity:     serveQuantityMin + r.Int64N(serveQuantitySpan),
			MinStock:     serveMinStockMin + r.Int64N(serveMinStockSpan),
			ConsumeFreq:  1 + r.Int64N(freqMax),
			DeliveryTime: 1 + r.Int64N(deliveryMax),
		}
	}
	return m
}

// request is one step of the serve_mixed client on its closed-loop
// connection: a snapshot query, or a transaction of 1–3 sets on
// distinct items.
type request struct {
	Query bool
	Ops   []setOp
}

// pending is an item pushed below its threshold, with the transaction
// index at which it is restored and the op that restores it.
type pending struct {
	due     int
	restore setOp
}

// serveGen generates the serve_mixed request stream. Every 4th request
// is a query. Of the transactions, about 5% push one item below its
// threshold — by lowering its quantity or raising its min_stock — and a
// transaction 1–4 later restores it. The rest update quantities (80%)
// or the threshold side (delivery_time, min_stock) within ranges that
// keep every item above its threshold. Items awaiting a restore are
// left alone otherwise, and no transaction sets two functions of the
// same item.
type serveGen struct {
	r       *rand.Rand
	m       *model
	k       int // requests generated
	txn     int // transactions generated
	pending map[int]pending
}

func newServeGen(seed uint64, m *model) *serveGen {
	return &serveGen{r: newRand(seed, 6), m: m, pending: map[int]pending{}}
}

// next returns the next request. The caller applies a transaction's ops
// to the model once the server acknowledges it, before asking for the
// following request.
func (g *serveGen) next() request {
	g.k++
	if g.k%4 == 0 {
		return request{Query: true}
	}
	g.txn++
	used := map[int]bool{}
	var ops []setOp
	// Due restores first, in item order so the stream is reproducible.
	for i := 0; i < len(g.m.Items) && len(ops) < 3; i++ {
		if p, ok := g.pending[i]; ok && p.due <= g.txn {
			ops = append(ops, p.restore)
			used[i] = true
			delete(g.pending, i)
		}
	}
	want := 1 + g.r.IntN(3)
	if len(ops) < want && g.r.Float64() < serveFireShare {
		if i, ok := g.freeItem(used); ok {
			ops = append(ops, g.push(i))
			used[i] = true
		}
	}
	for len(ops) < want {
		i, ok := g.freeItem(used)
		if !ok {
			break
		}
		used[i] = true
		it := g.m.Items[i]
		switch c := g.r.IntN(10); {
		case c < 8:
			ops = append(ops, setOp{fnQuantity, i, differentIn(g.r, it.Quantity, serveQuantityMin, serveQuantitySpan)})
		case c == 8:
			ops = append(ops, setOp{fnDeliveryTime, i, differentIn(g.r, it.DeliveryTime, 1, deliveryMax)})
		default:
			ops = append(ops, setOp{fnMinStock, i, differentIn(g.r, it.MinStock, serveMinStockMin, serveMinStockSpan)})
		}
	}
	return request{Ops: ops}
}

// freeItem draws an item that is neither pending nor already in the
// transaction.
func (g *serveGen) freeItem(used map[int]bool) (int, bool) {
	for tries := 0; tries < 64; tries++ {
		i := g.r.IntN(len(g.m.Items))
		if _, p := g.pending[i]; !p && !used[i] {
			return i, true
		}
	}
	return 0, false
}

// push returns an op that puts item i below its threshold, and records
// the restore that lifts it back above.
func (g *serveGen) push(i int) setOp {
	it := g.m.Items[i]
	var op, restore setOp
	if g.r.IntN(2) == 0 {
		thr := it.threshold()
		op = setOp{fnQuantity, i, thr - 1 - g.r.Int64N(20)}
		restore = setOp{fnQuantity, i, serveQuantityMin + g.r.Int64N(serveQuantitySpan)}
	} else {
		op = setOp{fnMinStock, i, it.Quantity + 1 + g.r.Int64N(20)}
		restore = setOp{fnMinStock, i, serveMinStockMin + g.r.Int64N(serveMinStockSpan)}
	}
	g.pending[i] = pending{due: g.txn + 1 + g.r.IntN(4), restore: restore}
	return op
}
