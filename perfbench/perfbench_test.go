package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"regexp"
	"strings"
	"testing"
)

// streamDigest hashes the first requests of every workload generated
// from seed, applying each transaction to the model as the benchmark
// does once the program acknowledges it.
func streamDigest(seed uint64) string {
	h := fnv.New64a()
	pm := bulkModel(seed, 500)
	pg := newPointGen(seed, pm)
	for k := 0; k < 2000; k++ {
		op := pg.next()
		fmt.Fprint(h, op)
		pm.apply(op)
	}
	bm := bulkModel(seed, 200)
	bg := newBulkGen(seed, bm)
	for k := 0; k < 3; k++ {
		for _, op := range bg.next() {
			fmt.Fprint(h, op)
			bm.apply(op)
		}
	}
	sm := serveModel(seed, 300)
	sg := newServeGen(seed, sm)
	for k := 0; k < 2000; k++ {
		req := sg.next()
		fmt.Fprint(h, req, sm.firings(req.Ops))
		for _, op := range req.Ops {
			sm.apply(op)
		}
	}
	fmt.Fprint(h, pm.Items, bm.Items, sm.Items)
	return fmt.Sprintf("%x", h.Sum64())
}

func TestSameSeedSameStream(t *testing.T) {
	a, b, c := streamDigest(1), streamDigest(1), streamDigest(2)
	if a != b {
		t.Fatalf("seed 1 gave two streams: %s and %s", a, b)
	}
	if a == c {
		t.Fatalf("seeds 1 and 2 gave the same stream %s", a)
	}
}

func TestServeStreamShape(t *testing.T) {
	m := serveModel(7, serveItems)
	g := newServeGen(7, m)
	var queries, txns, firing int
	for k := 0; k < 8000; k++ {
		req := g.next()
		if req.Query {
			queries++
			continue
		}
		txns++
		if n := len(req.Ops); n < 1 || n > 3 {
			t.Fatalf("transaction with %d sets", n)
		}
		seen := map[int]bool{}
		for _, op := range req.Ops {
			if seen[op.Item] {
				t.Fatalf("transaction sets item %d twice: %v", op.Item, req.Ops)
			}
			seen[op.Item] = true
		}
		if f := m.firings(req.Ops); len(f) > 0 {
			firing++
		}
		for _, op := range req.Ops {
			m.apply(op)
		}
	}
	if queries != 2000 {
		t.Errorf("%d queries in 8000 requests, want every 4th", queries)
	}
	if share := float64(firing) / float64(txns); share < 0.03 || share > 0.07 {
		t.Errorf("firing share %.3f, want about 5%%", share)
	}
	low := 0
	for _, it := range m.Items {
		if it.low() {
			low++
		}
	}
	if low > len(g.pending) {
		t.Errorf("%d items below threshold but only %d awaiting a restore", low, len(g.pending))
	}
}

func TestBulkStreamNeverFires(t *testing.T) {
	m := bulkModel(3, 1000)
	g := newBulkGen(3, m)
	for k := 0; k < 20; k++ {
		ops := g.next()
		if f := m.firings(ops); len(f) > 0 {
			t.Fatalf("bulk transaction %d fires for %v", k, f)
		}
		for _, op := range ops {
			m.apply(op)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	l := newLatencies(0)
	for v := int64(1000); v >= 1; v-- {
		l.add(v * 1000)
	}
	s := l.summarize()
	if s.N != 1000 || s.P50us != 500 || s.MeanUs != 500.5 {
		t.Errorf("summary of 1..1000 us = %+v", s)
	}
	for _, c := range []struct {
		bp     int
		us     float64
		beyond int
	}{{5000, 500, 500}, {9000, 900, 100}, {9900, 990, 10}, {9990, 999, 1}} {
		if got := s.percentileUs(c.bp); got != c.us {
			t.Errorf("%s of 1..1000 us = %v, want %v", tailLabel(c.bp), got, c.us)
		}
		if got := s.N - nearestRank(s.N, c.bp); got != c.beyond {
			t.Errorf("%s of 1000 leaves %d samples beyond it, want %d", tailLabel(c.bp), got, c.beyond)
		}
	}
	if got := (summary{}).percentileUs(9900); got != 0 {
		t.Errorf("p99 of no samples = %v", got)
	}
	if got := tailLabel(9990); got != "p99.9" {
		t.Errorf("tailLabel(9990) = %q", got)
	}
}

// oracleScript is a hand-checked 3-item script. Item 0 starts far above
// its threshold 2·3+100 = 106, item 1 just above its threshold
// 10·3+100 = 130, item 2 already below its threshold 106. Only the
// second transaction fires, for item 1.
var oracleScript = []struct {
	ops  []setOp
	want []int
}{
	{[]setOp{{fnQuantity, 0, 600}}, nil},
	{[]setOp{{fnMinStock, 1, 150}}, []int{1}},                     // threshold 180 > 150
	{[]setOp{{fnQuantity, 2, 40}}, nil},                           // stays below: no new instance
	{[]setOp{{fnQuantity, 0, 100}, {fnMinStock, 0, 90}}, nil},     // 100 ≥ 2·3+90 after the whole txn
	{[]setOp{{fnDeliveryTime, 1, 1}, {fnQuantity, 1, 1000}}, nil}, // item 1 leaves the condition
}

func oracleModel() *model {
	return &model{Items: []item{
		{Quantity: 500, MinStock: 100, ConsumeFreq: 2, DeliveryTime: 3},
		{Quantity: 150, MinStock: 100, ConsumeFreq: 10, DeliveryTime: 3},
		{Quantity: 50, MinStock: 100, ConsumeFreq: 2, DeliveryTime: 3},
	}}
}

func TestFiringOracle(t *testing.T) {
	m := oracleModel()
	fires := 0
	for k, step := range oracleScript {
		got := m.firings(step.ops)
		if fmt.Sprint(got) != fmt.Sprint(step.want) {
			t.Errorf("transaction %d: oracle fires %v, want %v", k, got, step.want)
		}
		fires += len(got)
		for _, op := range step.ops {
			m.apply(op)
		}
	}
	if fires != 1 {
		t.Errorf("%d firings over the script, want exactly 1", fires)
	}
}

// TestFiringOracleAgainstProgram runs the same script through the
// in-process database and compares the items its rule action is called
// for with the oracle.
func TestFiringOracleAgainstProgram(t *testing.T) {
	m := oracleModel()
	inv, _, _, err := newInventory(m)
	if err != nil {
		t.Fatal(err)
	}
	defer inv.db.Close()
	for k, step := range oracleScript {
		inv.fired = inv.fired[:0]
		if err := inv.txn(step.ops...); err != nil {
			t.Fatalf("transaction %d: %v", k, err)
		}
		if fmt.Sprint(inv.fired) != fmt.Sprint(step.want) {
			t.Errorf("transaction %d: program fires %v, oracle says %v", k, inv.fired, step.want)
		}
		for _, op := range step.ops {
			m.apply(op)
		}
	}
	res, err := inv.db.Query(allItemsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if msg := compareRows(m, render(res.Tuples), inv.index); msg != "" {
		t.Error(msg)
	}
}

// benchmarkFile is the part of BENCHMARK.json the metric lists must
// agree with.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricNames(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, listed []struct{ Name, Unit, Better string }, want []metric, max int) {
		if len(listed) < 1 || len(listed) > max {
			t.Errorf("%s: %d metrics, want 1 to %d", kind, len(listed), max)
		}
		if len(listed) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(listed), len(want))
		}
		for i, m := range listed {
			if !name.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s: bad or repeated name %q", kind, m.Name)
			}
			seen[m.Name] = true
			if !unit.MatchString(m.Unit) {
				t.Errorf("%s: bad unit %q", kind, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: %s: better = %q", kind, m.Name, m.Better)
			}
			if i < len(want) && (want[i].Name != m.Name || want[i].Unit != m.Unit) {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark reports %s [%s]",
					kind, i, m.Name, m.Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, 16)
	check("per_layer", f.PerLayer, perLayer, 128)
	for _, w := range f.Workloads {
		if !name.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("bad or repeated workload name %q", w.Name)
		}
		seen[w.Name] = true
		known := false
		for _, k := range workloads {
			known = known || k == w.Name
		}
		if !known {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer(0)
	root := tr.add("root", 0, 100, -1, 1)
	tr.add("a", 10, 40, root, 1)
	tr.add("b", 30, 60, root, 1)  // overlaps a: the union 10..60 counts once
	tr.add("c", 90, 150, root, 1) // clipped to the root's end
	sts := tr.selfTimes()
	if got := self(sts, "root"); got != 0.04 { // (100 − 50 − 10) ns in us
		t.Errorf("root self time %v us, want 0.04", got)
	}
	if got := mean(sts, "c"); got != 0.06 {
		t.Errorf("c mean %v us, want 0.06", got)
	}
}

func TestParseMeters(t *testing.T) {
	before, err := parseMeters(strings.NewReader(`# TYPE partdiff_x_total counter
partdiff_x_total{kind="a"} 1
partdiff_h_seconds_sum 0.5
partdiff_h_seconds_count 2
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMeters(strings.NewReader(`partdiff_x_total{kind="a"} 3
partdiff_x_total{kind="b"} 4
partdiff_xy_total 100
partdiff_h_seconds_sum 1.5
partdiff_h_seconds_count 6
`))
	if err != nil {
		t.Fatal(err)
	}
	d := after.sub(before)
	if got := d.sum("partdiff_x_total"); got != 6 {
		t.Errorf("delta over labels = %v, want 6", got)
	}
	if got := d.sum("partdiff_x"); got != 0 {
		t.Errorf("a name prefix matched: %v", got)
	}
	if got := d.histMean("partdiff_h_seconds"); got != 0.25 {
		t.Errorf("histogram mean = %v, want 0.25", got)
	}
	if _, err := parseMeters(strings.NewReader("partdiff_bad\n")); err == nil {
		t.Error("a line without a value parsed")
	}
}
