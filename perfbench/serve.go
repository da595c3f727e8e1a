package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	serveItems  = 1000
	serveWarmup = 400 // untimed requests before the window
)

// oidPattern finds rendered object identifiers in an event instance.
var oidPattern = regexp.MustCompile(`#\d+`)

// serveSchema is the §3.1 schema with a sku key per item, so results
// name items by their model index, and a print action.
const serveSchema = `
create type item;
create type supplier;
create function sku(item) -> integer;
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
     do print('order', sku(i), max_stock(i) - quantity(i));
`

// Queries of the serving workload: the snapshot select of the window,
// and the full read-back of the recovery check.
const (
	serveQuery = `select sku(i), quantity(i) for each item i;`
	skuQuery   = `select i, sku(i) for each item i;`
	fullQuery  = `select sku(i), quantity(i), min_stock(i), consume_freq(i), delivery_time(i, s)
    for each item i, supplier s where supplies(s) = i;`
)

// server is one amosd process.
type server struct {
	cmd  *exec.Cmd
	base string     // http://host:port
	done chan error // receives cmd.Wait's result once the process exits

	mu   sync.Mutex
	tail []string // last lines of its standard error
}

// startServer starts amosd on dataDir and waits until it is ready.
func startServer(ctx context.Context, bin, dataDir string, client *http.Client) (*server, error) {
	s := &server{done: make(chan error, 1)}
	s.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-data", dataDir, "-sync", "group")
	s.cmd.SysProcAttr = childAttr()
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start amosd: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "serving on http://"); i >= 0 {
				f := strings.Fields(line[i+len("serving on "):])
				select {
				case addr <- f[0]:
				default:
				}
			}
			s.mu.Lock()
			s.tail = append(s.tail, line)
			if len(s.tail) > 20 {
				s.tail = s.tail[1:]
			}
			s.mu.Unlock()
		}
		_, _ = io.Copy(io.Discard, stderr)
		s.done <- s.cmd.Wait()
	}()
	wait, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	select {
	case s.base = <-addr:
	case err := <-s.done:
		s.done <- err
		return nil, fmt.Errorf("amosd exited before serving: %v: %s", err, s.stderrTail())
	case <-wait.Done():
		_ = s.kill()
		return nil, fmt.Errorf("amosd did not start: %s", s.stderrTail())
	}
	for {
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-wait.Done():
			_ = s.kill()
			return nil, fmt.Errorf("amosd not ready: %v: %s", err, s.stderrTail())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (s *server) stderrTail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.tail, " | ")
}

// kill sends SIGKILL and waits for the process to end.
func (s *server) kill() error {
	_ = s.cmd.Process.Kill()
	<-s.done
	return nil
}

// stop asks amosd to shut down, kills it after 10 s, and waits for it
// to end.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		if err != nil {
			return fmt.Errorf("amosd exit: %v: %s", err, s.stderrTail())
		}
		return nil
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
		return errors.New("amosd did not stop on SIGTERM")
	}
}

// apiResponse is the body of /v1/exec and /v1/query.
type apiResponse struct {
	Results []struct {
		Rows [][]string `json:"rows"`
	} `json:"results"`
	Error string `json:"error"`
}

// do sends one request and decodes the API response.
func do(client *http.Client, req *http.Request) (*apiResponse, error) {
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out apiResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("%s: status %d: %w", req.URL.Path, resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK || out.Error != "" {
		return nil, fmt.Errorf("%s: status %d: %s", req.URL.Path, resp.StatusCode, out.Error)
	}
	return &out, nil
}

func (s *server) exec(client *http.Client, src string) error {
	req, err := http.NewRequest(http.MethodPost, s.base+"/v1/exec", strings.NewReader(src))
	if err != nil {
		return err
	}
	_, err = do(client, req)
	return err
}

// query runs one select and returns its rows.
func (s *server) query(client *http.Client, q string) ([][]string, error) {
	req, err := http.NewRequest(http.MethodGet, s.base+"/v1/query?q="+url.QueryEscape(q), nil)
	if err != nil {
		return nil, err
	}
	resp, err := do(client, req)
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != 1 {
		return nil, fmt.Errorf("query: %d results, want 1", len(resp.Results))
	}
	return resp.Results[0].Rows, nil
}

func (s *server) get(client *http.Client, path string) ([]byte, error) {
	resp, err := client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return b, err
}

func (s *server) meters(client *http.Client) (meters, error) {
	b, err := s.get(client, "/metrics")
	if err != nil {
		return nil, err
	}
	return parseMeters(strings.NewReader(string(b)))
}

// memStats is the part of runtime.MemStats read from /debug/vars.
type memStats struct {
	Mallocs, TotalAlloc, HeapAlloc, NumGC, PauseTotalNs uint64
}

func (s *server) memStats(client *http.Client) (memStats, error) {
	b, err := s.get(client, "/debug/vars")
	if err != nil {
		return memStats{}, err
	}
	var v struct{ Memstats memStats }
	if err := json.Unmarshal(b, &v); err != nil {
		return memStats{}, fmt.Errorf("/debug/vars: %w", err)
	}
	return v.Memstats, nil
}

// populateSource is one transaction creating and setting every item.
func populateSource(m *model) string {
	var b strings.Builder
	b.WriteString("begin;\n")
	for i, it := range m.Items {
		fmt.Fprintf(&b, "create item instances :i%d; create supplier instances :s%d;\n", i, i)
		fmt.Fprintf(&b, "set sku(:i%d) = %d; set supplies(:s%d) = :i%d; set max_stock(:i%d) = %d;\n", i, i, i, i, i, maxStock)
		fmt.Fprintf(&b, "set quantity(:i%d) = %d; set min_stock(:i%d) = %d; set consume_freq(:i%d) = %d; set delivery_time(:i%d, :s%d) = %d;\n",
			i, it.Quantity, i, it.MinStock, i, it.ConsumeFreq, i, i, it.DeliveryTime)
	}
	b.WriteString("commit;\n")
	return b.String()
}

// txnSource renders a transaction's ops as AMOSQL.
func txnSource(ops []setOp) string {
	var b strings.Builder
	b.WriteString("begin;")
	for _, op := range ops {
		if op.Fn == fnDeliveryTime {
			fmt.Fprintf(&b, " set %s(:i%d, :s%d) = %d;", op.Fn, op.Item, op.Item, op.Value)
		} else {
			fmt.Fprintf(&b, " set %s(:i%d) = %d;", op.Fn, op.Item, op.Value)
		}
	}
	b.WriteString(" commit;")
	return b.String()
}

// skuIndex maps the rendered sku of each item to its model index.
func skuIndex(n int) map[string]int {
	idx := make(map[string]int, n)
	for i := 0; i < n; i++ {
		idx[strconv.Itoa(i)] = i
	}
	return idx
}

// checkQuantities compares rows of (sku, quantity) with the model.
func checkQuantities(m *model, rows [][]string) string {
	if len(rows) != len(m.Items) {
		return fmt.Sprintf("%d rows, want %d", len(rows), len(m.Items))
	}
	seen := make([]bool, len(m.Items))
	for _, row := range rows {
		if len(row) != 2 {
			return fmt.Sprintf("row %v: %d columns, want 2", row, len(row))
		}
		i, err := strconv.Atoi(row[0])
		if err != nil || i < 0 || i >= len(m.Items) || seen[i] {
			return fmt.Sprintf("row %v: unknown or repeated item", row)
		}
		seen[i] = true
		if row[1] != strconv.FormatInt(m.Items[i].Quantity, 10) {
			return fmt.Sprintf("item %d quantity %s, want %d", i, row[1], m.Items[i].Quantity)
		}
	}
	return ""
}

// sseEvent is one frame received on the event stream.
type sseEvent struct {
	ID        uint64
	Type      string   `json:"type"`
	Op        string   `json:"op"`
	CommitSeq uint64   `json:"commit_seq"`
	Instances []string `json:"instances"`
	Missed    uint64   `json:"missed"`
	At        int64    // tracer clock at receipt
}

// sseClient is the benchmark's second connection: a subscriber to
// rule_firing and txn events.
type sseClient struct {
	cancel  context.CancelFunc
	done    chan struct{}
	commits atomic.Int64 // txn commit events received
	events  []sseEvent   // owned by the reader until done is closed
	err     error
}

func subscribe(base string, tr *tracer) (*sseClient, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/events?types=rule_firing,txn", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	resp, err := client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("/v1/events: status %d", resp.StatusCode)
	}
	c := &sseClient{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(c.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64*1024), 1<<20)
		var ev sseEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "id: "):
				ev.ID, _ = strconv.ParseUint(line[4:], 10, 64)
			case strings.HasPrefix(line, "data: "):
				id := ev.ID
				if err := json.Unmarshal([]byte(line[6:]), &ev); err != nil {
					c.err = err
					return
				}
				ev.ID, ev.At = id, tr.now()
			case line == "" && ev.Type != "":
				c.events = append(c.events, ev)
				if ev.Type == "txn" && ev.Op == "commit" {
					c.commits.Add(1)
				}
				ev = sseEvent{}
			}
		}
		if ctx.Err() == nil {
			c.err = sc.Err()
			if c.err == nil {
				c.err = io.ErrUnexpectedEOF
			}
		}
	}()
	return c, nil
}

// close ends the stream once n commit events have arrived (or after
// 10 s) and waits for the reader.
func (c *sseClient) close(n int64) {
	deadline := time.Now().Add(10 * time.Second)
	for c.commits.Load() < n && time.Now().Before(deadline) {
		select {
		case <-c.done:
			deadline = time.Now()
		case <-time.After(time.Millisecond):
		}
	}
	c.cancel()
	<-c.done
}

// execRecord is one acknowledged transaction of the window.
type execRecord struct {
	sent   int64 // tracer clock
	expect []int // oracle firings
	span   int32 // http.exec span, -1 when untraced
}

// dirSize is the total size of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// setupTimes are the timed steps of one set-up, in seconds.
type setupTimes struct{ total, populate, activate float64 }

// setupServer starts amosd on a fresh data directory, populates it from
// m and activates the rule, returning the server and the map from
// rendered item OID to model index.
func setupServer(ctx context.Context, bin, dir string, m *model, client *http.Client) (*server, map[string]int, setupTimes, error) {
	start := time.Now()
	s, err := startServer(ctx, bin, dir, client)
	if err != nil {
		return nil, nil, setupTimes{}, err
	}
	fail := func(err error) (*server, map[string]int, setupTimes, error) {
		_ = s.kill()
		return nil, nil, setupTimes{}, err
	}
	if err := s.exec(client, serveSchema); err != nil {
		return fail(fmt.Errorf("schema: %w", err))
	}
	t0 := time.Now()
	if err := s.exec(client, populateSource(m)); err != nil {
		return fail(fmt.Errorf("populate: %w", err))
	}
	t1 := time.Now()
	if err := s.exec(client, "activate monitor_items();"); err != nil {
		return fail(fmt.Errorf("activate: %w", err))
	}
	t2 := time.Now()
	rows, err := s.query(client, skuQuery)
	if err != nil {
		return fail(err)
	}
	oids := map[string]int{}
	for _, row := range rows {
		if len(row) == 2 {
			if i, err := strconv.Atoi(row[1]); err == nil {
				oids[row[0]] = i
			}
		}
	}
	if len(oids) != len(m.Items) {
		return fail(fmt.Errorf("sku query: %d items, want %d", len(oids), len(m.Items)))
	}
	return s, oids, setupTimes{time.Since(start).Seconds(), t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()}, nil
}

// runServe runs serve_mixed against amosd built from the checkout.
func runServe(cfg runConfig, r *result) error {
	ctx := context.Background()
	bin := filepath.Join(cfg.root, ".bench_build", "amosd")
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("amosd binary: %w", err)
	}
	work, err := os.MkdirTemp(filepath.Join(cfg.root, ".bench_build"), "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	// Connection 1: the closed-loop client.
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}

	var s *server
	var oids map[string]int
	var m *model
	var setups, pops, acts []float64
	var dataDir string
	for k := 0; moreSetups(k, setups); k++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return err
			}
		}
		m = serveModel(cfg.seed, serveItems)
		dataDir = filepath.Join(work, fmt.Sprintf("data%d", k))
		var t setupTimes
		if s, oids, t, err = setupServer(ctx, bin, dataDir, m, client); err != nil {
			return err
		}
		setups, pops, acts = append(setups, t.total), append(pops, t.populate), append(acts, t.activate)
	}
	live := s
	defer func() {
		if live != nil {
			_ = live.kill()
		}
	}()
	r.e2e["setup_s"] = median(setups)
	r.layer["setup.populate_s"] = median(pops)
	r.layer["setup.activate_s"] = median(acts)

	tr := newTracer(1 << 16)
	sse, err := subscribe(s.base, tr)
	if err != nil {
		return err
	}
	defer sse.cancel()

	g := newServeGen(cfg.seed, m)
	var execs []execRecord
	failed := false
	step := func(req request, traced bool) (ns int64) {
		t0 := tr.now()
		if req.Query {
			rows, err := s.query(client, serveQuery)
			t1 := tr.now()
			r.attempted++
			if err != nil {
				r.fail("query: %v", err)
				failed = true
				return 0
			}
			if msg := checkQuantities(m, rows); msg != "" {
				r.fail("query: %s", msg)
			}
			if traced {
				tr.add("http.query", t0, t1, -1, int64(len(execs)))
			}
			return t1 - t0
		}
		expect := m.firings(req.Ops)
		err := s.exec(client, txnSource(req.Ops))
		t1 := tr.now()
		r.attempted++
		if err != nil {
			r.fail("exec: %v", err)
			failed = true
			return 0
		}
		for _, op := range req.Ops {
			m.apply(op)
		}
		rec := execRecord{sent: t0, expect: expect, span: -1}
		if traced {
			rec.span = tr.add("http.exec", t0, t1, -1, 0)
		}
		execs = append(execs, rec)
		return t1 - t0
	}
	// Warm-up, untimed.
	for k := 0; k < serveWarmup && !failed; k++ {
		step(g.next(), false)
	}
	warmExecs := len(execs)

	before, err := s.meters(client)
	if err != nil {
		return err
	}
	ms0, err := s.memStats(client)
	if err != nil {
		return err
	}
	walBefore := dirSize(dataDir)
	execLat, queryLat := newLatencies(1<<16), newLatencies(1<<14)
	plainExec, tracedExec := newLatencies(1<<15), newLatencies(1<<15)
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds) * time.Second)
	// With tracing, transactions alternate between traced and
	// untraced, and so do queries.
	var nExec, nQuery int
	for !failed && time.Now().Before(deadline) {
		req := g.next()
		traced := cfg.trace && (req.Query && nQuery%2 == 1 || !req.Query && nExec%2 == 1)
		if req.Query {
			nQuery++
		} else {
			nExec++
		}
		ns := step(req, traced)
		switch {
		case failed:
		case req.Query:
			queryLat.add(ns)
		default:
			execLat.add(ns)
			if traced {
				tracedExec.add(ns)
			} else {
				plainExec.add(ns)
			}
		}
	}
	elapsed := time.Since(start)
	txns := len(execs) - warmExecs
	if failed || txns == 0 {
		r.fail("window ended after %d transactions", txns)
		return nil
	}
	after, err := s.meters(client)
	if err != nil {
		return err
	}
	ms1, err := s.memStats(client)
	if err != nil {
		return err
	}
	walGrowth := dirSize(dataDir) - walBefore
	if _, err := s.get(client, "/debug/pprof/heap?gc=1"); err != nil {
		return err
	}
	msGC, err := s.memStats(client)
	if err != nil {
		return err
	}
	sse.close(int64(len(execs)))

	es := execLat.summarize()
	r.txnLatency(es, float64(txns)/elapsed.Seconds())
	r.e2e["query_p50_us"] = queryLat.summarize().P50us
	r.e2e["allocs_per_txn"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(txns)
	r.e2e["bytes_per_txn"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(txns)
	r.e2e["heap_mb"] = float64(msGC.HeapAlloc) / (1 << 20)
	r.layer["go.gc_cycles_per_ktxn"] = float64(ms1.NumGC-ms0.NumGC) * 1000 / float64(txns)
	r.layer["go.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	d := after.sub(before)
	r.meterLayers(d, after, float64(txns))
	r.layer["txn.check_us"] = d.histMean("partdiff_txn_check_seconds") * 1e6
	r.layer["txn.persist_us"] = d.histMean("partdiff_txn_persist_seconds") * 1e6
	r.layer["txn.ack_us"] = d.histMean("partdiff_txn_ack_seconds") * 1e6
	commitUs := d.histMean("partdiff_txn_commit_seconds") * 1e6
	r.layer["amosql.exec_overhead_us"] = es.P50us - commitUs
	r.layer["wal.bytes_per_txn"] = float64(walGrowth) / float64(txns)
	r.note("serve: %d transactions, %d queries; server commit mean %.3f us; wal grew %d bytes",
		txns, queryLat.summarize().N, commitUs, walGrowth)

	notify := checkEvents(sse, execs, warmExecs, oids, tr, r)
	r.e2e["fire_notify_p50_us"] = notify.summarize().P50us
	r.note("fire notify: %d firings", notify.summarize().N)

	if cfg.trace {
		ps, ts := plainExec.summarize(), tracedExec.summarize()
		r.layer["trace.overhead_us"] = ts.P50us - ps.P50us
		r.note("trace: traced exec p50 %.3f us (n=%d), untraced p50 %.3f us (n=%d)", ts.P50us, ts.N, ps.P50us, ps.N)
		sts := tr.selfTimes()
		for _, st := range sts {
			r.note("span %-14s n=%d mean=%.3f us self=%.3f us", st.Name, st.Count, st.MeanUs, st.SelfUs)
		}
		r.layer["http.exec_us"] = mean(sts, "http.exec")
		r.layer["http.query_us"] = mean(sts, "http.query")
		r.layer["txn.self_us"] = self(sts, "http.exec")
	}

	live = nil
	if err := s.kill(); err != nil {
		return err
	}
	if err := crashCheck(ctx, bin, dataDir, m, client, r); err != nil {
		return err
	}
	if cfg.trace {
		return r.writeTrace(cfg, tr)
	}
	return nil
}

// crashCheck restarts amosd on the data directory of a killed server,
// times its recovery, and reads back every acknowledged write.
func crashCheck(ctx context.Context, bin, dataDir string, m *model, client *http.Client, r *result) error {
	start := time.Now()
	s, err := startServer(ctx, bin, dataDir, client)
	r.attempted++
	if err != nil {
		r.fail("restart after SIGKILL: %v", err)
		return nil
	}
	r.layer["wal.recovery_s"] = time.Since(start).Seconds()
	rows, err := s.query(client, fullQuery)
	if err != nil {
		r.fail("read-back after restart: %v", err)
	} else if msg := compareRows(m, rows, skuIndex(len(m.Items))); msg != "" {
		r.fail("read-back after restart: %s", msg)
	}
	return s.stop()
}

// checkEvents matches the event stream against the acknowledged
// transactions: the i-th commit event belongs to the i-th transaction,
// every rule firing must be one the oracle predicts for its
// transaction, and every predicted firing must arrive. It returns the
// notification latencies, from sending a firing transaction to
// receiving its first rule_firing event, of the transactions from index
// from on. It records sse.event spans for traced transactions, and
// labels every span with its commit sequence number.
func checkEvents(c *sseClient, execs []execRecord, from int, oids map[string]int, tr *tracer, r *result) *latencies {
	lat := newLatencies(len(execs) / 10)
	r.attempted++
	if c.err != nil {
		r.fail("event stream: %v", c.err)
	}
	gaps := 0
	var lastID uint64
	bySeq := map[uint64]int{} // commit seq → exec index
	fired := make([][]int, len(execs))
	firstFire := make([]int64, len(execs))
	var firings []sseEvent
	for _, ev := range c.events {
		if ev.Type == "gap" {
			gaps++
			continue
		}
		if ev.ID <= lastID {
			r.fail("event id %d after %d", ev.ID, lastID)
		}
		lastID = ev.ID
		switch {
		case ev.Type == "txn" && ev.Op == "commit":
			i := len(bySeq)
			if i < len(execs) {
				bySeq[ev.CommitSeq] = i
				if execs[i].span >= 0 {
					tr.spans[execs[i].span].Txn = int64(ev.CommitSeq)
					tr.add("sse.event", execs[i].sent, ev.At, execs[i].span, int64(ev.CommitSeq))
				}
			}
		case ev.Type == "rule_firing":
			firings = append(firings, ev)
		}
	}
	if n := len(bySeq); n != len(execs) {
		gaps += len(execs) - n
		r.fail("%d commit events for %d acknowledged transactions", n, len(execs))
	}
	for _, ev := range firings {
		i, ok := bySeq[ev.CommitSeq]
		if !ok {
			r.fail("rule_firing for unknown commit %d", ev.CommitSeq)
			continue
		}
		for _, s := range ev.Instances {
			item, ok := oids[oidPattern.FindString(s)]
			if !ok {
				item = -1
			}
			fired[i] = append(fired[i], item)
		}
		if firstFire[i] == 0 {
			firstFire[i] = ev.At
			if execs[i].span >= 0 {
				tr.add("sse.event", execs[i].sent, ev.At, execs[i].span, int64(ev.CommitSeq))
			}
		}
	}
	for i, e := range execs {
		r.attempted++
		sort.Ints(fired[i])
		if fmt.Sprint(fired[i]) != fmt.Sprint(e.expect) {
			r.fail("transaction %d fired for %v, oracle says %v", i, fired[i], e.expect)
		}
		if i >= from && len(e.expect) > 0 && firstFire[i] > 0 {
			lat.add(firstFire[i] - e.sent)
		}
	}
	if gaps > 0 {
		r.fail("%d gaps in the event stream", gaps)
	}
	// A query span carries the number of transactions acknowledged
	// before it; replace that by their last commit sequence number.
	seqOf := make([]uint64, len(execs))
	for seq, i := range bySeq {
		seqOf[i] = seq
	}
	for k := range tr.spans {
		if sp := &tr.spans[k]; sp.Name == "http.query" && sp.Txn > 0 {
			sp.Txn = int64(seqOf[sp.Txn-1])
		}
	}
	r.layer["obs.sse_gaps"] = float64(gaps)
	return lat
}
