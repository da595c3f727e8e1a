// Command perfbench is the repository benchmark: it runs one named
// workload from a seed, checks the program's outputs, and prints every
// end-to-end metric (or, with -trace 1, every per-layer metric) as the
// last line of its output. See README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload fig6_point --seed 1 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// endToEnd lists the metrics a user of the system sees, with units.
// Every workload reports all of them.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"txn_per_s", "1/s"},
	{"txn_p50_us", "us"},
	{"txn_tail_us", "us"},
	{"allocs_per_txn", "count"},
	{"bytes_per_txn", "B"},
	{"heap_mb", "MB"},
	{"query_p50_us", "us"},
	{"fire_notify_p50_us", "us"},
}

// perLayer lists the per-layer metrics of a traced run, with units.
// Every workload reports all of them; a layer a workload does not
// exercise reads 0.
var perLayer = []metric{
	{"setup.populate_s", "s"},
	{"setup.activate_s", "s"},
	{"storage.write_us", "us"},
	{"storage.tuple_reads_per_txn", "count"},
	{"storage.index_probes_per_txn", "count"},
	{"txn.gate_wait_us", "us"},
	{"txn.check_us", "us"},
	{"txn.persist_us", "us"},
	{"txn.ack_us", "us"},
	{"txn.self_us", "us"},
	{"rules.check_rounds_per_txn", "count"},
	{"rules.triggered_per_txn", "count"},
	{"propnet.differentials_per_txn", "count"},
	{"propnet.delta_tuples_per_txn", "count"},
	{"propnet.wavefront_peak_tuples", "count"},
	{"propnet.zero_effect_frac", "ratio"},
	{"eval.tuples_scanned_per_txn", "count"},
	{"eval.clauses_per_txn", "count"},
	{"delta.folds_per_txn", "count"},
	{"delta.merges_per_txn", "count"},
	{"delta.cancellations_per_txn", "count"},
	{"wal.bytes_per_txn", "B"},
	{"wal.fsyncs_per_txn", "count"},
	{"wal.recovery_s", "s"},
	{"obs.events_per_txn", "count"},
	{"obs.events_dropped", "count"},
	{"obs.sse_gaps", "count"},
	{"amosql.exec_overhead_us", "us"},
	{"http.exec_us", "us"},
	{"http.query_us", "us"},
	{"go.gc_cycles_per_ktxn", "count"},
	{"go.gc_pause_ms", "ms"},
	{"trace.overhead_us", "us"},
}

type metric struct{ Name, Unit string }

var workloads = []string{"fig6_point", "fig7_bulk", "serve_mixed"}

type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	root     string // the checkout the benchmark runs in
	box      map[string]any
}

// result collects one run's metrics and check outcomes.
type result struct {
	attempted, failed int
	failures          []string
	e2e, layer        map[string]float64
	notes             []string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records a failed operation or check.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// note records a line of detail printed before the result.
func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// txnLatency records the transaction latency and rate metrics.
func (r *result) txnLatency(s summary, perSec float64) {
	r.e2e["txn_per_s"] = perSec
	r.e2e["txn_p50_us"] = s.P50us
	r.e2e["txn_tail_us"] = s.percentileUs(tailBP)
	r.note("txn latency: n=%d p50=%.3f us %s=%.3f us (%d samples beyond it) mean=%.3f us",
		s.N, s.P50us, tailLabel(tailBP), s.percentileUs(tailBP), s.N-nearestRank(s.N, tailBP), s.MeanUs)
}

// meterLayers derives the per-layer counts from the change d of the
// program's meters over the window of txns transactions, and from the
// last reading for high-water marks.
func (r *result) meterLayers(d, last meters, txns float64) {
	per := func(name string) float64 { return d.sum(name) / txns }
	r.layer["storage.tuple_reads_per_txn"] = per("partdiff_storage_tuple_reads_total")
	r.layer["storage.index_probes_per_txn"] = per("partdiff_storage_index_probes_total")
	r.layer["txn.gate_wait_us"] = d.histMean("partdiff_txn_gate_wait_seconds") * 1e6
	r.layer["rules.check_rounds_per_txn"] = per("partdiff_rules_check_rounds_total")
	r.layer["rules.triggered_per_txn"] = per("partdiff_rules_triggered_instances_total")
	r.layer["propnet.differentials_per_txn"] = per("partdiff_propnet_differentials_total")
	r.layer["propnet.delta_tuples_per_txn"] = per("partdiff_propnet_differential_emitted_tuples_sum")
	r.layer["propnet.wavefront_peak_tuples"] = last.sum("partdiff_propnet_wavefront_peak_tuples")
	executed := d.sum("partdiff_propnet_differentials_total")
	zero := d.sum("partdiff_propnet_zero_effect_total")
	if executed > 0 {
		r.layer["propnet.zero_effect_frac"] = zero / executed
	}
	r.note("propnet: %.0f of %.0f executed differentials had zero effect", zero, executed)
	r.layer["eval.tuples_scanned_per_txn"] = per("partdiff_eval_tuples_scanned_total")
	r.layer["eval.clauses_per_txn"] = per("partdiff_eval_clauses_total")
	r.layer["delta.folds_per_txn"] = per("partdiff_delta_folds_total")
	r.layer["delta.merges_per_txn"] = per("partdiff_delta_union_merges_total")
	r.layer["delta.cancellations_per_txn"] = per("partdiff_delta_cancellations_total")
	r.layer["wal.fsyncs_per_txn"] = per("partdiff_wal_fsyncs_total")
	r.layer["obs.events_per_txn"] = per("partdiff_events_published_total")
	r.layer["obs.events_dropped"] = d.sum("partdiff_events_dropped_total")
}

// spanLayers derives the per-layer times of the in-process workloads
// from their spans.
func (r *result) spanLayers(tr *tracer) {
	sts := tr.selfTimes()
	for _, s := range sts {
		r.note("span %-14s n=%d mean=%.3f us self=%.3f us", s.Name, s.Count, s.MeanUs, s.SelfUs)
	}
	r.layer["storage.write_us"] = self(sts, "storage.write")
	r.layer["txn.check_us"] = self(sts, "txn.check")
	r.layer["txn.persist_us"] = self(sts, "txn.persist")
	r.layer["txn.ack_us"] = self(sts, "txn.ack")
	r.layer["txn.self_us"] = self(sts, "txn")
}

// writeTrace stores the spans under .bench_build in the checkout.
func (r *result) writeTrace(cfg runConfig, tr *tracer) error {
	dir := filepath.Join(cfg.root, ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(path, cfg.box); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	r.note("trace: %d spans written to %s", len(tr.spans), path)
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	var cfg runConfig
	fset.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fset.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	fset.IntVar(&cfg.seconds, "seconds", 20, "length of the measured window")
	traceFlag := fset.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	fset.StringVar(&cfg.root, "root", ".", "the checkout: amosd is at .bench_build/amosd, outputs go under .bench_build")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *traceFlag == 1
	if cfg.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1")
		return 2
	}
	cfg.box = boxHeader(cfg.root)
	fmt.Fprintf(stdout, "box %s\n", mustJSON(cfg.box))

	r := newResult()
	var err error
	switch cfg.workload {
	case "fig6_point":
		err = runInproc(pointWorkload, cfg, r)
	case "fig7_bulk":
		err = runInproc(bulkWorkload, cfg, r)
	case "serve_mixed":
		err = runServe(cfg, r)
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloads, ", "))
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	return report(cfg, r, stdout, stderr)
}

// report prints the detail lines, every metric with its unit, and the
// result object as the last line. It returns 1 when a check failed.
func report(cfg runConfig, r *result, stdout, stderr io.Writer) int {
	for _, n := range r.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, f := range r.failures {
		fmt.Fprintln(stderr, "FAILED:", f)
	}
	if r.attempted < 1 {
		r.attempted = 1
		r.fail("no operation attempted")
	}
	errorRate := float64(r.failed) / float64(r.attempted)
	fmt.Fprintf(stdout, "error_rate %.6f (%d of %d operations and checks failed)\n", errorRate, r.failed, r.attempted)
	out := map[string]map[string]any{}
	list, values := endToEnd, r.e2e
	if cfg.trace {
		list, values = perLayer, r.layer
	}
	for _, m := range list {
		v := values[m.Name]
		fmt.Fprintf(stdout, "metric %-32s %14.4f %s\n", m.Name, v, m.Unit)
		out[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	line := map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	}
	fmt.Fprintln(stdout, mustJSON(line))
	if r.failed > 0 {
		return 1
	}
	return 0
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of strings and numbers are marshalled
	}
	return string(b)
}

// boxHeader describes the machine and the source tree measured: the git
// revision when the checkout is a git repository, and in every case a
// digest of its Go sources.
func boxHeader(root string) map[string]any {
	rev := "none"
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			rev = strings.TrimSpace(string(out))
		}
	}
	return map[string]any{
		"git_rev":    rev,
		"src_sha256": sourceDigest(root),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// sourceDigest hashes the path and content of every .go and go.mod file
// under root, skipping hidden directories.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
