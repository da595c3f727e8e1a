// Command bench regenerates the paper's performance figures (§6) and
// the DESIGN.md ablations, printing one table per experiment:
//
//	bench -exp fig6     # fig. 6: 100 txns × 1 quantity update, size sweep
//	bench -exp fig7     # fig. 7: 1 txn updating 3 influents of all items
//	bench -exp sharing     # §7.1 node sharing ablation
//	bench -exp hybrid      # §8 hybrid monitor on a mixed workload
//	bench -exp durability  # commit latency with WAL at sync=always/group/none
//	bench -exp profile     # profiler on/off A/B + adaptive-statistics skew
//	bench -exp concurrency # snapshot-read scaling + group-commit write scaling
//	bench -exp events      # event bus armed/disarmed A/B + subscriber fan-out
//	bench -exp flightrec   # flight recorder armed/disarmed A/B (window-only mode)
//	bench -exp all
//
// With -json, the fig6/fig7/durability measurements (time per
// transaction plus the monitor telemetry behind it: differentials
// executed, tuples scanned, emitted Δ-set sizes, log fsyncs) are
// additionally written to BENCH_<n>.json in the current directory,
// where <n> is the first unused number — so successive runs accumulate
// a comparable series of baselines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"partdiff/internal/bench"
)

// record is one flat measurement in the BENCH_<n>.json output.
type record struct {
	Name    string `json:"name"` // experiment/items=N/mode
	NsPerOp int64  `json:"ns_per_op"`
	bench.Telemetry
	MeanDelta float64 `json:"mean_delta_size"`
	Fsyncs    int64   `json:"fsyncs,omitempty"` // durability experiment only
	// Profile experiment only: profiler A/B overhead and its own
	// accounting, and the adaptive-statistics speedup.
	OverheadPct float64 `json:"overhead_pct,omitempty"`
	Execs       int64   `json:"differential_execs,omitempty"`
	ZeroEffect  int64   `json:"zero_effect_execs,omitempty"`
	Speedup     float64 `json:"speedup,omitempty"`
	// Concurrency experiment only: aggregate throughput and the
	// writer-gate admission wait percentiles.
	OpsPerSec float64 `json:"ops_per_sec,omitempty"`
	WaitP50Us float64 `json:"gate_wait_p50_us,omitempty"`
	WaitP95Us float64 `json:"gate_wait_p95_us,omitempty"`
	WaitP99Us float64 `json:"gate_wait_p99_us,omitempty"`
	// Events experiment only: bus accounting for the fan-out rows.
	Published int64 `json:"events_published,omitempty"`
	Delivered int64 `json:"events_delivered,omitempty"`
	Dropped   int64 `json:"events_dropped,omitempty"`
	// Hybrid/counting experiment only: rule firings (equal across
	// twins by the equivalence gate) and chooser strategy switches.
	Orders   int    `json:"orders,omitempty"`
	Switches uint64 `json:"strategy_switches,omitempty"`
}

// report is the BENCH_<n>.json document.
type report struct {
	Date       string   `json:"date"`
	GoVersion  string   `json:"go_version,omitempty"`
	GoMaxProcs int      `json:"gomaxprocs,omitempty"`
	NumCPU     int      `json:"num_cpu,omitempty"`
	Records    []record `json:"records"`
}

func main() {
	exp := flag.String("exp", "all", "experiment: fig6, fig7, sharing, hybrid, durability, profile, concurrency, events, flightrec, or all")
	sizesFlag := flag.String("sizes", "", "comma-separated database sizes (defaults per experiment)")
	txns := flag.Int("txns", 100, "transactions per measurement (fig6/sharing)")
	rounds := flag.Int("rounds", 3, "massive transactions per measurement (fig7)")
	reps := flag.Int("reps", 7, "repetitions per profile measurement (medians reported)")
	jsonOut := flag.Bool("json", false, "also write fig6/fig7 results to BENCH_<n>.json (first unused n)")
	flag.Parse()

	run := func(name string) bool { return *exp == "all" || *exp == name }
	var failed bool
	var rep report
	if run("fig6") {
		sizes := parseSizes(*sizesFlag, []int{1, 10, 100, 1000, 10000})
		if err := runFig6(sizes, *txns, &rep); err != nil {
			fmt.Fprintln(os.Stderr, "fig6:", err)
			failed = true
		}
	}
	if run("fig7") {
		sizes := parseSizes(*sizesFlag, []int{10, 100, 1000})
		if err := runFig7(sizes, *rounds, &rep); err != nil {
			fmt.Fprintln(os.Stderr, "fig7:", err)
			failed = true
		}
	}
	if run("sharing") {
		sizes := parseSizes(*sizesFlag, []int{100, 1000})
		if err := runSharing(sizes, *txns); err != nil {
			fmt.Fprintln(os.Stderr, "sharing:", err)
			failed = true
		}
	}
	if run("hybrid") {
		sizes := parseSizes(*sizesFlag, []int{100, 1000})
		if err := runHybrid(sizes, *txns, *rounds, &rep); err != nil {
			fmt.Fprintln(os.Stderr, "hybrid:", err)
			failed = true
		}
	}
	if run("durability") {
		if err := runDurability(*txns, &rep); err != nil {
			fmt.Fprintln(os.Stderr, "durability:", err)
			failed = true
		}
	}
	if run("profile") {
		if err := runProfile(*reps, &rep); err != nil {
			fmt.Fprintln(os.Stderr, "profile:", err)
			failed = true
		}
	}
	if run("concurrency") {
		if err := runConcurrency(&rep); err != nil {
			fmt.Fprintln(os.Stderr, "concurrency:", err)
			failed = true
		}
	}
	if run("events") {
		if err := runEvents(*reps, &rep); err != nil {
			fmt.Fprintln(os.Stderr, "events:", err)
			failed = true
		}
	}
	if run("flightrec") {
		if err := runFlightrec(*reps, &rep); err != nil {
			fmt.Fprintln(os.Stderr, "flightrec:", err)
			failed = true
		}
	}
	if *jsonOut && !failed {
		path, err := writeReport(&rep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "json:", err)
			failed = true
		} else {
			fmt.Printf("wrote %s (%d records)\n", path, len(rep.Records))
		}
	}
	if failed {
		os.Exit(1)
	}
}

// writeReport writes rep to BENCH_<n>.json for the first n not taken.
func writeReport(rep *report) (string, error) {
	rep.Date = time.Now().UTC().Format(time.RFC3339)
	rep.GoVersion = runtime.Version()
	rep.GoMaxProcs = runtime.GOMAXPROCS(0)
	rep.NumCPU = runtime.NumCPU()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	for n := 1; ; n++ {
		path := fmt.Sprintf("BENCH_%d.json", n)
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			continue
		}
		if err != nil {
			return "", err
		}
		_, werr := f.Write(append(data, '\n'))
		cerr := f.Close()
		if werr != nil {
			return "", werr
		}
		return path, cerr
	}
}

func parseSizes(s string, def []int) []int {
	if s == "" {
		return def
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "bad size %q\n", part)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

func runFig6(sizes []int, txns int, rep *report) error {
	fmt.Printf("Fig. 6 — %d transactions, each changing the quantity of one item\n", txns)
	fmt.Printf("(changes to ONE partial differential; incremental should be ~flat in DB size)\n\n")
	rows, err := bench.RunFig6(sizes, txns)
	if err != nil {
		return err
	}
	fmt.Printf("%10s %10s %14s %14s %10s\n", "items", "txns", "naive ms", "incremental ms", "speedup")
	for _, r := range rows {
		fmt.Printf("%10d %10d %14.2f %14.2f %9.1fx\n",
			r.DBSize, r.Txns, ms(r.NaiveNs), ms(r.IncrNs), r.Speedup())
		ops := int64(r.Txns)
		rep.add(fmt.Sprintf("fig6/items=%d/naive", r.DBSize), r.NaiveNs/ops, r.NaiveTel)
		rep.add(fmt.Sprintf("fig6/items=%d/incremental", r.DBSize), r.IncrNs/ops, r.IncrTel)
	}
	fmt.Println()
	return nil
}

// add appends one measurement to the JSON report. A nil report
// discards measurements (table-only runs).
func (rep *report) add(name string, nsPerOp int64, tel bench.Telemetry) {
	if rep == nil {
		return
	}
	rep.Records = append(rep.Records, record{
		Name: name, NsPerOp: nsPerOp, Telemetry: tel, MeanDelta: tel.MeanDeltaSize(),
	})
}

func runFig7(sizes []int, rounds int, rep *report) error {
	fmt.Printf("Fig. 7 — %d transaction(s), each changing quantity, delivery_time and\n", rounds)
	fmt.Printf("consume_freq of ALL items (three partial differentials; naive wins by a\n")
	fmt.Printf("constant factor — the paper measured ~1.6)\n\n")
	rows, err := bench.RunFig7(sizes, rounds)
	if err != nil {
		return err
	}
	fmt.Printf("%10s %14s %14s %12s\n", "items", "naive ms", "incremental ms", "incr/naive")
	for _, r := range rows {
		fmt.Printf("%10d %14.2f %14.2f %11.2fx\n", r.N, ms(r.NaiveNs), ms(r.IncrNs), r.Ratio())
		ops := int64(rounds)
		rep.add(fmt.Sprintf("fig7/items=%d/naive", r.N), r.NaiveNs/ops, r.NaiveTel)
		rep.add(fmt.Sprintf("fig7/items=%d/incremental", r.N), r.IncrNs/ops, r.IncrTel)
	}
	fmt.Println()
	return nil
}

func runSharing(sizes []int, txns int) error {
	fmt.Printf("§7.1 node sharing — %d txns updating min_stock of one item: flat\n", txns)
	fmt.Printf("(fully expanded) vs bushy (shared threshold node) propagation\n\n")
	rows, err := bench.RunNodeSharing(sizes, txns)
	if err != nil {
		return err
	}
	fmt.Printf("%10s %12s %12s\n", "items", "flat ms", "bushy ms")
	for _, r := range rows {
		fmt.Printf("%10d %12.2f %12.2f\n", r.DBSize, ms(r.FlatNs), ms(r.BushyNs))
	}
	fmt.Println()
	return nil
}

func runHybrid(sizes []int, smallTxns, massiveTxns int, rep *report) error {
	fmt.Printf("Hybrid monitor (§8 future work) — mixed workload: %d small txns +\n", smallTxns)
	fmt.Printf("%d massive txns; the hybrid monitor should approach the best column\n\n", massiveTxns)
	rows, err := bench.RunHybrid(sizes, smallTxns, massiveTxns)
	if err != nil {
		return err
	}
	fmt.Printf("%10s %12s %14s %12s\n", "items", "naive ms", "incremental ms", "hybrid ms")
	for _, r := range rows {
		fmt.Printf("%10d %12.2f %14.2f %12.2f\n", r.N, ms(r.NaiveNs), ms(r.IncrNs), ms(r.HybridNs))
	}

	fmt.Printf("\nCounting maintenance & hybrid chooser — delete-skewed twins: standard\n")
	fmt.Printf("incremental (minus differentials + §7.2 probes) vs counting maintenance;\n")
	fmt.Printf("tinyextent runs the cost-based chooser against massive Δ waves and must\n")
	fmt.Printf("switch to recompute. All rows equivalence-gated (firings + snapshots)\n\n")
	crows, err := bench.RunCounting([]int{100, 400}, smallTxns)
	if err != nil {
		return err
	}
	fmt.Printf("%12s %8s %6s %10s %10s %10s %10s %9s %9s %8s\n",
		"workload", "items", "txns", "off ms", "on ms", "off scan", "on scan",
		"off zero", "on zero", "switches")
	for _, r := range crows {
		fmt.Printf("%12s %8d %6d %10.2f %10.2f %10d %10d %9d %9d %8d\n",
			r.Workload, r.DBSize, r.Txns, ms(r.OffNs), ms(r.OnNs),
			r.OffTel.TuplesScanned, r.OnTel.TuplesScanned, r.OffZero, r.OnZero, r.Switches)
		if rep != nil {
			ops := int64(r.Txns)
			rep.Records = append(rep.Records,
				record{Name: fmt.Sprintf("hybrid/%s/items=%d/off", r.Workload, r.DBSize),
					NsPerOp: r.OffNs / ops, Telemetry: r.OffTel, MeanDelta: r.OffTel.MeanDeltaSize(),
					ZeroEffect: r.OffZero, Orders: r.Orders},
				record{Name: fmt.Sprintf("hybrid/%s/items=%d/on", r.Workload, r.DBSize),
					NsPerOp: r.OnNs / ops, Telemetry: r.OnTel, MeanDelta: r.OnTel.MeanDeltaSize(),
					ZeroEffect: r.OnZero, Orders: r.Orders, Switches: r.Switches})
		}
	}
	fmt.Println()
	return nil
}

func runDurability(txns int, rep *report) error {
	fmt.Printf("Durability — %d single-update commits, write-ahead logged, per fsync policy\n", txns)
	fmt.Printf("(latency includes fsync-before-ack; 'none' leaves records in the page cache)\n\n")
	rows, err := bench.RunDurability(100, txns)
	if err != nil {
		return err
	}
	fmt.Printf("%10s %12s %14s %10s\n", "sync", "total ms", "µs/commit", "fsyncs")
	for _, r := range rows {
		fmt.Printf("%10s %12.2f %14.1f %10d\n",
			r.Policy, ms(r.Ns), float64(r.NsPerOp())/1e3, r.Fsyncs)
		if rep != nil {
			rep.Records = append(rep.Records, record{
				Name: fmt.Sprintf("durability/sync=%s", r.Policy), NsPerOp: r.NsPerOp(), Fsyncs: r.Fsyncs,
			})
		}
	}
	fmt.Println()
	return nil
}

func runProfile(reps int, rep *report) error {
	// The overhead A/B needs runs long enough (tens of ms) that the
	// median beats scheduler noise, so it uses its own workload sizes
	// rather than the fig6/fig7 flags.
	const n, txns, rounds = 100, 400, 5
	fmt.Printf("Propagation profiler — median-of-%d A/B: fig6/fig7 workloads with\n", reps)
	fmt.Printf("profiling off vs on (the profiler is meant to be cheap enough to keep on)\n\n")
	rows, err := bench.RunProfilerOverhead(n, txns, rounds, reps)
	if err != nil {
		return err
	}
	fmt.Printf("%10s %8s %6s %12s %12s %10s %8s %8s\n",
		"experiment", "items", "txns", "off ms", "on ms", "overhead", "execs", "zero")
	for _, r := range rows {
		fmt.Printf("%10s %8d %6d %12.2f %12.2f %9.1f%% %8d %8d\n",
			r.Experiment, r.DBSize, r.Txns, ms(r.OffNs), ms(r.OnNs), r.OverheadPct, r.Execs, r.ZeroEffect)
		if rep != nil {
			ops := int64(r.Txns)
			rep.Records = append(rep.Records,
				record{Name: fmt.Sprintf("profile/%s/items=%d/off", r.Experiment, r.DBSize), NsPerOp: r.OffNs / ops},
				record{Name: fmt.Sprintf("profile/%s/items=%d/on", r.Experiment, r.DBSize), NsPerOp: r.OnNs / ops,
					OverheadPct: r.OverheadPct, Execs: r.Execs, ZeroEffect: r.ZeroEffect})
		}
	}

	// Adaptive statistics: a skewed join where the static cost model
	// anchors on a massive Δ and probes a tiny derived function per
	// tuple; the observed cardinalities flip the plan.
	const adaptiveTxns = 10
	sizes := []int{100, 400, 1000}
	fmt.Printf("\nAdaptive statistics — skewed workload (%d txns updating attr of all\n", adaptiveTxns)
	fmt.Printf("items; pick() derived from %d rows): static cost model vs observed feedback\n\n", bench.SkewPopulated)
	arows, err := bench.RunAdaptive(sizes, adaptiveTxns, reps)
	if err != nil {
		return err
	}
	fmt.Printf("%10s %6s %12s %12s %10s\n", "items", "txns", "static ms", "adaptive ms", "speedup")
	for _, r := range arows {
		fmt.Printf("%10d %6d %12.2f %12.2f %9.1fx\n",
			r.DBSize, r.Txns, ms(r.StaticNs), ms(r.AdaptiveNs), r.Speedup)
		if rep != nil {
			ops := int64(r.Txns)
			rep.Records = append(rep.Records,
				record{Name: fmt.Sprintf("adaptive/items=%d/static", r.DBSize), NsPerOp: r.StaticNs / ops},
				record{Name: fmt.Sprintf("adaptive/items=%d/adaptive", r.DBSize), NsPerOp: r.AdaptiveNs / ops, Speedup: r.Speedup})
		}
	}
	fmt.Println()
	return nil
}

func runConcurrency(rep *report) error {
	const items = 100
	fmt.Printf("Concurrency — snapshot read scaling: 1 writer committing continuously +\n")
	fmt.Printf("R readers on MVCC snapshots for a fixed window (%d items)\n\n", items)
	rrows, err := bench.RunReadScaling(items, []int{1, 2, 4, 8}, time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("%10s %14s %14s\n", "readers", "queries/s", "commits/s")
	for _, r := range rrows {
		fmt.Printf("%10d %14.0f %14.0f\n", r.Readers, r.QueriesPerSec(), r.CommitsPerSec())
		if rep != nil {
			rep.Records = append(rep.Records, record{
				Name:      fmt.Sprintf("concurrency/read/readers=%d", r.Readers),
				NsPerOp:   int64(r.Window) / max64(r.Queries, 1),
				OpsPerSec: r.QueriesPerSec(),
			})
		}
	}

	const txns = 1600
	fmt.Printf("\nGroup commit — %d durable commits split over W writers: serial\n", txns)
	fmt.Printf("sync=always baseline vs sync=group with shared batched fsyncs\n\n")
	wrows, err := bench.RunWriteScaling(items, txns, []int{1, 2, 4, 8})
	if err != nil {
		return err
	}
	fmt.Printf("%10s %8s %12s %8s %10s %10s %10s\n",
		"writers", "sync", "commits/s", "fsyncs", "p50 wait", "p95 wait", "p99 wait")
	for _, r := range wrows {
		fmt.Printf("%10d %8s %12.0f %8d %10s %10s %10s\n",
			r.Writers, r.Policy, r.CommitsPerSec(), r.Fsyncs, r.WaitP50, r.WaitP95, r.WaitP99)
		if rep != nil {
			rep.Records = append(rep.Records, record{
				Name:      fmt.Sprintf("concurrency/write/writers=%d/sync=%s", r.Writers, r.Policy),
				NsPerOp:   r.NsPerOp(),
				Fsyncs:    r.Fsyncs,
				OpsPerSec: r.CommitsPerSec(),
				WaitP50Us: float64(r.WaitP50) / 1e3,
				WaitP95Us: float64(r.WaitP95) / 1e3,
				WaitP99Us: float64(r.WaitP99) / 1e3,
			})
		}
	}
	fmt.Println()
	return nil
}

func runEvents(reps int, rep *report) error {
	// Like the profiler A/B, the overhead measurement needs runs long
	// enough that the median beats scheduler noise; the per-event cost
	// is far below the noise floor of short runs, so these are longer
	// than the profiler's.
	const n, txns, rounds = 100, 2000, 25
	fmt.Printf("Event bus — median-of-%d A/B: fig6/fig7 workloads with the bus\n", reps)
	fmt.Printf("disarmed vs armed with zero subscribers (the serving default)\n\n")
	rows, err := bench.RunEventOverhead(n, txns, rounds, reps)
	if err != nil {
		return err
	}
	fmt.Printf("%10s %8s %6s %12s %12s %10s %10s\n",
		"experiment", "items", "txns", "off ms", "armed ms", "overhead", "events")
	for _, r := range rows {
		fmt.Printf("%10s %8d %6d %12.2f %12.2f %9.1f%% %10d\n",
			r.Experiment, r.DBSize, r.Txns, ms(r.OffNs), ms(r.OnNs), r.OverheadPct, r.Published)
		if rep != nil {
			ops := int64(r.Txns)
			rep.Records = append(rep.Records,
				record{Name: fmt.Sprintf("events/%s/items=%d/off", r.Experiment, r.DBSize), NsPerOp: r.OffNs / ops},
				record{Name: fmt.Sprintf("events/%s/items=%d/armed", r.Experiment, r.DBSize), NsPerOp: r.OnNs / ops,
					OverheadPct: r.OverheadPct, Published: r.Published})
		}
	}

	subCounts := []int{1, 4, 16}
	fmt.Printf("\nSubscriber fan-out — fig6 workload (%d items, %d txns) with S\n", n, txns)
	fmt.Printf("concurrent subscribers draining the firehose; every published event is\n")
	fmt.Printf("either delivered to or explicitly dropped for each subscriber\n\n")
	frows, err := bench.RunEventFanout(n, txns, subCounts)
	if err != nil {
		return err
	}
	fmt.Printf("%12s %10s %12s %12s %10s %14s\n",
		"subscribers", "wall ms", "published", "delivered", "dropped", "delivered/s")
	for _, r := range frows {
		fmt.Printf("%12d %10.2f %12d %12d %10d %14.0f\n",
			r.Subscribers, ms(r.Ns), r.Published, r.Delivered, r.Dropped, r.DeliveredPerSec)
		if rep != nil {
			rep.Records = append(rep.Records, record{
				Name:      fmt.Sprintf("events/fanout/subs=%d", r.Subscribers),
				NsPerOp:   r.Ns / int64(r.Txns),
				OpsPerSec: r.DeliveredPerSec,
				Published: r.Published, Delivered: r.Delivered, Dropped: r.Dropped,
			})
		}
	}
	fmt.Println()
	return nil
}

func runFlightrec(reps int, rep *report) error {
	// Same shape and run lengths as the event-bus A/B: the recorder's
	// per-record cost (one atomic load disarmed, a short mutexed ring
	// push armed) sits far below the noise floor of short runs.
	const n, txns, rounds = 100, 2000, 25
	fmt.Printf("Flight recorder — median-of-%d A/B: fig6/fig7 workloads with the\n", reps)
	fmt.Printf("recorder disarmed vs armed in window-only mode (rings, no bundles)\n\n")
	rows, err := bench.RunFlightrecOverhead(n, txns, rounds, reps)
	if err != nil {
		return err
	}
	fmt.Printf("%10s %8s %6s %12s %12s %10s %9s %7s\n",
		"experiment", "items", "txns", "off ms", "armed ms", "overhead", "commits", "waves")
	for _, r := range rows {
		fmt.Printf("%10s %8d %6d %12.2f %12.2f %9.1f%% %9d %7d\n",
			r.Experiment, r.DBSize, r.Txns, ms(r.OffNs), ms(r.OnNs), r.OverheadPct, r.Commits, r.Waves)
		if rep != nil {
			ops := int64(r.Txns)
			rep.Records = append(rep.Records,
				record{Name: fmt.Sprintf("flightrec/%s/items=%d/off", r.Experiment, r.DBSize), NsPerOp: r.OffNs / ops},
				record{Name: fmt.Sprintf("flightrec/%s/items=%d/armed", r.Experiment, r.DBSize), NsPerOp: r.OnNs / ops,
					OverheadPct: r.OverheadPct})
		}
	}
	fmt.Println()
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
