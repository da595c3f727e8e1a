package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// tailBP is the percentile, in basis points, reported as txn_tail_us
// on every workload. It is fixed, so that a slower box cannot change
// which percentile is reported, and it is p90 because higher ones follow
// the load of neighbouring machines more than the program: over ten
// seeds fig6_point's p99.9 spread 0.19 of its median and its p99 up to
// 0.79, serve_mixed's p99 up to 0.55, against a bound of 0.25.
const tailBP = 9000

// nearestRank is the 1-based rank of percentile bp (basis points) among
// n sorted samples: ceil(n·bp/10000), at least 1.
func nearestRank(n, bp int) int {
	r := (n*bp + 9999) / 10000
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank percentile bp (basis points) of
// sorted. It panics on an empty slice: callers check for samples first.
func percentile(sorted []int64, bp int) int64 {
	return sorted[nearestRank(len(sorted), bp)-1]
}

// Set-up repetition: setup_s is the median of at least minSetups
// set-ups, more while they have taken less than setupBudget seconds in
// all, and at most maxSetups.
const (
	minSetups   = 5
	maxSetups   = 50
	setupBudget = 2.0
)

// moreSetups reports whether another set-up should run after n set-ups
// that took the given times, in seconds.
func moreSetups(n int, times []float64) bool {
	var spent float64
	for _, t := range times {
		spent += t
	}
	return n < minSetups || n < maxSetups && spent < setupBudget
}

// latencies accumulates per-operation durations in nanoseconds.
type latencies struct{ ns []int64 }

func newLatencies(capacity int) *latencies { return &latencies{ns: make([]int64, 0, capacity)} }

func (l *latencies) add(ns int64) { l.ns = append(l.ns, ns) }

// summary is the sorted view of a latency sample.
type summary struct {
	N      int
	P50us  float64
	MeanUs float64
	sorted []int64
}

func (l *latencies) summarize() summary {
	s := summary{N: len(l.ns)}
	if s.N == 0 {
		return s
	}
	sorted := append([]int64(nil), l.ns...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum int64
	for _, v := range sorted {
		sum += v
	}
	s.MeanUs = float64(sum) / float64(s.N) / 1e3
	s.P50us = float64(percentile(sorted, 5000)) / 1e3
	s.sorted = sorted
	return s
}

// percentileUs is the nearest-rank percentile bp (basis points) of the
// sample in microseconds, or 0 for an empty sample.
func (s summary) percentileUs(bp int) float64 {
	if s.N == 0 {
		return 0
	}
	return float64(percentile(s.sorted, bp)) / 1e3
}

// tailLabel renders basis points as a percentile name, e.g. 9990 → "p99.9".
func tailLabel(bp int) string {
	return "p" + strconv.FormatFloat(float64(bp)/100, 'f', -1, 64)
}

// median of a small unsorted sample (the mean of the middle two for an
// even count); 0 for an empty one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// meters is one reading of the program's Prometheus text exposition:
// sample value by full series name, labels included.
type meters map[string]float64

func parseMeters(r io.Reader) (meters, error) {
	m := meters{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("meters: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("meters: %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// sum adds every series of the named metric, whatever its labels.
func (m meters) sum(name string) float64 {
	var t float64
	for k, v := range m {
		if k == name || (strings.HasPrefix(k, name) && k[len(name)] == '{') {
			t += v
		}
	}
	return t
}

// sub returns the change of every series from before to m.
func (m meters) sub(before meters) meters {
	d := meters{}
	for k, v := range m {
		d[k] = v - before[k]
	}
	return d
}

// add returns the series-wise sum of m and d; m may be nil.
func (m meters) add(d meters) meters {
	if m == nil {
		m = meters{}
	}
	for k, v := range d {
		m[k] += v
	}
	return m
}

// histMean is the mean observation of a histogram in a reading of
// deltas, in the histogram's unit; 0 when nothing was observed.
func (m meters) histMean(name string) float64 {
	n := m.sum(name + "_count")
	if n == 0 {
		return 0
	}
	return m.sum(name+"_sum") / n
}
