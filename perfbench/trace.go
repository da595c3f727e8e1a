package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed interval recorded at a layer boundary by the
// benchmark. Txn identifies the transaction (in-process: its index in
// the window; served: its commit sequence number) and links the spans
// of one request.
type span struct {
	Name       string
	Start, End int64 // nanoseconds since the tracer's base
	Parent     int32 // index of the parent span, -1 for a root
	Txn        int64
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine at a time.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, capacity)}
}

// now is the tracer clock.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// add records a finished span and returns its index.
func (t *tracer) add(name string, start, end int64, parent int32, txn int64) int32 {
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Txn: txn})
	return int32(len(t.spans) - 1)
}

// selfTime is the mean duration and mean self time, in microseconds,
// of the spans of one name. A span's self time is its duration minus
// the part of its interval that its child spans cover.
type selfTime struct {
	Name           string
	Count          int
	MeanUs, SelfUs float64
}

func (t *tracer) selfTimes() []selfTime {
	children := map[int32][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*selfTime{}
	for i, s := range t.spans {
		a := agg[s.Name]
		if a == nil {
			a = &selfTime{Name: s.Name}
			agg[s.Name] = a
		}
		a.Count++
		a.MeanUs += float64(s.End-s.Start) / 1e3
		a.SelfUs += float64(s.End-s.Start-covered(s, children[int32(i)])) / 1e3
	}
	out := make([]selfTime, 0, len(agg))
	for _, a := range agg {
		a.MeanUs /= float64(a.Count)
		a.SelfUs /= float64(a.Count)
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var total int64
	end := parent.Start
	for _, c := range children {
		lo, hi := max(c.Start, end), min(c.End, parent.End)
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return total
}

// mean returns the mean duration of the named spans, 0 if none.
func mean(sts []selfTime, name string) float64 {
	for _, s := range sts {
		if s.Name == name {
			return s.MeanUs
		}
	}
	return 0
}

// self returns the mean self time of the named spans, 0 if none.
func self(sts []selfTime, name string) float64 {
	for _, s := range sts {
		if s.Name == name {
			return s.SelfUs
		}
	}
	return 0
}

// write stores the spans as JSON lines, one span each, after a header
// line carrying the box description.
func (t *tracer) write(path string, box map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"box\":%s,\"spans\":%d}\n", mustJSON(box), len(t.spans))
	for _, s := range t.spans {
		fmt.Fprintf(w, "{\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"txn\":%d}\n",
			s.Name, s.Start, s.End, s.Parent, s.Txn)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
