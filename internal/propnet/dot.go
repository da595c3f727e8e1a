package propnet

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Dot renders the propagation network in Graphviz dot format — the
// fig. 1/fig. 2 pictures of the paper, generated from the live network.
// Base relations are boxes, views are ellipses, monitored condition
// functions are double ellipses, and re-evaluated (aggregate/recursive)
// nodes are diamonds. Edges are labeled with their partial
// differentials.
func (n *Network) Dot() string {
	var sb strings.Builder
	sb.WriteString("digraph propagation {\n")
	sb.WriteString("  rankdir=BT;\n")
	names := n.Nodes()
	for _, name := range names {
		nd := n.nodes[name]
		shape := "ellipse"
		switch {
		case nd.Base:
			shape = "box"
		case nd.Recompute:
			shape = "diamond"
		case nd.Monitored:
			shape = "doubleoctagon"
		}
		fmt.Fprintf(&sb, "  %s [shape=%s, label=%s];\n",
			dotID(name), shape, dotQuote(fmt.Sprintf("%s\\nlevel %d", name, nd.Level)))
	}
	// Deterministic edge order.
	type edgeRow struct{ from, to, label string }
	var rows []edgeRow
	for _, name := range names {
		nd := n.nodes[name]
		for _, e := range nd.out {
			var labels []string
			for _, d := range e.Diffs {
				labels = append(labels, d.Name())
			}
			label := strings.Join(labels, "\\n")
			if label == "" && e.To.Recompute {
				label = "re-evaluate"
			}
			rows = append(rows, edgeRow{from: name, to: e.To.Pred, label: label})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].from != rows[j].from {
			return rows[i].from < rows[j].from
		}
		return rows[i].to < rows[j].to
	})
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %s -> %s [label=%s];\n",
			dotID(r.from), dotID(r.to), dotQuote(r.label))
	}
	sb.WriteString("}\n")
	return sb.String()
}

// DotHeat renders the network like Dot, heat-annotated from the
// propagation profiler's accumulated observations: each node is filled
// with a red whose saturation is its share of all tuples scanned (its
// observed cost), labeled with scanned tuples and zero-effect counts,
// and each edge's width grows with the log of the Δ tuples that
// actually flowed across it. An unprofiled network (or one profiled
// before any propagation) renders identically to Dot plus zeroed
// annotations — the structure never changes, so both exports diff
// cleanly.
func (n *Network) DotHeat() string {
	snap := n.prof.Snapshot()
	// Aggregate observations per view node and per influent→view edge.
	type nodeHeat struct{ scanned, zero, execs int64 }
	nodes := map[string]*nodeHeat{}
	flow := map[[2]string]int64{}
	var totScanned int64
	for _, pt := range snap {
		h := nodes[pt.View]
		if h == nil {
			h = &nodeHeat{}
			nodes[pt.View] = h
		}
		h.scanned += pt.Scanned
		h.zero += pt.ZeroEffect
		h.execs += pt.Execs
		totScanned += pt.Scanned
		if pt.Influent != "*" {
			flow[[2]string{pt.Influent, pt.View}] += pt.Produced
		}
	}

	var sb strings.Builder
	sb.WriteString("digraph propagation {\n")
	sb.WriteString("  rankdir=BT;\n")
	sb.WriteString("  node [style=filled, fillcolor=white];\n")
	names := n.Nodes()
	for _, name := range names {
		nd := n.nodes[name]
		shape := "ellipse"
		switch {
		case nd.Base:
			shape = "box"
		case nd.Recompute:
			shape = "diamond"
		case nd.Monitored:
			shape = "doubleoctagon"
		}
		label := fmt.Sprintf("%s\\nlevel %d", name, nd.Level)
		sat := 0.0
		if h := nodes[name]; h != nil {
			if totScanned > 0 {
				sat = float64(h.scanned) / float64(totScanned)
			}
			label += fmt.Sprintf("\\nscanned %d, zero-effect %d/%d", h.scanned, h.zero, h.execs)
		}
		// HSV red: hue 0, saturation = cost share, full value — white
		// for cold nodes, saturated red for the hottest.
		fmt.Fprintf(&sb, "  %s [shape=%s, fillcolor=\"0.000 %.3f 1.000\", label=%s];\n",
			dotID(name), shape, sat, dotQuote(label))
	}
	type edgeRow struct {
		from, to, label string
		produced        int64
	}
	var rows []edgeRow
	for _, name := range names {
		nd := n.nodes[name]
		for _, e := range nd.out {
			var labels []string
			for _, d := range e.Diffs {
				labels = append(labels, d.Name())
			}
			label := strings.Join(labels, "\\n")
			if label == "" && e.To.Recompute {
				label = "re-evaluate"
			}
			p := flow[[2]string{name, e.To.Pred}]
			if p > 0 {
				label += fmt.Sprintf("\\nΔ %d", p)
			}
			rows = append(rows, edgeRow{from: name, to: e.To.Pred, label: label, produced: p})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].from != rows[j].from {
			return rows[i].from < rows[j].from
		}
		return rows[i].to < rows[j].to
	})
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %s -> %s [label=%s, penwidth=%.2f];\n",
			dotID(r.from), dotID(r.to), dotQuote(r.label), 1+math.Log10(float64(r.produced+1)))
	}
	sb.WriteString("}\n")
	return sb.String()
}

// dotID makes a safe dot identifier from a predicate name.
func dotID(name string) string {
	var sb strings.Builder
	sb.WriteByte('n')
	for _, r := range name {
		if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') {
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

func dotQuote(s string) string {
	return `"` + strings.ReplaceAll(s, `"`, `\"`) + `"`
}
