package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"repro/internal/experiments"
)

// span is one timed interval the benchmark recorded around a call into the
// program. Spans of one tick, checkpoint or outage share a trace ID; a root
// span has parent 0.
type span struct {
	Trace  uint64    `json:"trace"`
	ID     uint64    `json:"id"`
	Parent uint64    `json:"parent"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// tracer keeps the traced phase's spans in memory. A nil tracer records
// nothing.
type tracer struct {
	spans  []span
	traces uint64
}

// begin opens a root span and returns its index.
func (t *tracer) begin(name string, start time.Time) int {
	if t == nil {
		return -1
	}
	t.traces++
	t.spans = append(t.spans, span{Trace: t.traces, ID: uint64(len(t.spans) + 1), Name: name, Start: start})
	return len(t.spans) - 1
}

// childOpen opens a span under parent and returns its index.
func (t *tracer) childOpen(parent int, name string, start time.Time) int {
	if t == nil {
		return -1
	}
	p := t.spans[parent]
	t.spans = append(t.spans, span{Trace: p.Trace, ID: uint64(len(t.spans) + 1), Parent: p.ID, Name: name, Start: start})
	return len(t.spans) - 1
}

// child records a closed span under parent.
func (t *tracer) child(parent int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.end(t.childOpen(parent, name, start), end)
}

func (t *tracer) end(i int, end time.Time) {
	if t == nil {
		return
	}
	t.spans[i].End = end
}

// selfTimes returns, per span name, the count, total and self time: a
// span's duration minus the part of it its children cover.
func selfTimes(spans []span) []spanStat {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	by := map[string]*spanStat{}
	var order []string
	for _, s := range spans {
		st := by[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			by[s.Name] = st
			order = append(order, s.Name)
		}
		d := s.End.Sub(s.Start)
		st.Count++
		st.Total += d
		st.Self += d - covered(s, kids[s.ID])
	}
	out := make([]spanStat, 0, len(order))
	for _, n := range order {
		out = append(out, *by[n])
	}
	return out
}

type spanStat struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// covered returns how much of s the union of its children's intervals
// covers, each clipped to s.
func covered(s span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(s.Start) {
			a = s.Start
		}
		if b.After(s.End) {
			b = s.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// writeSpans writes the spans as a JSON array to path.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printSelfTimes renders the per-name self-time table.
func printSelfTimes(w io.Writer, stats []spanStat) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  span\tcount\ttotal ms\tself ms\tself ms/span")
	for _, s := range stats {
		fmt.Fprintf(tw, "  %s\t%d\t%.1f\t%.1f\t%.3f\n", s.Name, s.Count, ms(s.Total), ms(s.Self),
			ms(s.Self)/float64(s.Count))
	}
	tw.Flush()
}

// modelRecovery prices one node's recovery with the paper's cost model at
// quick scale: ΔTrestore is a sequential read of the node's objects from
// the paper's disk, and ΔTreplay re-runs the replayed ticks at the game's
// tick rate (Section 4.2's worst case: replay redoes the work since the
// checkpoint).
func modelRecovery(objects, replayedTicks int) (restore, replay time.Duration) {
	p := experiments.Config(experiments.Quick).Params
	return seconds(p.RestoreFull(objects)), seconds(float64(replayedTicks) * p.TickLen())
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
