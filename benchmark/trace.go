package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside the program.
// Spans of one statement share Req; Parent is 0 for a root.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Req      int                `json:"req"`
	Name     string             `json:"name"`
	StartNs  int64              `json:"start_ns"`
	EndNs    int64              `json:"end_ns"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name})
	s := &t.spans[len(t.spans)-1]
	s.StartNs = int64(time.Since(t.t0))
	return s.ID
}

func (t *tracer) end(id int) int64 {
	s := &t.spans[id-1]
	s.EndNs = int64(time.Since(t.t0))
	return s.dur()
}

func (t *tracer) count(id int, key string, v float64) {
	s := &t.spans[id-1]
	if s.Counters == nil {
		s.Counters = map[string]float64{}
	}
	s.Counters[key] += v
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its direct children cover; children that overlap each other
// or stick out of the parent are counted once and clipped.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// layerSummary is the per-name roll-up a traced run prints.
type layerSummary struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	BusyUs float64 `json:"busy_us"`
	SelfUs float64 `json:"self_us"`
	P50Us  float64 `json:"p50_us"`
}

func summarize(spans []span) []layerSummary {
	self := selfTimes(spans)
	byName := map[string]*layerSummary{}
	durs := map[string][]float64{}
	var names []string
	for _, s := range spans {
		l := byName[s.Name]
		if l == nil {
			l = &layerSummary{Name: s.Name}
			byName[s.Name] = l
			names = append(names, s.Name)
		}
		l.Count++
		l.BusyUs += float64(s.dur()) / 1e3
		l.SelfUs += float64(self[s.ID]) / 1e3
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e3)
	}
	out := make([]layerSummary, 0, len(names))
	for _, n := range names {
		byName[n].P50Us = median(durs[n])
		out = append(out, *byName[n])
	}
	return out
}
