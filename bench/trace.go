package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one traced interval: a layer boundary the harness crossed.
// Times are nanoseconds since the tracer started; Parent is -1 for the
// root and Msg is -1 outside a message.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Msg    int64  `json:"msg"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// traceKeepMsgs bounds the per-message spans kept for the trace file.
// Every traced message still feeds the span sums the metrics use; the
// file holds the first ones so it stays a few MB on a fast workload.
const traceKeepMsgs = 2000

// tracer keeps spans in memory; writeSpans stores them once, at exit.
type tracer struct {
	t0    time.Time
	spans []span
	msgs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(parent int32, name string, msg int64, start, end time.Time) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Msg: msg,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// open starts a span whose end is set by close.
func (t *tracer) open(parent int32, name string) int32 {
	now := time.Now()
	return t.add(parent, name, -1, now, now)
}

func (t *tracer) close(id int32) { t.spans[id].End = time.Since(t.t0).Nanoseconds() }

// message records the span of one traced message, or returns -1 once
// the file's quota is used; child ignores that parent.
func (t *tracer) message(parent int32, msg int64, start, end time.Time) int32 {
	if t.msgs >= traceKeepMsgs {
		return -1
	}
	t.msgs++
	return t.add(parent, "msg", msg, start, end)
}

func (t *tracer) child(parent int32, name string, msg int64, start, end time.Time) {
	if parent >= 0 {
		t.add(parent, name, msg, start, end)
	}
}

// selfTimes returns, per span name, the summed duration minus the part
// child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Name] += time.Duration(s.End - s.Start - covered[s.ID])
	}
	return self
}

// writeSpans stores spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
