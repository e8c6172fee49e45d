package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// spanRec is one recorded span: a call from the benchmark into one of the
// program's packages. Spans of one operation share a trace id; Parent
// names the span that caused this one (0 for a root).
type spanRec struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Trace   string `json:"trace"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; the run writes them out when it ends.
// A tracer with on == false records nothing, so untraced rounds pay one
// branch per call site.
type tracer struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	spans []spanRec
	last  int64 // last span id handed out
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// newID reserves the id of a span that has not ended yet, so the spans it
// causes can name it as their parent (0 when tracing is off).
func (t *tracer) newID() int64 {
	if t == nil || !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.last++
	return t.last
}

// recordID stores the finished span id (a no-op for id 0).
func (t *tracer) recordID(id int64, traceID, name string, parent int64, begin, end time.Time) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{ID: id, Parent: parent, Trace: traceID, Name: name,
		StartNS: begin.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds()})
}

// record stores a finished span that caused no other.
func (t *tracer) record(traceID, name string, parent int64, begin, end time.Time) {
	t.recordID(t.newID(), traceID, name, parent, begin, end)
}

// write saves the spans as JSON lines under dir.
func (t *tracer) write(dir, file string) (string, error) {
	if t == nil || !t.on {
		return "", nil
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	n := len(t.spans)
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return fmt.Sprintf("%s (%d spans)", path, n), nil
}

// attribution renders one operation's time split as a table and adds
// each row to rep as attr.<prefix>.<part>_ms. parts are the medians of
// the attributed components; the remainder of total is "unattributed".
func attribution(rep *report, title, prefix string, total float64, parts [][2]any) string {
	var b strings.Builder
	fmt.Fprintf(&b, "attribution: %s\n", title)
	sum := 0.0
	for _, p := range parts {
		name, v := p[0].(string), p[1].(float64)
		sum += v
		share := 0.0
		if total > 0 {
			share = 100 * v / total
		}
		fmt.Fprintf(&b, "  %-22s %10.3f ms %6.1f%%\n", name, v, share)
		rep.set("attr."+prefix+"."+name+"_ms", "ms", v)
	}
	rest := total - sum
	share := 0.0
	if total > 0 {
		share = 100 * rest / total
	}
	fmt.Fprintf(&b, "  %-22s %10.3f ms %6.1f%%\n", "unattributed", rest, share)
	fmt.Fprintf(&b, "  %-22s %10.3f ms\n", "total", total)
	rep.set("attr."+prefix+".unattributed_ms", "ms", rest)
	rep.set("attr."+prefix+".total_ms", "ms", total)
	return b.String()
}

// overheadRows compares traced and untraced end-to-end figures of the
// same run and adds trace_overhead.<name> = traced - untraced.
func overheadRows(rep *report, traced, untraced *report, names ...string) string {
	var b strings.Builder
	b.WriteString("tracing overhead (traced - untraced rounds of this run)\n")
	for _, n := range names {
		t, u := traced.metrics[n], untraced.metrics[n]
		rep.set("trace_overhead."+n, t.Unit, t.Value-u.Value)
		fmt.Fprintf(&b, "  %-22s traced %12.4g  untraced %12.4g  diff %+12.4g %s\n", n, t.Value, u.Value, t.Value-u.Value, t.Unit)
	}
	return b.String()
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
