package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pagefile"
)

// Phases and span names, as written to the span file.
const (
	phaseRange = "range"
	phaseNN    = "nn"
	phaseWrite = "write"
	phaseMixed = "mixed" // range queries right after a commit

	layerUncertain = "uncertain"
	layerPagefile  = "pagefile"
)

// rootSpan is the span of one public-API call: the root of an operation.
// core's contribution to the trace rides on it — the filter and refinement
// times the call returned in its Stats — because core exposes durations,
// not intervals.
type rootSpan struct {
	phase      string
	pass, op   int
	name       string
	start, end int64 // ns since recorder start
	filter     time.Duration
	refine     time.Duration
	oneShard   bool // the call searched exactly one shard (or the index has one)
}

// storeSpan is one page-store call made while an operation was in flight.
type storeSpan struct {
	parent     int32 // index into recorder.roots
	name       string
	start, end int64
}

// recorder holds the spans of a traced run in memory until the run ends.
type recorder struct {
	t0 time.Time
	// on gates store-call timing: traced passes switch it on, the
	// plain replays beside them off.
	on atomic.Bool
	// cur is the root-span index of the operation in flight, -1 outside
	// operations. One goroutine issues operations, so one slot suffices;
	// it is atomic because shard goroutines read it.
	cur    atomic.Int32
	roots  []rootSpan
	stores []*timedStore
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	r.cur.Store(-1)
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens the root span of the next operation; end closes it.
func (r *recorder) begin() {
	r.cur.Store(int32(len(r.roots)))
}

func (r *recorder) end(s rootSpan) {
	r.cur.Store(-1)
	r.roots = append(r.roots, s)
}

// wrap is the Config.WrapStore hook of a traced run.
func (r *recorder) wrap(inner pagefile.Store) pagefile.Store {
	s := &timedStore{inner: inner, rec: r}
	r.stores = append(r.stores, s)
	return s
}

// timedStore records a child span around every page-store call of an
// operation. It forwards PageVerifier so the scrubber's probe still
// reaches the file.
type timedStore struct {
	inner pagefile.Store
	rec   *recorder
	mu    sync.Mutex
	spans []storeSpan
}

func (s *timedStore) timed(name string, call func() error) error {
	parent := s.rec.cur.Load()
	if parent < 0 || !s.rec.on.Load() {
		return call()
	}
	t0 := s.rec.now()
	err := call()
	t1 := s.rec.now()
	s.mu.Lock()
	s.spans = append(s.spans, storeSpan{parent: parent, name: name, start: t0, end: t1})
	s.mu.Unlock()
	return err
}

func (s *timedStore) Alloc() (pagefile.PageID, error) {
	var id pagefile.PageID
	err := s.timed("Alloc", func() (e error) { id, e = s.inner.Alloc(); return e })
	return id, err
}

func (s *timedStore) Read(id pagefile.PageID, buf []byte) error {
	return s.timed("Read", func() error { return s.inner.Read(id, buf) })
}

func (s *timedStore) Write(id pagefile.PageID, buf []byte) error {
	return s.timed("Write", func() error { return s.inner.Write(id, buf) })
}

func (s *timedStore) Free(id pagefile.PageID) error {
	return s.timed("Free", func() error { return s.inner.Free(id) })
}

func (s *timedStore) NumPages() int          { return s.inner.NumPages() }
func (s *timedStore) Stats() *pagefile.Stats { return s.inner.Stats() }

func (s *timedStore) VerifyPage(id pagefile.PageID) error {
	if v, ok := s.inner.(pagefile.PageVerifier); ok {
		return v.VerifyPage(id)
	}
	return nil
}

// children returns every store span grouped by root-span index, each group
// ordered by start time.
func (r *recorder) children() [][]storeSpan {
	out := make([][]storeSpan, len(r.roots))
	for _, s := range r.stores {
		s.mu.Lock()
		for _, sp := range s.spans {
			out[sp.parent] = append(out[sp.parent], sp)
		}
		s.mu.Unlock()
	}
	for _, c := range out {
		sort.Slice(c, func(a, b int) bool { return c[a].start < c[b].start })
	}
	return out
}

// covered returns the length of the union of the children's intervals
// (ordered by start) — the part of the parent that is not its self time.
func covered(children []storeSpan) int64 {
	var total, hi int64
	for _, c := range children {
		lo := c.start
		if lo < hi {
			lo = hi
		}
		if c.end > lo {
			total += c.end - lo
			hi = c.end
		}
	}
	return total
}

// layerTimes sums, over the traced operations of one phase, the wall time
// of the root spans and the time spent inside each kind of store call.
type layerTimes struct {
	ops      int
	root     int64            // Σ root span durations
	self     int64            // Σ root self times (root minus children's union)
	store    map[string]int64 // Σ child durations by call name
	calls    map[string]int   // child count by call name
	filter   time.Duration
	refine   time.Duration
	fanout   int64 // Σ (root − filter − refine) over one-shard operations
	fanoutN  int
	rootDurs []float64 // ms, for the diagnostic p99
}

func (r *recorder) phaseTimes(phase string) layerTimes {
	lt := layerTimes{store: map[string]int64{}, calls: map[string]int{}}
	children := r.children()
	for i, root := range r.roots {
		if root.phase != phase {
			continue
		}
		d := root.end - root.start
		lt.ops++
		lt.root += d
		lt.self += d - covered(children[i])
		lt.filter += root.filter
		lt.refine += root.refine
		lt.rootDurs = append(lt.rootDurs, float64(d)/1e6)
		if root.oneShard {
			lt.fanout += d - int64(root.filter) - int64(root.refine)
			lt.fanoutN++
		}
		for _, c := range children[i] {
			lt.store[c.name] += c.end - c.start
			lt.calls[c.name]++
		}
	}
	return lt
}

// spanRecord is one line of <workload>.spans.jsonl.
type spanRecord struct {
	Workload string `json:"workload"`
	Phase    string `json:"phase"`
	Pass     int    `json:"pass"`
	Op       int    `json:"op"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root span
	Start    int64  `json:"start"`  // ns since the run started
	End      int64  `json:"end"`
	// Root spans only: what core reported for the call.
	FilterNS int64 `json:"core_filter_ns,omitempty"`
	RefineNS int64 `json:"core_refine_ns,omitempty"`
}

// writeSpans writes every span of the run to dir/<workload>.spans.jsonl.
// Root spans take ids 1..len(roots); store spans follow.
func (r *recorder) writeSpans(dir, workload string) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".spans.jsonl"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	children := r.children()
	next := len(r.roots) + 1
	for i, root := range r.roots {
		rec := spanRecord{
			Workload: workload, Phase: root.phase, Pass: root.pass, Op: root.op,
			Layer: layerUncertain, Name: root.name, ID: i + 1,
			Start: root.start, End: root.end,
			FilterNS: int64(root.filter), RefineNS: int64(root.refine),
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
		for _, c := range children[i] {
			rec := spanRecord{
				Workload: workload, Phase: root.phase, Pass: root.pass, Op: root.op,
				Layer: layerPagefile, Name: c.name, ID: next, Parent: i + 1,
				Start: c.start, End: c.end,
			}
			next++
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
	}
	return w.Flush()
}
