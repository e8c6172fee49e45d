package main

// sweep_service: two closed-loop callers drive a seeded deepening sweep
// through serve/client over HTTP against the two-node cluster. Boards are
// small (128x128), so the time goes to HTTP, status polling, the queue,
// cache tiers, spill, snapshot and resume, and the proxy hop rather than
// to kernels.
//
// Each round gives every caller its own prefixes (configs that differ only
// in depth). Every prefix is deepened through depths d1 < d2 < ... < dn,
// one phase per depth:
//
//	phase 1    cold compute at d1, then the same key again: a memory hit
//	phase k    resume to dk from the d(k-1) snapshot
//	phase n    resume to dn, then the same key entered at the node that
//	           does not own it: one proxy hop to a memory hit
//	phase n+1  the d1 key again, long evicted from the small memory LRU:
//	           a disk hit
//
// The cluster runs at easypapd's default replication (none). The ring
// routes by the full config hash, iterations included, so successive
// depths of one prefix can be owned by different nodes; a node that holds
// no snapshot of the previous depth recomputes from its deepest own
// snapshot, or from iteration 0. Such a submission is answered correctly
// but counted as failed: it computes more than its depth increment, which
// is what the service's iteration count is checked against. Which depths
// change owner is fixed by ownerFor, not by the seed, so the failed share
// is the same in every round. After each phase the benchmark waits, inside the measured time,
// for both nodes' write-behind queues to drain, and a key is never
// re-requested while its first request is in flight: every counter
// repeats exactly from round to round.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"easypap/internal/core"
	"easypap/internal/gfx"
	"easypap/internal/img2d"
	"easypap/internal/serve"
	"easypap/internal/serve/client"
	"easypap/internal/serve/cluster"
	"easypap/internal/serve/store"
)

const (
	kindCold    = "cold"
	kindMem     = "mem_hit"
	kindResume  = "resume"
	kindProxied = "proxied"
	kindDisk    = "disk_hit"
)

// sweepShape fixes the sweep's sizes. Computes outnumber cache hits, so
// the median result latency is a compute's: with 128x128 boards every
// compute finishes inside one 20 ms status-poll tick. The memory LRU holds
// fewer entries than one node receives per phase, so the d1 entries are
// evicted long before the disk-hit phase, while the few puts another
// caller can make between a compute and its repeat stay below it.
type sweepShape struct {
	prefixes      int   // per caller per round
	depths        []int // d1 < d2 < ...; multiples of snapshotEvery
	snapshotEvery int
	cacheEntries  int
	dim           int
	variants      []string // cycled over a caller's prefixes
}

func sweepShapeFor(scale int) sweepShape {
	s := sweepShape{prefixes: 8, depths: []int{8, 16, 24, 32}, snapshotEvery: 8, cacheEntries: 4,
		dim: 128, variants: []string{"seq", "lazy"}}
	if scale > 1 {
		s.prefixes, s.depths, s.dim = 4, []int{4, 8, 12}, 64
		s.snapshotEvery, s.cacheEntries = 4, 2
	}
	return s
}

// ownerFor is the node that must own the key of prefix slot j at depth
// index k: each is an XOR of the slot's bits other than the variant bit
// (bit 0), so for every depth and variant each node owns half the
// prefixes, and successive depths change owner for some prefixes and not
// for others.
func ownerFor(j, k int) int {
	b0, b1, b2 := j&1, j>>1&1, j>>2&1
	switch k % 4 {
	case 0:
		return b0 ^ b2
	case 1:
		return b1
	case 2:
		return b0 ^ b1 ^ b2
	default:
		return b1 ^ b2
	}
}

// sweepReq is one planned submission and what came back.
type sweepReq struct {
	kind   string
	cfg    core.Config
	prefix int // index into the round's prefixes
	depth  int // index into sweepShape.depths
	entry  int // node the request enters at
	owner  int

	err       error
	st        *serve.JobStatus
	begin     time.Time
	submitRTT time.Duration
	latency   time.Duration
	polls     int
	bytes     int64
}

type sweepPrefix struct {
	cfg       core.Config // depth-free; Iterations set per request
	owner     []int       // node owning the key at each depth
	sums      []string    // reference checksum at each depth
	snapState []byte      // reference snapshot at d1 (traced runs: store timings)
}

// callerHTTP counts status polls and response bytes of one caller's
// requests and records a span per HTTP call.
type callerHTTP struct {
	base http.RoundTripper
	tr   *tracer

	mu    sync.Mutex
	polls int
	bytes int64
}

type spanCtxKey struct{}

type spanCtx struct {
	trace  string
	parent int64
}

func (c *callerHTTP) RoundTrip(req *http.Request) (*http.Response, error) {
	begin := time.Now()
	resp, err := c.base.RoundTrip(req)
	if req.Method == http.MethodGet && strings.HasPrefix(req.URL.Path, "/v1/jobs/") {
		c.mu.Lock()
		c.polls++
		c.mu.Unlock()
	}
	if sc, ok := req.Context().Value(spanCtxKey{}).(spanCtx); ok {
		name := "http.POST"
		if req.Method == http.MethodGet {
			name = "http.GET"
		}
		c.tr.record(sc.trace, name, sc.parent, begin, time.Now())
	}
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, c: c}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	c *callerHTTP
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.c.mu.Lock()
	b.c.bytes += int64(n)
	b.c.mu.Unlock()
	return n, err
}

// take returns and resets the counters.
func (c *callerHTTP) take() (int, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, b := c.polls, c.bytes
	c.polls, c.bytes = 0, 0
	return p, b
}

func runSweep(o options) (*outcome, error) {
	shape := sweepShapeFor(o.scale)
	dir, err := os.MkdirTemp(o.workdir, "sweep-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tr := newTracer(o.trace)
	transport := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport}

	setup := &setupSampler{dir: dir, o: nodeOpts{cacheEntries: shape.cacheEntries, snapshotEvery: shape.snapshotEvery}}
	bc, err := setup.start(true)
	if err != nil {
		return nil, err
	}
	defer bc.close()

	const callers = 2
	httpOf := make([]*callerHTTP, callers)
	clients := make([][]*client.Client, callers) // [caller][node]
	for c := range clients {
		httpOf[c] = &callerHTTP{base: transport, tr: tr}
		for _, bn := range bc.nodes {
			cl := client.New(bn.url)
			cl.HTTP = &http.Client{Transport: httpOf[c]}
			clients[c] = append(clients[c], cl)
		}
	}

	out := &outcome{}
	rng := rand.New(rand.NewSource(o.seed))
	var traced, untraced []sweepRound
	var tracedSteal, untracedSteal []float64
	var roundCounts map[string]float64
	var samplePrefixes []*sweepPrefix
	var expectSpills int64
	var measured time.Duration
	for round := 0; ; round++ {
		tracing := o.trace && round%2 == 1
		tr.on = tracing
		// Plan the round: each caller gets shape.prefixes fresh prefixes.
		// Slot j fixes the variant; its seed is drawn until every depth's
		// key is owned by the node ownerFor names, so each node gets the
		// same work in every phase whatever the ring's layout.
		prefixes := make([][]*sweepPrefix, callers)
		for c := range prefixes {
			for j := 0; j < shape.prefixes; j++ {
				p, err := planPrefix(bc, shape, j, rng)
				if err != nil {
					return nil, err
				}
				prefixes[c] = append(prefixes[c], p)
			}
		}
		// References: in-process runs of every prefix, without the service.
		for _, ps := range prefixes {
			for _, p := range ps {
				if err := sweepReference(p, shape, o.trace); err != nil {
					return nil, err
				}
			}
		}
		before := sweepCounters(bc)
		roundReqs := make([][]*sweepReq, callers)
		var roundT time.Duration
		var stolen cpuTimes // over the measured phases only
		for _, ph := range sweepPhases(shape) {
			plan := make([][]*sweepReq, callers)
			for c := range plan {
				for i, p := range prefixes[c] {
					for _, step := range ph {
						r := &sweepReq{kind: step.kind, prefix: i, depth: step.depth,
							cfg: withDepth(p.cfg, shape.depths[step.depth]), owner: p.owner[step.depth]}
						r.entry = r.owner
						if r.kind == kindProxied {
							r.entry = 1 - r.owner
						}
						plan[c] = append(plan[c], r)
					}
				}
			}
			cpu0 := readCPUTimes()
			t0 := time.Now()
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for _, r := range plan[c] {
						doSweepReq(clients[c][r.entry], httpOf[c], tr, r)
					}
				}(c)
			}
			wg.Wait()
			for c := range plan {
				for _, r := range plan[c] {
					expectSpills += spillsOf(r, shape.snapshotEvery)
				}
				roundReqs[c] = append(roundReqs[c], plan[c]...)
			}
			if err := drainSpills(bc, expectSpills); err != nil {
				return nil, err
			}
			roundT += time.Since(t0)
			cpu1 := readCPUTimes()
			stolen.steal += cpu1.steal - cpu0.steal
			stolen.total += cpu1.total - cpu0.total
		}
		measured += roundT
		after := sweepCounters(bc)
		counts := make(map[string]float64)
		for k, v := range after {
			counts[k] = v - before[k]
		}
		if err := checkSweepRound(out, prefixes, roundReqs, counts, shape); err != nil && out.checkErr == nil {
			out.checkErr = err
		}
		sr := sweepRound{dur: roundT}
		for _, rs := range roundReqs {
			sr.reqs = append(sr.reqs, rs...)
		}
		steal := stealShare(cpuTimes{}, stolen)
		if tracing {
			traced, tracedSteal = append(traced, sr), append(tracedSteal, steal)
			roundCounts = counts
			samplePrefixes = prefixes[0]
		} else {
			untraced, untracedSteal = append(untraced, sr), append(untracedSteal, steal)
		}
		if err := setup.sample(4); err != nil {
			return nil, err
		}
		if measured.Seconds() >= o.seconds && (!o.trace || len(traced) > 0) {
			break
		}
	}
	tr.on = o.trace
	if out.failed > 0 {
		fmt.Printf("sweep: %d of %d submissions failed: resumes routed to a node without the previous depth's snapshot recompute the prefix (README.md)\n",
			out.failed, out.attempted)
	}
	setupS, openMS, err := setup.result()
	if err != nil {
		return nil, err
	}
	untraced = quietRounds("untraced", untraced, untracedSteal)
	traced = quietRounds("traced", traced, tracedSteal)

	e2e := func(rounds []sweepRound) *report {
		rep := newReport()
		sweepE2E(rep, rounds, setupS)
		return rep
	}
	out.e2e = e2e(untraced)
	if !o.trace {
		return out, nil
	}
	rep := newReport()
	out.layers = rep
	var tracedReqs []*sweepReq
	for _, r := range traced {
		tracedReqs = append(tracedReqs, r.reqs...)
	}
	tables, err := sweepLayers(rep, tr, bc, tracedReqs, roundCounts, samplePrefixes, shape, dir, hc, openMS)
	if err != nil {
		return nil, err
	}
	out.tables = append(out.tables, tables...)
	out.tables = append(out.tables, overheadRows(rep, e2e(traced), out.e2e, "result_p50_ms", "jobs_per_s"))
	where, err := tr.write(o.workdir, fmt.Sprintf("spans-sweep_service-%d.jsonl", o.seed))
	if err != nil {
		return nil, err
	}
	out.tables = append(out.tables, "spans written to "+where)
	return out, nil
}

func withDepth(cfg core.Config, d int) core.Config {
	cfg.Iterations = d
	return cfg
}

// sweepStep is one request of a phase: a kind at a depth index.
type sweepStep struct {
	kind  string
	depth int
}

// sweepPhases lists the phases of a round, each applied to every prefix
// in turn (see the file comment).
func sweepPhases(s sweepShape) [][]sweepStep {
	n := len(s.depths)
	phases := [][]sweepStep{{{kindCold, 0}, {kindMem, 0}}}
	for k := 1; k < n-1; k++ {
		phases = append(phases, []sweepStep{{kindResume, k}})
	}
	phases = append(phases, []sweepStep{{kindResume, n - 1}, {kindProxied, n - 1}}, []sweepStep{{kindDisk, 0}})
	return phases
}

// planPrefix draws the prefix of slot j: its seed is drawn until every
// depth's key is owned by the node ownerFor names. A depth whose route key
// is d1's (a ring that routes a prefix by its iteration-free hash) can
// only share d1's owner, and is planned so.
func planPrefix(bc *benchCluster, s sweepShape, j int, rng *rand.Rand) (*sweepPrefix, error) {
	for try := 0; try < 1<<16; try++ {
		cfg := core.Config{Kernel: "life", Variant: s.variants[j%len(s.variants)], Dim: s.dim,
			TileW: 16, TileH: 16, Threads: 1, Arg: "random", Seed: rng.Int63()}
		p := &sweepPrefix{cfg: cfg}
		var key0 uint64
		for k, d := range s.depths {
			_, _, key, err := cluster.RouteKey(withDepth(cfg, d), false)
			if err != nil {
				return nil, err
			}
			want := ownerFor(j, k)
			if k == 0 {
				key0 = key
			} else if key == key0 {
				want = p.owner[0]
			}
			if o := bc.ownerOf(key); o != want {
				break
			}
			p.owner = append(p.owner, want)
		}
		if len(p.owner) == len(s.depths) {
			return p, nil
		}
	}
	return nil, fmt.Errorf("sweep: no seed gives prefix slot %d the owners ownerFor names", j)
}

// doSweepReq submits one request through serve/client and waits for its
// terminal status.
func doSweepReq(cl *client.Client, ch *callerHTTP, tr *tracer, r *sweepReq) {
	traceID := fmt.Sprintf("%s-%d-%d", r.kind, r.prefix, r.cfg.Seed)
	// The HTTP spans name the client call that made them as parent.
	spanned := func(parent int64) context.Context {
		return context.WithValue(context.Background(), spanCtxKey{}, spanCtx{trace: traceID, parent: parent})
	}
	root, sub := tr.newID(), tr.newID()
	ch.take()
	r.begin = time.Now()
	st, err := cl.Submit(spanned(sub), r.cfg, false)
	r.submitRTT = time.Since(r.begin)
	tr.recordID(sub, traceID, "client.Submit", root, r.begin, r.begin.Add(r.submitRTT))
	if err == nil && !st.State.Terminal() {
		wait := tr.newID()
		w0 := time.Now()
		st, err = cl.Wait(spanned(wait), st.ID)
		tr.recordID(wait, traceID, "client.Wait", root, w0, time.Now())
	}
	r.latency = time.Since(r.begin)
	tr.recordID(root, traceID, "sweep.request/"+r.kind, 0, r.begin, r.begin.Add(r.latency))
	r.polls, r.bytes = ch.take()
	r.st, r.err = st, err
	if err == nil && st.State != serve.JobDone {
		r.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
}

// sweepReference computes the checksums of a prefix at every depth with
// an in-process run that never touches the service: one display-mode run
// to the deepest depth whose sink hashes the frames of each depth.
func sweepReference(p *sweepPrefix, s sweepShape, keepSnap bool) error {
	sink := &depthSink{want: make(map[int]string)}
	for _, d := range s.depths {
		sink.want[d] = ""
	}
	opts := core.RunOptions{Sink: sink}
	d1, dn := s.depths[0], s.depths[len(s.depths)-1]
	if keepSnap {
		opts.SnapshotEvery = d1
		opts.OnSnapshot = func(iter int, state []byte) {
			if iter == d1 {
				p.snapState = state
			}
		}
	}
	if _, err := core.RunWith(context.Background(), withDepth(p.cfg, dn), opts); err != nil {
		return fmt.Errorf("sweep reference: %w", err)
	}
	p.sums = p.sums[:0]
	for _, d := range s.depths {
		if sink.want[d] == "" {
			return fmt.Errorf("sweep reference: no frame at depth %d", d)
		}
		p.sums = append(p.sums, sink.want[d])
	}
	return nil
}

// depthSink hashes the main-window frames of the wanted iterations.
type depthSink struct{ want map[int]string }

func (d *depthSink) Frame(window string, iter int, img *img2d.Image) error {
	if _, ok := d.want[iter]; ok && window == "main" {
		d.want[iter] = pixelChecksum(img)
	}
	return nil
}

func (d *depthSink) Close() error { return nil }

// sweepCounters sums the service counters of both nodes.
func sweepCounters(bc *benchCluster) map[string]float64 {
	m := make(map[string]float64)
	for _, bn := range bc.nodes {
		s := bn.mgr.Stats()
		m["computed"] += float64(s.Computed)
		m["mem_hits"] += float64(s.CacheHits)
		m["disk_hits"] += float64(s.DiskHits)
		m["snapshots_resumed"] += float64(s.SnapshotsResumed)
		m["snapshots_written"] += float64(s.SnapshotsWritten)
		m["spills"] += float64(s.Spills)
		m["spill_dropped"] += float64(s.SpillDropped)
		for _, k := range s.Kernels {
			m["iterations_computed"] += float64(k.Iterations)
		}
	}
	return m
}

// spillsOf is how many records the service's write-behind persists for
// a finished request: a computed result is one entry plus a snapshot at
// every multiple of every past the iteration it resumed from.
func spillsOf(r *sweepReq, every int) int64 {
	if r.err != nil || r.st.Cached || r.st.Result == nil {
		return 0
	}
	res := r.st.Result
	return 1 + int64(res.Iterations/every-res.ResumedFrom/every)
}

// drainSpills waits until the nodes together have persisted (or dropped)
// expect records since they started.
func drainSpills(bc *benchCluster, expect int64) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		var persisted int64
		for _, bn := range bc.nodes {
			s := bn.mgr.Stats()
			persisted += s.Spills + s.SnapshotsWritten + s.SpillErrors + s.SpillDropped
		}
		if persisted >= expect {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("write-behind did not drain (%d of %d records persisted)", persisted, expect)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// checkSweepRound verifies a round's answers against the in-process
// references and the service's iteration count against the sweep's depth
// increments, and counts attempted and failed submissions. A computed
// submission that ran more iterations than its increment recomputed part
// of its prefix: it is counted as failed, and its extra iterations are
// expected in the service's count.
func checkSweepRound(out *outcome, prefixes [][]*sweepPrefix, reqs [][]*sweepReq, counts map[string]float64, s sweepShape) error {
	var first error
	wantIters := 0
	for c, rs := range reqs {
		for _, r := range rs {
			out.attempted++
			if r.err != nil {
				out.failed++
				fmt.Printf("sweep %s request failed: %v\n", r.kind, r.err)
				continue
			}
			want := prefixes[c][r.prefix].sums[r.depth]
			res := r.st.Result
			switch {
			case res == nil:
				first = firstErr(first, checkf("%s: done without a result", r.kind))
				continue
			case res.Checksum != want:
				first = firstErr(first, checkf("%s %s depth %d: checksum %.12s, in-process run gives %.12s",
					r.kind, r.st.ID, r.cfg.Iterations, res.Checksum, want))
			case res.Iterations != r.cfg.Iterations:
				first = firstErr(first, checkf("%s %s: reached iteration %d of %d", r.kind, r.st.ID, res.Iterations, r.cfg.Iterations))
			}
			if r.st.Cached || (r.kind != kindCold && r.kind != kindResume) {
				continue
			}
			inc := s.depths[r.depth]
			if r.depth > 0 {
				inc -= s.depths[r.depth-1]
			}
			if ran := res.Iterations - res.ResumedFrom; ran > inc {
				out.failed++
				wantIters += ran - inc
			}
		}
		wantIters += len(prefixes[c]) * s.depths[len(s.depths)-1] // d1 cold, then each increment resumed
	}
	if got := counts["iterations_computed"]; int(got) != wantIters {
		first = firstErr(first, checkf("service computed %d iterations, the sweep's depth increments and recomputed prefixes sum to %d", int(got), wantIters))
	}
	return first
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// actualKind classifies a finished request by what the service reported.
func actualKind(r *sweepReq, ids []string) string {
	st := r.st
	switch {
	case st == nil || st.Result == nil:
		return "failed"
	case !st.Cached && st.Result.ResumedFrom > 0:
		return kindResume
	case !st.Cached:
		return kindCold
	case st.DiskHit:
		return kindDisk
	case r.entry != r.owner && strings.HasPrefix(st.ID, ids[r.owner]+"."):
		return kindProxied
	default:
		return kindMem
	}
}

// sweepRound is one round's submissions and its measured time (the
// phases, without the untimed drains between them).
type sweepRound struct {
	reqs []*sweepReq
	dur  time.Duration
}

// sweepE2E computes the end-to-end figures. Rates are taken per round and
// their median reported; latencies are quantiles over all submissions.
func sweepE2E(rep *report, rounds []sweepRound, setupS float64) {
	var lat, cellRates, jobRates, iterRates []float64
	var computedCells, ranS, bytes, n float64
	for _, rd := range rounds {
		var cells, iters, jobs float64
		for _, r := range rd.reqs {
			if r.err != nil {
				continue
			}
			jobs++
			lat = append(lat, ms(r.latency))
			bytes += float64(r.bytes)
			cfg := r.st.Config
			cells += float64(cfg.Dim*cfg.Dim) * float64(r.st.Result.Iterations)
			if !r.st.Cached {
				k := float64(r.st.Result.Iterations - r.st.Result.ResumedFrom)
				computedCells += float64(cfg.Dim*cfg.Dim) * k
				ranS += float64(r.st.RanNS) / 1e9
				iters += k
			}
		}
		n += jobs
		sec := rd.dur.Seconds()
		cellRates = append(cellRates, cells/sec)
		jobRates = append(jobRates, jobs/sec)
		iterRates = append(iterRates, iters/sec)
	}
	rep.set("setup_s", "s", setupS)
	rep.set("cells_per_s", "cells/s", median(cellRates))
	rep.set("seq_cells_per_s", "cells/s", computedCells/ranS)
	rep.set("jobs_per_s", "1/s", median(jobRates))
	rep.set("result_p50_ms", "ms", quantile(lat, 0.5))
	rep.set("result_p90_ms", "ms", quantile(lat, 0.9))
	rep.set("frames_per_s", "1/s", median(iterRates))
	rep.set("wire_bytes_per_frame", "B", bytes/max(1, n))
}

// sweepLayers computes the per-layer figures and the attribution tables
// of the traced rounds.
func sweepLayers(rep *report, tr *tracer, bc *benchCluster, reqs []*sweepReq, counts map[string]float64,
	samples []*sweepPrefix, s sweepShape, dir string, hc *http.Client, openMS float64) ([]string, error) {
	ids := []string{bc.nodes[0].id, bc.nodes[1].id}
	byKind := make(map[string][]float64)
	var queued, ran, pollWait, polls []float64
	var mismatched int
	type parts struct{ submit, queue, run, poll, total float64 }
	var comp, hit parts
	var nComp, nHit float64
	for _, r := range reqs {
		if r.err != nil {
			continue
		}
		k := actualKind(r, ids)
		if k != r.kind {
			mismatched++
		}
		byKind[k] = append(byKind[k], ms(r.latency))
		if r.st.Cached {
			hit.submit += ms(r.submitRTT)
			hit.total += ms(r.latency)
			nHit++
			continue
		}
		q, run := float64(r.st.QueuedNS)/1e6, float64(r.st.RanNS)/1e6
		finish := r.st.SubmittedAt.Add(time.Duration(r.st.QueuedNS + r.st.RanNS))
		poll := ms(r.begin.Add(r.latency).Sub(finish))
		queued = append(queued, q)
		ran = append(ran, run)
		pollWait = append(pollWait, ms(r.latency)-q-run)
		polls = append(polls, float64(r.polls))
		comp.submit += ms(r.submitRTT)
		comp.queue += q
		comp.run += run
		comp.poll += poll
		comp.total += ms(r.latency)
		nComp++
	}
	rep.set("serve.queue_ms", "ms", median(queued))
	rep.set("serve.run_ms", "ms", median(ran))
	rep.set("serve.mem_hit_ms", "ms", median(byKind[kindMem]))
	rep.set("serve.disk_hit_ms", "ms", median(byKind[kindDisk]))
	rep.set("serve.resume_ms", "ms", median(byKind[kindResume]))
	rep.set("client.poll_wait_ms", "ms", median(pollWait))
	rep.set("client.status_polls", "count", mean(polls))
	rep.set("cluster.proxy_hop_ms", "ms", median(byKind[kindProxied])-median(byKind[kindMem]))
	rep.set("cluster.proxied_share", "ratio", float64(len(byKind[kindProxied]))/float64(max(1, len(reqs))))
	for _, k := range []string{"computed", "mem_hits", "disk_hits", "snapshots_resumed", "iterations_computed"} {
		rep.set("serve."+k, "count", counts[k])
	}
	rep.set("sweep.kind_mismatches", "count", float64(mismatched))

	// The program's own stage timers, scraped from both nodes.
	stages := make(map[string][]uint64)
	var bounds []float64
	for _, bn := range bc.nodes {
		b, h, err := scrapeStages(hc, bn.url)
		if err != nil {
			return nil, err
		}
		bounds = b
		for st, counts := range h {
			if stages[st] == nil {
				stages[st] = make([]uint64, len(counts))
			}
			for i, c := range counts {
				stages[st][i] += c
			}
		}
	}
	for _, st := range serviceStages {
		rep.set("serve.stage."+st+"_us", "us", histMedian(bounds, stages[st])/1e3)
	}

	// serve/store: public calls on this run's own entries and snapshots.
	storeRows, err := storeLayer(rep, tr, samples, s, dir)
	if err != nil {
		return nil, err
	}
	rep.set("store.open_ms", "ms", openMS)

	tables := []string{
		attribution(rep, "sweep_service computed submission (mean, ms)", "sweep_computed", comp.total/nComp, [][2]any{
			{"http_submit", comp.submit / nComp}, {"queue", comp.queue / nComp},
			{"run", comp.run / nComp}, {"poll_wait", comp.poll / nComp}}),
		attribution(rep, "sweep_service cache-answered submission (mean, ms)", "sweep_cached", hit.total/nHit, [][2]any{
			{"http_submit", hit.submit / nHit}}),
		storeRows,
	}
	return tables, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// storeLayer times the store's public calls on entries and snapshots of
// this run's sweep, in a store of its own.
func storeLayer(rep *report, tr *tracer, samples []*sweepPrefix, s sweepShape, dir string) (string, error) {
	st, err := store.Open(filepath.Join(dir, "layer-store"), store.Options{})
	if err != nil {
		return "", err
	}
	defer st.Close()
	var get, put, sput, deep, eb, sb []float64
	for i, p := range samples {
		cfg := withDepth(p.cfg, s.depths[1])
		ro, err := core.Run(cfg)
		if err != nil {
			return "", err
		}
		_, hash, err := serve.NormalizeSubmission(cfg, false)
		if err != nil {
			return "", err
		}
		// Entries carry the final frame, as the daemon's spiller writes them.
		var frame bytes.Buffer
		if err := gfx.WriteFrame(&frame, "final", ro.Iterations, ro.Final); err != nil {
			return "", err
		}
		e := &store.Entry{Hash: hash, Result: ro.Result, Frames: frame.Bytes()}
		var buf bytesBuffer
		if err := store.EncodeEntry(&buf, e); err != nil {
			return "", err
		}
		eb = append(eb, float64(buf.n))
		t0 := time.Now()
		if err := st.Cache.Put(e); err != nil {
			return "", err
		}
		put = append(put, us(time.Since(t0)))
		tr.record(fmt.Sprintf("store-%d", i), "store.Put", 0, t0, time.Now())
		t0 = time.Now()
		if _, ok := st.Cache.Get(hash); !ok {
			return "", fmt.Errorf("store: entry %s missing after Put", hash)
		}
		get = append(get, us(time.Since(t0)))
		tr.record(fmt.Sprintf("store-%d", i), "store.Get", 0, t0, time.Now())
		if p.snapState == nil {
			continue
		}
		prefix, err := cfg.PrefixHash()
		if err != nil {
			return "", err
		}
		snap := &store.Snapshot{PrefixHash: prefix, Iter: s.depths[0], State: p.snapState}
		buf = bytesBuffer{}
		if err := store.EncodeSnapshot(&buf, snap); err != nil {
			return "", err
		}
		sb = append(sb, float64(buf.n))
		t0 = time.Now()
		if err := st.Cache.PutSnapshot(snap); err != nil {
			return "", err
		}
		sput = append(sput, us(time.Since(t0)))
		tr.record(fmt.Sprintf("store-%d", i), "store.PutSnapshot", 0, t0, time.Now())
		t0 = time.Now()
		if _, ok := st.Cache.DeepestSnapshot(prefix, s.depths[1]-1); !ok {
			return "", fmt.Errorf("store: snapshot of %s missing after PutSnapshot", prefix)
		}
		deep = append(deep, us(time.Since(t0)))
		tr.record(fmt.Sprintf("store-%d", i), "store.DeepestSnapshot", 0, t0, time.Now())
	}
	rep.set("store.get_us", "us", median(get))
	rep.set("store.put_us", "us", median(put))
	rep.set("store.snapshot_put_us", "us", median(sput))
	rep.set("store.deepest_snapshot_us", "us", median(deep))
	rep.set("store.entry_bytes", "B", median(eb))
	rep.set("store.snapshot_bytes", "B", median(sb))
	return fmt.Sprintf("store calls on %d of this run's entries and snapshots: put %.1f us, get %.1f us, snapshot put %.1f us, deepest %.1f us",
		len(put), median(put), median(get), median(sput), median(deep)), nil
}

// bytesBuffer counts written bytes.
type bytesBuffer struct{ n int }

func (b *bytesBuffer) Write(p []byte) (int, error) { b.n += len(p); return len(p), nil }
