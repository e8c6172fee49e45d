package main

// live_view: frames jobs run one at a time on the two-node cluster, each
// watched by two viewers attached to the owning node. Compute is light
// (lazy kernels at 512x512), so PNG encoding, the frame hub, delta records
// and viewer-side decoding dominate; frames jobs bypass the result cache.
// A round is four jobs: life lazy on the sparse diag board and fire lazy,
// each once with two delta-format viewers and once with one full-format
// and one delta-format viewer.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"easypap/internal/core"
	"easypap/internal/gfx"
	"easypap/internal/img2d"
	"easypap/internal/serve"
	"easypap/internal/serve/client"
)

type liveJob struct {
	kernel, board string
	formats       [2]gfx.StreamFormat
}

// liveRound is one round's jobs, in order.
var liveRound = []liveJob{
	{kernel: "life", board: "diag", formats: [2]gfx.StreamFormat{gfx.FormatDelta, gfx.FormatDelta}},
	{kernel: "fire", formats: [2]gfx.StreamFormat{gfx.FormatDelta, gfx.FormatDelta}},
	{kernel: "life", board: "diag", formats: [2]gfx.StreamFormat{gfx.FormatFull, gfx.FormatDelta}},
	{kernel: "fire", formats: [2]gfx.StreamFormat{gfx.FormatFull, gfx.FormatDelta}},
}

func liveConfig(j liveJob, scale int, seed int64) core.Config {
	dim, iters := 512, 96
	if scale > 1 {
		dim, iters = 128, 8
	}
	return core.Config{Kernel: j.kernel, Variant: "lazy", Dim: dim, TileW: 16, TileH: 16,
		Iterations: iters, Threads: 1, Arg: j.board, Seed: seed}
}

// viewer is one frame-stream subscriber's record of a job.
type viewer struct {
	format     gfx.StreamFormat
	err        error
	frames     int
	keyframes  int
	records    int
	bytes      int64
	first      time.Duration // submit to first main-window frame
	last       time.Duration // submit to last main-window frame
	final      *img2d.Image
	decodeNS   []float64 // PNG decodes (full records)
	applyNS    []float64 // delta applies
	pngBytes   []float64 // PNG payload sizes
	deltaBytes []float64 // delta record payload sizes
}

// liveRoundRes is one round's jobs and its measured time.
type liveRoundRes struct {
	jobs []*liveResult
	dur  time.Duration
}

type liveResult struct {
	job     liveJob
	cfg     core.Config
	err     error
	st      *serve.JobStatus
	viewers [2]*viewer
	result  time.Duration // submit to terminal status
	done    time.Duration // submit to the last viewer's end of stream
}

func runLive(o options) (*outcome, error) {
	dir, err := os.MkdirTemp(o.workdir, "live-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tr := newTracer(o.trace)
	transport := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport}
	setup := &setupSampler{dir: dir, o: nodeOpts{cacheEntries: 16}}
	bc, err := setup.start(true)
	if err != nil {
		return nil, err
	}
	defer bc.close()

	out := &outcome{}
	var traced, untraced []liveRoundRes
	var tracedSteal, untracedSteal []float64
	var measured time.Duration
	job := 0
	for round := 0; ; round++ {
		tracing := o.trace && round%2 == 1
		tr.on = tracing
		var rr liveRoundRes
		cpu0 := readCPUTimes()
		for _, j := range liveRound {
			cfg := liveConfig(j, o.scale, o.seed*1000+int64(job))
			job++
			owner, err := bc.owner(cfg, true)
			if err != nil {
				return nil, err
			}
			cl := client.New(bc.nodes[owner].url)
			cl.HTTP = hc
			t0 := time.Now()
			lr := watchJob(cl, hc, tr, j, cfg)
			rr.dur += time.Since(t0)
			out.attempted++
			if lr.err != nil {
				out.failed++
				fmt.Printf("live job %s failed: %v\n", cfg.Kernel, lr.err)
			} else if err := checkLive(lr); err != nil && out.checkErr == nil {
				out.checkErr = err
			}
			rr.jobs = append(rr.jobs, lr)
		}
		measured += rr.dur
		steal := stealShare(cpu0, readCPUTimes())
		if tracing {
			traced, tracedSteal = append(traced, rr), append(tracedSteal, steal)
		} else {
			untraced, untracedSteal = append(untraced, rr), append(untracedSteal, steal)
		}
		if err := setup.sample(6); err != nil {
			return nil, err
		}
		if measured.Seconds() >= o.seconds && (!o.trace || len(traced) > 0) {
			break
		}
	}
	tr.on = o.trace
	setupS, _, err := setup.result()
	if err != nil {
		return nil, err
	}
	untraced = quietRounds("untraced", untraced, untracedSteal)
	traced = quietRounds("traced", traced, tracedSteal)
	e2e := func(rounds []liveRoundRes) *report {
		rep := newReport()
		liveE2E(rep, rounds, setupS)
		return rep
	}
	out.e2e = e2e(untraced)
	if !o.trace {
		return out, nil
	}
	rep := newReport()
	out.layers = rep
	var tracedJobs []*liveResult
	for _, rr := range traced {
		tracedJobs = append(tracedJobs, rr.jobs...)
	}
	tables, err := liveLayers(rep, tr, tracedJobs, o.scale, o.seed)
	if err != nil {
		return nil, err
	}
	out.tables = append(out.tables, tables...)
	out.tables = append(out.tables, overheadRows(rep, e2e(traced), out.e2e, "frames_per_s", "result_p50_ms"))
	where, err := tr.write(o.workdir, fmt.Sprintf("spans-live_view-%d.jsonl", o.seed))
	if err != nil {
		return nil, err
	}
	out.tables = append(out.tables, "spans written to "+where)
	return out, nil
}

// watchJob submits a frames job, attaches both viewers, and waits for the
// streams to end and the job to finish.
func watchJob(cl *client.Client, hc *http.Client, tr *tracer, j liveJob, cfg core.Config) *liveResult {
	lr := &liveResult{job: j, cfg: cfg}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	traceID := fmt.Sprintf("live-%d", cfg.Seed)
	root := tr.newID()
	t0 := time.Now()
	defer func() { tr.recordID(root, traceID, "live.job/"+cfg.Kernel, 0, t0, time.Now()) }()
	st, err := cl.Submit(ctx, cfg, true)
	tr.record(traceID, "client.Submit", root, t0, time.Now())
	if err != nil {
		lr.err = err
		return lr
	}
	var wg sync.WaitGroup
	for i, f := range j.formats {
		v := &viewer{format: f}
		lr.viewers[i] = v
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, b := tr.newID(), time.Now()
			watch(ctx, hc, tr, traceID, id, cl.Base, st.ID, t0, v)
			tr.recordID(id, traceID, "viewer.stream/"+string(f), root, b, time.Now())
		}()
	}
	wg.Wait()
	lr.done = time.Since(t0)
	w0 := time.Now()
	st, err = cl.Wait(ctx, st.ID)
	tr.record(traceID, "client.Wait", root, w0, time.Now())
	lr.result = time.Since(t0)
	lr.st = st
	switch {
	case err != nil:
		lr.err = err
	case st.State != serve.JobDone:
		lr.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	for _, v := range lr.viewers {
		if v.err != nil && lr.err == nil {
			lr.err = fmt.Errorf("%s viewer: %w", v.format, v.err)
		}
	}
	return lr
}

// countingReader counts the stream bytes a viewer receives.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// watch reads one frame stream to its end, decoding every record the way
// a viewer shows it: full records are PNG-decoded, delta records patched
// onto the window's previous image.
func watch(ctx context.Context, hc *http.Client, tr *tracer, traceID string, span int64, base, id string, t0 time.Time, v *viewer) {
	url := base + "/v1/jobs/" + id + "/frames"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		v.err = err
		return
	}
	if v.format == gfx.FormatDelta {
		req.Header.Set("Accept", serve.FramesDeltaContentType)
	}
	resp, err := hc.Do(req)
	if err != nil {
		v.err = err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		v.err = fmt.Errorf("GET %s: %s", url, resp.Status)
		return
	}
	cr := &countingReader{r: resp.Body}
	br := bufio.NewReader(cr)
	ra := gfx.NewReassembler()
	for {
		rec, err := gfx.ReadRecord(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			v.err = err
			return
		}
		v.records++
		b := time.Now()
		var img *img2d.Image
		if rec.Kind == gfx.RecordFull {
			v.keyframes++
			v.pngBytes = append(v.pngBytes, float64(len(rec.Payload)))
			if v.format == gfx.FormatDelta {
				img, err = ra.Apply(rec)
			} else {
				img, err = img2d.DecodePNG(bytes.NewReader(rec.Payload))
			}
			v.decodeNS = append(v.decodeNS, float64(time.Since(b)))
			tr.record(traceID, "viewer.decode", span, b, time.Now())
		} else {
			v.deltaBytes = append(v.deltaBytes, float64(len(rec.Payload)))
			img, err = ra.Apply(rec)
			v.applyNS = append(v.applyNS, float64(time.Since(b)))
			tr.record(traceID, "viewer.delta_apply", span, b, time.Now())
		}
		if err != nil {
			v.err = err
			return
		}
		if rec.Window != "main" {
			continue
		}
		at := time.Since(t0)
		if v.frames == 0 {
			v.first = at
		}
		v.last = at
		v.frames++
		v.final = img
	}
	v.bytes = cr.n
}

// checkLive verifies that the job ran the iterations it was asked for,
// that every viewer saw one frame per iteration and that its last frame
// hashes to the job's Result.Checksum. Neither kernel's board stops
// changing within a job, so a job that ends early is an error.
func checkLive(lr *liveResult) error {
	res := lr.st.Result
	if res == nil {
		return checkf("live %s: done without a result", lr.cfg.Kernel)
	}
	if res.Iterations != lr.cfg.Iterations {
		return checkf("live %s: ran %d of %d iterations", lr.cfg.Kernel, res.Iterations, lr.cfg.Iterations)
	}
	for i, v := range lr.viewers {
		if v.frames != lr.cfg.Iterations {
			return checkf("live %s viewer %d (%s): %d frames for %d iterations", lr.cfg.Kernel, i, v.format, v.frames, lr.cfg.Iterations)
		}
		if v.final == nil || pixelChecksum(v.final) != res.Checksum {
			return checkf("live %s viewer %d (%s): last frame does not hash to Result.Checksum", lr.cfg.Kernel, i, v.format)
		}
	}
	return nil
}

// liveE2E computes the end-to-end figures. life and fire frames cost
// very different amounts, so each timing is taken per kernel (median, or
// the stated quantile) and the kernels are combined by geometric mean.
func liveE2E(rep *report, rounds []liveRoundRes, setupS float64) {
	type series struct{ fps, results, cells, seqCells []float64 }
	byKernel := make(map[string]*series)
	var bytes, frames float64
	var jobRates []float64
	for _, rr := range rounds {
		jobs := 0
		for _, lr := range rr.jobs {
			if lr.err != nil {
				continue
			}
			jobs++
			k := byKernel[lr.cfg.Kernel]
			if k == nil {
				k = &series{}
				byKernel[lr.cfg.Kernel] = k
			}
			n := float64(lr.cfg.Dim*lr.cfg.Dim) * float64(lr.st.Result.Iterations)
			k.cells = append(k.cells, n/lr.done.Seconds())
			k.seqCells = append(k.seqCells, n/(float64(lr.st.RanNS)/1e9))
			k.results = append(k.results, ms(lr.result))
			for _, v := range lr.viewers {
				k.fps = append(k.fps, float64(v.frames)/v.last.Seconds())
				bytes += float64(v.bytes)
				frames += float64(v.frames)
			}
		}
		jobRates = append(jobRates, float64(jobs)/rr.dur.Seconds())
	}
	across := func(q float64, pick func(*series) []float64) float64 {
		var xs []float64
		for _, k := range sortedKeys(byKernel) {
			xs = append(xs, quantile(pick(byKernel[k]), q))
		}
		return geomean(xs)
	}
	rep.set("setup_s", "s", setupS)
	rep.set("cells_per_s", "cells/s", across(0.5, func(s *series) []float64 { return s.cells }))
	rep.set("seq_cells_per_s", "cells/s", across(0.5, func(s *series) []float64 { return s.seqCells }))
	rep.set("jobs_per_s", "1/s", median(jobRates))
	rep.set("result_p50_ms", "ms", across(0.5, func(s *series) []float64 { return s.results }))
	rep.set("result_p90_ms", "ms", across(0.9, func(s *series) []float64 { return s.results }))
	rep.set("frames_per_s", "1/s", across(0.5, func(s *series) []float64 { return s.fps }))
	rep.set("wire_bytes_per_frame", "B", bytes/frames)
}

// liveLayers computes the per-layer figures of the traced jobs by timing
// public calls on the jobs' own configs and frames, and the attribution
// of one frame interval. Like the end-to-end figures, each is a median
// per kernel, combined across kernels by geometric mean.
func liveLayers(rep *report, tr *tracer, rs []*liveResult, scale int, seed int64) ([]string, error) {
	type parts struct {
		fps, firstMS, decodeMS, applyUS, pngB, deltaB  []float64
		computeMS, displayMS, encodeMS, deltaUS, pubUS []float64
		keys, recs                                     float64
	}
	byKernel := make(map[string]*parts)
	for _, j := range liveRound[:2] {
		byKernel[j.kernel] = &parts{}
	}
	for _, lr := range rs {
		if lr.err != nil {
			continue
		}
		p := byKernel[lr.cfg.Kernel]
		for _, v := range lr.viewers {
			p.fps = append(p.fps, float64(v.frames)/v.last.Seconds())
			p.firstMS = append(p.firstMS, ms(v.first))
			for _, d := range v.decodeNS {
				p.decodeMS = append(p.decodeMS, d/1e6)
			}
			for _, d := range v.applyNS {
				p.applyUS = append(p.applyUS, d/1e3)
			}
			p.pngB = append(p.pngB, v.pngBytes...)
			p.deltaB = append(p.deltaB, v.deltaBytes...)
			if v.format == gfx.FormatDelta {
				p.keys += float64(v.keyframes)
				p.recs += float64(v.records)
			}
		}
	}
	// core: compute per iteration (NoDisplay) and display cost per
	// iteration (a counting sink minus NoDisplay); gfx, img2d and the hub
	// on the frames of a dirty-frame run of the same config.
	for _, j := range liveRound[:2] {
		p := byKernel[j.kernel]
		if len(p.fps) == 0 {
			return nil, fmt.Errorf("live_view: no traced %s job finished", j.kernel)
		}
		cfg := liveConfig(j, scale, seed)
		for r := 0; r < 3; r++ {
			quiet, err := core.Run(cfg)
			if err != nil {
				return nil, err
			}
			shown, err := core.RunWith(context.Background(), cfg, core.RunOptions{Sink: &countingSink{}})
			if err != nil {
				return nil, err
			}
			per := ms(quiet.WallTime) / float64(quiet.Iterations)
			p.computeMS = append(p.computeMS, per)
			p.displayMS = append(p.displayMS, ms(shown.WallTime)/float64(shown.Iterations)-per)
		}
		rec := &frameRecorder{tr: tr}
		if _, err := core.RunWith(context.Background(), cfg, core.RunOptions{Sink: rec}); err != nil {
			return nil, err
		}
		p.encodeMS, p.deltaUS = rec.encodeMS, rec.deltaUS
		p.pubUS = hubPublish(rec.records)
	}
	across := func(pick func(*parts) float64) float64 {
		var xs []float64
		for _, k := range sortedKeys(byKernel) {
			xs = append(xs, pick(byKernel[k]))
		}
		return geomean(xs)
	}
	med := func(pick func(*parts) []float64) float64 {
		return across(func(p *parts) float64 { return median(pick(p)) })
	}
	keyShare := across(func(p *parts) float64 { return p.keys / p.recs })
	rep.set("live.first_frame_ms", "ms", med(func(p *parts) []float64 { return p.firstMS }))
	rep.set("core.display_ms_per_iter", "ms", med(func(p *parts) []float64 { return p.displayMS }))
	rep.set("img2d.png_encode_ms", "ms", med(func(p *parts) []float64 { return p.encodeMS }))
	rep.set("img2d.png_decode_ms", "ms", med(func(p *parts) []float64 { return p.decodeMS }))
	rep.set("img2d.png_bytes", "B", med(func(p *parts) []float64 { return p.pngB }))
	rep.set("gfx.delta_encode_us", "us", med(func(p *parts) []float64 { return p.deltaUS }))
	rep.set("gfx.delta_apply_us", "us", med(func(p *parts) []float64 { return p.applyUS }))
	rep.set("gfx.delta_record_bytes", "B", med(func(p *parts) []float64 { return p.deltaB }))
	rep.set("gfx.keyframe_share", "ratio", keyShare)
	rep.set("serve.hub_publish_us", "us", med(func(p *parts) []float64 { return p.pubUS }))

	// One frame interval, split into the steps a frame passes through.
	// Viewers decode while the server computes the next frame, so the
	// parts can overlap and "unattributed" can be negative.
	interval := 1e3 / med(func(p *parts) []float64 { return p.fps })
	table := attribution(rep, "live_view frame interval (per-kernel medians, geometric mean over kernels, ms)", "live", interval, [][2]any{
		{"compute", med(func(p *parts) []float64 { return p.computeMS })},
		{"display", med(func(p *parts) []float64 { return p.displayMS })},
		{"png_encode", med(func(p *parts) []float64 { return p.encodeMS })},
		{"delta_encode", (1 - keyShare) * med(func(p *parts) []float64 { return p.deltaUS }) / 1e3},
		{"hub", med(func(p *parts) []float64 { return p.pubUS }) / 1e3},
		{"viewer_decode", keyShare*med(func(p *parts) []float64 { return p.decodeMS }) +
			(1-keyShare)*med(func(p *parts) []float64 { return p.applyUS })/1e3},
	})
	return []string{table, mixTable(rs)}, nil
}

// mixTable compares the frame rate of the two viewer mixes per kernel:
// the hub PNG-encodes every frame whatever its subscribers take, so a
// delta-only job pays the full-format encoding too.
func mixTable(rs []*liveResult) string {
	fps := make(map[string][]float64)
	for _, lr := range rs {
		if lr.err != nil {
			continue
		}
		key := fmt.Sprintf("%-5s %s+%s", lr.cfg.Kernel, lr.job.formats[0], lr.job.formats[1])
		for _, v := range lr.viewers {
			fps[key] = append(fps[key], float64(v.frames)/v.last.Seconds())
		}
	}
	var b bytes.Buffer
	b.WriteString("frames per viewer per second by viewer mix (median)\n")
	for _, k := range sortedKeys(fps) {
		fmt.Fprintf(&b, "  %-18s %8.2f\n", k, median(fps[k]))
	}
	return b.String()
}

// countingSink is the cheapest display sink: it only counts frames.
type countingSink struct{ frames int }

func (s *countingSink) Frame(string, int, *img2d.Image) error { s.frames++; return nil }
func (s *countingSink) Close() error                          { return nil }

// frameRecorder is a dirty-frame sink that times, for each frame, the
// PNG encoding and gfx.EncodeDelta over the kernel's dirty tiles — the
// two encodings the service's hub sink makes — and keeps the encoded
// records, which hubPublish replays through a FrameHub.
type frameRecorder struct {
	tr       *tracer
	encodeMS []float64
	deltaUS  []float64
	records  [][2][]byte // full, delta
}

func (s *frameRecorder) Frame(string, int, *img2d.Image) error { return nil }

func (s *frameRecorder) FrameDirty(window string, iter int, img *img2d.Image, dirty *gfx.TileSet) error {
	b := time.Now()
	var png bytes.Buffer
	if err := img.EncodePNG(&png); err != nil {
		return err
	}
	s.encodeMS = append(s.encodeMS, ms(time.Since(b)))
	s.tr.record("frames", "img2d.EncodePNG", 0, b, time.Now())
	b = time.Now()
	payload, err := gfx.EncodeDelta(img, dirty)
	if err != nil {
		return err
	}
	s.deltaUS = append(s.deltaUS, us(time.Since(b)))
	s.tr.record("frames", "gfx.EncodeDelta", 0, b, time.Now())
	full, err := gfx.EncodeFrameRecord(window, iter, png.Bytes())
	if err != nil {
		return err
	}
	delta, err := gfx.EncodeDeltaRecord(window, iter, payload)
	if err != nil {
		return err
	}
	s.records = append(s.records, [2][]byte{full, delta})
	return nil
}

func (s *frameRecorder) Close() error { return nil }

// hubPublish replays records through a FrameHub with two draining
// subscribers (one per format) and returns each Publish call's time.
func hubPublish(records [][2][]byte) []float64 {
	h := serve.NewFrameHub(serve.HubOptions{})
	var wg sync.WaitGroup
	for _, f := range []gfx.StreamFormat{gfx.FormatFull, gfx.FormatDelta} {
		rd := h.Subscribe(context.Background(), f)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer rd.Close()
			_, _ = io.Copy(io.Discard, rd) // ends at io.EOF once the hub closes
		}()
	}
	var out []float64
	for i, r := range records {
		b := time.Now()
		_ = h.Publish("main", i%32 == 0, r[0], r[1]) // the hub is open until Close below
		out = append(out, us(time.Since(b)))
	}
	h.Close()
	wg.Wait()
	return out
}
