package main

import (
	"errors"
	"testing"
	"time"

	"easypap/internal/core"
	"easypap/internal/img2d"
	"easypap/internal/serve"
)

// runEntry runs one small matrix entry in-process.
func runEntry(t *testing.T, e entry) *core.RunOutput {
	t.Helper()
	ro, err := core.Run(e.config(7, 2))
	if err != nil {
		t.Fatalf("%s: %v", e.name(), err)
	}
	return ro
}

// perturb replaces the output's image by img and keeps Result.Checksum
// consistent with it, so only the check under test can object.
func perturb(ro *core.RunOutput, img *img2d.Image) {
	ro.Final = img
	ro.Checksum = pixelChecksum(img)
}

func wantCheckErr(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: check accepted a perturbed output", what)
	}
	if !errors.Is(err, errCheck) {
		t.Fatalf("%s: got %v, want an output-check failure", what, err)
	}
}

func TestLifeCheckRejectsFlippedCell(t *testing.T) {
	for _, e := range []entry{
		{kernel: "life", variant: "omp_tiled", board: "random", dim: 64, tile: 16, iters: 9},
		{kernel: "life", variant: "lazy", board: "diag", dim: 64, tile: 16, iters: 9},
	} {
		ro := runEntry(t, e)
		if err := checkEntry(e, 7, ro, map[string]string{}, map[string]string{}); err != nil {
			t.Fatalf("%s: unperturbed output rejected: %v", e.name(), err)
		}
		img := ro.Final.Clone()
		if img.Get(10, 10) == img2d.Yellow {
			img.Set(10, 10, img2d.Black)
		} else {
			img.Set(10, 10, img2d.Yellow)
		}
		perturb(ro, img)
		wantCheckErr(t, e.name(), checkEntry(e, 7, ro, map[string]string{}, map[string]string{}))
	}
}

func TestLifeCheckRejectsEarlyStop(t *testing.T) {
	// A run that reports stopping after 7 of 9 iterations, as an early
	// convergence decision would make it, on a board that still changes.
	e := entry{kernel: "life", variant: "lazy", board: "random", dim: 64, tile: 16, iters: 9}
	short := e
	short.iters = 7
	ro := runEntry(t, short)
	if ro.Iterations != short.iters {
		t.Fatalf("the short run itself stopped at %d", ro.Iterations)
	}
	wantCheckErr(t, "early stop", checkEntry(e, 7, ro, map[string]string{}, map[string]string{}))
}

func TestSeqComparisonRejectsWrongChecksum(t *testing.T) {
	seq := entry{kernel: "blur", variant: "seq", dim: 64, tile: 16, iters: 3}
	par := entry{kernel: "blur", variant: "omp_tiled", dim: 64, tile: 16, iters: 3}
	sums := map[string]string{}
	if err := checkEntry(seq, 7, runEntry(t, seq), sums, nil); err != nil {
		t.Fatal(err)
	}
	ro := runEntry(t, par)
	if err := checkEntry(par, 7, ro, sums, nil); err != nil {
		t.Fatalf("unperturbed output rejected: %v", err)
	}
	ro.Checksum = "0" + ro.Checksum[1:]
	wantCheckErr(t, "Result.Checksum", checkEntry(par, 7, ro, sums, nil))
	img := ro.Final.Clone()
	img.Set(3, 3, img.Get(3, 3)^0xff00)
	perturb(ro, img)
	wantCheckErr(t, "image", checkEntry(par, 7, ro, sums, nil))
}

func TestSandpileCheckRejectsUnstableOrDifferentBoard(t *testing.T) {
	for _, k := range []string{"sandpile", "asandpile"} {
		seq := entry{kernel: k, variant: "seq", dim: 32, tile: 8, iters: converge}
		par := entry{kernel: k, variant: "omp_tiled", dim: 32, tile: 8, iters: converge}
		sums := map[string]string{}
		if err := checkEntry(seq, 7, runEntry(t, seq), sums, nil); err != nil {
			t.Fatalf("%s seq: %v", k, err)
		}
		ro := runEntry(t, par)
		if err := checkEntry(par, 7, ro, sums, nil); err != nil {
			t.Fatalf("%s: unperturbed output rejected: %v", k, err)
		}
		unstable := ro.Final.Clone()
		unstable.Set(16, 16, img2d.Red)
		bad := *ro
		perturb(&bad, unstable)
		wantCheckErr(t, k+" unstable cell", checkEntry(par, 7, &bad, sums, nil))

		other := ro.Final.Clone()
		grain := img2d.Black // a stable cell with another grain count
		if other.Get(16, 16) == grain {
			grain = img2d.RGB(60, 60, 160)
		}
		other.Set(16, 16, grain)
		bad = *ro
		perturb(&bad, other)
		wantCheckErr(t, k+" differs from seq", checkEntry(par, 7, &bad, sums, nil))

		bad = *ro
		bad.Iterations = par.iters
		wantCheckErr(t, k+" not converged", checkEntry(par, 7, &bad, sums, nil))
	}
}

func TestSweepCheckRejectsWrongAnswerAndIterationCount(t *testing.T) {
	s := sweepShape{depths: []int{4, 8}}
	p := &sweepPrefix{sums: []string{"aa", "bb"}}
	ok := func() ([][]*sweepReq, map[string]float64) {
		reqs := [][]*sweepReq{{
			{kind: kindCold, depth: 0, cfg: core.Config{Iterations: 4},
				st: &serve.JobStatus{State: serve.JobDone, Result: &core.Result{Iterations: 4, Checksum: "aa"}}},
			{kind: kindResume, depth: 1, cfg: core.Config{Iterations: 8},
				st: &serve.JobStatus{State: serve.JobDone, Result: &core.Result{Iterations: 8, ResumedFrom: 4, Checksum: "bb"}}},
		}}
		return reqs, map[string]float64{"iterations_computed": 8}
	}
	prefixes := [][]*sweepPrefix{{p}}
	reqs, counts := ok()
	if err := checkSweepRound(&outcome{}, prefixes, reqs, counts, s); err != nil {
		t.Fatalf("unperturbed round rejected: %v", err)
	}
	reqs, counts = ok()
	reqs[0][1].st.Result.Checksum = "cc"
	wantCheckErr(t, "checksum", checkSweepRound(&outcome{}, prefixes, reqs, counts, s))
	reqs, counts = ok()
	counts["iterations_computed"] = 12 // a recomputed prefix no submission reports
	wantCheckErr(t, "iterations", checkSweepRound(&outcome{}, prefixes, reqs, counts, s))
	// A resume that found no snapshot and recomputed its prefix is a
	// failed submission, and its iterations are expected in the count.
	reqs, counts = ok()
	reqs[0][1].st.Result.ResumedFrom = 0
	counts["iterations_computed"] = 12
	o := &outcome{}
	if err := checkSweepRound(o, prefixes, reqs, counts, s); err != nil {
		t.Fatalf("a recomputed prefix is counted, not a check failure: %v", err)
	}
	if o.attempted != 2 || o.failed != 1 {
		t.Fatalf("recompute: attempted/failed = %d/%d, want 2/1", o.attempted, o.failed)
	}
	reqs, counts = ok()
	reqs[0][1].st.Result.ResumedFrom = 0
	wantCheckErr(t, "recompute missing from the count", checkSweepRound(&outcome{}, prefixes, reqs, counts, s))
	reqs, counts = ok()
	reqs[0][0].err = errors.New("HTTP 502")
	o = &outcome{}
	if err := checkSweepRound(o, prefixes, reqs, counts, s); err != nil {
		t.Fatalf("a failed request is counted, not a check failure: %v", err)
	}
	if o.attempted != 2 || o.failed != 1 {
		t.Fatalf("attempted/failed = %d/%d, want 2/1", o.attempted, o.failed)
	}
}

func TestLiveCheckRejectsDroppedFrameAndWrongImage(t *testing.T) {
	cfg := liveConfig(liveRound[0], 4, 3)
	ro, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *liveResult {
		lr := &liveResult{cfg: cfg, st: &serve.JobStatus{State: serve.JobDone, Result: &ro.Result}}
		for i := range lr.viewers {
			lr.viewers[i] = &viewer{frames: ro.Iterations, final: ro.Final.Clone(), last: time.Second}
		}
		return lr
	}
	if err := checkLive(mk()); err != nil {
		t.Fatalf("unperturbed job rejected: %v", err)
	}
	lr := mk()
	lr.viewers[1].frames--
	wantCheckErr(t, "dropped frame", checkLive(lr))
	lr = mk()
	lr.viewers[0].final.Set(0, 0, img2d.Red)
	wantCheckErr(t, "last frame", checkLive(lr))
	// A job that reports stopping early, with every viewer seeing one
	// frame per reported iteration.
	lr = mk()
	short := *lr.st.Result
	short.Iterations--
	lr.st = &serve.JobStatus{State: serve.JobDone, Result: &short}
	for _, v := range lr.viewers {
		v.frames = short.Iterations
	}
	wantCheckErr(t, "early stop", checkLive(lr))
}

func TestLifeStepperKnownPatterns(t *testing.T) {
	// A blinker flips between horizontal and vertical; a block is still.
	const d = 8
	b := &lifeBoard{dim: d, cells: make([]uint8, d*d)}
	for x := 1; x <= 3; x++ {
		b.cells[2*d+x] = 1
	}
	b.cells[6*d+6], b.cells[6*d+7], b.cells[7*d+6], b.cells[7*d+7] = 1, 1, 1, 1
	b.step(1)
	want := map[int]bool{1*d + 2: true, 2*d + 2: true, 3*d + 2: true,
		6*d + 6: true, 6*d + 7: true, 7*d + 6: true, 7*d + 7: true}
	for i, c := range b.cells {
		if (c == 1) != want[i] {
			t.Fatalf("cell (%d,%d) alive=%v after one step", i/d, i%d, c == 1)
		}
	}
}

// recomputesPerRound is how many sweep submissions per round recompute
// part of their prefix: a depth owned by a node that holds no snapshot of
// the previous depth (the cluster routes by the full config hash and does
// not replicate). Each node holds the snapshots of the depths it computed.
func recomputesPerRound(s sweepShape, callers int) int {
	n := 0
	for j := 0; j < s.prefixes; j++ {
		deepest := [2]int{-1, -1} // per node, the deepest depth index it computed
		for k := range s.depths {
			o := ownerFor(j, k)
			if k > 0 && deepest[o] != k-1 {
				n++
			}
			deepest[o] = k
		}
	}
	return n * callers
}

// TestTinyPassOfEveryWorkload runs every workload at a small scale, traced
// and untraced, and requires whole rounds in which the only failed
// operations are the sweep's recomputed prefixes, in their fixed share.
func TestTinyPassOfEveryWorkload(t *testing.T) {
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			out, err := run(options{seed: 5, seconds: 0.2, trace: traced, workdir: t.TempDir(), scale: 4})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			wantFailed := 0
			if name == "sweep_service" {
				s := sweepShapeFor(4)
				perRound := 2 * s.prefixes * (len(sweepPhases(s)) + 2) // two callers; two phases make two requests
				if out.attempted%perRound != 0 {
					t.Fatalf("sweep: %d attempted is not whole rounds of %d", out.attempted, perRound)
				}
				wantFailed = out.attempted / perRound * recomputesPerRound(s, 2)
			}
			if out.checkErr != nil || out.failed != wantFailed || out.attempted == 0 {
				t.Fatalf("%s trace=%v: attempted=%d failed=%d (want %d) check=%v",
					name, traced, out.attempted, out.failed, wantFailed, out.checkErr)
			}
			rep := out.e2e
			if traced {
				rep = out.layers
			}
			if len(rep.metrics) == 0 {
				t.Fatalf("%s trace=%v: no metrics", name, traced)
			}
		}
	}
}
