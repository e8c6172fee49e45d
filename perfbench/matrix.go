package main

// perf_matrix: the paper's performance mode. core.RunWith runs a fixed
// kernel x variant matrix at Threads = nproc, with a seq baseline for every
// kernel. Nearly all the time is in kernels, sched, tilegrid and the
// in-process mpi; serve, store, gfx and frame encoding are never touched.

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"easypap/internal/core"
	"easypap/internal/sched"
	"easypap/internal/tilegrid"
)

// entry is one cell of the matrix. Entries of one kernel other than life
// share dim and iterations, so every parallel variant can be compared
// with its seq checksum; life entries are each sized on their own and
// checked by the independent stepper instead.
type entry struct {
	kernel, variant, board string
	dim, tile, iters       int
	ranks                  int // simulated MPI processes (mpi variants)
}

// converge marks the sandpiles, which run until their board is stable.
const converge = 1 << 20

// matrixEntries is the matrix, sized so that each entry takes roughly
// 10-40 ms at 2 threads on the reference box (README.md). scale > 1
// shrinks it for the self-tests.
func matrixEntries(scale int) []entry {
	es := []entry{
		{kernel: "life", variant: "seq", board: "random", dim: 256, tile: 16, iters: 8},
		{kernel: "life", variant: "omp_tiled", board: "random", dim: 256, tile: 16, iters: 15},
		{kernel: "life", variant: "bitpack", board: "random", dim: 1024, tile: 32, iters: 75},
		{kernel: "life", variant: "mpi_omp", board: "random", dim: 256, tile: 16, iters: 12, ranks: 2},
		{kernel: "life", variant: "lazy", board: "random", dim: 256, tile: 16, iters: 12},
		{kernel: "life", variant: "lazy", board: "diag", dim: 512, tile: 16, iters: 12},
		{kernel: "sandpile", variant: "seq", dim: 48, tile: 16, iters: converge},
		{kernel: "sandpile", variant: "omp_tiled", dim: 48, tile: 16, iters: converge},
		{kernel: "sandpile", variant: "lazy_omp", dim: 48, tile: 16, iters: converge},
		{kernel: "asandpile", variant: "seq", dim: 48, tile: 16, iters: converge},
		{kernel: "asandpile", variant: "omp_tiled", dim: 48, tile: 16, iters: converge},
		{kernel: "asandpile", variant: "lazy_omp", dim: 48, tile: 16, iters: converge},
		{kernel: "fire", variant: "seq", dim: 256, tile: 16, iters: 30},
		{kernel: "fire", variant: "omp_tiled", dim: 256, tile: 16, iters: 30},
		{kernel: "fire", variant: "lazy", dim: 256, tile: 16, iters: 30},
		{kernel: "mandel", variant: "seq", dim: 128, tile: 16, iters: 3},
		{kernel: "mandel", variant: "omp_tiled", dim: 128, tile: 16, iters: 3},
		{kernel: "blur", variant: "seq", dim: 256, tile: 16, iters: 8},
		{kernel: "blur", variant: "omp_tiled", dim: 256, tile: 16, iters: 8},
		{kernel: "blur", variant: "omp_tiled_opt", dim: 256, tile: 16, iters: 8},
	}
	if scale > 1 {
		for i := range es {
			es[i].dim /= scale
			if es[i].tile > es[i].dim/4 {
				es[i].tile = es[i].dim / 4
			}
			if es[i].iters != converge {
				es[i].iters = max(2, es[i].iters/scale)
			}
		}
	}
	return es
}

func (e entry) name() string {
	if e.board != "" {
		return e.kernel + "." + e.variant + "." + e.board
	}
	return e.kernel + "." + e.variant
}

func (e entry) config(seed int64, threads int) core.Config {
	cfg := core.Config{Kernel: e.kernel, Variant: e.variant, Dim: e.dim, TileW: e.tile, TileH: e.tile,
		Iterations: e.iters, Threads: threads, NoDisplay: true, Arg: e.board, Seed: seed}
	if e.ranks > 1 {
		// Each simulated process owns a worker team: split nproc between
		// them so the run never has more workers than CPUs.
		cfg.MPIRanks = e.ranks
		cfg.Threads = max(1, threads/e.ranks)
	}
	return cfg
}

// sample is one RunWith call.
type sample struct {
	call  time.Duration // RunWith wall time, call to return
	res   core.Result
	steal float64 // share of the machine's CPU time the host took meanwhile
}

func (s sample) setup() time.Duration { return s.call - s.res.WallTime }

func (s sample) cellsPerS() float64 {
	return float64(s.res.Config.Dim*s.res.Config.Dim) * float64(s.res.Iterations-s.res.ResumedFrom) / s.res.WallTime.Seconds()
}

func runPerfMatrix(o options) (*outcome, error) {
	threads := runtime.NumCPU()
	entries := matrixEntries(o.scale)
	tr := newTracer(o.trace)
	out := &outcome{}
	ctx := context.Background()

	// Independent references, built once per run before any timing.
	lifeRef := make(map[string]string) // entry name -> expected final checksum
	pngBytes := make(map[string]int)   // entry name -> PNG bytes of the final frame

	var traced, untraced [][]sample // per round, per entry
	var measured time.Duration
	// Round 0 warms caches and builds the references; it is checked like
	// every round but left out of the figures.
	for round := 0; ; round++ {
		tracing := o.trace && round%2 == 0
		tr.on = tracing
		rs := make([]sample, len(entries))
		seqSum := make(map[string]string)
		for i, e := range entries {
			cfg := e.config(o.seed, threads)
			cpu0 := readCPUTimes()
			begin := time.Now()
			ro, err := core.RunWith(ctx, cfg, core.RunOptions{})
			end := time.Now()
			steal := stealShare(cpu0, readCPUTimes())
			tr.record(fmt.Sprintf("r%d", round), "core.RunWith/"+e.name(), 0, begin, end)
			if round > 0 {
				measured += end.Sub(begin)
			}
			out.attempted++
			if err != nil {
				out.failed++
				fmt.Printf("entry %s failed: %v\n", e.name(), err)
				continue
			}
			rs[i] = sample{call: end.Sub(begin), res: ro.Result, steal: steal}
			if err := checkEntry(e, o.seed, ro, seqSum, lifeRef); err != nil && out.checkErr == nil {
				out.checkErr = err
			}
			if _, ok := pngBytes[e.name()]; !ok {
				var buf bytes.Buffer
				if err := ro.Final.EncodePNG(&buf); err != nil {
					return nil, err
				}
				pngBytes[e.name()] = buf.Len()
			}
		}
		switch {
		case round == 0:
		case tracing:
			traced = append(traced, rs)
		default:
			untraced = append(untraced, rs)
		}
		if measured.Seconds() >= o.seconds && (!o.trace || len(traced) > 0) {
			break
		}
	}
	tr.on = o.trace
	untraced = quietCalls("untraced", untraced)
	traced = quietCalls("traced", traced)

	e2e := func(rounds [][]sample) *report {
		rep := newReport()
		matrixE2E(rep, entries, rounds, pngBytes)
		return rep
	}
	out.e2e = e2e(untraced)
	if !o.trace {
		return out, nil
	}
	rep := newReport()
	out.layers = rep
	if err := matrixLayers(rep, entries, traced, threads); err != nil {
		return nil, err
	}
	out.tables = append(out.tables, overheadRows(rep, e2e(traced), out.e2e, "cells_per_s", "seq_cells_per_s", "setup_s"))
	if where, err := tr.write(o.workdir, fmt.Sprintf("spans-perf_matrix-%d.jsonl", o.seed)); err != nil {
		return nil, err
	} else {
		out.tables = append(out.tables, "spans written to "+where)
	}
	return out, nil
}

// quietCalls keeps, for every entry, the calls quiet selects by their
// host steal and blanks the others (a blank sample has no WallTime and the
// figures skip it). Entries take tens of milliseconds, so a steal burst
// spoils single calls rather than whole rounds.
func quietCalls(label string, rounds [][]sample) [][]sample {
	if len(rounds) == 0 {
		return rounds
	}
	out := make([][]sample, len(rounds))
	for r := range rounds {
		out[r] = make([]sample, len(rounds[r]))
	}
	calls, kept := 0, 0
	for i := range rounds[0] {
		steal := make([]float64, len(rounds))
		for r := range rounds {
			steal[r] = rounds[r][i].steal
		}
		for _, r := range quiet(steal) {
			out[r][i] = rounds[r][i]
			kept++
		}
		calls += len(rounds)
	}
	fmt.Printf("%s entry calls: %d, left out for host steal above %.0f%%: %d\n",
		label, calls, 100*maxSteal, calls-kept)
	return out
}

// checkEntry verifies one matrix output: life against the independent
// stepper, sandpiles at their stable state, everything else against the
// same round's seq checksum (seq entries come first in each kernel).
func checkEntry(e entry, seed int64, ro *core.RunOutput, seqSum, lifeRef map[string]string) error {
	if pixelChecksum(ro.Final) != ro.Checksum {
		return checkf("%s: Result.Checksum does not match the final image", e.name())
	}
	switch e.kernel {
	case "life":
		// The board after one iteration of the plain seq variant, stepped
		// to the requested count by the independent stepper. A run that
		// stops early because the board no longer changes ends on a still
		// life, which further steps leave as it is; a run that stops
		// early on a changing board ends on another image.
		want, ok := lifeRef[e.name()]
		if !ok {
			cfg := e.config(seed, 1)
			cfg.Variant, cfg.MPIRanks, cfg.Iterations = "seq", 0, 1
			first, err := core.Run(cfg)
			if err != nil {
				return fmt.Errorf("life reference: %w", err)
			}
			want, err = lifeExpected(first.Final, e.iters-1)
			if err != nil {
				return checkf("%s: %v", e.name(), err)
			}
			lifeRef[e.name()] = want
		}
		if ro.Checksum != want {
			return checkf("%s: image after %d iterations (run reports %d) differs from the independent stepper",
				e.name(), e.iters, ro.Iterations)
		}
		return nil
	case "sandpile", "asandpile":
		if ro.Iterations >= e.iters {
			return checkf("%s: did not reach a stable state in %d iterations", e.name(), e.iters)
		}
		if err := checkStable(ro.Final); err != nil {
			return checkf("%s: %v", e.name(), err)
		}
	}
	if e.variant == "seq" {
		seqSum[e.kernel] = ro.Checksum
		return nil
	}
	if want := seqSum[e.kernel]; ro.Checksum != want {
		return checkf("%s: checksum %.12s differs from seq %.12s", e.name(), ro.Checksum, want)
	}
	return nil
}

// matrixE2E computes the end-to-end figures of a set of rounds from each
// entry's median over its calls: a matrix pass is one call of every entry,
// so rates and the call-time quantiles describe a typical pass.
func matrixE2E(rep *report, entries []entry, rounds [][]sample, pngBytes map[string]int) {
	var par, seq, calls []float64
	var setup, call, wall, iters float64
	for i, e := range entries {
		var cps, c, su, w, it []float64
		for _, rs := range rounds {
			s := rs[i]
			if s.res.WallTime <= 0 {
				continue
			}
			cps = append(cps, s.cellsPerS())
			c = append(c, s.call.Seconds())
			su = append(su, s.setup().Seconds())
			w = append(w, s.res.WallTime.Seconds())
			it = append(it, float64(s.res.Iterations))
		}
		if e.variant == "seq" {
			seq = append(seq, median(cps))
		} else {
			par = append(par, median(cps))
		}
		calls = append(calls, 1e3*median(c))
		setup += median(su)
		call += median(c)
		wall += median(w)
		iters += median(it)
	}
	png := 0.0
	for _, b := range pngBytes {
		png += float64(b)
	}
	rep.set("setup_s", "s", setup)
	rep.set("cells_per_s", "cells/s", geomean(par))
	rep.set("seq_cells_per_s", "cells/s", geomean(seq))
	rep.set("jobs_per_s", "1/s", float64(len(entries))/call)
	rep.set("result_p50_ms", "ms", quantile(calls, 0.5))
	rep.set("result_p90_ms", "ms", quantile(calls, 0.9))
	rep.set("frames_per_s", "1/s", iters/wall)
	rep.set("wire_bytes_per_frame", "B", png/float64(max(1, len(pngBytes))))
}

// matrixLayers computes the per-layer figures of the traced rounds.
func matrixLayers(rep *report, entries []entry, rounds [][]sample, threads int) error {
	nsPerCell := make(map[string]float64)
	var setupMS []float64
	var diag, mpiRes *core.Result
	for i, e := range entries {
		var xs []float64
		for _, rs := range rounds {
			s := rs[i]
			if s.res.WallTime <= 0 {
				continue
			}
			xs = append(xs, 1e9/s.cellsPerS())
			setupMS = append(setupMS, ms(s.setup()))
			if e.board == "diag" {
				diag = &rs[i].res
			}
			if e.ranks > 1 {
				mpiRes = &rs[i].res
			}
		}
		nsPerCell[e.name()] = median(xs)
		rep.set("kernels."+e.name()+".ns_per_cell", "ns", median(xs))
	}
	// Speed-up: seq ns/cell over the best tiled variant on the seq
	// entry's board. bitpack changes the algorithm, not the tiling, so it
	// is not a tiled variant here.
	best := make(map[string]float64)
	seqBoard := make(map[string]string)
	for _, e := range entries {
		if e.variant == "seq" {
			seqBoard[e.kernel] = e.board
		}
	}
	for _, e := range entries {
		if e.variant == "seq" || e.variant == "bitpack" || e.board != seqBoard[e.kernel] {
			continue
		}
		if v := nsPerCell[e.name()]; v > 0 && (best[e.kernel] == 0 || v < best[e.kernel]) {
			best[e.kernel] = v
		}
	}
	for _, e := range entries {
		if e.variant == "seq" && best[e.kernel] > 0 {
			rep.set("kernels."+e.kernel+".speedup", "x", nsPerCell[e.name()]/best[e.kernel])
		}
	}
	rep.set("core.run_setup_ms", "ms", median(setupMS))

	// sched: dispatch cost of an empty parallel loop over the diag entry's
	// tile grid, dense and sparse (the diag board's two diagonals).
	var de entry
	for _, e := range entries {
		if e.board == "diag" {
			de = e
		}
	}
	grid, err := sched.NewTileGrid(de.dim, de.tile, de.tile)
	if err != nil {
		return err
	}
	var active []int32
	for ty := 0; ty < grid.TilesY; ty++ {
		for tx := 0; tx < grid.TilesX; tx++ {
			if tx == ty || tx == grid.TilesX-1-ty {
				active = append(active, int32(ty*grid.TilesX+tx))
			}
		}
	}
	dense, sparse := dispatchNS(threads, grid, active)
	rep.set("sched.dispatch_ns", "ns", dense)
	rep.set("sched.sparse_dispatch_ns", "ns", sparse)

	// tilegrid: Advance after marking the diagonal tiles changed.
	f := tilegrid.New(grid)
	var adv []float64
	for rep := 0; rep < 2000; rep++ {
		for _, t := range active {
			f.MarkChanged(int(t)%grid.TilesX, int(t)/grid.TilesX)
		}
		t0 := time.Now()
		f.Advance()
		adv = append(adv, float64(time.Since(t0)))
	}
	rep.set("tilegrid.advance_ns", "ns", median(adv))
	if diag != nil {
		var a, t float64
		for _, it := range diag.Activity {
			a += float64(it.Active)
			t += float64(it.Total)
		}
		if t > 0 {
			rep.set("tilegrid.active_tile_share", "ratio", a/t)
		}
	}
	if mpiRes != nil {
		rep.set("mpi.halos_sent", "count", float64(mpiRes.HalosSent))
		rep.set("mpi.halos_skipped", "count", float64(mpiRes.HalosSkipped))
		rep.set("mpi.halo_bytes", "B", float64(mpiRes.HaloBytes))
	}
	return nil
}

// dispatchNS times empty ParallelFor (dense, every tile) and
// ParallelForActive (sparse, the given list) calls on a fresh pool; each
// figure is the median per-call time of several batches.
func dispatchNS(threads int, grid sched.TileGrid, active []int32) (dense, sparse float64) {
	pool := sched.NewPool(threads)
	defer pool.Close()
	n := grid.TilesX * grid.TilesY
	const calls = 500
	var d, s []float64
	for batch := 0; batch < 9; batch++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			pool.ParallelFor(n, sched.Policy{}, func(int, int) {})
		}
		d = append(d, float64(time.Since(t0))/calls)
		t0 = time.Now()
		for i := 0; i < calls; i++ {
			pool.ParallelForActive(grid, active, sched.Policy{}, func(int, int, int, int, int) {})
		}
		s = append(s, float64(time.Since(t0))/calls)
	}
	return median(d), median(s)
}
