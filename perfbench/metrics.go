package main

// The metrics the benchmark declares in BENCHMARK.json, in report order.
// metrics_test.go keeps the two lists and BENCHMARK.json in step.

type metricDecl struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening, as a share of the median
}

// Bounds come from the run-to-run spread measured on the reference box
// (README.md): on that shared virtual machine timings of sets of runs taken
// at different times differed by up to a quarter, so every timing gets the
// largest bound; bytes on the wire repeat within 1%.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"cells_per_s", "cells/s", "higher", 0.25},
	{"seq_cells_per_s", "cells/s", "higher", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"result_p50_ms", "ms", "lower", 0.25},
	{"result_p90_ms", "ms", "lower", 0.25},
	{"frames_per_s", "1/s", "higher", 0.25},
	{"wire_bytes_per_frame", "B", "lower", 0.05},
}

var perLayer = func() []metricDecl {
	var ds []metricDecl
	add := func(name, unit, better string) { ds = append(ds, metricDecl{name: name, unit: unit, better: better}) }
	for _, e := range matrixEntries(1) {
		add("kernels."+e.name()+".ns_per_cell", "ns", "lower")
	}
	for _, k := range []string{"life", "sandpile", "asandpile", "fire", "mandel", "blur"} {
		add("kernels."+k+".speedup", "x", "higher")
	}
	add("sched.dispatch_ns", "ns", "lower")
	add("sched.sparse_dispatch_ns", "ns", "lower")
	add("tilegrid.advance_ns", "ns", "lower")
	add("tilegrid.active_tile_share", "ratio", "lower")
	add("mpi.halos_sent", "count", "lower")
	add("mpi.halos_skipped", "count", "higher")
	add("mpi.halo_bytes", "B", "lower")
	add("core.run_setup_ms", "ms", "lower")
	add("live.first_frame_ms", "ms", "lower")
	add("core.display_ms_per_iter", "ms", "lower")
	add("img2d.png_encode_ms", "ms", "lower")
	add("img2d.png_decode_ms", "ms", "lower")
	add("img2d.png_bytes", "B", "lower")
	add("gfx.delta_encode_us", "us", "lower")
	add("gfx.delta_apply_us", "us", "lower")
	add("gfx.delta_record_bytes", "B", "lower")
	add("gfx.keyframe_share", "ratio", "lower")
	for _, n := range []string{"queue", "run", "mem_hit", "disk_hit", "resume"} {
		add("serve."+n+"_ms", "ms", "lower")
	}
	for _, st := range serviceStages {
		add("serve.stage."+st+"_us", "us", "lower")
	}
	add("serve.computed", "count", "lower")
	add("serve.mem_hits", "count", "higher")
	add("serve.disk_hits", "count", "higher")
	add("serve.snapshots_resumed", "count", "higher")
	add("serve.iterations_computed", "count", "lower")
	add("serve.hub_publish_us", "us", "lower")
	add("client.poll_wait_ms", "ms", "lower")
	add("client.status_polls", "count", "lower")
	for _, n := range []string{"get_us", "put_us", "snapshot_put_us", "deepest_snapshot_us"} {
		add("store."+n, "us", "lower")
	}
	add("store.entry_bytes", "B", "lower")
	add("store.snapshot_bytes", "B", "lower")
	add("store.open_ms", "ms", "lower")
	add("cluster.proxy_hop_ms", "ms", "lower")
	add("cluster.proxied_share", "ratio", "lower")
	add("sweep.kind_mismatches", "count", "lower")
	for _, n := range []string{"http_submit", "queue", "run", "poll_wait", "unattributed", "total"} {
		add("attr.sweep_computed."+n+"_ms", "ms", "lower")
	}
	for _, n := range []string{"http_submit", "unattributed", "total"} {
		add("attr.sweep_cached."+n+"_ms", "ms", "lower")
	}
	for _, n := range []string{"compute", "display", "png_encode", "delta_encode", "hub", "viewer_decode", "unattributed", "total"} {
		add("attr.live."+n+"_ms", "ms", "lower")
	}
	for _, d := range endToEnd {
		if d.name != "result_p90_ms" && d.name != "wire_bytes_per_frame" {
			add("trace_overhead."+d.name, d.unit, d.better)
		}
	}
	return ds
}()
