package main

// Reading the timers the program already exports: the easypapd_stage_ns
// histograms of GET /metrics.

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// serviceStages are the stage histograms the sweep reports.
var serviceStages = []string{"admit", "queue", "lease", "compute", "cache_mem", "cache_disk",
	"spill", "snapshot", "resume", "proxy", "gossip"}

// scrapeStages fetches url/metrics and returns the bucket upper bounds
// (ns; the last is +Inf) and, per stage, the count of each bucket.
func scrapeStages(hc *http.Client, url string) ([]float64, map[string][]uint64, error) {
	resp, err := hc.Get(url + "/metrics")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("GET %s/metrics: %s", url, resp.Status)
	}
	bounds, cum, err := parseStageHistograms(bufio.NewScanner(resp.Body))
	if err != nil {
		return nil, nil, err
	}
	counts := make(map[string][]uint64)
	for st, c := range cum {
		per := make([]uint64, len(c))
		var prev uint64
		for i, v := range c {
			per[i] = v - prev
			prev = v
		}
		counts[st] = per
	}
	return bounds, counts, nil
}

// parseStageHistograms reads the cumulative easypapd_stage_ns buckets
// of a Prometheus text exposition.
func parseStageHistograms(sc *bufio.Scanner) ([]float64, map[string][]uint64, error) {
	const prefix = "easypapd_stage_ns_bucket{"
	var bounds []float64
	cum := make(map[string][]uint64)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		end := strings.Index(line, "}")
		if end < 0 {
			return nil, nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		labels := line[len(prefix):end]
		stage, le := label(labels, "stage"), label(labels, "le")
		v, err := strconv.ParseUint(strings.TrimSpace(line[end+1:]), 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		b := math.Inf(1)
		if le != "+Inf" {
			if b, err = strconv.ParseFloat(le, 64); err != nil {
				return nil, nil, fmt.Errorf("metrics: %q: %w", line, err)
			}
		}
		if len(cum[stage]) == len(bounds) {
			bounds = append(bounds, b)
		}
		cum[stage] = append(cum[stage], v)
	}
	return bounds, cum, sc.Err()
}

func label(labels, key string) string {
	for _, kv := range strings.Split(labels, ",") {
		if k, v, ok := strings.Cut(kv, "="); ok && k == key {
			return strings.Trim(v, `"`)
		}
	}
	return ""
}

// histMedian estimates the median of a power-of-two bucket histogram,
// interpolating linearly inside the bucket that holds it (0 when empty).
func histMedian(bounds []float64, counts []uint64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	half := float64(total) / 2
	seen := 0.0
	for i, c := range counts {
		if seen+float64(c) >= half && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			hi := bounds[i]
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (hi-lo)*(half-seen)/float64(c)
		}
		seen += float64(c)
	}
	return bounds[len(bounds)-2]
}
