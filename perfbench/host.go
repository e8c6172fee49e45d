package main

// The reference box is a virtual machine whose vCPUs the host shares with
// other tenants. While the host takes the CPUs away (steal time), every
// wall-clock figure of a round drops by about as much — a matrix round
// under 30% steal runs at half speed — and a burst can last a minute. Rounds
// measured under such steal are still run and checked, but left out of the
// figures, so that the figures describe the program rather than the host.

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// maxSteal is the largest share of the machine's CPU time the host may
// have taken during a round for the round to count.
const maxSteal = 0.05

// cpuTimes is a reading of the machine-wide CPU time counters.
type cpuTimes struct{ steal, total int64 }

// readCPUTimes reads the "cpu" line of /proc/stat; on a system without
// it every round counts as quiet.
func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	for i, x := range f[1:] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		t.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			t.steal = v
		}
	}
	return t
}

// stealShare is the share of CPU time the host took between a and b.
func stealShare(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// quiet returns the indexes of the samples to report: those measured
// under at most maxSteal, or, when fewer than a quarter of them were, the
// quarter with the least steal.
func quiet(steal []float64) []int {
	var kept []int
	for i, s := range steal {
		if s <= maxSteal {
			kept = append(kept, i)
		}
	}
	if 4*len(kept) >= len(steal) {
		return kept
	}
	order := make([]int, len(steal))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return steal[order[a]] < steal[order[b]] })
	kept = order[:(len(steal)+3)/4]
	sort.Ints(kept)
	return kept
}

// quietRounds returns the rounds quiet keeps and prints how many it left
// out.
func quietRounds[T any](label string, rounds []T, steal []float64) []T {
	var kept []T
	for _, i := range quiet(steal) {
		kept = append(kept, rounds[i])
	}
	fmt.Printf("%s rounds: %d, left out for host steal above %.0f%%: %d\n",
		label, len(rounds), 100*maxSteal, len(rounds)-len(kept))
	return kept
}
