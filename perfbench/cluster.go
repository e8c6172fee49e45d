package main

// The in-process easypapd cluster the service workloads run against: two
// nodes, each a manager with a disk store and checkpointing, a cluster
// node and an HTTP server on a loopback port — the same wiring as
// cmd/easypapd with -data-dir, -snapshot-every and -peers, at the default
// replication (none).

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"easypap/internal/core"
	"easypap/internal/serve"
	"easypap/internal/serve/cluster"
	"easypap/internal/serve/store"
)

// nodeOpts are the per-node service settings of a workload.
type nodeOpts struct {
	cacheEntries  int // memory LRU capacity
	snapshotEvery int
}

type benchNode struct {
	url   string
	id    string
	st    *store.Store
	mgr   *serve.Manager
	node  *cluster.Node
	srv   *http.Server
	done  chan struct{} // closed when Serve returns
	openT time.Duration // store.Open wall time
}

type benchCluster struct {
	nodes []*benchNode
	ring  *cluster.Ring
	// storeT is the time spent clearing and opening the nodes' data
	// directories (see setupSampler).
	storeT time.Duration
}

// startCluster brings up two nodes with fresh stores under dir and
// returns once each node's ring lists both members. fixed puts the nodes
// on the fixed loopback ports (see basePort); otherwise the kernel picks.
func startCluster(dir string, o nodeOpts, fixed bool) (*benchCluster, error) {
	const n = 2
	c := &benchCluster{}
	lns, err := listenPair(fixed)
	if err != nil {
		return nil, err
	}
	urls := make([]string, n)
	for i, ln := range lns {
		urls[i] = "http://" + ln.Addr().String()
	}
	// fail tears down what is up so far: the nodes started and the
	// listeners not yet handed to a server.
	fail := func(i int, err error) (*benchCluster, error) {
		c.close()
		for _, l := range lns[i:] {
			l.Close()
		}
		return nil, err
	}
	for i := 0; i < n; i++ {
		bn := &benchNode{url: urls[i], done: make(chan struct{})}
		sdir := filepath.Join(dir, fmt.Sprintf("node%d", i))
		t0 := time.Now()
		if err := os.RemoveAll(sdir); err != nil {
			return fail(i, err)
		}
		t1 := time.Now()
		st, err := store.Open(sdir, store.Options{})
		bn.openT = time.Since(t1)
		c.storeT += time.Since(t0)
		if err != nil {
			return fail(i, err)
		}
		bn.st = st
		// One worker per node: with two nodes the cluster computes on
		// nproc (2) runners, and each job asks for one thread.
		bn.mgr = serve.NewManager(serve.Options{Workers: 1, CacheCapacity: o.cacheEntries,
			Store: st, SnapshotEvery: o.snapshotEvery})
		bn.node, err = cluster.NewNode(bn.mgr, cluster.Options{Self: urls[i], Peers: urls})
		if err != nil {
			bn.mgr.Close()
			st.Close()
			return fail(i, err)
		}
		bn.id = bn.node.ID()
		bn.srv = &http.Server{Handler: bn.node.Handler()}
		ln := lns[i]
		go func() {
			defer close(bn.done)
			_ = bn.srv.Serve(ln) // returns http.ErrServerClosed on close
		}()
		c.nodes = append(c.nodes, bn)
	}
	ids := make([]string, n)
	for i, bn := range c.nodes {
		ids[i] = bn.id
	}
	sort.Strings(ids)
	c.ring = cluster.NewRing(ids, cluster.DefaultVirtualNodes)
	for _, bn := range c.nodes {
		if m := bn.node.Membership(); len(m.Members) != n {
			c.close()
			return nil, fmt.Errorf("cluster: node %s lists %d members, want %d", bn.id, len(m.Members), n)
		}
	}
	return c, nil
}

// basePort is the first loopback port the cluster tries. Node ids hash
// the nodes' URLs and the ring places keys by node id, so fixed ports give
// the same ring — and the sweep the same configs for a seed — in every
// run; busy ports fall back to the next pair, then to any free ports.
const basePort = 47611

// listenPair opens the two nodes' listeners.
func listenPair(fixed bool) ([]net.Listener, error) {
	for try := 0; try <= 10; try++ {
		var lns []net.Listener
		for i := 0; i < 2; i++ {
			addr := fmt.Sprintf("127.0.0.1:%d", basePort+2*try+i)
			if try == 10 || !fixed {
				addr = "127.0.0.1:0"
			}
			ln, err := net.Listen("tcp", addr)
			if err != nil {
				break
			}
			lns = append(lns, ln)
		}
		if len(lns) == 2 {
			return lns, nil
		}
		for _, ln := range lns {
			ln.Close()
		}
	}
	return nil, fmt.Errorf("cluster: no free loopback ports")
}

// close stops every node: server first (waiting for its goroutine),
// then the cluster node, the manager and the store.
func (c *benchCluster) close() {
	var wg sync.WaitGroup
	for _, bn := range c.nodes {
		wg.Add(1)
		go func(bn *benchNode) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := bn.srv.Shutdown(ctx); err != nil {
				bn.srv.Close()
			}
			<-bn.done
		}(bn)
	}
	wg.Wait()
	for _, bn := range c.nodes {
		bn.node.Close()
		bn.mgr.Close()
		bn.st.Close()
	}
}

// owner returns the index of the node owning cfg's cache key.
func (c *benchCluster) owner(cfg core.Config, frames bool) (int, error) {
	_, _, key, err := cluster.RouteKey(cfg, frames)
	if err != nil {
		return 0, err
	}
	return c.ownerOf(key), nil
}

// ownerOf returns the index of the node the ring places key on.
func (c *benchCluster) ownerOf(key uint64) int {
	id := c.ring.Owner(key)
	for i, bn := range c.nodes {
		if bn.id == id {
			return i
		}
	}
	panic("ring owner " + id + " is not a node")
}

// setupReps is how many cluster bring-ups a service workload times at
// least; setup_s is their median. They are spread over the run, a few
// after every round, so a minute-long burst of host contention weighs on
// set-up no more than on the rounds.
const setupReps = 51

// setupSampler times cluster bring-ups: each starts a cluster of its own
// and stops it again. Sampled clusters listen on ports the kernel picks:
// trying the workload cluster's busy fixed ports first would make every
// bind walk the TIME-WAIT connections the workload leaves on them.
//
// A sample is the bring-up without clearing and opening the data
// directories, which is timed apart as store.open_ms. On a fresh
// directory store.Open is a handful of file and directory creations, and
// on the reference box the kernel's cost of one creation drifts tenfold
// within minutes whatever the program does (README.md, "set-up time"):
// with it, the median bring-up of two sets of runs differed by 80%.
type setupSampler struct {
	dir           string
	o             nodeOpts
	setups, opens []float64
}

// start brings up a cluster, timed like every sample, and returns it
// running.
func (s *setupSampler) start(fixed bool) (*benchCluster, error) {
	// Collect the previous bring-up's garbage first, so no set-up pays
	// for another's.
	runtime.GC()
	t0 := time.Now()
	c, err := startCluster(filepath.Join(s.dir, fmt.Sprintf("setup%d", len(s.setups))), s.o, fixed)
	if err != nil {
		return nil, err
	}
	s.setups = append(s.setups, (time.Since(t0) - c.storeT).Seconds())
	for _, bn := range c.nodes {
		s.opens = append(s.opens, ms(bn.openT))
	}
	return c, nil
}

// sample times n more bring-ups.
func (s *setupSampler) sample(n int) error {
	for i := 0; i < n; i++ {
		c, err := s.start(false)
		if err != nil {
			return err
		}
		c.close()
	}
	return nil
}

// result tops the samples up to setupReps and returns the median set-up
// time in seconds and the median store.Open time in milliseconds.
func (s *setupSampler) result() (float64, float64, error) {
	if err := s.sample(setupReps - len(s.setups)); err != nil {
		return 0, 0, err
	}
	return median(s.setups), median(s.opens), nil
}
