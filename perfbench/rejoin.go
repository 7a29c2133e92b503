package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/node"
	"repro/internal/stats"
	"repro/internal/transport"
)

// Settings of the rejoin workload.
const (
	rejoinNodes    = 3
	rejoinKeys     = 2000
	rejoinRewrite  = 20 // keys rewritten while the victim is down (1%)
	rejoinAE       = 4  // anti-entropy interval in epochs
	rejoinSettle   = 5  // ticks after preload
	rejoinMaxTicks = 20 // convergence (and re-replication) budget per phase
)

// rejoinFleet is a durable, fsync-on loopback fleet with the keys the
// benchmark wrote and their acked versions.
type rejoinFleet struct {
	f     *node.Fleet
	nodes []*node.Node // kept across Crash/Restart: Fleet reuses the Node
	acked []uint64
	tr    *tracer
	dir   string
}

func rejoinSetup(dir string, tr *tracer) (*rejoinFleet, error) {
	base := node.DefaultConfig(0, nil)
	base.DataDir = dir
	base.Fsync = true
	base.AEInterval = rejoinAE
	var wrap node.WrapTransport
	if tr != nil {
		wrap = func(_ int, t transport.Transport) transport.Transport { return &timedTransport{inner: t, tr: tr} }
	}
	f, err := node.NewFleetWrapped(rejoinNodes, base, wrap)
	if err != nil {
		return nil, err
	}
	rf := &rejoinFleet{f: f, acked: make([]uint64, rejoinKeys), tr: tr, dir: dir}
	for i := 0; i < rejoinNodes; i++ {
		rf.nodes = append(rf.nodes, f.Node(i))
	}
	for i := 0; i < rejoinKeys; i++ {
		key := keyName(i)
		rcpt, err := rf.nodes[i%rejoinNodes].PutQuorum(key, makeValue(key, 0, 0))
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("preload %s: %w", key, err)
		}
		rf.acked[i] = rcpt.Version
	}
	for i := 0; i < rejoinSettle; i++ {
		if err := rf.tick(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return rf, nil
}

// tick is Fleet.Tick with each node's phase timed.
func (rf *rejoinFleet) tick() error {
	for _, phase := range []string{"flush", "run"} {
		for i := 0; i < rejoinNodes; i++ {
			nd := rf.f.Node(i)
			if nd == nil {
				continue
			}
			start := time.Now()
			var err error
			if phase == "flush" {
				err = nd.FlushEpoch()
			} else {
				err = nd.RunEpoch()
			}
			rf.tr.phase("node.epoch."+phase, start)
			if err != nil {
				return fmt.Errorf("%s node %d: %w", phase, i, err)
			}
		}
	}
	return nil
}

// live returns some live node other than skip.
func (rf *rejoinFleet) live(skip int) *node.Node {
	for i := 0; i < rejoinNodes; i++ {
		if i != skip && rf.f.Alive(i) {
			return rf.f.Node(i)
		}
	}
	return nil
}

// reReplicated reports whether the live view has dropped the victim
// and every partition again has MinReplicas holders.
func (rf *rejoinFleet) reReplicated(victim int) bool {
	nd := rf.live(victim)
	for _, holders := range nd.ReplicaMap() {
		if len(holders) < nd.MinReplicas() {
			return false
		}
		for _, h := range holders {
			if h == victim {
				return false
			}
		}
	}
	return true
}

// converged checks that the rejoined victim left recovery and that
// every holder of every partition holds the same, acked-or-newer,
// version of every key. It returns nil when converged.
func (rf *rejoinFleet) converged(victim int) error {
	if rf.nodes[victim].Recovering() {
		return fmt.Errorf("node %d still recovering", victim)
	}
	rm := rf.nodes[0].ReplicaMap()
	for i := 0; i < rejoinNodes; i++ {
		if other := rf.nodes[i].ReplicaMap(); fmt.Sprint(other) != fmt.Sprint(rm) {
			return fmt.Errorf("nodes 0 and %d disagree on placement", i)
		}
	}
	for i, want := range rf.acked {
		key := keyName(i)
		holders := rm[rf.nodes[0].PartitionOf(key)]
		var ver0 uint64
		for j, h := range holders {
			v, ver, ok := rf.nodes[h].LocalVersion(key)
			switch {
			case !ok:
				return fmt.Errorf("%s missing on holder %d", key, h)
			case ver < want:
				return fmt.Errorf("%s@%d on holder %d, acked @%d", key, ver, h, want)
			case j > 0 && ver != ver0:
				return fmt.Errorf("%s: holders at @%d and @%d", key, ver0, ver)
			}
			if err := checkValue(key, v); err != nil {
				return err
			}
			ver0 = ver
		}
	}
	return nil
}

// decisions sums the replicate, migrate and suicide counts of every
// node but skip (a restart resets the restarted node's counts).
func (rf *rejoinFleet) decisions(skip int) [3]int64 {
	var d [3]int64
	for i, nd := range rf.nodes {
		if i != skip {
			c := nd.DecisionCounts()
			d[0], d[1], d[2] = d[0]+int64(c.Repl), d[1]+int64(c.Migr), d[2]+int64(c.Suicide)
		}
	}
	return d
}

func (rf *rejoinFleet) repairBytes() int64 {
	var n int64
	for _, nd := range rf.nodes {
		n += nd.TransferStats().BytesSent + nd.AEStats().PayloadBytes
	}
	return n
}

func runRejoin(o runOpts) (*result, error) {
	setup, rf, err := timedSetups(setups(o), func(i int) (*rejoinFleet, error) {
		return rejoinSetup(filepath.Join(o.dir, fmt.Sprintf("rejoin%d", i)), o.tr)
	}, func(rf *rejoinFleet) {
		rf.f.Close()
		os.RemoveAll(rf.dir)
	})
	if err != nil {
		return nil, err
	}
	defer rf.f.Close()
	res := newResult(setup)
	o.tr.reset()
	rng := stats.NewRNG(o.seed)
	before := readCounters(rf.nodes, 0)
	var decisions [3]int64
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)

	var rejoin, restarts, repair []float64
	ticks, writes := 0, 0
	start := time.Now()
	// Whole rotations only: repair bytes and rejoin time depend on which
	// node is the victim, so every run weighs the three victims equally.
	for cycle := 0; cycle%rejoinNodes != 0 || time.Since(start) < o.seconds; cycle++ {
		victim := cycle % rejoinNodes
		bytes0, dec0 := rf.repairBytes(), rf.decisions(victim)
		rf.f.Crash(victim)
		for t := 0; !rf.reReplicated(victim); t++ {
			if t == rejoinMaxTicks {
				return nil, fmt.Errorf("cycle %d: node %d's copies not re-replicated in %d epochs", cycle, victim, t)
			}
			if err := rf.tick(); err != nil {
				return nil, err
			}
			ticks++
		}
		entry := rf.live(victim)
		for w := 0; w < rejoinRewrite; w++ {
			i := rng.Intn(rejoinKeys)
			key := keyName(i)
			writes++
			res.attempted++
			rcpt, err := entry.PutQuorum(key, makeValue(key, 1, uint64(writes)))
			if err != nil {
				res.fail(fmt.Errorf("cycle %d: put %s: %w", cycle, key, err))
				continue
			}
			rf.acked[i] = rcpt.Version
		}

		t0 := time.Now()
		if err := rf.f.Restart(victim); err != nil {
			return nil, err
		}
		restarts = append(restarts, time.Since(t0).Seconds())
		took := time.Since(t0)
		res.attempted++
		for t := 0; ; t++ {
			err := rf.converged(victim)
			if err == nil {
				break
			}
			if t == rejoinMaxTicks {
				res.fail(fmt.Errorf("cycle %d: not converged %d epochs after restart: %w", cycle, t, err))
				break
			}
			t1 := time.Now()
			if err := rf.tick(); err != nil {
				return nil, err
			}
			took += time.Since(t1)
			ticks++
		}
		rejoin = append(rejoin, float64(took.Nanoseconds())/1e3)
		repair = append(repair, float64(rf.repairBytes()-bytes0))
		for i, v := range rf.decisions(victim) {
			decisions[i] += v - dec0[i]
		}
	}
	elapsed := time.Since(start)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	repairs := readCounters(rf.nodes, 0)

	cycles := float64(len(rejoin))
	if err := res.setTimings([]window{{lat: rejoin, ops: len(rejoin), dur: elapsed}}); err != nil {
		return nil, err
	}
	res.named("rejoin_s", median(append([]float64(nil), rejoin...))/1e6, "s", len(rejoin))
	res.named("repair_bytes", mean(repair), "B", len(repair))
	res.pctLayer("durable.restart_s", restarts, 0.5, "s")
	res.deciles("rejoin time (us)", rejoin)
	res.policyLayers(decisions, ticks)
	res.repairLayers(before, repairs)
	res.goLayers(&msBefore, &msAfter, elapsed, cycles)
	res.transportLayers(o.tr, float64(writes), float64(writes), 0)
	return res, nil
}
