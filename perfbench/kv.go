package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/node"
	"repro/internal/transport"
)

// kvSpec fixes one YCSB-shaped workload over the TCP cluster.
type kvSpec struct {
	putFrac float64
	w, r    int // write and read quorums
}

// Settings shared by both kv workloads.
const (
	kvNodes      = 3
	kvPartitions = 64   // the rfhnode default
	kvKeys       = 5000 // preloaded key set; far larger than kvClients
	kvClients    = 2    // closed-loop clients, one per core of the reference VM
	// kvEpochOps is the lockstep epoch cadence: each client issues
	// kvEpochOps/kvClients requests, both wait, then every node flushes
	// and runs one epoch. Per-epoch demand, and so RFH's capacity
	// accounting and decisions, depend on the seed, not on machine speed.
	kvEpochOps    = 2000
	kvSettleTicks = 3
	// kvWindowEpochs is the window the gated figures are taken over
	// (see windowStats): 5 epochs hold 5000 primary ops on kv-update.
	kvWindowEpochs = 5
	kvPreloaders   = 16 // concurrent preload writers
)

// kvCluster is three durable nodes on TCP localhost, built in-process so
// the benchmark can drive their epochs and read their counters.
type kvCluster struct {
	dir   string
	nodes []*node.Node
	addrs []string
	tr    *tracer
	acked []uint64 // newest acked version per key
}

func startKV(dir string, spec kvSpec, tr *tracer) (*kvCluster, error) {
	c := &kvCluster{dir: dir, tr: tr}
	eps := make([]*transport.TCP, kvNodes)
	peers := make([]node.Peer, kvNodes)
	for i := range eps {
		ep, err := transport.ListenTCP("127.0.0.1:0", nil, transport.DefaultTCPOptions())
		if err != nil {
			closeAll(eps)
			return nil, err
		}
		eps[i] = ep
		peers[i] = node.Peer{ID: i, Addr: ep.Addr()}
		c.addrs = append(c.addrs, ep.Addr())
	}
	for i, ep := range eps {
		cfg := node.DefaultConfig(i, append([]node.Peer(nil), peers...))
		cfg.Partitions = kvPartitions
		cfg.WriteQuorum, cfg.ReadQuorum = spec.w, spec.r
		cfg.DataDir = filepath.Join(dir, fmt.Sprintf("node%d", i))
		cfg.Fsync = true
		var t transport.Transport = ep
		if tr != nil {
			t = &timedTransport{inner: ep, tr: tr}
		}
		nd, err := node.New(cfg, t)
		if err != nil {
			c.close()
			closeAll(eps[i:])
			return nil, err
		}
		c.nodes = append(c.nodes, nd)
	}
	return c, nil
}

func closeAll(eps []*transport.TCP) {
	for _, ep := range eps {
		if ep != nil {
			ep.Close()
		}
	}
}

func (c *kvCluster) close() {
	for _, nd := range c.nodes {
		nd.Close()
	}
}

// tick runs one lockstep epoch: every node flushes, then every node
// runs its decision step.
func (c *kvCluster) tick() error {
	for _, nd := range c.nodes {
		start := time.Now()
		err := nd.FlushEpoch()
		c.tr.phase("node.epoch.flush", start)
		if err != nil {
			return err
		}
	}
	for _, nd := range c.nodes {
		start := time.Now()
		err := nd.RunEpoch()
		c.tr.phase("node.epoch.run", start)
		if err != nil {
			return err
		}
	}
	return nil
}

func (c *kvCluster) ticks(n int) error {
	for i := 0; i < n; i++ {
		if err := c.tick(); err != nil {
			return err
		}
	}
	return nil
}

// clusterCounters sums the nodes' own counters.
type clusterCounters struct {
	syncFails              int64
	decisions              [3]int64 // replicate, migrate, suicide
	walRecords, compaction int64
	xfer                   node.TransferStats
	ae                     node.AEStats
}

func readCounters(nodes []*node.Node, compactEvery int64) clusterCounters {
	var k clusterCounters
	for _, nd := range nodes {
		d := nd.Dump()
		k.syncFails += d.SyncFails
		k.decisions[0] += int64(d.Decisions.Repl)
		k.decisions[1] += int64(d.Decisions.Migr)
		k.decisions[2] += int64(d.Decisions.Suicide)
		for _, p := range d.Partitions {
			k.walRecords += int64(p.WALRecords) + int64(p.Compactions)*compactEvery
			k.compaction += int64(p.Compactions)
		}
		x, a := d.Transfers, d.AntiEntropy
		k.xfer.FullSessions += x.FullSessions
		k.xfer.DeltaSessions += x.DeltaSessions
		k.xfer.OneFrame += x.OneFrame
		k.xfer.BytesSent += x.BytesSent
		k.xfer.BytesSaved += x.BytesSaved
		k.ae.Rounds += a.Rounds
		k.ae.PayloadBytes += a.PayloadBytes
		k.ae.Healed += a.Healed
	}
	return k
}

// kvSetup is one set-up: cluster start, warm-up, preload of every key,
// settle.
func kvSetup(dir string, spec kvSpec, tr *tracer) (*kvCluster, error) {
	c, err := startKV(dir, spec, tr)
	if err != nil {
		return nil, err
	}
	// Warm-up ticks first: a fresh cluster's holders refuse syncs until
	// the first epochs have settled placement, so W=2 puts would fail.
	err = c.ticks(kvSettleTicks)
	if err == nil {
		c.acked, err = preload(c)
	}
	if err == nil {
		err = c.ticks(kvSettleTicks)
	}
	if err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// preload writes every key once through the client protocol, entering
// at node key%3, and returns each key's acked version.
func preload(c *kvCluster) ([]uint64, error) {
	cl := transport.NewTCPClient(transport.DefaultTCPOptions())
	defer cl.Close()
	acked := make([]uint64, kvKeys)
	errs := make([]error, kvPreloaders)
	var wg sync.WaitGroup
	for w := 0; w < kvPreloaders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < kvKeys; i += kvPreloaders {
				key := keyName(i)
				resp, err := cl.Send(c.addrs[i%kvNodes], &transport.Message{
					Kind: node.KindPut, Key: []byte(key), Value: makeValue(key, kvClients, 0),
				})
				if err == nil {
					err = resp.Err()
				}
				if err != nil {
					errs[w] = fmt.Errorf("preload %s: %w", key, err)
					return
				}
				acked[i] = resp.Version
			}
		}(w)
	}
	wg.Wait()
	return acked, errors.Join(errs...)
}

// kvClient is one closed-loop client: a single TCP connection to its
// entry node, speaking the node wire protocol with Hops 0 as rfhctl does.
type kvClient struct {
	id     int
	cl     *transport.TCP
	addr   string
	ops    *opStream
	seq    uint64
	own    []uint64 // version of this client's last acked write per key
	ryw    bool     // check read-your-writes (W+R > MinReplicas)
	tr     *tracer
	puts   samples
	gets   samples
	failed int64
	errs   []string
}

func (k *kvClient) fail(err error) {
	k.failed++
	if len(k.errs) < 5 {
		k.errs = append(k.errs, err.Error())
	}
}

// run issues n requests.
func (k *kvClient) run(n int) {
	for i := 0; i < n; i++ {
		op := k.ops.next()
		key := keyName(op.key)
		req := &transport.Message{Kind: node.KindGet, Key: []byte(key)}
		if op.put {
			k.seq++
			req.Kind, req.Value = node.KindPut, makeValue(key, k.id, k.seq)
		}
		opID, start := k.tr.newSpan(), time.Now()
		resp, err := k.cl.Send(k.addr, req)
		d := k.tr.end(k.tr.newSpan(), opID, "client.send", start) // the checks below are not timed
		if err == nil {
			err = resp.Err()
		}
		if err == nil && !op.put {
			switch {
			case resp.Status == transport.StatusNotFound:
				err = fmt.Errorf("get %s: not found", key)
			case k.ryw && resp.Version < k.own[op.key]:
				err = fmt.Errorf("get %s: version %d below own acked write %d", key, resp.Version, k.own[op.key])
			default:
				err = checkValue(key, resp.Value)
			}
		}
		k.tr.end(opID, 0, "client.op", start)
		if op.put {
			k.puts.add(d)
		} else {
			k.gets.add(d)
		}
		switch {
		case err != nil:
			k.fail(err)
		case op.put:
			k.own[op.key] = resp.Version
		}
	}
}

func runKV(spec kvSpec, o runOpts) (*result, error) {
	setup, c, err := timedSetups(setups(o), func(i int) (*kvCluster, error) {
		return kvSetup(filepath.Join(o.dir, fmt.Sprintf("kv%d", i)), spec, o.tr)
	}, func(c *kvCluster) {
		c.close()
		os.RemoveAll(c.dir)
	})
	if err != nil {
		return nil, err
	}
	defer c.close()
	acked := c.acked
	res := newResult(setup)
	o.tr.reset()
	const compactEvery = 1024 // node.Config.WALCompactEvery default
	before := readCounters(c.nodes, compactEvery)
	ioBefore := procWriteBytes()
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)

	// With W+R > MinReplicas every read quorum meets the last write
	// quorum, so reads must return the newest acked version.
	strict := spec.w+spec.r > c.nodes[0].MinReplicas()
	clients := make([]*kvClient, kvClients)
	for i := range clients {
		clients[i] = &kvClient{
			id: i, cl: transport.NewTCPClient(transport.DefaultTCPOptions()), addr: c.addrs[i],
			ops: newOpStream(o.seed, i, kvKeys, spec.putFrac), own: make([]uint64, kvKeys),
			ryw: strict, tr: o.tr,
		}
		defer clients[i].cl.Close()
	}
	putPrimary := spec.putFrac >= 0.5
	var (
		ends [][kvClients]int // per epoch: each client's primary-op count at its end
		durs []time.Duration  // per epoch: wall time, tick included
	)
	start := time.Now()
	for time.Since(start) < o.seconds {
		t0 := time.Now()
		var wg sync.WaitGroup
		for _, k := range clients {
			wg.Add(1)
			go func(k *kvClient) {
				defer wg.Done()
				k.run(kvEpochOps / kvClients)
			}(k)
		}
		wg.Wait()
		if err := c.tick(); err != nil {
			return nil, err
		}
		durs = append(durs, time.Since(t0))
		var e [kvClients]int
		for i, k := range clients {
			e[i] = len(k.primary(putPrimary))
		}
		ends = append(ends, e)
	}
	elapsed := time.Since(start)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	ioAfter := procWriteBytes()
	after := readCounters(c.nodes, compactEvery)

	var puts, gets []float64
	for _, k := range clients {
		puts, gets = append(puts, k.puts...), append(gets, k.gets...)
		res.failed += k.failed
		res.errs = append(res.errs, k.errs...)
		for i, v := range k.own {
			if v > acked[i] {
				acked[i] = v
			}
		}
	}
	nPuts, nGets := float64(len(puts)), float64(len(gets))
	ops := nPuts + nGets
	res.attempted += int64(ops)

	// Output check: every acked write is durable on some node and reads
	// back through the cluster, at the acked version or newer if strict.
	cl := transport.NewTCPClient(transport.DefaultTCPOptions())
	defer cl.Close()
	for i := range acked {
		res.attempted++
		if err := checkAcked(c, cl, i, acked[i], strict); err != nil {
			res.fail(err)
		}
	}

	if err := res.setTimings(kvWindows(clients, ends, durs, putPrimary)); err != nil {
		return nil, err
	}
	// Whole-run percentiles; an unsupported one reads 0 (see n).
	res.named("put_p50_us", softQuantile(puts, 0.5), "us", len(puts))
	res.named("put_p99_us", softQuantile(puts, 0.99), "us", len(puts))
	res.named("get_p50_us", softQuantile(gets, 0.5), "us", len(gets))
	res.named("get_p99_us", softQuantile(gets, 0.99), "us", len(gets))
	res.deciles("put (us)", puts)
	res.deciles("get (us)", gets)

	// Space: live heap after GC per key, data-dir bytes per user byte.
	puts, gets = nil, nil
	for _, k := range clients {
		k.puts, k.gets = nil, nil
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	userBytes := float64(kvKeys * (len(keyName(0)) + valueSize))
	res.named("heap_bytes_per_key", float64(ms.HeapAlloc)/kvKeys, "B", kvKeys)
	res.named("disk_bytes_per_user_byte", float64(dirBytes(c.dir))/userBytes, "ratio", kvKeys)

	res.layer("node.sync_fails_per_put", ratio(float64(after.syncFails-before.syncFails), nPuts), "1/op")
	res.layer("durable.wal_records_per_put", ratio(float64(after.walRecords-before.walRecords), nPuts), "1/op")
	res.layer("durable.compactions_per_kput", ratio(float64(after.compaction-before.compaction), nPuts/1000), "1/kop")
	res.layer("durable.write_bytes_per_user_byte",
		ratio(float64(ioAfter-ioBefore), nPuts*float64(len(keyName(0))+valueSize)), "ratio")
	var decisions [3]int64
	for i := range decisions {
		decisions[i] = after.decisions[i] - before.decisions[i]
	}
	res.policyLayers(decisions, len(durs))
	res.repairLayers(before, after)
	res.goLayers(&msBefore, &msAfter, elapsed, ops)
	res.transportLayers(o.tr, ops, nPuts, nGets)
	return res, nil
}

// primary returns the client's latencies of the workload's primary
// operation: puts on the write-heavy workload, gets on the read-heavy.
func (k *kvClient) primary(put bool) samples {
	if put {
		return k.puts
	}
	return k.gets
}

// kvWindows cuts the measured epochs into windows of kvWindowEpochs
// (the remainder joins the last window) and gathers each window's
// primary-op latencies from every client.
func kvWindows(clients []*kvClient, ends [][kvClients]int, durs []time.Duration, put bool) []window {
	var ws []window
	for a := 0; a < len(durs); {
		b := a + kvWindowEpochs
		if len(durs)-b < kvWindowEpochs {
			b = len(durs)
		}
		w := window{ops: (b - a) * kvEpochOps}
		for e := a; e < b; e++ {
			w.dur += durs[e]
		}
		for c, k := range clients {
			lo := 0
			if a > 0 {
				lo = ends[a-1][c]
			}
			w.lat = append(w.lat, k.primary(put)[lo:ends[b-1][c]]...)
		}
		ws = append(ws, w)
		a = b
	}
	return ws
}

// checkAcked verifies key i after the run: some node physically holds
// the acked version or newer, and a client read entering at node i%3
// returns the key's own bytes at that version or newer when strict.
func checkAcked(c *kvCluster, cl *transport.TCP, i int, ver uint64, strict bool) error {
	key := keyName(i)
	var best uint64
	for _, nd := range c.nodes {
		if v, got, ok := nd.LocalVersion(key); ok && got >= best {
			if err := checkValue(key, v); err != nil {
				return err
			}
			best = got
		}
	}
	if best < ver {
		return fmt.Errorf("acked write %s@%d lost: newest copy is @%d", key, ver, best)
	}
	resp, err := cl.Send(c.addrs[i%kvNodes], &transport.Message{Kind: node.KindGet, Key: []byte(key)})
	if err == nil {
		err = resp.Err()
	}
	switch {
	case err != nil:
		return fmt.Errorf("read back %s: %w", key, err)
	case resp.Status == transport.StatusNotFound:
		return fmt.Errorf("read back %s: not found", key)
	case strict && resp.Version < ver:
		return fmt.Errorf("read back %s: version %d below acked %d", key, resp.Version, ver)
	}
	return checkValue(key, resp.Value)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
