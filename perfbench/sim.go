package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Settings of the sim-drift workload: ten times the paper's scale.
const (
	simDCs        = 100
	simPartitions = 640
	simLambda     = 300 // Table I queries per partition per epoch
	simWorldSeed  = 0x3013
	simDriftHold  = 20  // epochs the hot datacenter stays put
	simHotFrac    = 0.8 // share of traffic from the hot datacenter
	simWarmup     = 30  // untimed epochs past the initial replication burst
	// simDigestEpochs is the prefix of the per-epoch series the digest
	// covers; every run steps at least this far, so two runs of one seed
	// print the same digest whatever their speed.
	simDigestEpochs = 200
)

// simEngine is an engine with the decorators that time its phases.
type simEngine struct {
	eng     *sim.Engine
	actions int64
}

func buildSim(seed uint64, tr *tracer) (*simEngine, error) {
	w, err := topology.RandomGeometricWorld(simDCs, 3, simWorldSeed)
	if err != nil {
		return nil, err
	}
	rt, err := network.NewRouter(w)
	if err != nil {
		return nil, err
	}
	spec := cluster.DefaultSpec()
	spec.Partitions = simPartitions
	cl, err := cluster.New(w, spec)
	if err != nil {
		return nil, err
	}
	var gen workload.Generator
	gen, err = workload.NewDrift(workload.Config{
		Partitions: simPartitions, DCs: w.NumDCs(), Lambda: simLambda, Seed: seed,
	}, simDriftHold, simHotFrac)
	if err != nil {
		return nil, err
	}
	se := &simEngine{}
	var pol policy.Policy = core.NewRFH()
	if tr != nil {
		gen = timedGenerator{inner: gen, tr: tr}
		pol = timedPolicy{inner: pol, tr: tr, actions: &se.actions}
	}
	cfg := sim.DefaultConfig()
	cfg.Epochs = math.MaxInt32 // stepped by the benchmark
	se.eng, err = sim.New(cl, rt, gen, pol, cfg)
	return se, err
}

// digest hashes the first epochs points of every recorded series, in
// the recorder's order.
func digest(rec *metrics.Recorder, epochs int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, name := range rec.Names() {
		h.Write([]byte(name))
		pts := rec.Series(name).Points
		for _, v := range pts[:min(epochs, len(pts))] {
			bits := math.Float64bits(v)
			for i := range buf {
				buf[i] = byte(bits >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

func runSimDrift(o runOpts) (*result, error) {
	setup, se, err := timedSetups(setups(o), func(int) (*simEngine, error) {
		return buildSim(o.seed, o.tr)
	}, func(se *simEngine) { se.eng.Close() })
	if err != nil {
		return nil, err
	}
	defer se.eng.Close()
	res := newResult(setup)
	for i := 0; i < simWarmup; i++ {
		if err := se.eng.Step(); err != nil {
			return nil, err
		}
	}
	o.tr.reset()
	actions0 := se.actions
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var steps, other []float64
	start := time.Now()
	for time.Since(start) < o.seconds || se.eng.Epoch() < simDigestEpochs {
		t0 := time.Now()
		if err := se.eng.Step(); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		steps = append(steps, float64(d.Nanoseconds())/1e3)
		if o.tr != nil {
			other = append(other, steps[len(steps)-1]-o.tr.last("sim.decide")-o.tr.last("sim.workload"))
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	n := float64(len(steps))
	res.attempted = int64(se.eng.Epoch())

	rec := se.eng.Recorder()
	if err := rec.Validate(); err != nil {
		res.fail(err)
	}
	fmt.Printf("# sim-drift digest of the first %d epochs (seed %d): %016x\n", simDigestEpochs, o.seed, digest(rec, simDigestEpochs))

	if err := res.setTimings([]window{{lat: steps, ops: len(steps), dur: elapsed}}); err != nil {
		return nil, err
	}
	res.named("epochs_per_s", n/elapsed.Seconds(), "1/s", len(steps))
	res.named("step_p50_ms", res.e2e["p50_us"]/1e3, "ms", len(steps))
	res.named("step_p99_ms", softQuantile(steps, 0.99)/1e3, "ms", len(steps))
	res.deciles("step (us)", steps)
	if o.tr != nil {
		res.pctLayer("sim.workload.epoch_p50_us", o.tr.timer("sim.workload"), 0.5, "us")
		decide := o.tr.timer("sim.decide")
		res.pctLayer("sim.policy.decide_p50_us", decide, 0.5, "us")
		res.pctLayer("sim.policy.decide_p99_us", decide, 0.99, "us")
		res.pctLayer("sim.step_other_p50_us", other, 0.5, "us")
		res.layer("sim.actions_per_epoch", float64(se.actions-actions0)/n, "1/epoch")
	}
	res.layer("sim.allocs_per_epoch", float64(ms1.Mallocs-ms0.Mallocs)/n, "1/epoch")
	res.layer("sim.alloc_bytes_per_epoch", float64(ms1.TotalAlloc-ms0.TotalAlloc)/n, "B/epoch")
	res.goLayers(&ms0, &ms1, elapsed, n)
	return res, nil
}
