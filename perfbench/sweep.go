package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"scalesim/internal/analytical"
	"scalesim/internal/batch"
	"scalesim/internal/config"
	"scalesim/internal/dse"
	"scalesim/internal/engine"
	"scalesim/internal/obsv"
	"scalesim/internal/simcache"
	"scalesim/internal/topology"
)

// sweep_shared: a two-tier dse.Explore over ResNet50 and GoogLeNet at the
// paper's Fig. 11 MAC budgets (2^14, 2^16 and 2^18 MACs, every array
// factorization with sides of at least 8, all three dataflows, a 10%
// pareto band). Tier 1 scores the grid analytically; tier 2 refines the
// band cycle-accurately through batch on 2 workers sharing one in-memory
// simcache that starts empty every pass. Both nets repeat layer shapes
// across band points, so cache writes and reads interleave between the
// workers. One job is one refined design point.

var sweepMACs = []int64{1 << 14, 1 << 16, 1 << 18}

const sweepEpsilon = 0.1

func sweepID(r batch.Row) string { return "sweep_shared/" + r.Label() }

// sweep is the search under test. The seed permutes the array, dataflow
// and workload axes, which reorders the band and so which worker meets a
// shared layer shape first; the set of band points is the same.
type sweep struct{ space dse.Space }

func newSweep(seed int64) (*sweep, error) {
	var arrays []analytical.Shape
	for _, macs := range sweepMACs {
		arrays = analytical.AppendShapes(arrays, macs, scaleOutMinDim)
	}
	dfs := []config.Dataflow{config.OutputStationary, config.WeightStationary, config.InputStationary}
	nets := []topology.Topology{topology.ResNet50(), topology.GoogLeNet()}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(arrays), func(i, j int) { arrays[i], arrays[j] = arrays[j], arrays[i] })
	rng.Shuffle(len(dfs), func(i, j int) { dfs[i], dfs[j] = dfs[j], dfs[i] })
	rng.Shuffle(len(nets), func(i, j int) { nets[i], nets[j] = nets[j], nets[i] })
	s := &sweep{space: dse.Space{
		Base: config.New(), Arrays: arrays, Dataflows: dfs, Workloads: nets, Epsilon: sweepEpsilon,
	}}
	// Validate the space once so a bad grid fails in set-up.
	if _, err := dse.Explore(s.space, dse.Options{Parallel: workers, Tier1Only: true}); err != nil {
		return nil, err
	}
	return s, nil
}

// exploreObserved runs one search into a fresh shared cache, recording
// per-point wall times with the explorer's own recorder.
func (s *sweep) exploreObserved() (*dse.Result, *simcache.Cache, *obsv.Recorder, error) {
	cache := simcache.New()
	rec := obsv.NewRecorder()
	res, err := dse.Explore(s.space, dse.Options{Parallel: workers, Cache: cache, Obs: rec})
	return res, cache, rec, err
}

// verifyRows checks every refined point against its pinned digest and
// its analytical runtime.
func (b *bench) verifyRows(band []batch.Point, rows []dse.Row) {
	for _, r := range rows {
		b.verifyJob(b.pinnedProblem(sweepID(r.Batch), rowDigest(r.Batch)), rowMismatch(band[r.Index], r.Batch))
	}
}

func runSweepShared(b *bench) error {
	var s *sweep
	if err := b.timeSetup(301, func() (func(), error) {
		var err error
		s, err = newSweep(b.seed)
		return nil, err
	}); err != nil {
		return err
	}

	// pass runs one search and returns its wall time, refined points,
	// simulated cycles and cache; lat collects each point's latency.
	lat := make(map[string][]time.Duration)
	pass := func() (wall time.Duration, points int, cycles int64, cache *simcache.Cache, err error) {
		t0 := time.Now()
		res, cache, rec, err := s.exploreObserved()
		wall = time.Since(t0)
		if err != nil {
			return 0, 0, 0, nil, err
		}
		b.verifyRows(res.Band, res.Rows)
		for _, lt := range rec.LayerTimings() {
			lat[lt.Name] = append(lat[lt.Name], time.Duration(lt.Seconds*float64(time.Second)))
		}
		for _, r := range res.Rows {
			cycles += r.Batch.TotalCycles
		}
		return wall, len(res.Rows), cycles, cache, nil
	}

	if !b.traced {
		mem := startMem()
		var cycleRates, jobRates []float64
		passes, err := b.passesFor(b.seconds, func() error {
			w, n, c, _, err := pass()
			cycleRates = append(cycleRates, float64(c)/w.Seconds())
			jobRates = append(jobRates, float64(n)/w.Seconds())
			return err
		})
		if err != nil {
			return err
		}
		mem.finish(b, passes)
		b.set("sim_cycles_per_s", median(cycleRates))
		b.set("jobs_per_s", median(jobRates))
		b.setRepeatedLatency(lat)
		b.note("rates: median over %d searches", passes)
		return nil
	}

	// Traced run: a warm-up search (the first also pays for growing the
	// heap), one untraced search as the overhead baseline and the source
	// of the cache counts, then the same search traced — tier 1 through
	// dse.Explore, then each band point through batch.Run on the engine,
	// sharing a fresh cache.
	if _, _, _, _, err := pass(); err != nil {
		return err
	}
	runtime.GC() // both measured searches start from a collected heap
	mem := startMem()
	untraced, _, _, cache, err := pass()
	if err != nil {
		return err
	}
	mem.finish(b, 1)
	st := cache.Stats()
	b.set("simcache.hit_ratio", float64(st.Hits)/float64(st.Hits+st.Misses))
	b.set("simcache.dup_computes", float64(st.Misses-st.Entries))
	b.set("simcache.entries", float64(st.Entries))
	b.note("cache: %d hits of %d lookups, %d entries", st.Hits, st.Hits+st.Misses, st.Entries)

	tr := b.tracer
	runtime.GC()
	t0 := time.Now()
	root := tr.Begin(1, 0, "search")
	sp := tr.Begin(1, root.ID(), "analytical.tier1")
	t1, err := dse.Explore(s.space, dse.Options{Parallel: workers, Tier1Only: true})
	sp.End()
	if err != nil {
		root.End()
		return err
	}
	shared := simcache.New()
	rows, err := engine.Run(workers, len(t1.Band), func(i int) (dse.Row, error) {
		sp := tr.Begin(int64(i+2), root.ID(), "batch.point")
		defer sp.End()
		rs, err := batch.Run(batch.Spec{Base: s.space.Base, PointList: t1.Band[i : i+1],
			Parallel: 1, Cache: shared})
		if err != nil {
			return dse.Row{}, err
		}
		return dse.Row{Index: i, Batch: rs[0]}, nil
	})
	root.End()
	if err != nil {
		return fmt.Errorf("traced search: %w", err)
	}
	b.traceOverhead(time.Since(t0), untraced)
	b.verifyRows(t1.Band, rows)

	spans := tr.Spans()
	b.set("analytical.tier1_s", Durations(spans, "analytical.tier1")[0].Seconds())
	b.set("batch.point_ms_p50", median(durationsMS(Durations(spans, "batch.point"))))
	return nil
}
