package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"scalesim/internal/config"
	"scalesim/internal/core"
	"scalesim/internal/dataflow"
	"scalesim/internal/dram"
	"scalesim/internal/engine"
	"scalesim/internal/memory"
	"scalesim/internal/partition"
	"scalesim/internal/systolic"
	"scalesim/internal/topology"
	"scalesim/internal/trace"
	"scalesim/internal/vector"
)

// cold_paper: the paper's study as the scalesim CLI runs it by default —
// no result cache, no run registry — on the default 32x32 output-
// stationary array with 512/512/256 KiB SRAM. One pass runs every item
// once, in an order drawn from the seed. Each item is one job: its
// latency is the wall time of the simulator call, and its simulated
// cycles count toward sim_cycles_per_s.

// scaleOutMACs and scaleOutParts are the Fig. 11 scale-out sweep of
// CB2a_3: a 2^14-MAC budget split over 1, 4, 16 and 64 partitions with
// arrays no smaller than scaleOutMinDim on a side.
const (
	scaleOutMACs   = 1 << 14
	scaleOutMinDim = 8
)

var scaleOutParts = []int64{1, 4, 16, 64}

// tableIVFast are the Table IV GEMMs that simulate in under a second on
// the default array; the full LanguageModels set takes minutes.
var tableIVFast = []string{"GNMT3", "TF1", "NCF0", "NCF1"}

// coldOut is what one item produced.
type coldOut struct {
	digest string
	cycles int64
	// mismatch describes a disagreement with the analytical model, ""
	// when there is none.
	mismatch string
}

// coldItem is one job of the cold_paper pass.
type coldItem struct {
	name string
	// run is the untraced call, exactly as the CLI makes it.
	run func() (coldOut, error)
	// traced makes the same calls one level down — per layer through
	// the engine, per partition count — with spans around each, under
	// the item's root span.
	traced func(tr *Tracer, req int64, root Open) (coldOut, error)
	// layers are the item's systolic layers and vector nodes, for the
	// per-layer decomposition of the traced run.
	layers []decompJob
}

func coldID(name string) string { return "cold_paper/" + name }

// newColdItems builds the pass. The simulators and workloads are the
// run's set-up.
func newColdItems() []coldItem {
	cfg := config.New()
	sim, err := core.New(cfg, core.Options{Workers: workers})
	if err != nil {
		panic(err) // the default configuration is valid
	}
	ddr := dram.DDR3()
	simDDR, err := core.New(cfg, core.Options{Workers: workers, DRAM: &ddr})
	if err != nil {
		panic(err)
	}
	items := []coldItem{flatItem("Resnet50", cfg, sim, topology.ResNet50(), false)}
	bert, err := topology.BuiltInGraph("BERTBase")
	if err != nil {
		panic(err)
	}
	items = append(items, graphItem(cfg, sim, bert))
	lm := topology.LanguageModels()
	for _, name := range tableIVFast {
		for _, l := range lm.Layers {
			if l.Name == name {
				items = append(items, flatItem(name, cfg, sim,
					topology.Topology{Name: name, Layers: []topology.Layer{l}}, false))
			}
		}
	}
	items = append(items, scaleOutItem(cfg))
	items = append(items, flatItem("GoogLeNet-DDR3", cfg, simDDR, topology.GoogLeNet(), true))
	return items
}

// flatItem simulates a flat topology with core.Simulate.
func flatItem(name string, cfg config.Config, sim *core.Simulator, topo topology.Topology, ddr bool) coldItem {
	out := func(r core.RunResult) coldOut {
		return coldOut{digest: runDigest(r), cycles: r.TotalCycles, mismatch: analyticalMismatch(cfg, r)}
	}
	it := coldItem{name: name}
	it.run = func() (coldOut, error) {
		r, err := sim.Simulate(topo)
		return out(r), err
	}
	it.traced = func(tr *Tracer, req int64, root Open) (coldOut, error) {
		r, err := tracedRun(tr, req, root, sim, topo.Layers, nil, func(i int) (core.LayerResult, error) {
			return sim.SimulateLayer(topo.Layers[i])
		})
		r.Topology = topo
		return out(r), err
	}
	for _, l := range topo.Layers {
		it.layers = append(it.layers, decompJob{layer: l, cfg: cfg, ddr: ddr})
	}
	return it
}

// graphItem simulates an operator graph with core.SimulateGraph.
func graphItem(cfg config.Config, sim *core.Simulator, g topology.Graph) coldItem {
	out := func(r core.RunResult) coldOut {
		return coldOut{digest: runDigest(r), cycles: r.TotalCycles, mismatch: analyticalMismatch(cfg, r)}
	}
	it := coldItem{name: g.Name}
	it.run = func() (coldOut, error) {
		r, err := sim.SimulateGraph(g)
		return out(r), err
	}
	it.traced = func(tr *Tracer, req int64, root Open) (coldOut, error) {
		nodes, preds, err := g.Schedule()
		if err != nil {
			return coldOut{}, err
		}
		layers := make([]topology.Layer, len(nodes))
		for i, n := range nodes {
			layers[i] = n.Layer
		}
		r, err := tracedRun(tr, req, root, sim, layers, func(i int) []int { return preds[i] },
			func(i int) (core.LayerResult, error) { return sim.SimulateNode(nodes[i]) })
		return out(r), err
	}
	for _, n := range g.Nodes {
		j := decompJob{cfg: cfg, layer: n.Layer}
		if n.Kind.Vector() {
			j.vector = &vector.Params{Kind: n.Kind, Rows: n.Rows(), Cols: n.Cols(),
				Operands: n.OperandCount(), Lanes: cfg.Lanes()}
		}
		it.layers = append(it.layers, j)
	}
	return it
}

// tracedRun drives the engine over the layers itself — independent
// layers through engine.Run, graph nodes through engine.RunDAG when deps
// is set — with a core.simulate span around each per-layer call and an
// engine.run span around the fan-out, and totals the results as
// core.Simulate does.
func tracedRun(tr *Tracer, req int64, root Open, sim *core.Simulator, layers []topology.Layer,
	deps func(int) []int, simulate func(int) (core.LayerResult, error)) (core.RunResult, error) {
	eng := tr.Begin(req, root.ID(), "engine.run")
	job := func(i int) (core.LayerResult, error) {
		sp := tr.Begin(req, eng.ID(), "core.simulate")
		defer sp.End()
		return simulate(i)
	}
	var lrs []core.LayerResult
	var err error
	if deps != nil {
		lrs, err = engine.RunDAG(workers, len(layers), deps, job)
	} else {
		lrs, err = engine.Run(workers, len(layers), job)
	}
	eng.End()
	run := core.RunResult{Config: sim.Config(), Layers: lrs}
	for _, lr := range lrs {
		run.TotalCycles += lr.Compute.Cycles
		run.TotalMACs += lr.Compute.MACs
	}
	return run, err
}

// scaleOutItem is the Fig. 11 partition sweep of CB2a_3.
func scaleOutItem(cfg config.Config) coldItem {
	var cb topology.Layer
	for _, l := range topology.ResNet50().Layers {
		if l.Name == "CB2a_3" {
			cb = l
		}
	}
	opt := partition.Options{Parallel: workers}
	out := func(rs []partition.Result) coldOut {
		o := coldOut{digest: partitionDigest(rs), mismatch: scaleOutMismatch(cb, cfg.Dataflow, rs)}
		for _, r := range rs {
			o.cycles += r.Cycles
		}
		return o
	}
	return coldItem{
		name: "CB2a_3-scaleout",
		run: func() (coldOut, error) {
			rs, err := partition.Sweep(cb, cfg, scaleOutMACs, scaleOutParts, scaleOutMinDim, opt)
			return out(rs), err
		},
		traced: func(tr *Tracer, req int64, root Open) (coldOut, error) {
			m := dataflow.Map(cb, cfg.Dataflow)
			var rs []partition.Result
			for _, p := range scaleOutParts {
				spec, ok := partition.BestSpec(m, scaleOutMACs, p, scaleOutMinDim)
				if !ok {
					continue
				}
				sp := tr.Begin(req, root.ID(), "partition.run")
				r, err := partition.Run(cb, cfg, spec, opt)
				sp.End()
				if err != nil {
					return coldOut{}, err
				}
				rs = append(rs, r)
			}
			return out(rs), nil
		},
	}
}

// decompJob is one layer of the traced run's per-layer decomposition.
type decompJob struct {
	layer topology.Layer
	cfg   config.Config
	// ddr replays the layer's DRAM streams through the DDR3 model too.
	ddr bool
	// vector, when set, marks a vector-unit node.
	vector *vector.Params
}

// decompCounts are exact counts the decomposition observes.
type decompCounts struct{ folds, dramWords int64 }

// decompose times one layer's calls into each cycle-level model with
// spans under parent: dataflow.Map; systolic.Run into no-op sinks;
// systolic.Run into memory.System sinks (memory.system, whose self time
// is its duration minus the systolic.run span's); and, for DDR3 items,
// the same run with the DRAM timing model attached (dram.model, minus
// memory.system). Vector nodes time vector.RunAt instead.
func decompose(tr *Tracer, req, parent int64, j decompJob) (decompCounts, error) {
	var c decompCounts
	if j.vector != nil {
		sp := tr.Begin(req, parent, "vector.run")
		_, err := vector.Run(*j.vector, vector.Sinks{})
		sp.End()
		return c, err
	}
	l, cfg := j.layer, j.cfg
	sp := tr.Begin(req, parent, "dataflow.map")
	_ = dataflow.Map(l, cfg.Dataflow)
	sp.End()

	folds := systolic.FoldObserverFunc(func(systolic.FoldInfo) { c.folds++ })
	sp = tr.Begin(req, parent, "systolic.run")
	_, err := systolic.Run(l, cfg, systolic.Sinks{
		IfmapRead: trace.Null, FilterRead: trace.Null, OfmapWrite: trace.Null, Folds: folds})
	sp.End()
	if err != nil {
		return c, err
	}

	withMemory := func(name string, opt memory.Options) (memory.Report, error) {
		sp := tr.Begin(req, parent, name)
		defer sp.End()
		sys, err := memory.NewSystem(cfg, opt)
		if err != nil {
			return memory.Report{}, err
		}
		sys.SetRegions(cfg.IfmapOffset, l.IfmapWords(), cfg.FilterOffset, l.FilterWords(),
			cfg.OfmapOffset, l.OfmapWords())
		res, err := systolic.Run(l, cfg, systolic.Sinks{
			IfmapRead: sys.Ifmap, FilterRead: sys.Filter, OfmapWrite: sys.Ofmap})
		if err != nil {
			return memory.Report{}, err
		}
		sys.Ofmap.Flush(res.Cycles)
		return sys.Report(res.Cycles), nil
	}
	rep, err := withMemory("memory.system", memory.Options{})
	if err != nil {
		return c, err
	}
	c.dramWords = rep.DRAMAccesses()
	if j.ddr {
		m, err := dram.New(dram.DDR3())
		if err != nil {
			return c, err
		}
		if _, err := withMemory("dram.model", memory.Options{DRAMRead: m, DRAMWrite: m}); err != nil {
			return c, err
		}
	}
	return c, nil
}

func runColdPaper(b *bench) error {
	var items []coldItem
	if err := b.timeSetup(301, func() (func(), error) {
		items = newColdItems()
		return nil, nil
	}); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(b.seed))
	order := func() []coldItem {
		out := make([]coldItem, len(items))
		for i, j := range rng.Perm(len(items)) {
			out[i] = items[j]
		}
		return out
	}
	verify := func(it coldItem, o coldOut) {
		if o.mismatch != "" {
			o.mismatch = it.name + ": " + o.mismatch
		}
		b.verifyJob(b.pinnedProblem(coldID(it.name), o.digest), o.mismatch)
	}

	// pass runs every item once, untraced, and returns the simulated
	// cycles and the summed item latencies; lat collects each item's.
	lat := make(map[string][]time.Duration)
	pass := func() (cycles int64, busy time.Duration, err error) {
		for _, it := range order() {
			runtime.GC() // every item starts from a collected heap, as a CLI run does
			t0 := time.Now()
			o, err := it.run()
			d := time.Since(t0)
			if err != nil {
				return 0, 0, fmt.Errorf("%s: %w", it.name, err)
			}
			lat[it.name] = append(lat[it.name], d)
			busy += d
			verify(it, o)
			cycles += o.cycles
		}
		return cycles, busy, nil
	}

	if !b.traced {
		mem := startMem()
		var cycleRates, jobRates []float64
		passes, err := b.passesFor(b.seconds, func() error {
			c, d, err := pass()
			cycleRates = append(cycleRates, float64(c)/d.Seconds())
			jobRates = append(jobRates, float64(len(items))/d.Seconds())
			return err
		})
		if err != nil {
			return err
		}
		mem.finish(b, passes)
		b.set("sim_cycles_per_s", median(cycleRates))
		b.set("jobs_per_s", median(jobRates))
		b.setRepeatedLatency(lat)
		b.note("rates: median over %d passes of %d items", passes, len(items))
		return nil
	}

	// Traced run: one untraced pass, measured for the allocation counts
	// and warming the heap; then each item untraced and traced in turn,
	// alternating which side goes first (the second run of an item reuses
	// the memory the first mapped), so order and host drift fall on both
	// sides of the overhead ratio alike; then the per-layer decomposition.
	mem := startMem()
	if _, _, err := pass(); err != nil {
		return err
	}
	mem.finish(b, 1)

	tr := b.tracer
	var cycles int64
	var untraced, traced time.Duration
	for i, it := range order() {
		req := int64(i + 1)
		plain := func() error {
			runtime.GC() // as pass does
			t0 := time.Now()
			_, err := it.run()
			untraced += time.Since(t0)
			return err
		}
		withSpans := func() error {
			runtime.GC()
			t0 := time.Now()
			root := tr.Begin(req, 0, "item")
			o, err := it.traced(tr, req, root)
			root.End()
			traced += time.Since(t0)
			if err == nil {
				verify(it, o)
				cycles += o.cycles
			}
			return err
		}
		first, second := plain, withSpans
		if i%2 == 1 {
			first, second = withSpans, plain
		}
		if err := errors.Join(first(), second()); err != nil {
			return fmt.Errorf("%s: %w", it.name, err)
		}
	}
	b.traceOverhead(traced, untraced)

	var jobs []decompJob
	var reqs []int64
	for i, it := range items {
		for _, j := range it.layers {
			jobs = append(jobs, j)
			reqs = append(reqs, int64(len(items)+i+1))
		}
	}
	counts, err := engine.Run(workers, len(jobs), func(i int) (decompCounts, error) {
		root := tr.Begin(reqs[i], 0, "decompose")
		defer root.End()
		return decompose(tr, reqs[i], root.ID(), jobs[i])
	})
	if err != nil {
		return fmt.Errorf("decomposition: %w", err)
	}
	var folds, words int64
	for _, c := range counts {
		folds += c.folds
		words += c.dramWords
	}

	spans := tr.Spans()
	self, _ := SelfTimes(spans)
	sum := func(name string) float64 {
		var d time.Duration
		for _, x := range Durations(spans, name) {
			d += x
		}
		return d.Seconds()
	}
	b.set("core.simulate_s", self["core.simulate"].Seconds())
	b.set("dataflow.map_s", self["dataflow.map"].Seconds())
	b.set("systolic.run_s", self["systolic.run"].Seconds())
	b.set("memory.system_s", sum("memory.system")-sum("systolic.run"))
	b.set("dram.model_s", sum("dram.model")-ddrMemorySeconds(spans))
	b.set("vector.run_s", self["vector.run"].Seconds())
	b.set("partition.run_s", self["partition.run"].Seconds())
	b.set("engine.parallel_eff", sum("core.simulate")/(workers*sum("engine.run")))
	b.set("sim.cycles", float64(cycles))
	b.set("systolic.folds", float64(folds))
	b.set("memory.dram_words", float64(words))
	return nil
}

// ddrMemorySeconds sums the memory.system spans of the requests that
// also ran the DRAM timing model, the baseline dram.model subtracts.
func ddrMemorySeconds(spans []Span) float64 {
	ddrReq := make(map[int64]bool)
	for _, s := range spans {
		if s.Name == "dram.model" {
			ddrReq[s.Req] = true
		}
	}
	var d time.Duration
	for _, s := range spans {
		if s.Name == "memory.system" && ddrReq[s.Req] {
			d += s.Dur()
		}
	}
	return d.Seconds()
}

// traceOverhead records and notes the traced run's wall time against the
// untraced run of the same work.
func (b *bench) traceOverhead(traced, untraced time.Duration) {
	ratio := traced.Seconds() / untraced.Seconds()
	b.set("trace.overhead_ratio", ratio)
	b.note("trace overhead: traced %.4f s vs untraced %.4f s for the same work (%+.1f%%)",
		traced.Seconds(), untraced.Seconds(), (ratio-1)*100)
}
