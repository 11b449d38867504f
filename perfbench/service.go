package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"scalesim/internal/core"
	"scalesim/internal/job"
	"scalesim/internal/obsv"
	"scalesim/internal/runstore"
	"scalesim/internal/simcache"
)

// service_warm and service_registry: scalesimd's job path in process.
// The runner is built as cmd/scalesimd builds it for
//
//	scalesimd -workers 2 -queue 16 -cache-dir <dir> -cache-max-mb 1 [-run-dir <dir>]
//
// and two closed-loop clients replay a seeded stream of JSON job
// requests through decode, Spec, the shedding Submit, Wait and one
// cycles report per job. Latency runs from the start of decode to the
// rendered report. The stream is mostly repeats of a hot set that set-up
// prefills into the cache; about 1% of requests are specs never seen
// before, which miss, spill to the capped disk tier and evict.

const (
	// firstSeenEvery spaces the requests for never-seen specs: 1.1% of
	// each client's stream, a little over 1% so that the p99 the output
	// prints is a miss rather than the step between replays and misses.
	firstSeenEvery = 90
	// cacheCapMB is the disk tier's cap: the hot set (about 0.2 MiB)
	// fits, the first-seen specs of a run do not.
	cacheCapMB = 1
	queueDepth = 16
)

// The spec space the stream draws from: two networks — the TinyNet
// built-in by name and a three-layer MLP sent inline as topology CSV — on
// any array from 4x4 to 64x64, under each dataflow and one of three SRAM
// provisions. The SRAMs are small because a miss allocates the memory
// model's residency tables in proportion to SRAM size: at 512 KiB a
// TinyNet miss costs tens of milliseconds and the misses, not the warm
// path, would set every number.
var (
	svcArrayMin, svcArrayMax = 4, 64
	svcDataflows             = []string{"os", "ws", "is"}
	svcSRAMs                 = []string{"16,16,8", "32,32,16", "64,64,32"}
)

// mlpCSV has three layers, as TinyNet does: a warm replay costs about
// the same for either network, so the latency median does not fall
// between two modes.
const mlpCSV = "fc1,16,1,1,1,64,32,1\nfc2,16,1,1,1,32,32,1\nfc3,16,1,1,1,32,10,1\n"

// specPoint is one point of the spec space.
type specPoint struct{ net, r, c, df, sram int }

// freshPoint draws the k-th first-seen point: the SRAM provision, which
// sets most of a miss's cost, and the array bands rotate with k, and the
// rest is drawn at random, so every seed's misses cost about the same.
func freshPoint(rng *rand.Rand, k int) specPoint {
	in := func(b [2]int) int { return b[0] + rng.Intn(b[1]-b[0]+1) }
	return specPoint{net: rng.Intn(2), r: in(hotBands[k%8]), c: in(hotBands[(k/8)%8]),
		df: rng.Intn(len(svcDataflows)), sram: k % len(svcSRAMs)}
}

// hotBands split the array side range into eight bands. The hot set has
// one spec in each (row band, column band) cell with the networks and
// dataflows spread evenly over the cells, so every seed's hot set mixes
// small and large arrays alike and its simulated cycles per job move
// little from seed to seed.
var hotBands = [8][2]int{{4, 5}, {6, 7}, {8, 11}, {12, 15}, {16, 23}, {24, 31}, {32, 47}, {48, 64}}

// hotPoints draws the hot set.
func hotPoints(rng *rand.Rand) []specPoint {
	in := func(b [2]int) int { return b[0] + rng.Intn(b[1]-b[0]+1) }
	var pts []specPoint
	for i, rb := range hotBands {
		for j, cb := range hotBands {
			pts = append(pts, specPoint{net: (i + j) % 2, r: in(rb), c: in(cb),
				df: (i + 2*j) % len(svcDataflows), sram: rng.Intn(len(svcSRAMs))})
		}
	}
	return pts
}

// request builds the wire request for the point.
func (p specPoint) request() job.Request {
	req := job.Request{Array: fmt.Sprintf("%dx%d", p.r, p.c), Dataflow: svcDataflows[p.df],
		SRAM: svcSRAMs[p.sram], Workers: 1}
	if p.net == 0 {
		req.Net, req.Run = "TinyNet", "load"
	} else {
		req.TopologyCSV, req.Run = mlpCSV, "mlp"
	}
	return req
}

// reference is the cache-free outcome of a spec that every job of it
// must reproduce.
type reference struct {
	total  int64
	layers [][4]int64 // cycles, stall cycles, DRAM reads, DRAM writes
	report [32]byte   // SHA-256 of the rendered cycles report
}

func referenceOf(run core.RunResult, report []byte) reference {
	ref := reference{total: run.TotalCycles, report: sha256.Sum256(report)}
	for _, l := range run.Layers {
		ref.layers = append(ref.layers, [4]int64{l.Compute.Cycles, l.StallCycles,
			l.Memory.DRAMReads(), l.Memory.OfmapDRAMWrites})
	}
	return ref
}

func (r reference) equal(o reference) bool {
	if r.total != o.total || r.report != o.report || len(r.layers) != len(o.layers) {
		return false
	}
	for i := range r.layers {
		if r.layers[i] != o.layers[i] {
			return false
		}
	}
	return true
}

// simulateDirect runs a spec with no cache and renders its cycles report:
// the reference every service job is checked against.
func simulateDirect(spec job.Spec) (core.RunResult, []byte, error) {
	sim, err := core.New(spec.Config, core.Options{Workers: 1, DRAM: spec.DRAM, DRAMBandwidth: spec.DRAMBandwidth})
	if err != nil {
		return core.RunResult{}, nil, err
	}
	run, err := sim.Simulate(spec.Topology)
	if err != nil {
		return core.RunResult{}, nil, err
	}
	var buf bytes.Buffer
	err = (&job.Result{Run: run}).WriteReport(&buf, "cycles")
	return run, buf.Bytes(), err
}

// stream hands out requests: each client draws hot picks from its own
// seeded generator, and first-seen specs from one shared sequence.
type stream struct {
	hot     [][]byte
	hotRefs []reference

	mu      sync.Mutex
	rng     *rand.Rand // draws first-seen specs
	draws   int        // first-seen draws made, collisions included
	used    map[specPoint]bool
	fresh   []specPoint // first-seen specs handed out, in order
	freshBy map[specPoint]reference
}

// newStream draws the hot set from the seed and computes each hot spec's
// reference.
func newStream(b *bench) (*stream, error) {
	s := &stream{
		rng:     rand.New(rand.NewSource(b.seed)),
		used:    make(map[specPoint]bool),
		freshBy: make(map[specPoint]reference),
	}
	for _, p := range hotPoints(s.rng) {
		s.used[p] = true
		body, err := json.Marshal(p.request())
		if err != nil {
			return nil, err
		}
		spec, err := decode(body)
		if err != nil {
			return nil, err
		}
		run, report, err := simulateDirect(spec)
		if err != nil {
			return nil, err
		}
		if m := analyticalMismatch(spec.Config, run); m != "" {
			return nil, fmt.Errorf("hot spec %s: %s", body, m)
		}
		s.hot = append(s.hot, body)
		s.hotRefs = append(s.hotRefs, referenceOf(run, report))
	}
	return s, nil
}

// maxFreshCollisions bounds the draws nextFresh makes for one spec. Every
// draw moves on to the next band cell and SRAM, so a cell whose points are
// all used is passed over; only a spec space used up nearly everywhere
// exhausts the bound, and then the request fails instead of spinning.
const maxFreshCollisions = 1 << 16

// nextFresh returns a spec no earlier request used.
func (s *stream) nextFresh() (specPoint, []byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for range maxFreshCollisions {
		p := freshPoint(s.rng, s.draws)
		s.draws++
		if s.used[p] {
			continue
		}
		s.used[p] = true
		s.fresh = append(s.fresh, p)
		body, err := json.Marshal(p.request())
		return p, body, err
	}
	return specPoint{}, nil, fmt.Errorf("no unused spec in %d draws after %d first-seen specs",
		maxFreshCollisions, len(s.fresh))
}

// recordFresh keeps a first-seen job's outcome for the post-run check.
func (s *stream) recordFresh(i specPoint, ref reference) {
	s.mu.Lock()
	s.freshBy[i] = ref
	s.mu.Unlock()
}

// client is one closed-loop caller's draw of the stream.
type client struct {
	rng *rand.Rand
	// phase offsets the client's first-seen requests within each
	// firstSeenEvery.
	phase int64
	// counts of hot and first-seen requests issued
	repeats, firstSeen int64
}

func newClient(seed int64, id int) *client {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(id) + 1))
	return &client{rng: rng, phase: rng.Int63n(firstSeenEvery)}
}

// next picks the next request: every firstSeenEvery-th a first-seen
// spec, otherwise a uniformly drawn hot spec (hot is its index in the
// hot set, -1 for first-seen).
func (c *client) next(s *stream) (body []byte, hot int, fresh specPoint, err error) {
	if (c.repeats+c.firstSeen+c.phase)%firstSeenEvery == 0 {
		c.firstSeen++
		fresh, body, err = s.nextFresh()
		return body, -1, fresh, err
	}
	c.repeats++
	hot = c.rng.Intn(len(s.hot))
	return s.hot[hot], hot, specPoint{}, nil
}

// decode is the daemon's request handling before admission.
func decode(body []byte) (job.Spec, error) {
	var req job.Request
	if err := json.Unmarshal(body, &req); err != nil {
		return job.Spec{}, err
	}
	return req.Spec()
}

// service is one set-up of the service workloads.
type service struct {
	dir    string
	cache  *simcache.Cache
	store  *runstore.Store
	runner *job.Runner
	stream *stream
}

func (s *service) close() {
	_ = s.runner.Close(context.Background())
	s.cache.Flush()
}

// newService builds the cache, registry and runner in a fresh directory,
// draws the hot set and prefills it through a second runner without the
// registry, so the measured registry starts empty.
func newService(b *bench, registry bool) (*service, error) {
	dir, err := os.MkdirTemp(b.work, "svc-")
	if err != nil {
		return nil, err
	}
	s := &service{dir: dir}
	if s.cache, err = simcache.NewDiskLRU(filepath.Join(dir, "cache"), cacheCapMB<<20); err != nil {
		return nil, err
	}
	if registry {
		if s.store, err = runstore.Open(filepath.Join(dir, "runs")); err != nil {
			return nil, err
		}
	}
	if s.stream, err = newStream(b); err != nil {
		return nil, err
	}
	prefill := job.NewRunner(job.Options{Workers: workers, QueueDepth: queueDepth, Cache: s.cache, Tool: "scalesimd"})
	for i, body := range s.stream.hot {
		ref, err := submitAndRender(prefill, body, new(bytes.Buffer))
		if err != nil {
			return nil, fmt.Errorf("prefill: %w", err)
		}
		if !ref.equal(s.stream.hotRefs[i]) {
			return nil, fmt.Errorf("prefill of %s differs from its cache-free run", body)
		}
	}
	if err := prefill.Close(context.Background()); err != nil {
		return nil, err
	}
	s.runner = job.NewRunner(job.Options{
		Workers: workers, QueueDepth: queueDepth, Cache: s.cache, Store: s.store, Tool: "scalesimd",
	})
	return s, nil
}

// submitAndRender is one job as a daemon caller sees it: decode, Spec,
// Submit, Wait, and the cycles report rendered into buf.
func submitAndRender(r *job.Runner, body []byte, buf *bytes.Buffer) (reference, error) {
	spec, err := decode(body)
	if err != nil {
		return reference{}, err
	}
	j, err := r.Submit(spec, job.Live{})
	if err != nil {
		return reference{}, err
	}
	if err := j.Wait(context.Background()); err != nil {
		return reference{}, err
	}
	res := j.Result()
	buf.Reset()
	if err := res.WriteReport(buf, "cycles"); err != nil {
		return reference{}, err
	}
	return referenceOf(res.Run, buf.Bytes()), nil
}

// loopStats is what the closed loop measured.
type loopStats struct {
	lat                []time.Duration
	cycles             int64
	repeats, firstSeen int64
	wall               time.Duration
}

// closedLoop runs the clients until d has passed; each sends its next
// request only when the previous one has completed. do performs one
// request for client c and returns its outcome, which closedLoop checks
// against the spec's reference.
func closedLoop(b *bench, s *stream, clients []*client, d time.Duration,
	do func(c int, body []byte, buf *bytes.Buffer) (reference, error)) loopStats {
	var (
		mu  sync.Mutex
		out loopStats
		wg  sync.WaitGroup
	)
	t0 := time.Now()
	deadline := t0.Add(d)
	for ci := range clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl := clients[ci]
			var buf bytes.Buffer
			var lat []time.Duration
			var cycles int64
			r0, f0 := cl.repeats, cl.firstSeen
			for time.Now().Before(deadline) {
				body, hot, fresh, err := cl.next(s)
				if err != nil {
					b.check(false, "stream: %v", err)
					continue
				}
				start := time.Now()
				ref, err := do(ci, body, &buf)
				lat = append(lat, time.Since(start))
				if err != nil {
					b.check(false, "job %s: %v", body, err)
					continue
				}
				cycles += ref.total
				if hot >= 0 {
					b.check(ref.equal(s.hotRefs[hot]), "warm replay of %s differs from its cold result", body)
				} else {
					s.recordFresh(fresh, ref)
				}
			}
			mu.Lock()
			out.lat = append(out.lat, lat...)
			out.cycles += cycles
			out.repeats += cl.repeats - r0
			out.firstSeen += cl.firstSeen - f0
			mu.Unlock()
		}(ci)
	}
	wg.Wait()
	out.wall = time.Since(t0)
	return out
}

// verifyFresh checks every first-seen job against a cache-free run of
// its spec and against the analytical model, after the measured window.
func (b *bench) verifyFresh(s *stream) error {
	for _, p := range s.fresh {
		got, ok := s.freshBy[p]
		if !ok {
			continue // the job failed; closedLoop counted it
		}
		body, err := json.Marshal(p.request())
		if err != nil {
			return err
		}
		spec, err := decode(body)
		if err != nil {
			return err
		}
		run, report, err := simulateDirect(spec)
		if err != nil {
			return err
		}
		var differs string
		if !got.equal(referenceOf(run, report)) {
			differs = fmt.Sprintf("first-seen %s differs from its cache-free run", body)
		}
		m := analyticalMismatch(spec.Config, run)
		if m != "" {
			m = fmt.Sprintf("first-seen %s: %s", body, m)
		}
		b.verifyJob(differs, m)
	}
	return nil
}

func runService(b *bench, registry bool) error {
	var s *service
	if err := b.timeSetup(5, func() (func(), error) {
		var err error
		s, err = newService(b, registry)
		if err != nil {
			return nil, err
		}
		old := s
		return func() { old.close(); _ = os.RemoveAll(old.dir) }, nil
	}); err != nil {
		return err
	}
	clients := make([]*client, workers)
	for i := range clients {
		clients[i] = newClient(b.seed, i)
	}
	viaRunner := func(_ int, body []byte, buf *bytes.Buffer) (reference, error) {
		return submitAndRender(s.runner, body, buf)
	}

	h0, m0, e0 := s.cache.Hits(), s.cache.Misses(), s.cache.Evictions()
	if err := resetPeakRSS(); err != nil {
		return err
	}
	mem := startMem()
	st := closedLoop(b, s.stream, clients, b.seconds, viaRunner)
	n := int64(len(st.lat))
	mem.finish(b, n)
	peak, err := peakRSS()
	if err != nil {
		return err
	}
	b.set("peak_rss_mb", peak)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	retained := len(s.runner.Jobs())
	b.note("job table: %d finished jobs retained, heap %.1f MiB at the end of the window",
		retained, float64(ms.HeapAlloc)/(1<<20))
	hits, misses := s.cache.Hits()-h0, s.cache.Misses()-m0
	b.note("stream: %d jobs, %d repeats (%.4f), %d first-seen (%.4f)",
		n, st.repeats, float64(st.repeats)/float64(n), st.firstSeen, float64(st.firstSeen)/float64(n))
	b.note("cache: %d hits of %d lookups (%.4f); disk tier %.3f MiB against a %d MiB cap, %d evictions",
		hits, hits+misses, float64(hits)/float64(hits+misses), float64(s.cache.DiskBytes())/(1<<20),
		cacheCapMB, s.cache.Evictions()-e0)

	if !b.traced {
		s.close()
		b.set("jobs_per_s", float64(n)/st.wall.Seconds())
		b.set("sim_cycles_per_s", float64(st.cycles)/st.wall.Seconds())
		b.setLatency(st.lat)
		return b.verifyFresh(s.stream)
	}

	b.set("job.retained", float64(retained))
	b.set("go.heap_mb_end", float64(ms.HeapAlloc)/(1<<20))
	b.set("simcache.hit_ratio", float64(hits)/float64(hits+misses))
	b.set("simcache.evictions", float64(s.cache.Evictions()-e0))
	b.set("simcache.disk_mb", float64(s.cache.DiskBytes())/(1<<20))
	b.set("stream.repeat_share", float64(st.repeats)/float64(n))
	var waits []float64
	for _, j := range s.runner.Jobs() {
		in := j.Info()
		sub, err1 := time.Parse(time.RFC3339Nano, in.Submitted)
		start, err2 := time.Parse(time.RFC3339Nano, in.Started)
		if err := errors.Join(err1, err2); err != nil {
			return fmt.Errorf("job %s info: %w", in.ID, err)
		}
		waits = append(waits, float64(start.Sub(sub))/float64(time.Millisecond))
	}
	b.set("job.queue_wait_ms", quantile(waits, 0.5))
	s.close()

	// The steps execSpec and dispatch perform, called directly under one
	// request span per job. Clients alternate traced and untraced
	// requests so both see the same cache and registry state; the ratio
	// of their mean walls is the tracing overhead. The alternation
	// flips every firstSeenEvery requests: a client's first-seen
	// requests keep one position in that cycle, and with an even cycle
	// they would all fall on one side and set its mean.
	var (
		mu              sync.Mutex
		tracedD, plainD time.Duration
		tracedN, plainN int
		seq             [workers]int64
	)
	tr := b.tracer
	direct := func(c int, body []byte, buf *bytes.Buffer) (reference, error) {
		seq[c]++
		req := int64(c+1)<<40 | seq[c]
		t := tr
		if (seq[c]+seq[c]/firstSeenEvery)%2 == 0 {
			t = nil
		}
		t0 := time.Now()
		ref, err := s.requestSteps(t, req, body, buf)
		d := time.Since(t0)
		mu.Lock()
		if t != nil {
			tracedD, tracedN = tracedD+d, tracedN+1
		} else {
			plainD, plainN = plainD+d, plainN+1
		}
		mu.Unlock()
		return ref, err
	}
	closedLoop(b, s.stream, clients, b.seconds/2, direct)
	b.traceOverhead(tracedD/time.Duration(tracedN), plainD/time.Duration(plainN))

	spans := tr.Spans()
	self, count := SelfTimes(spans)
	perReq := func(name string) float64 {
		return self[name].Seconds() * 1e6 / float64(count["request"])
	}
	b.set("job.decode_us", perReq("job.decode"))
	b.set("job.key_us", perReq("job.key"))
	b.set("core.simulate_us", perReq("core.simulate"))
	b.set("obsv.manifest_us", perReq("obsv.manifest"))
	b.set("report.render_us", perReq("report.render"))
	if registry {
		adds := durationsMS(Durations(spans, "runstore.add"))
		b.set("runstore.add_ms_p50", quantile(adds, 0.5))
		b.set("runstore.add_ms_p99", quantile(adds, 0.99))
		fi, err := os.Stat(filepath.Join(s.store.Dir(), "index.json"))
		if err != nil {
			return fmt.Errorf("registry index: %w", err)
		}
		b.set("runstore.index_kb", float64(fi.Size())/1024)
	}
	return b.verifyFresh(s.stream)
}

// requestSteps performs one job the way the runner's execSpec and
// dispatch do — decode, validate and key, core.New and Simulate against
// the shared cache, Manifest, the registry Add, and the cycles report —
// with a span around each step under one request span.
func (s *service) requestSteps(tr *Tracer, req int64, body []byte, buf *bytes.Buffer) (reference, error) {
	root := tr.Begin(req, 0, "request")
	defer root.End()
	step := func(name string) Open { return tr.Begin(req, root.ID(), name) }

	sp := step("job.decode")
	spec, err := decode(body)
	sp.End()
	if err != nil {
		return reference{}, err
	}
	sp = step("job.key")
	err = spec.Validate()
	_ = spec.Key()
	sp.End()
	if err != nil {
		return reference{}, err
	}

	sp = step("core.simulate")
	progress := obsv.NewProgress(io.Discard, "job")
	sim, err := core.New(spec.Config, core.Options{
		Workers: spec.Workers, DRAM: spec.DRAM, DRAMBandwidth: spec.DRAMBandwidth,
		Cache: s.cache, Progress: progress, Context: context.Background(),
	})
	var run core.RunResult
	if err == nil {
		run, err = sim.Simulate(spec.Topology)
		progress.Finish()
	}
	sp.End()
	if err != nil {
		return reference{}, err
	}

	sp = step("obsv.manifest")
	m := sim.Manifest(run)
	m.Tool = "scalesimd"
	sp.End()
	if s.store != nil {
		sp = step("runstore.add")
		_, err := s.store.Add(m)
		sp.End()
		if err != nil {
			return reference{}, err
		}
	}

	sp = step("report.render")
	buf.Reset()
	err = (&job.Result{Run: run, Manifest: m}).WriteReport(buf, "cycles")
	sp.End()
	if err != nil {
		return reference{}, err
	}
	return referenceOf(run, buf.Bytes()), nil
}
