package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"

	"scalesim/internal/analytical"
	"scalesim/internal/batch"
	"scalesim/internal/config"
	"scalesim/internal/core"
	"scalesim/internal/dataflow"
	"scalesim/internal/partition"
	"scalesim/internal/topology"
)

// The correctness gate. Every simulated statistic a job produces is
// reduced to a digest — total cycles and, per layer, cycles, stall
// cycles, DRAM reads and writes (plus DRAM timing-model statistics when
// the model ran), and for scale-out runs the partition grid, runtime and
// traffic. The fixed workloads (cold_paper items, sweep_shared design
// points) compare against digests pinned in golden.json; the service
// workloads compare every job against a cache-free reference run of its
// spec. Independently of any pin, each stall-free systolic layer's
// cycles must equal the analytical model's runtime, which is exact there.

func digest(write func(h hash.Hash)) string {
	h := sha256.New()
	write(h)
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// runDigest hashes every simulated statistic of a core run.
func runDigest(r core.RunResult) string {
	return digest(func(h hash.Hash) {
		fmt.Fprintf(h, "total=%d macs=%d\n", r.TotalCycles, r.TotalMACs)
		for _, l := range r.Layers {
			fmt.Fprintf(h, "%d %d %d %d\n", l.Compute.Cycles, l.StallCycles,
				l.Memory.DRAMReads(), l.Memory.OfmapDRAMWrites)
			if l.DRAMStats != nil {
				fmt.Fprintf(h, "dram %+v\n", *l.DRAMStats)
			}
		}
	})
}

// partitionDigest hashes a scale-out sweep: grid, runtime and traffic of
// every partition count.
func partitionDigest(rs []partition.Result) string {
	return digest(func(h hash.Hash) {
		for _, r := range rs {
			fmt.Fprintf(h, "%s %d %d %d %d %d %d\n", r.Spec, r.Cycles, r.MACs,
				r.SRAMReads, r.SRAMWrites, r.DRAMReads, r.DRAMWrites)
		}
	})
}

// rowDigest hashes one refined design point.
func rowDigest(r batch.Row) string {
	return digest(func(h hash.Hash) {
		fmt.Fprintf(h, "%s %d %d %d\n", r.Label(), r.TotalCycles, r.DRAMReads, r.DRAMWrites)
	})
}

// analyticalMismatch returns a description of the first stall-free
// systolic layer whose simulated cycles differ from analytical.Runtime,
// or "" when all agree. Vector-unit nodes have no analytical model and
// are skipped; runs with a bounded DRAM link are not stall-free and must
// not be passed here.
func analyticalMismatch(cfg config.Config, r core.RunResult) string {
	for i, l := range r.Layers {
		if l.Vector != nil {
			continue
		}
		want := analytical.Runtime(dataflow.Map(l.Compute.Layer, cfg.Dataflow),
			int64(cfg.ArrayHeight), int64(cfg.ArrayWidth))
		if l.Compute.Cycles != want {
			return fmt.Sprintf("layer %d %q: simulated %d cycles, analytical %d",
				i, l.Compute.Layer.Name, l.Compute.Cycles, want)
		}
	}
	return ""
}

// scaleOutMismatch is analyticalMismatch for a scale-out sweep.
func scaleOutMismatch(l topology.Layer, df config.Dataflow, rs []partition.Result) string {
	m := dataflow.Map(l, df)
	for _, r := range rs {
		want := analytical.ScaleOutRuntime(m, r.Spec.Parts.Pr, r.Spec.Parts.Pc, r.Spec.Shape.R, r.Spec.Shape.C)
		if r.Cycles != want {
			return fmt.Sprintf("%s: simulated %d cycles, analytical %d", r.Spec, r.Cycles, want)
		}
	}
	return ""
}

// rowMismatch checks a refined design point against the analytical
// runtime of its workload on its array.
func rowMismatch(p batch.Point, r batch.Row) string {
	var want int64
	for _, l := range p.Topology.Layers {
		want += analytical.Runtime(dataflow.Map(l, p.Dataflow), int64(p.Array[0]), int64(p.Array[1]))
	}
	if r.TotalCycles != want {
		return fmt.Sprintf("%s: simulated %d cycles, analytical %d", r.Label(), r.TotalCycles, want)
	}
	return ""
}

// pinGolden runs every fixed output once — each cold_paper item and every
// point of the sweep_shared band — and writes their digests as the
// golden.json document.
func pinGolden(w io.Writer) error {
	pins := make(map[string]string)
	for _, it := range newColdItems() {
		out, err := it.run()
		if err != nil {
			return fmt.Errorf("%s: %w", it.name, err)
		}
		pins[coldID(it.name)] = out.digest
	}
	sw, err := newSweep(1)
	if err != nil {
		return err
	}
	res, _, _, err := sw.exploreObserved()
	if err != nil {
		return err
	}
	for _, r := range res.Rows {
		pins[sweepID(r.Batch)] = rowDigest(r.Batch)
	}
	data, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
