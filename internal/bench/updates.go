package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"elsi/internal/core"
	"elsi/internal/dataset"
	"elsi/internal/geo"
	"elsi/internal/rebuild"
	"elsi/internal/stats"
	"elsi/internal/zm"
)

// updateRun drives the Figure 15/16 workload for one index variant:
// build on 10% of OSM1, insert Skewed points, and measure at every
// 2^i% checkpoint.
type updateRun struct {
	name string
	proc *rebuild.Processor
}

// updateCheckpoint is one measurement row of the insertion studies.
type updateCheckpoint struct {
	InsertRatio float64 // inserted / initial, in percent
	AvgInsert   time.Duration
	PointQuery  time.Duration
	WindowQuery time.Duration
	Recall      float64
	Rebuilds    int
}

// runUpdates performs the insertion workload and returns one row per
// 2^i% checkpoint up to maxRatio (512% in the paper).
func (e *Env) runUpdates(run *updateRun, initial, inserts []geo.Point, maxRatio int, withWindows bool) ([]updateCheckpoint, error) {
	n0 := len(initial)
	var rows []updateCheckpoint
	inserted := 0
	for ratio := 1; ratio <= maxRatio; ratio *= 2 {
		target := n0 * ratio / 100
		t0 := time.Now()
		count := 0
		for inserted < target && inserted < len(inserts) {
			run.proc.Insert(inserts[inserted])
			inserted++
			count++
		}
		var avgIns time.Duration
		if count > 0 {
			avgIns = time.Since(t0) / time.Duration(count)
		}
		all := append(append([]geo.Point(nil), initial...), inserts[:inserted]...)
		cp := updateCheckpoint{
			InsertRatio: float64(ratio),
			AvgInsert:   avgIns,
			PointQuery:  PointQueryTime(run.proc, all, e.Queries, e.Seed+41),
			Rebuilds:    run.proc.Rebuilds(),
		}
		if withWindows {
			wq := e.Queries / 4
			if wq < 10 {
				wq = 10
			}
			r := WindowQueryTime(run.proc, all, wq, 0.0001, e.Seed+43)
			cp.WindowQuery = r.AvgTime
			cp.Recall = r.Recall
		}
		rows = append(rows, cp)
	}
	return rows, nil
}

// updateVariants builds the Figure 15 comparison set: RR* (traditional
// reference), and each learned index with ELSI, without global
// rebuilds ("-F") and with the rebuild predictor ("-R").
func (e *Env) updateVariants(initial []geo.Point) ([]*updateRun, error) {
	var runs []*updateRun
	// RR*: self-balancing insertions, no rebuilds
	rr, err := NewTraditional(NameRR)
	if err != nil {
		return nil, err
	}
	rrProc, err := rebuild.NewProcessor(asRebuildable(rr), nil, initial, func(p geo.Point) float64 { return p.X }, 1<<30)
	if err != nil {
		return nil, err
	}
	rrProc.UseBuiltin = true
	runs = append(runs, &updateRun{NameRR, rrProc})

	fu := len(initial) / 8
	if fu < 64 {
		fu = 64
	}
	for _, name := range LearnedNames() {
		for _, mode := range []string{"-F", "-R"} {
			ix, err := NewLearned(name, e.System(name, 0.8, core.SelectorLearned, ""), len(initial))
			if err != nil {
				return nil, err
			}
			var pred *rebuild.Predictor
			if mode == "-R" {
				pred = e.Predictor
			}
			proc, err := rebuild.NewProcessor(asRebuildable(ix), pred, initial, mapKeyOf(ix), fu)
			if err != nil {
				return nil, err
			}
			proc.UseBuiltin = true // RSMI and LISA use built-in inserts; ML falls back to the delta list
			runs = append(runs, &updateRun{name + mode, proc})
		}
	}
	return runs, nil
}

// mapKeyOf extracts an index's key mapping for CDF maintenance; it
// falls back to the x coordinate (a valid 1-D summary) when the index
// exposes none.
func mapKeyOf(ix interface{}) func(geo.Point) float64 {
	if m, ok := ix.(interface{ MapKey(geo.Point) float64 }); ok {
		return m.MapKey
	}
	return func(p geo.Point) float64 { return p.X }
}

// asRebuildable adapts any built index to rebuild.Rebuildable (every
// index.Index already satisfies it; this is a type bridge).
func asRebuildable(ix interface{}) rebuild.Rebuildable {
	return ix.(rebuild.Rebuildable)
}

// Fig15 reproduces Figure 15: average insertion time (a) and point
// query time (b) as skewed insertions grow from 1% to 512% of the
// initial data, for RR* and the ELSI-built indices with ("-R") and
// without ("-F") global rebuilds.
func Fig15(w io.Writer, e *Env) error {
	return e.updateStudy(w, false)
}

// Fig16 reproduces Figure 16: window query time (a) and recall (b)
// under the same skewed-insertion workload.
func Fig16(w io.Writer, e *Env) error {
	return e.updateStudy(w, true)
}

// sampleLatenciesWhile issues point queries one at a time, recording
// each latency, until cond turns false or max samples are taken. It is
// how the concurrent study measures the tail *during* an in-flight
// rebuild rather than only at steady state.
func sampleLatenciesWhile(proc *rebuild.Processor, qs []geo.Point, cond func() bool, max int) []time.Duration {
	out := make([]time.Duration, 0, max)
	for i := 0; len(out) < max && cond(); i++ {
		q := qs[i%len(qs)]
		t0 := time.Now()
		proc.PointQuery(q)
		out = append(out, time.Since(t0))
	}
	return out
}

// ExtConcurrent measures point-query tail latency while a rebuild is
// in flight under concurrent insert load, contrasting the blocking
// rebuild path (no Factory: the build holds the write lock and every
// reader stalls) with the background path (Factory set: build on a
// goroutine against a frozen snapshot, atomic swap, queries served
// from the old index + delta view throughout). The background rows
// should show a flat tail; the blocking rows show the build time
// leaking into P99/max.
// ExtConcurrentCtx is the cancellable form.
func ExtConcurrent(w io.Writer, e *Env) error {
	return ExtConcurrentCtx(context.Background(), w, e)
}

// ExtConcurrentCtx is ExtConcurrent with cancellation: an expired ctx
// stops the insert writer between updates, so the study unwinds
// instead of hammering the processor until the rebuild lands.
func ExtConcurrentCtx(ctx context.Context, w io.Writer, e *Env) error {
	n0 := e.N / 4
	if n0 < 2000 {
		n0 = 2000
	}
	initial := dataset.MustGenerate(dataset.OSM1, n0, e.Seed)
	rng := rand.New(rand.NewSource(e.Seed + 331))
	qs := dataset.QueriesFromData(rng, initial, max(e.Queries, 200))
	inserts := dataset.SkewedPoints(rng, n0, 4)
	// the during-rebuild phase samples until the rebuild completes; the
	// cap only bounds memory if a build drags on for many seconds
	maxSamples := 200000

	tw := table(w)
	defer tw.Flush()
	row(tw, "variant", "phase", "samples", "mean", "p50", "p99", "max", "rebuilds", "pending")

	for _, variant := range []string{"blocking", "background"} {
		// one System per variant: it is safe for concurrent builds and
		// constructing it (MR pool warm-up) is too costly per rebuild
		system := e.System(NameZM, 0.8, core.SelectorLearned, "")
		newIndex := func() rebuild.Rebuildable {
			return zm.New(zm.Config{
				Space:   geo.UnitRect,
				Builder: system,
				Fanout:  4,
			})
		}
		serving := newIndex().(*zm.Index)
		proc, err := rebuild.NewProcessor(serving, nil, initial, serving.MapKey, 1<<30)
		if err != nil {
			return err
		}
		if variant == "background" {
			proc.Factory = newIndex
		}

		report := func(phase string, samples []time.Duration) {
			s := stats.Summarize(samples)
			row(tw, variant, phase, s.Count, micros(s.Mean), micros(s.P50), micros(s.P99), micros(s.Max),
				proc.Rebuilds(), proc.PendingUpdates())
		}

		// steady state before any update pressure
		report("steady", sampleLatenciesWhile(proc, qs, func() bool { return true }, max(e.Queries, 200)))

		// concurrent load: a writer streams skewed inserts while the
		// rebuild runs and the main goroutine keeps querying
		stop := make(chan struct{})
		var writerWG sync.WaitGroup
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				case <-ctx.Done():
					return
				default:
				}
				proc.Insert(inserts[i%len(inserts)])
			}
		}()

		rebuildDone := make(chan struct{})
		go func() {
			defer close(rebuildDone)
			proc.Rebuild() // blocking variant stalls here; background returns at once
			proc.WaitRebuild()
		}()
		inFlight := func() bool {
			select {
			case <-rebuildDone:
				return false
			default:
				return true
			}
		}
		during := sampleLatenciesWhile(proc, qs, inFlight, maxSamples)
		close(stop)
		writerWG.Wait()
		<-rebuildDone
		report("during-rebuild", during)

		// steady state again, on the rebuilt index
		report("after-swap", sampleLatenciesWhile(proc, qs, func() bool { return true }, max(e.Queries, 200)))
	}
	return nil
}

func (e *Env) updateStudy(w io.Writer, withWindows bool) error {
	n0 := e.N / 10
	if n0 < 500 {
		n0 = 500
	}
	initial := dataset.MustGenerate(dataset.OSM1, n0, e.Seed)
	rng := rand.New(rand.NewSource(e.Seed + 101))
	inserts := dataset.SkewedPoints(rng, n0*512/100+1, 4)
	runs, err := e.updateVariants(initial)
	if err != nil {
		return err
	}
	tw := table(w)
	defer tw.Flush()
	if withWindows {
		row(tw, "index", "insert_ratio%", "window_query", "recall", "rebuilds")
	} else {
		row(tw, "index", "insert_ratio%", "avg_insert", "point_query", "rebuilds")
	}
	for _, run := range runs {
		rows, err := e.runUpdates(run, initial, inserts, 512, withWindows)
		if err != nil {
			return err
		}
		for _, cp := range rows {
			if withWindows {
				row(tw, run.name, fmt.Sprintf("%.0f", cp.InsertRatio), micros(cp.WindowQuery),
					fmt.Sprintf("%.3f", cp.Recall), cp.Rebuilds)
			} else {
				row(tw, run.name, fmt.Sprintf("%.0f", cp.InsertRatio), micros(cp.AvgInsert),
					micros(cp.PointQuery), cp.Rebuilds)
			}
		}
	}
	return nil
}
