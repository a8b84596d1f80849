// Command elsid is the long-running ELSI server: it builds a learned
// index over a generated data set, wraps it in the update processor
// (learned rebuild trigger, background rebuilds) and the batching
// serving engine, and exposes point/window/kNN queries plus
// insert/delete over two transports at once — an HTTP+JSON API and
// the compact binary TCP protocol (internal/protocol). GET /stats
// reports the engine and rebuild counters.
//
// Usage:
//
//	elsid -http 127.0.0.1:8080 -tcp 127.0.0.1:9090 -n 100000
//	curl -s localhost:8080/query/knn -d '{"x":0.5,"y":0.5,"k":3}'
//
// SIGINT/SIGTERM shut down gracefully: listeners stop, in-flight
// requests drain through the engine's shutdown flush, and the process
// exits once every admitted request has been answered.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"

	"elsi/internal/base"
	"elsi/internal/core"
	"elsi/internal/dataset"
	"elsi/internal/engine"
	"elsi/internal/geo"
	"elsi/internal/index"
	"elsi/internal/methods"
	"elsi/internal/monitor"
	"elsi/internal/persist"
	"elsi/internal/qcache"
	"elsi/internal/rebuild"
	"elsi/internal/rmi"
	"elsi/internal/scorer"
	"elsi/internal/server"
	"elsi/internal/shard"
	"elsi/internal/wal"
	"elsi/internal/zm"
)

func main() {
	var (
		httpAddr = flag.String("http", "127.0.0.1:8080", "HTTP listen address (empty disables)")
		tcpAddr  = flag.String("tcp", "127.0.0.1:9090", "binary-protocol listen address (empty disables)")
		family   = flag.String("index", "zm", "index family: zm or brute")
		data     = flag.String("dataset", dataset.Uniform, "initial data set")
		n        = flag.Int("n", 100000, "initial cardinality")
		seed     = flag.Int64("seed", 1, "random seed")
		fu       = flag.Int("fu", 0, "rebuild-predictor check frequency in updates (0 = n/10)")
		shards   = flag.Int("shards", 1, "spatial shard count (1 = unsharded)")
		workers  = flag.Int("workers", 0, "query workers per batch (0 = GOMAXPROCS)")
		maxBatch = flag.Int("max-batch", 64, "flush a batch at this size")
		flush    = flag.Duration("flush", 200*time.Microsecond, "flush a batch after this deadline")
		inflight = flag.Int("max-inflight", 4096, "admitted in-flight request bound")
		dataDir  = flag.String("data", "", "durable data directory: WAL + snapshots (empty = in-memory only)")
		fsync    = flag.String("fsync", "always", "WAL fsync policy: always, none, or a group-commit interval like 5ms")
		cache    = flag.Bool("cache", false, "enable the hot-region result cache for point and small-window queries")
		adaptive = flag.Bool("adaptive", false, "monitor live traffic per shard and re-select index methods on background rebuilds (zm only)")
	)
	flag.Parse()

	cfg := engine.Config{
		Workers:       *workers,
		MaxBatch:      *maxBatch,
		FlushInterval: *flush,
		MaxInFlight:   *inflight,
	}
	if *cache {
		cfg.Cache = &qcache.Config{}
	}
	if err := run(*httpAddr, *tcpAddr, *family, *data, *dataDir, *fsync, *n, *seed, *fu, *shards, *adaptive, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "elsid:", err)
		os.Exit(1)
	}
}

func run(httpAddr, tcpAddr, family, data, dataDir, fsync string, n int, seed int64, fu, shards int, adaptive bool, cfg engine.Config) error {
	log.SetPrefix("elsid: ")
	log.SetFlags(log.Ltime)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	boot := time.Now()

	// The learners train in the background from here on, beside the
	// data set and the index build; only their consumers wait for them.
	pred, sc, err := startLearners(ctx, seed, adaptive)
	if err != nil {
		return err
	}

	// With a data directory that already holds a store, the initial
	// data set comes off disk, not the generator.
	recovered := dataDir != "" && persist.Exists(dataDir)
	var pts []geo.Point
	if !recovered {
		pts, err = dataset.Generate(data, n, seed)
		if err != nil {
			return err
		}
	}
	if fu <= 0 {
		fu = n / 10
	}
	dataDone := time.Since(boot)

	be, closeBE, err := buildBackend(family, pts, pred, sc, fu, shards, cfg.Workers, dataDir, fsync)
	if err != nil {
		return err
	}
	built := time.Since(boot)
	if adaptive {
		log.Printf("adaptive selection on: per-shard monitors feed the ELSI scorer at every rebuild")
	}
	if cfg.Cache != nil {
		log.Printf("result cache on: generation-stamped, point + small-window queries")
	}
	eng := engine.NewWithBackend(be, nil, cfg)
	srv := server.New(eng)
	if err := srv.Start(ctx, httpAddr, tcpAddr); err != nil {
		return err
	}
	listening := time.Since(boot)
	if a := srv.HTTPAddr(); a != "" {
		log.Printf("HTTP on http://%s (POST /query/{point,window,knn}, /insert, /delete; GET /stats)", a)
	}
	if a := srv.TCPAddr(); a != "" {
		log.Printf("binary protocol on %s", a)
	}
	if st := be.BackendStats(); len(st.Shards) > 1 {
		log.Printf("serving %d %s points over %s across %d shards", st.Len, data, family, len(st.Shards))
	} else {
		log.Printf("serving %d %s points over %s", st.Len, data, family)
	}
	booted := make(chan struct{})
	go func() {
		defer close(booted)
		logBoot(ctx, boot, recovered, dataDone, built-dataDone, listening, pred, sc)
	}()

	<-ctx.Done()
	stop()
	log.Printf("shutdown signal: draining...")
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return err
	}
	<-booted // the cancelled context stops any training still running
	st := eng.Stats()
	log.Printf("drained: %d point, %d window, %d kNN queries, %d inserts, %d deletes, %d rebuilds, %d batches",
		st.PointQueries, st.WindowQueries, st.KNNQueries, st.Inserts, st.Deletes, st.Rebuilds, st.Batches)
	if closeBE != nil {
		t0 := time.Now()
		if err := closeBE(); err != nil {
			return err
		}
		log.Printf("persisted: clean-shutdown snapshot + wal close in %v", time.Since(t0).Round(time.Millisecond))
	}
	return nil
}

// logBoot waits for the learners and logs the boot phases, each a
// monotonic duration: generating the data set and building the index
// (or recovering both from disk), then the time since boot at which
// the listeners took connections and at which each learner had
// finished training.
func logBoot(ctx context.Context, boot time.Time, recovered bool, data, build, listening time.Duration, pred *rebuild.Predictor, sc *scorer.Scorer) {
	ms := func(d time.Duration) string { return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond)) }
	line := fmt.Sprintf("boot: data generated in %s, build %s", ms(data), ms(build))
	if recovered {
		line = "boot: data and index recovered in " + ms(data+build)
	}
	line += ", listening after " + ms(listening)
	pred.Wait()
	line += ", predictor ready after " + ms(time.Since(boot))
	if sc != nil {
		sc.PredictSpeedups(methods.NameOG, 1, 0) // waits for the scorer's training
		line += ", scorer ready after " + ms(time.Since(boot))
	}
	if ctx.Err() != nil {
		line += " (training stopped by shutdown)"
	}
	log.Print(line)
}

// startLearners starts training the rebuild predictor and, with
// adaptive, the method scorer on background goroutines bound to ctx.
// Both train on fabricated samples seeded by seed; neither is needed
// to build, recover or serve reads — a write's rebuild-trigger check
// waits for the predictor, and adaptive rebuilds wait for the scorer
// when they select a method.
func startLearners(ctx context.Context, seed int64, adaptive bool) (*rebuild.Predictor, *scorer.Scorer, error) {
	pred, err := rebuild.TrainPredictorCtx(ctx,
		rebuild.HeuristicSamples(rand.New(rand.NewSource(seed)), 1000),
		rebuild.PredictorConfig{Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	if !adaptive {
		return pred, nil, nil
	}
	sc, err := scorer.TrainCtx(ctx, scorer.HeuristicSamples(), scorer.Config{Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	return pred, sc, nil
}

// buildBackend assembles the serving backend: for shards <= 1 a single
// update processor, otherwise a Hilbert-partitioned router of shard
// processors sharing one rebuild predictor. The per-shard predictor
// check frequency is fu divided across the shards, keeping the
// fleet-wide check cadence of the unsharded configuration. The
// learners may still be training: nothing here waits for them.
//
// With a data directory the backend is the durable persist.Store —
// recovered from disk when the directory already holds one (pts is
// ignored), created and snapshotted otherwise. The returned closer is
// non-nil exactly in the durable case; run calls it after the drain so
// the clean-shutdown snapshot covers every acknowledged update.
//
// With a scorer (-adaptive), each shard processor gets a workload
// monitor and its own ELSI System (learned selection over the shared
// scorer): the traffic observed since the last rebuild re-scores the
// method pool at the next one. The initial build uses the family's
// own factory and never asks the scorer. Wired through configure so
// it applies identically to in-memory, created, and recovered durable
// backends.
func buildBackend(family string, pts []geo.Point, pred *rebuild.Predictor, sc *scorer.Scorer, fu, shards, workers int, dataDir, fsync string) (engine.Backend, func() error, error) {
	factory, mapKey, err := familyStack(family)
	if err != nil {
		return nil, nil, err
	}
	configure := func(p *rebuild.Processor) {
		p.Retry = &rebuild.RetryPolicy{}
	}
	if sc != nil {
		if family != "zm" {
			return nil, nil, fmt.Errorf("-adaptive needs a model-built family (zm), not %q", family)
		}
		configure = func(p *rebuild.Processor) {
			p.Retry = &rebuild.RetryPolicy{}
			sys, err := core.NewSystem(core.Config{
				Trainer:  rmi.PiecewiseTrainer(1.0 / 256),
				Selector: core.SelectorLearned,
				Scorer:   sc,
			})
			if err != nil {
				log.Printf("adaptive wiring failed, shard stays static: %v", err)
				return
			}
			mon := monitor.New(geo.UnitRect)
			p.Monitor = mon
			p.Workload = &rebuild.WorkloadAdapter{Mon: mon, Sys: sys}
			p.Factory = func() rebuild.Rebuildable {
				return zm.New(zm.Config{Space: geo.UnitRect, Builder: sys, Fanout: 8})
			}
		}
	}
	sfu := fu
	if shards > 1 {
		sfu = max(1, fu/shards)
	}

	if dataDir != "" {
		pol, interval, err := wal.ParsePolicy(fsync)
		if err != nil {
			return nil, nil, err
		}
		pcfg := persist.Config{
			Dir:       dataDir,
			WAL:       wal.Options{Policy: pol, Interval: interval},
			Shards:    shards,
			Space:     geo.UnitRect,
			Router:    shard.Config{Workers: workers},
			Factory:   factory,
			MapKey:    mapKey,
			Pred:      pred,
			Fu:        sfu,
			Configure: configure,
		}
		if persist.Exists(dataDir) {
			store, err := persist.Open(pcfg)
			if err != nil {
				return nil, nil, err
			}
			rec := store.Recovery()
			for _, sr := range rec.Shards {
				torn := ""
				if sr.TornTail {
					torn = ", torn wal tail truncated"
				}
				log.Printf("recovered shard %d: snapshot @ LSN %d (%d bytes) in %v, %d wal records replayed in %v%s",
					sr.Shard, sr.SnapshotLSN, sr.SnapshotBytes, sr.Load.Round(time.Microsecond),
					sr.WALRecords, sr.Replay.Round(time.Microsecond), torn)
			}
			log.Printf("recovery complete: %d shards, no index model trained, %v total", len(rec.Shards), rec.Total.Round(time.Millisecond))
			return store, store.Close, nil
		}
		store, err := persist.Create(pcfg, pts)
		if err != nil {
			return nil, nil, err
		}
		log.Printf("created durable store in %s (%d shards, fsync=%s)", dataDir, store.Router().NumShards(), fsync)
		return store, store.Close, nil
	}

	mk := func(sub []geo.Point) (*rebuild.Processor, error) {
		proc, err := rebuild.NewProcessor(factory(), pred, sub, mapKey, sfu)
		if err != nil {
			return nil, err
		}
		proc.Factory = factory
		configure(proc)
		return proc, nil
	}
	if shards <= 1 {
		proc, err := mk(pts)
		if err != nil {
			return nil, nil, err
		}
		return engine.NewSingle(proc, workers), nil, nil
	}
	r, err := shard.New(pts, geo.UnitRect, shard.Config{Shards: shards, Workers: workers}, mk)
	if err != nil {
		return nil, nil, err
	}
	return r, nil, nil
}

// familyStack returns the index factory and sort-key extractor of an
// index family.
func familyStack(family string) (func() rebuild.Rebuildable, func(geo.Point) float64, error) {
	switch family {
	case "zm":
		factory := func() rebuild.Rebuildable {
			return zm.New(zm.Config{
				Space:   geo.UnitRect,
				Builder: &base.Direct{Trainer: rmi.PiecewiseTrainer(1.0 / 256)},
				Fanout:  8,
			})
		}
		return factory, factory().(*zm.Index).MapKey, nil
	case "brute":
		factory := func() rebuild.Rebuildable { return index.NewBruteForce() }
		return factory, func(p geo.Point) float64 { return p.X }, nil
	default:
		return nil, nil, fmt.Errorf("unknown index family %q (want zm or brute)", family)
	}
}
