// Command chameleon-serve exposes one continual learner over HTTP: predict
// requests are micro-batched through the learner's batched eval path, observe
// requests train it online in arrival order, and SIGTERM drains in-flight
// work and writes a checkpoint the next start can resume bit-identically.
//
//	chameleon-serve -dataset synthetic -method chameleon        # no pipeline build, starts in seconds
//	chameleon-serve -dataset core50 -method chameleon -scale test
//	chameleon-serve -dataset synthetic -checkpoint serve.ckpt -resume
//	chameleon-serve -dataset synthetic -fleet-users 10000 -fleet-hot 256 -fleet-dir fleet/
//	chameleon-serve -dataset synthetic -wal-dir wal/                       # durable observe log
//	chameleon-serve -dataset synthetic -wal-dir wal2/ -standby http://127.0.0.1:8080 \
//	    -primary-wal wal/ -addr 127.0.0.1:8081                             # warm standby
//
// With -fleet-users the server hosts a multi-tenant fleet instead of one
// learner: every request carries a "user" field, users are consistent-hashed
// onto single-writer shards, and only -fleet-hot learners stay resident —
// colder users are LRU-evicted to per-user checkpoints under -fleet-dir and
// faulted back bit-identically on their next request (internal/fleet).
//
// With -wal-dir every accepted observe batch is appended to a durable,
// CRC-framed observe log before the learner applies it, so any state is
// reconstructible from (checkpoint, log suffix): a crashed server replays
// the log tail its checkpoint missed, and a warm standby (-standby) streams
// snapshot + log over HTTP, stays bit-identical, and takes over — on the
// primary's graceful drain or on probe failure — with zero failed requests
// under a retrying client (internal/replication, DESIGN.md §18).
//
// Endpoints: POST /v1/predict, POST /v1/observe, GET /v1/stats, GET
// /v1/replication/{snapshot,log,verify}, GET /metrics, GET /healthz — see
// API.md; cmd/chameleon-loadgen drives it under load (and through failovers
// with -failover).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"chameleon/internal/cl"
	"chameleon/internal/cli"
	"chameleon/internal/core"
	"chameleon/internal/exp"
	"chameleon/internal/fleet"
	"chameleon/internal/mobilenet"
	"chameleon/internal/obs"
	"chameleon/internal/replication"
	"chameleon/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("chameleon-serve: ")
	var cfg cli.RunConfig
	cfg.Stream.ExtraDatasets = []string{"synthetic"}
	cfg.Bind(flag.CommandLine)
	var fleetCfg cli.Fleet
	fleetCfg.Bind(flag.CommandLine)
	var repl cli.Replication
	repl.Bind(flag.CommandLine)
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
		classes      = flag.Int("classes", 10, "label-space width for -dataset synthetic")
		batchWindow  = flag.Duration("batch-window", 2*time.Millisecond, "longest the engine waits for predicts already being decoded, to answer them in one batch (a lone predict never waits)")
		maxBatch     = flag.Int("max-batch", 64, "max predict requests answered by one PredictBatch call")
		queueDepth   = flag.Int("queue", 256, "bounded depth of the predict and observe queues (full queues shed with 429)")
		reqTimeout   = flag.Duration("request-timeout", 10*time.Second, "max time a request may wait for the engine before 504")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max time to drain in-flight work on shutdown")
	)
	flag.Parse()
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}
	if err := fleetCfg.Validate(); err != nil {
		log.Fatal(err)
	}
	if err := repl.Validate(); err != nil {
		log.Fatal(err)
	}
	if cfg.Precision == cli.PrecisionFP64 {
		log.Fatal("-precision fp64 is a training reference tier; the serving path runs the fast fp32 tier only")
	}
	if fleetCfg.Enabled() && cfg.Checkpoint.Path != "" {
		log.Fatal("-checkpoint is the single-learner drain target; fleet mode persists per user under -fleet-dir instead")
	}
	if fleetCfg.Enabled() && repl.Standby != "" {
		log.Fatal("-standby replicates a single learner; it is incompatible with fleet mode")
	}
	stop, err := cfg.Perf.Start(log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	defer stop()
	sc, err := cfg.Scale()
	if err != nil {
		log.Fatal(err)
	}

	// Assemble the learner: a synthetic backbone (self-contained, starts in
	// seconds) or the full cached benchmark pipeline.
	var backbone *mobilenet.Model
	nClasses := *classes
	if cfg.Dataset == "synthetic" {
		backbone, err = mobilenet.New(mobilenet.DefaultConfig(nClasses, cfg.Seed))
		if err != nil {
			log.Fatalf("backbone: %v", err)
		}
	} else {
		set, err := exp.BuildLatentSet(cfg.Dataset, sc, cfg.CacheDir, func(f string, a ...any) { log.Printf(f, a...) })
		if err != nil {
			log.Fatalf("pipeline: %v", err)
		}
		backbone = set.Backbone
		nClasses = set.Dataset.Cfg.NumClasses
	}
	meter := &cl.TrafficMeter{}
	meter.Bind(obs.Default())

	srvCfg := serve.Config{
		LatentShape:    backbone.LatentShape,
		Classes:        nClasses,
		Backbone:       backbone,
		BatchWindow:    *batchWindow,
		MaxBatch:       *maxBatch,
		QueueDepth:     *queueDepth,
		RequestTimeout: *reqTimeout,
		HandoffTimeout: repl.HandoffTimeout,
	}

	// Single-learner mode hosts one learner behind the engine goroutine;
	// fleet mode hosts up to -fleet-users learners behind sharded engines,
	// each user isolated under its own deterministic seed, with cold users
	// LRU-evicted to per-user checkpoints in -fleet-dir and faulted back
	// bit-identically on their next request.
	var learner cl.Learner
	var wlog *replication.Log
	serving := ""
	if fleetCfg.Enabled() {
		flCfg := fleet.Config{
			New: func(user string) (cl.Learner, error) {
				return exp.NewLearnerOn(cfg.Spec(), backbone, nClasses, sc, fleet.UserSeed(cfg.Seed, user), meter)
			},
			Dir:        fleetCfg.Dir,
			MaxUsers:   fleetCfg.Users,
			HotSet:     fleetCfg.Hot,
			Shards:     fleetCfg.Shards,
			QueueDepth: fleetCfg.QueueDepth,
		}
		if repl.Enabled() {
			// The fleet's recovery story: user-tagged records in one shared
			// log repair corrupt eviction checkpoints and crashed-before-
			// eviction users (fresh construction + per-user replay).
			wlog, err = replication.Open(repl.WALDir, replication.Options{
				SegmentBytes: int64(repl.SegmentMB) << 20,
				SyncEvery:    repl.SyncEvery,
			})
			if err != nil {
				log.Fatalf("observe log: %v", err)
			}
			flCfg.WAL = wlog
			flCfg.LatentShape = backbone.LatentShape
			srvCfg.WAL = wlog
		}
		fl, err := fleet.New(flCfg)
		if err != nil {
			log.Fatalf("fleet: %v", err)
		}
		srvCfg.Fleet = fl
		st := fl.Stats()
		serving = fmt.Sprintf("fleet of %s learners (max %d users, hot-set %d across %d shards → %s)",
			cfg.Method.Name, fleetCfg.Users, st.HotSet, st.Shards, fleetCfg.Dir)
	} else {
		newLearner := func() (cl.Learner, error) {
			return exp.NewLearnerOn(cfg.Spec(), backbone, nClasses, sc, cfg.Seed, meter)
		}
		learner, err = newLearner()
		if err != nil {
			log.Fatal(err)
		}
		srvCfg.CheckpointPath = cfg.Checkpoint.Path
		srvCfg.CheckpointEvery = cfg.Checkpoint.Every
		if cfg.Checkpoint.Resume && cfg.Checkpoint.Path != "" && repl.Standby == "" {
			if _, err := os.Stat(cfg.Checkpoint.Path); err == nil {
				st, err := serve.Resume(cfg.Checkpoint.Path, learner)
				if err != nil {
					log.Fatalf("resume: %v", err)
				}
				srvCfg.StartBatches, srvCfg.StartSamples = st.Batches, st.Samples
				log.Printf("resumed %s from %s (batch %d, %d samples)", learner.Name(), cfg.Checkpoint.Path, st.Batches, st.Samples)
			}
		}
		if repl.Enabled() {
			wlog, err = replication.Open(repl.WALDir, replication.Options{
				SegmentBytes: int64(repl.SegmentMB) << 20,
				SyncEvery:    repl.SyncEvery,
				StartSeq:     uint64(srvCfg.StartBatches),
			})
			if err != nil {
				log.Fatalf("observe log: %v", err)
			}
			srvCfg.WAL = wlog
			srvCfg.Standby = repl.Standby != ""
			srvCfg.NewLearner = newLearner
			if cfg.Method.Name == "chameleon" {
				srvCfg.SnapshotsEqual = core.SnapshotsEqual
			}
			if !srvCfg.Standby {
				// Crash recovery: a log that ends past the checkpoint holds
				// acknowledged observes the checkpoint missed — replay them
				// before serving. A log that ends short of the checkpoint (a
				// fresh log directory next to an old checkpoint) restarts at
				// the checkpoint's position.
				switch end := wlog.End(); {
				case end > uint64(srvCfg.StartBatches):
					nb, ns, err := serve.ReplayLog(learner, wlog, uint64(srvCfg.StartBatches), 0, backbone.LatentShape)
					if err != nil {
						log.Fatalf("observe log replay: %v", err)
					}
					srvCfg.StartBatches += nb
					srvCfg.StartSamples += ns
					log.Printf("replayed %d logged batches (%d samples) past the checkpoint (crash recovery)", nb, ns)
				case end < uint64(srvCfg.StartBatches):
					if err := wlog.Reset(uint64(srvCfg.StartBatches)); err != nil {
						log.Fatalf("observe log reset: %v", err)
					}
				}
			}
		}
		serving = learner.Name()
	}

	srv, err := serve.New(learner, srvCfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Start(*addr); err != nil {
		log.Fatal(err)
	}
	role := "serving"
	if srvCfg.Standby {
		role = "warm standby (503 not_ready until promoted) for"
	}
	log.Printf("%s %s on http://%s (latent %v, %d classes; POST /v1/predict, /v1/observe, GET /v1/stats, /metrics)",
		role, serving, srv.Addr(), backbone.LatentShape, nClasses)

	// Standby: tail the primary until it drains (graceful handoff) or stops
	// answering (probe failover), then promote and keep serving.
	folCtx, folCancel := context.WithCancel(context.Background())
	defer folCancel()
	folDone := make(chan struct{})
	close(folDone)
	if srvCfg.Standby {
		fol, err := replication.NewFollower(replication.FollowerConfig{
			PrimaryURL:    repl.Standby,
			Target:        srv,
			PollInterval:  repl.Poll,
			FailoverAfter: repl.FailoverAfter,
			PrimaryWALDir: repl.PrimaryWAL,
			Logf:          log.Printf,
		})
		if err != nil {
			log.Fatalf("replication: %v", err)
		}
		folDone = make(chan struct{})
		go func() {
			defer close(folDone)
			err := fol.Run(folCtx)
			switch {
			case err == nil:
				log.Printf("promoted: now serving as primary on http://%s", srv.Addr())
			case errors.Is(err, context.Canceled):
			default:
				log.Printf("replication: follower stopped: %v", err)
			}
		}()
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	<-ctx.Done()
	folCancel()
	<-folDone
	log.Printf("shutting down: draining in-flight work (up to %s)...", *drainTimeout)
	t0 := time.Now()
	drainCtx, drainCancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer drainCancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	if wlog != nil {
		if err := wlog.Close(); err != nil {
			log.Printf("observe log close: %v", err)
		}
	}
	log.Printf("drained in %s: %d batches / %d samples observed", time.Since(t0).Round(time.Millisecond), srv.Batches(), srv.Samples())
	if cfg.Checkpoint.Path != "" {
		log.Printf("checkpoint written: %s (restart with -resume to continue bit-identically)", cfg.Checkpoint.Path)
	}
	if repl.Enabled() {
		log.Printf("observe log synced: %s (any learner state is reconstructible from snapshot + log)", repl.WALDir)
	}
	if fleetCfg.Enabled() {
		log.Printf("fleet drained: every resident learner checkpointed under %s (restart continues each user bit-identically)", fleetCfg.Dir)
	}
}
