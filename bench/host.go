package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
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

// hostArg, as the first argument, turns the bench binary into the traced
// server host.
const hostArg = "-host"

// serverSpec is a chameleon-serve command line, parsed with the same cli
// flag groups and defaults chameleon-serve binds. The host serves from it,
// and the replay builds its reference learners from it, so both follow the
// server's flags by construction. The serve knobs the bench never sets
// (-batch-window, -max-batch, -queue, -request-timeout) are left to
// serve.Config's defaults, which equal chameleon-serve's flag defaults.
type serverSpec struct {
	cfg     cli.RunConfig
	fleet   cli.Fleet
	repl    cli.Replication
	addr    string
	classes int
	spans   string
}

func parseServerFlags(args []string, errOut io.Writer) (*serverSpec, error) {
	s := &serverSpec{}
	fs := flag.NewFlagSet("bench -host", flag.ContinueOnError)
	fs.SetOutput(errOut)
	s.cfg.Stream.ExtraDatasets = []string{"synthetic"}
	s.cfg.Bind(fs)
	s.fleet.Bind(fs)
	s.repl.Bind(fs)
	fs.StringVar(&s.addr, "addr", "127.0.0.1:8080", "HTTP listen address")
	fs.IntVar(&s.classes, "classes", 10, "label-space width for -dataset synthetic")
	fs.StringVar(&s.spans, "spans", "", "write spans here as JSON lines on exit ('' serves untraced)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := errors.Join(s.cfg.Validate(), s.fleet.Validate(), s.repl.Validate()); err != nil {
		return nil, err
	}
	if s.cfg.Dataset != "synthetic" || s.repl.Standby != "" || s.cfg.Checkpoint.Path != "" {
		return nil, errors.New("the host serves -dataset synthetic only, without -standby or -checkpoint")
	}
	return s, nil
}

// backbone is chameleon-serve's synthetic-mode extractor.
func (s *serverSpec) backbone() (*mobilenet.Model, error) {
	return mobilenet.New(mobilenet.DefaultConfig(s.classes, s.cfg.Seed))
}

// learner builds the learner chameleon-serve builds for one user ("" on a
// single-learner server).
func (s *serverSpec) learner(backbone *mobilenet.Model, user string, meter *cl.TrafficMeter) (cl.Learner, error) {
	sc, err := s.cfg.Scale()
	if err != nil {
		return nil, err
	}
	seed := s.cfg.Seed
	if s.fleet.Enabled() {
		seed = fleet.UserSeed(s.cfg.Seed, user)
	}
	return exp.NewLearnerOn(s.cfg.Spec(), backbone, s.classes, sc, seed, meter)
}

// hostMain serves one learner (or fleet) the way chameleon-serve does for
// -dataset synthetic — exp.NewLearnerOn, serve.New, fleet.New and
// replication.Open on the same flags — with spans added only from here: a
// middleware around the server's handler and a decorator around every
// learner. On SIGTERM it drains like chameleon-serve, then writes the spans.
func hostMain(args []string) int {
	log.SetFlags(0)
	log.SetPrefix("bench host: ")
	s, err := parseServerFlags(args, os.Stderr)
	if err != nil {
		log.Print(err)
		return 2
	}
	if err := s.host(); err != nil {
		log.Print(err)
		return 1
	}
	return 0
}

func (s *serverSpec) host() error {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	stop, err := s.cfg.Perf.Start(nil)
	if err != nil {
		return err
	}
	defer stop()
	backbone, err := s.backbone()
	if err != nil {
		return fmt.Errorf("backbone: %w", err)
	}
	meter := &cl.TrafficMeter{}
	meter.Bind(obs.Default())
	srvCfg := serve.Config{
		LatentShape: backbone.LatentShape, Classes: s.classes, Backbone: backbone, HandoffTimeout: s.repl.HandoffTimeout,
	}

	var t *tracer
	if s.spans != "" {
		t = newTracer()
	}
	newLearner := func(user string) (cl.Learner, error) {
		l, err := s.learner(backbone, user, meter)
		if err != nil || t == nil {
			return l, err
		}
		return t.wrap(l, user)
	}
	var wlog *replication.Log
	if s.repl.Enabled() {
		// The bench always hands the server a fresh log directory, so there
		// is no tail to replay before serving.
		wlog, err = replication.Open(s.repl.WALDir, replication.Options{
			SegmentBytes: int64(s.repl.SegmentMB) << 20, SyncEvery: s.repl.SyncEvery,
		})
		if err != nil {
			return fmt.Errorf("observe log: %w", err)
		}
		srvCfg.WAL = wlog
	}

	var learner cl.Learner
	if s.fleet.Enabled() {
		flCfg := fleet.Config{
			New: func(user string) (cl.Learner, error) {
				if t != nil {
					defer t.start("fleet.new", "", user, 0)()
				}
				return newLearner(user)
			},
			Dir: s.fleet.Dir, MaxUsers: s.fleet.Users, HotSet: s.fleet.Hot, Shards: s.fleet.Shards, QueueDepth: s.fleet.QueueDepth,
		}
		if wlog != nil {
			flCfg.WAL, flCfg.LatentShape = wlog, backbone.LatentShape
		}
		fl, err := fleet.New(flCfg)
		if err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
		srvCfg.Fleet = fl
	} else {
		if learner, err = newLearner(""); err != nil {
			return err
		}
		if wlog != nil {
			srvCfg.NewLearner = func() (cl.Learner, error) { return s.learner(backbone, "", meter) }
			if s.cfg.Method.Name == "chameleon" {
				srvCfg.SnapshotsEqual = core.SnapshotsEqual
			}
		}
	}
	srv, err := serve.New(learner, srvCfg)
	if err != nil {
		return err
	}
	var h http.Handler = srv.Handler()
	if t != nil {
		h = t.middleware(h)
	}
	ln, err := net.Listen("tcp", s.addr)
	if err != nil {
		_ = srv.Close()
		return err
	}
	hs := &http.Server{Handler: h}
	go func() { _ = hs.Serve(ln) }()
	log.Printf("serving %s on http://%s (traced: %v)", s.cfg.Method.Name, ln.Addr(), t != nil)
	<-ctx.Done()

	drain, drainCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer drainCancel()
	err = errors.Join(hs.Shutdown(drain), srv.Shutdown(drain))
	if wlog != nil {
		err = errors.Join(err, wlog.Close())
	}
	if t != nil {
		err = errors.Join(err, t.write(s.spans))
	}
	return err
}
