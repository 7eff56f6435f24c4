package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"chameleon/internal/api"
	"chameleon/internal/cl"
	"chameleon/internal/fleet"
	"chameleon/internal/obs"
	"chameleon/internal/tensor"
)

// maxBodyBytes bounds request bodies before JSON decoding: the largest legal
// payload is an observe batch of MaxObserveBatch latents, and 16 MiB clears
// that for every supported backbone while keeping hostile bodies cheap.
const maxBodyBytes = 16 << 20

// The /v1 wire types are declared once in internal/api (shared with the load
// generator and the replication client); these aliases keep the historical
// serve.PredictRequest etc. names resolving to the same declarations.
type (
	PredictRequest  = api.PredictRequest
	PredictResponse = api.PredictResponse
	ObserveSample   = api.ObserveSample
	ObserveRequest  = api.ObserveRequest
	ObserveResponse = api.ObserveResponse
	Stats           = api.Stats
)

// Handler returns the server's HTTP surface (documented in API.md):
//
//	POST /v1/predict               latent or image → class (micro-batched)
//	POST /v1/observe               labelled mini-batch → online update (serialized)
//	GET  /v1/stats                 serving counters + model facts + role
//	GET  /v1/replication/snapshot  learner snapshot anchored to a log cursor
//	GET  /v1/replication/log       cursor-based observe-log pages
//	GET  /v1/replication/verify    rebuild from (snapshot, log) and compare
//	GET  /metrics                  the obs registry (Prometheus text)
//	GET  /vars                     the obs registry (expvar JSON)
//	GET  /healthz                  liveness
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", s.recovered(s.handlePredict))
	mux.HandleFunc("/v1/observe", s.recovered(s.handleObserve))
	mux.HandleFunc("/v1/stats", s.recovered(s.handleStats))
	mux.HandleFunc("/v1/replication/snapshot", s.recovered(s.handleReplSnapshot))
	mux.HandleFunc("/v1/replication/log", s.recovered(s.handleReplLog))
	mux.HandleFunc("/v1/replication/verify", s.recovered(s.handleReplVerify))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	// The process metrics registry rides on the serving mux so one listener
	// covers both the request path and the training internals.
	mux.Handle("/metrics", s.cfg.Registry.Handler())
	mux.Handle("/vars", s.cfg.Registry.Handler())
	return mux
}

// recovered converts handler panics into 500s so one hostile request cannot
// take the listener down.
func (s *Server) recovered(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.m.panics.Inc()
				writeError(w, http.StatusInternalServerError, api.CodeInternal, fmt.Sprintf("internal error: %v", p))
			}
		}()
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits the error envelope. Every 429 and 503 carries Retry-After
// so clients never have to guess whether waiting helps (API.md).
func writeError(w http.ResponseWriter, status int, code, msg string) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		if w.Header().Get("Retry-After") == "" {
			w.Header().Set("Retry-After", "1")
		}
	}
	writeJSON(w, status, api.Error{Code: code, Message: msg})
}

// decodeBody strictly decodes the JSON body into v (unknown fields and
// trailing garbage are errors — shape problems must fail loudly, not train
// on half-parsed data).
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON body")
	}
	return nil
}

// payloadFrom validates one request payload: a flattened fp32 latent of
// exactly the configured shape, the same latent quantized to int8 with a
// finite positive per-tensor scale (dequantized here, before the learner is
// involved), or (with a backbone) a raw image. Exactly one payload must be
// set. Latent forms come back as z; the image form comes back unextracted as
// img, a [3,R,R] view of the request's slice, so a caller holding several can
// extract them together.
func (s *Server) payloadFrom(latent []float32, qz []byte, scale float32, image []float32) (z, img *tensor.Tensor, err error) {
	set := 0
	for _, present := range []bool{len(latent) > 0, len(qz) > 0, len(image) > 0} {
		if present {
			set++
		}
	}
	if set > 1 {
		return nil, nil, fmt.Errorf("exactly one of latent, latent_int8 or image must be set, got %d", set)
	}
	switch {
	case len(latent) > 0:
		want := 1
		for _, d := range s.cfg.LatentShape {
			want *= d
		}
		if len(latent) != want {
			return nil, nil, fmt.Errorf("latent has %d elements, want %d (shape %v)", len(latent), want, s.cfg.LatentShape)
		}
		return tensor.FromSlice(latent, s.cfg.LatentShape...), nil, nil
	case len(qz) > 0:
		want := 1
		for _, d := range s.cfg.LatentShape {
			want *= d
		}
		if len(qz) != want {
			return nil, nil, fmt.Errorf("latent_int8 has %d elements, want %d (shape %v)", len(qz), want, s.cfg.LatentShape)
		}
		// Past MaxFloat32/128 the dequantized ±128·scale overflows to ±Inf,
		// which would reach the learner (and the observe log) as a poisoned
		// latent.
		if !(scale > 0) || float64(scale) > math.MaxFloat32/128 {
			return nil, nil, fmt.Errorf("latent_int8 requires a positive scale of at most %g (MaxFloat32/128), got %v", float32(math.MaxFloat32/128), scale)
		}
		t := tensor.New(s.cfg.LatentShape...)
		dst := t.Data()
		for i, b := range qz {
			dst[i] = float32(int8(b)) * scale
		}
		return t, nil, nil
	case len(image) > 0:
		if s.cfg.Backbone == nil {
			return nil, nil, fmt.Errorf("this server accepts latents only (no backbone configured)")
		}
		res := s.cfg.Backbone.Cfg.Resolution
		if want := 3 * res * res; len(image) != want {
			return nil, nil, fmt.Errorf("image has %d elements, want %d (shape [3,%d,%d])", len(image), want, res, res)
		}
		return nil, tensor.FromSlice(image, 3, res, res), nil
	default:
		return nil, nil, fmt.Errorf("one of latent, latent_int8 or image must be set")
	}
}

// enqueue reserves a queue slot under the drain guard. It reports
// (accepted, draining); !accepted && !draining means the queue was full.
func enqueue[T any](s *Server, q chan T, v T) (bool, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.draining {
		return false, true
	}
	select {
	case q <- v:
		return true, false
	default:
		return false, false
	}
}

// shed answers an over-capacity or draining request.
func (s *Server) shed(w http.ResponseWriter, draining bool) {
	if draining {
		writeError(w, http.StatusServiceUnavailable, api.CodeDraining, "server is draining")
		return
	}
	writeError(w, http.StatusTooManyRequests, api.CodeQueueFull, "queue full, retry later")
}

// checkReady gates the request path on a standby: until a Follower promotes
// the server, predict and observe answer 503 not_ready (reads would serve a
// lagging learner, writes would fork the replicated stream). Reports whether
// the request may proceed.
func (s *Server) checkReady(w http.ResponseWriter) bool {
	if s.ready.Load() {
		return true
	}
	writeError(w, http.StatusServiceUnavailable, api.CodeNotReady, "this server is a warm standby; it is not serving yet")
	return false
}

// checkUserField validates the request's user id against the server's mode:
// fleet servers require it, single-learner servers reject it. Reports
// whether the request may proceed (the 400 is already written otherwise).
func (s *Server) checkUserField(w http.ResponseWriter, user string) bool {
	if s.cfg.Fleet != nil && user == "" {
		s.m.rejected.Inc()
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "bad request: this server hosts a learner fleet; a user id is required")
		return false
	}
	if s.cfg.Fleet == nil && user != "" {
		s.m.rejected.Inc()
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "bad request: this server hosts a single learner; the user field is not supported")
		return false
	}
	return true
}

// writeFleetError maps the fleet's sentinel errors onto the same statuses the
// single-learner queues use: full queue → 429, draining → 503, context end →
// 504, anything else → 500. shed is the endpoint's shed counter.
func (s *Server) writeFleetError(w http.ResponseWriter, err error, shed *obs.Counter) {
	switch {
	case errors.Is(err, fleet.ErrQueueFull):
		shed.Inc()
		s.shed(w, false)
	case errors.Is(err, fleet.ErrDraining):
		s.shed(w, true)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.m.timeouts.Inc()
		writeError(w, http.StatusGatewayTimeout, api.CodeTimeout, "request timed out in queue")
	case errors.Is(err, fleet.ErrTooManyUsers):
		s.m.rejected.Inc()
		writeError(w, http.StatusTooManyRequests, api.CodeTooManyUsers, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
	}
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, api.CodeBadRequest, "POST only")
		return
	}
	if !s.checkReady(w) {
		return
	}
	if s.cfg.Fleet != nil {
		req, z, ok := s.decodePredict(w, r)
		if !ok {
			return
		}
		t0 := time.Now()
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		class, err := s.cfg.Fleet.Predict(ctx, req.User, z)
		if err != nil {
			s.writeFleetError(w, err, s.m.predictShed)
			return
		}
		s.m.predictRequests.Inc()
		s.m.predictLatency.ObserveSince(t0)
		writeJSON(w, http.StatusOK, PredictResponse{Class: class})
		return
	}
	z, ok := s.decodePredictInFlight(w, r)
	if !ok {
		return
	}
	t0 := time.Now()
	pr := &predictReq{z: z, ctx: r.Context(), resp: make(chan predictResp, 1)}
	if ok, draining := enqueue(s, s.predictQ, pr); !ok {
		s.m.predictShed.Inc()
		s.shed(w, draining)
		return
	}
	s.m.predictRequests.Inc()
	timeout := time.NewTimer(s.cfg.RequestTimeout)
	defer timeout.Stop()
	select {
	case resp := <-pr.resp:
		s.m.predictLatency.ObserveSince(t0)
		if resp.err != nil {
			writeError(w, http.StatusInternalServerError, api.CodeInternal, resp.err.Error())
			return
		}
		writeJSON(w, http.StatusOK, PredictResponse{Class: resp.class})
	case <-r.Context().Done():
		s.m.timeouts.Inc()
		writeError(w, http.StatusGatewayTimeout, api.CodeTimeout, "client gave up while queued")
	case <-timeout.C:
		s.m.timeouts.Inc()
		writeError(w, http.StatusGatewayTimeout, api.CodeTimeout, "request timed out in queue")
	}
}

// decodePredictInFlight is decodePredict counted in predictsDecoding, so the
// engine's coalescing wait (doPredictBatch) knows this predict is on its
// way. The count drops just before the caller's enqueue attempt, or on any
// early return.
func (s *Server) decodePredictInFlight(w http.ResponseWriter, r *http.Request) (*tensor.Tensor, bool) {
	s.predictsDecoding.Add(1)
	defer s.predictsDecoding.Add(-1)
	_, z, ok := s.decodePredict(w, r)
	return z, ok
}

// decodePredict decodes and validates a predict body into its latent (an
// image is extracted here). On failure the 400 is already written.
func (s *Server) decodePredict(w http.ResponseWriter, r *http.Request) (PredictRequest, *tensor.Tensor, bool) {
	var req PredictRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.m.rejected.Inc()
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "bad request: "+err.Error())
		return req, nil, false
	}
	if !s.checkUserField(w, req.User) {
		return req, nil, false
	}
	z, img, err := s.payloadFrom(req.Latent, req.LatentInt8, req.Scale, req.Image)
	if err != nil {
		s.m.rejected.Inc()
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "bad request: "+err.Error())
		return req, nil, false
	}
	if img != nil {
		// Eval-mode extraction allocates locally and caches nothing, so
		// running it on the handler goroutine is safe and keeps the heavy
		// convolution work off the serialized engine.
		z = s.cfg.Backbone.ExtractLatent(img)
	}
	return req, z, true
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, api.CodeBadRequest, "POST only")
		return
	}
	if !s.checkReady(w) {
		return
	}
	var req ObserveRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.m.rejected.Inc()
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "bad request: "+err.Error())
		return
	}
	if !s.checkUserField(w, req.User) {
		return
	}
	if len(req.Samples) == 0 || len(req.Samples) > s.cfg.MaxObserveBatch {
		s.m.rejected.Inc()
		writeError(w, http.StatusBadRequest, api.CodeBadRequest,
			fmt.Sprintf("bad request: batch must hold 1..%d samples, got %d", s.cfg.MaxObserveBatch, len(req.Samples)))
		return
	}
	// Validate every sample before extracting any frame, then run the
	// batch's images through the extractor together: ExtractLatents shards
	// them over the worker pool and is bit-identical to extracting one by one.
	samples := make([]cl.LatentSample, len(req.Samples))
	var imgs []*tensor.Tensor
	var imgAt []int
	for i, sm := range req.Samples {
		if sm.Label < 0 || sm.Label >= s.cfg.Classes {
			s.m.rejected.Inc()
			writeError(w, http.StatusBadRequest, api.CodeBadRequest,
				fmt.Sprintf("bad request: sample %d label %d out of range [0,%d)", i, sm.Label, s.cfg.Classes))
			return
		}
		z, img, err := s.payloadFrom(sm.Latent, sm.LatentInt8, sm.Scale, sm.Image)
		if err != nil {
			s.m.rejected.Inc()
			writeError(w, http.StatusBadRequest, api.CodeBadRequest, fmt.Sprintf("bad request: sample %d: %v", i, err))
			return
		}
		if img != nil {
			imgs = append(imgs, img)
			imgAt = append(imgAt, i)
		}
		samples[i] = cl.LatentSample{Z: z, Label: sm.Label, Domain: req.Domain}
	}
	if len(imgs) > 0 {
		for k, z := range s.cfg.Backbone.ExtractLatents(imgs) {
			samples[imgAt[k]].Z = z
		}
	}
	t0 := time.Now()
	if s.cfg.Fleet != nil {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		batch, total, err := s.cfg.Fleet.Observe(ctx, req.User, samples, req.Domain)
		if err != nil {
			s.writeFleetError(w, err, s.m.observeShed)
			return
		}
		s.m.observeRequests.Inc()
		s.m.observeLatency.ObserveSince(t0)
		// Batch and SamplesTotal are the *user's* stream position: each
		// fleet user is numbered independently.
		writeJSON(w, http.StatusOK, ObserveResponse{Batch: batch, SamplesTotal: total})
		return
	}
	or := &observeReq{samples: samples, domain: req.Domain, resp: make(chan observeResp, 1)}
	if ok, draining := enqueue(s, s.observeQ, or); !ok {
		s.m.observeShed.Inc()
		s.shed(w, draining)
		return
	}
	s.m.observeRequests.Inc()
	timeout := time.NewTimer(s.cfg.RequestTimeout)
	defer timeout.Stop()
	select {
	case resp := <-or.resp:
		s.m.observeLatency.ObserveSince(t0)
		if resp.err != nil {
			writeError(w, http.StatusInternalServerError, api.CodeInternal, resp.err.Error())
			return
		}
		writeJSON(w, http.StatusOK, ObserveResponse{Batch: resp.batch, SamplesTotal: resp.samples})
	case <-r.Context().Done():
		s.m.timeouts.Inc()
		writeError(w, http.StatusGatewayTimeout, api.CodeTimeout, "client gave up while queued")
	case <-timeout.C:
		s.m.timeouts.Inc()
		writeError(w, http.StatusGatewayTimeout, api.CodeTimeout, "request timed out in queue")
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, api.CodeBadRequest, "GET only")
		return
	}
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()
	method := "fleet"
	var fs *fleet.Stats
	if s.cfg.Fleet != nil {
		st := s.cfg.Fleet.Stats()
		fs = &st
	} else {
		method = s.l.Name()
	}
	role := api.RolePrimary
	if !s.ready.Load() {
		role = api.RoleStandby
	}
	var repl *api.ReplicationStats
	if s.cfg.WAL != nil {
		repl = &api.ReplicationStats{Cursor: s.cfg.WAL.End()}
		if role == api.RoleStandby {
			// Standby: position relative to the primary, as of the last pull.
			repl.LagBatches = s.replLagBatches.Load()
			if ns := s.replLastSyncNano.Load(); ns != 0 {
				repl.LastSyncUnix = float64(ns) / 1e9
			}
		} else if ns := s.replLastPullNano.Load(); ns != 0 {
			// Primary: how far behind the most recent follower pull is.
			repl.LagBatches = int64(repl.Cursor) - int64(s.replLastPullSeq.Load())
			repl.LastSyncUnix = float64(ns) / 1e9
		}
	}
	writeJSON(w, http.StatusOK, Stats{
		Method:          method,
		Fleet:           fs,
		LatentShape:     s.cfg.LatentShape,
		Classes:         s.cfg.Classes,
		AcceptsImages:   s.cfg.Backbone != nil,
		Batches:         s.Batches(),
		Samples:         s.Samples(),
		UptimeSeconds:   time.Since(s.start).Seconds(),
		PredictRequests: s.m.predictRequests.Value(),
		ObserveRequests: s.m.observeRequests.Value(),
		PredictShed:     s.m.predictShed.Value(),
		ObserveShed:     s.m.observeShed.Value(),
		QueuePredict:    len(s.predictQ),
		QueueObserve:    len(s.observeQ),
		Draining:        draining,
		Role:            role,
		Replication:     repl,
	})
}
