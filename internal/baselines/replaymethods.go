package baselines

import (
	"math/rand"
	"time"

	"chameleon/internal/checkpoint"
	"chameleon/internal/cl"
	"chameleon/internal/replay"
	"chameleon/internal/tensor"
)

// ER is Experience Replay (Chaudhry et al., 2019): a reservoir-sampled
// buffer whose contents are interleaved with each incoming batch. The paper's
// ER stores raw input images; the equal-information latents are replayed
// here (f is frozen), while memcost charges raw-image bytes and the hardware
// models charge the re-extraction compute.
type ER struct {
	head     *cl.Head
	cfg      Config
	buf      *replay.Reservoir
	src      *checkpoint.Source
	trainBuf []cl.LatentSample // reusable incoming+replay assembly buffer
	drawBuf  []replay.Item     // reusable buffer-draw scratch
	met      observeTimer
}

// NewER creates the ER learner.
func NewER(head *cl.Head, cfg Config) *ER {
	cfg = cfg.withDefaults()
	rng, src := cfg.rngSource(2)
	buf := replay.NewReservoir(cfg.BufferSize, rng)
	if cfg.ReplayInt8 {
		// The buffer is freshly constructed and empty: enabling cannot fail.
		if err := buf.EnableInt8(); err != nil {
			panic(err)
		}
	}
	return &ER{head: head, cfg: cfg, buf: buf, src: src,
		met: newObserveTimer("er")}
}

// Name implements cl.Learner.
func (e *ER) Name() string { return "er" }

// Predict implements cl.Learner.
func (e *ER) Predict(z *tensor.Tensor) int { return e.head.Predict(z) }

// PredictBatch implements cl.BatchPredictor.
func (e *ER) PredictBatch(zs []*tensor.Tensor, out []int) { e.head.PredictBatch(zs, out) }

// Observe implements cl.Learner.
func (e *ER) Observe(b cl.LatentBatch) {
	if len(b.Samples) == 0 {
		return
	}
	defer e.met.observe(time.Now(), len(b.Samples))
	train := append(e.trainBuf[:0], b.Samples...)
	drawn := e.buf.SampleInto(e.drawBuf[:0], e.cfg.ReplaySize)
	e.drawBuf = drawn
	e.cfg.Meter.AddOffChip(int64(len(drawn)), 0)
	for _, it := range drawn {
		train = append(train, cl.LatentSample{Z: it.Z, Label: it.Label})
	}
	e.trainBuf = train
	e.head.TrainCEOn(train)
	for _, s := range b.Samples {
		if e.buf.Offer(replay.Item{Z: s.Z, Label: s.Label}) {
			e.cfg.Meter.AddOffChip(0, 1)
		}
	}
}

// Buffer exposes the reservoir (tests, memory accounting).
func (e *ER) Buffer() *replay.Reservoir { return e.buf }

// DER is Dark Experience Replay++ (Buzzega et al., 2020): the buffer stores
// the model's logits at insertion time; replay combines a logit-matching MSE
// term (dark knowledge) with a cross-entropy term on a second buffer draw.
type DER struct {
	head *cl.Head
	cfg  Config
	buf  *replay.Reservoir
	src  *checkpoint.Source
	met  observeTimer
	// drawBuf holds both replay draws back to back; trainBuf and rowBuf are
	// the reusable packed step and its per-row objective.
	drawBuf  []replay.Item
	trainBuf []cl.LatentSample
	rowBuf   []cl.LossRow
	// Alpha weighs the MSE logit term; Beta the replay CE term (DER++).
	Alpha, Beta float64
}

// NewDER creates the DER++ learner. With Config.ReplayInt8 the latents are
// quantized in the reservoir while the stored teacher logits stay fp32 (they
// are the distillation target, tiny next to the latent payload).
func NewDER(head *cl.Head, cfg Config) *DER {
	cfg = cfg.withDefaults()
	rng, src := cfg.rngSource(3)
	buf := replay.NewReservoir(cfg.BufferSize, rng)
	if cfg.ReplayInt8 {
		if err := buf.EnableInt8(); err != nil {
			panic(err)
		}
	}
	return &DER{head: head, cfg: cfg, buf: buf, src: src,
		met: newObserveTimer("der"), Alpha: 0.5, Beta: 0.5}
}

// Name implements cl.Learner.
func (d *DER) Name() string { return "der" }

// Predict implements cl.Learner.
func (d *DER) Predict(z *tensor.Tensor) int { return d.head.Predict(z) }

// PredictBatch implements cl.BatchPredictor.
func (d *DER) PredictBatch(zs []*tensor.Tensor, out []int) { d.head.PredictBatch(zs, out) }

// Observe implements cl.Learner.
func (d *DER) Observe(b cl.LatentBatch) {
	if len(b.Samples) == 0 {
		return
	}
	defer d.met.observe(time.Now(), len(b.Samples))
	// One packed step over [incoming: CE | draw 1: α·logit MSE | draw 2:
	// β·CE], averaged over every row: DER++'s three terms as one gradient.
	train := append(d.trainBuf[:0], b.Samples...)
	rows := d.rowBuf[:0]
	for range b.Samples {
		rows = append(rows, cl.LossRow{CE: 1})
	}
	d.drawBuf = d.buf.SampleInto(d.drawBuf[:0], d.cfg.ReplaySize)
	first := len(d.drawBuf)
	d.drawBuf = d.buf.SampleInto(d.drawBuf, d.cfg.ReplaySize)
	for i, it := range d.drawBuf {
		train = append(train, cl.LatentSample{Z: it.Z, Label: it.Label})
		if i < first {
			rows = append(rows, cl.LossRow{Aux: d.Alpha, Target: it.Logits})
		} else {
			rows = append(rows, cl.LossRow{CE: d.Beta})
		}
	}
	d.trainBuf, d.rowBuf = train, rows
	d.head.Train(train, cl.Loss{Rows: rows})
	// Insert with the logits the model produces *now* (post-update, as the
	// reference implementation records the response it trained to).
	for _, s := range b.Samples {
		d.buf.Offer(replay.Item{Z: s.Z, Label: s.Label, Logits: d.head.Logits(s.Z).Clone()})
	}
}

// LatentReplay (Pellegrini et al., 2020) stores intermediate activations in a
// single unified buffer with uniform random replacement once full, replaying
// a fixed-size draw with every batch. It is Chameleon's closest relative —
// same payload, single buffer, no hierarchy awareness.
type LatentReplay struct {
	head  *cl.Head
	cfg   Config
	items []replay.Item
	seen  int
	rng   *rand.Rand
	src   *checkpoint.Source
	// codec, when non-nil (Config.ReplayInt8), quantizes items on insertion
	// and decodes draws into per-position scratch — this is the method the
	// quantized-latent-replay literature actually describes (Ravaglia et al.).
	codec    *replay.Int8Codec
	trainBuf []cl.LatentSample // reusable incoming+replay assembly buffer
	met      observeTimer
}

// NewLatentReplay creates the Latent Replay learner.
func NewLatentReplay(head *cl.Head, cfg Config) *LatentReplay {
	cfg = cfg.withDefaults()
	rng, src := cfg.rngSource(4)
	l := &LatentReplay{head: head, cfg: cfg, rng: rng, src: src, met: newObserveTimer("latent")}
	if cfg.ReplayInt8 {
		l.codec = replay.NewInt8Codec()
	}
	return l
}

// Name implements cl.Learner.
func (l *LatentReplay) Name() string { return "latent" }

// Predict implements cl.Learner.
func (l *LatentReplay) Predict(z *tensor.Tensor) int { return l.head.Predict(z) }

// PredictBatch implements cl.BatchPredictor.
func (l *LatentReplay) PredictBatch(zs []*tensor.Tensor, out []int) { l.head.PredictBatch(zs, out) }

// Observe implements cl.Learner.
func (l *LatentReplay) Observe(b cl.LatentBatch) {
	if len(b.Samples) == 0 {
		return
	}
	defer l.met.observe(time.Now(), len(b.Samples))
	train := append(l.trainBuf[:0], b.Samples...)
	if len(l.items) > 0 {
		n := l.cfg.ReplaySize
		l.cfg.Meter.AddOffChip(int64(n), 0)
		for i := 0; i < n; i++ {
			it := l.items[l.rng.Intn(len(l.items))]
			if l.codec != nil {
				// Slot = position in this draw; the decode is consumed by
				// TrainCEOn before the next draw reuses the scratch.
				it = l.codec.Decode(it, i)
			}
			train = append(train, cl.LatentSample{Z: it.Z, Label: it.Label})
		}
	}
	l.trainBuf = train
	l.head.TrainCEOn(train)
	for _, s := range b.Samples {
		it := replay.Item{Z: s.Z, Label: s.Label}
		if len(l.items) < l.cfg.BufferSize {
			if l.codec != nil {
				it = l.codec.Encode(it, nil)
			}
			l.items = append(l.items, it)
		} else {
			// Draw the victim before encoding so the RNG stream matches the
			// fp32 path exactly (encoding consumes no randomness).
			vi := l.rng.Intn(len(l.items))
			if l.codec != nil {
				it = l.codec.Encode(it, l.items[vi].QZ)
			}
			l.items[vi] = it
		}
		l.cfg.Meter.AddOffChip(0, 1)
		l.seen++
	}
}

// Len reports the buffer fill (tests).
func (l *LatentReplay) Len() int { return len(l.items) }
