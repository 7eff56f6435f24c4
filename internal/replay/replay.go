// Package replay provides the buffer primitives the continual-learning
// methods are built from: a FIFO ring, a reservoir-sampling buffer (ER/DER),
// and a class-balanced buffer (Chameleon's long-term store).
package replay

import (
	"fmt"
	"math/rand"

	"chameleon/internal/tensor"
)

// Item is one stored replay record. Which payload fields are populated
// depends on the method: every method stores a latent (or conceptually a raw
// image — the distinction is pure memory accounting, see internal/memcost);
// DER additionally stores logits; GSS stores a gradient sketch.
type Item struct {
	// Z is the latent activation payload (fp32 representation; nil while the
	// item sits quantized in an int8 store).
	Z *tensor.Tensor
	// Label is the class index.
	Label int
	// Logits is the model response captured at insertion time (DER).
	Logits *tensor.Tensor
	// GradSketch is the gradient-direction sketch (GSS).
	GradSketch *tensor.Tensor
	// QZ, Scale, and ZShape form the int8 representation used by quantized
	// stores: a symmetric per-tensor quantization q = round(z/Scale) with
	// Scale = max|z|/127, plus the latent shape for reconstruction. Exactly
	// one of Z and QZ is set; Int8Codec converts between the two. The dtype
	// is part of the checkpoint wire format — gob leaves these nil/zero on
	// legacy fp32 payloads, which is how old checkpoints keep decoding.
	QZ     []int8
	Scale  float32
	ZShape []int
}

// Quantized reports whether the item holds the int8 representation.
func (it Item) Quantized() bool { return it.QZ != nil }

// Reservoir is a fixed-capacity buffer maintaining a uniform sample of the
// stream via reservoir sampling (the buffer used by ER and DER).
type Reservoir struct {
	cap   int
	items []Item
	seen  int
	rng   *rand.Rand
	// idxBuf is SampleInto's index scratch. Deliberately unexported and
	// rebuilt on demand: checkpointing goes through State/SetState, which
	// never see it.
	idxBuf []int
	// codec, when non-nil, makes this an int8 store: items quantize as they
	// enter and dequantize as they are drawn.
	codec *Int8Codec
}

// EnableInt8 switches the reservoir to quantized storage. It must be called
// before the first Offer — converting live contents in place would break the
// bit-exact checkpoint contract.
func (r *Reservoir) EnableInt8() error {
	if len(r.items) > 0 || r.seen > 0 {
		return fmt.Errorf("replay: EnableInt8 on a non-empty reservoir (%d items, %d seen)", len(r.items), r.seen)
	}
	r.codec = NewInt8Codec()
	return nil
}

// Quantized reports whether the reservoir stores int8 latents.
func (r *Reservoir) Quantized() bool { return r.codec != nil }

// NewReservoir creates a reservoir with the given capacity.
func NewReservoir(capacity int, rng *rand.Rand) *Reservoir {
	if capacity <= 0 {
		panic(fmt.Sprintf("replay: reservoir capacity %d must be positive", capacity))
	}
	return &Reservoir{cap: capacity, rng: rng}
}

// Offer presents one stream item; it is stored with the reservoir
// probability. Returns true if the item entered the buffer.
func (r *Reservoir) Offer(it Item) bool {
	reservoirOffers.Add(1)
	r.seen++
	if len(r.items) < r.cap {
		if r.codec != nil {
			it = r.codec.Encode(it, nil)
		}
		r.items = append(r.items, it)
		reservoirFills.Add(1)
		return true
	}
	j := r.rng.Intn(r.seen)
	if j < r.cap {
		if r.codec != nil {
			// Quantize only on acceptance, recycling the victim's buffer:
			// rejected offers cost nothing and accepted ones allocate nothing.
			it = r.codec.Encode(it, r.items[j].QZ)
		}
		r.items[j] = it
		reservoirHits.Add(1)
		return true
	}
	reservoirSkips.Add(1)
	return false
}

// Sample returns n items drawn uniformly without replacement (fewer if the
// buffer holds fewer).
func (r *Reservoir) Sample(n int) []Item {
	out := sampleWithout(r.items, n, r.rng)
	if r.codec != nil {
		r.codec.decodeInto(out, 0)
	}
	samplesDrawn.Add(int64(len(out)))
	return out
}

// SampleInto is Sample appending the drawn items to dst and returning it —
// the allocation-free variant for hot training loops (callers keep the
// returned slice as their reusable scratch). The RNG draw sequence is
// identical to Sample's, so swapping a call site between the two never moves
// a seeded run's random stream. A quantized store decodes each drawn item
// into the codec slot of its index in dst, so successive draws appended to
// one dst stay valid together.
func (r *Reservoir) SampleInto(dst []Item, n int) []Item {
	before := len(dst)
	dst, r.idxBuf = sampleWithoutInto(dst, r.idxBuf, r.items, n, r.rng)
	if r.codec != nil {
		r.codec.decodeInto(dst, before)
	}
	samplesDrawn.Add(int64(len(dst) - before))
	return dst
}

// Items returns a copy of the current contents. It used to return the live
// backing slice, which let callers overwrite stored records behind the
// reservoir's back — silently corrupting the uniform-sample invariant the
// RNG maintains. Mutating the returned slice is now harmless. Quantized
// stores return dequantized copies in freshly allocated tensors (a cold
// path); the raw int8 records come from State.
func (r *Reservoir) Items() []Item {
	out := append([]Item(nil), r.items...)
	if r.codec != nil {
		for i := range out {
			out[i] = r.codec.DecodeAlloc(out[i])
		}
	}
	return out
}

// Len returns the current fill.
func (r *Reservoir) Len() int { return len(r.items) }

// Cap returns the capacity.
func (r *Reservoir) Cap() int { return r.cap }

// Seen returns how many items have been offered.
func (r *Reservoir) Seen() int { return r.seen }

// State copies the reservoir's contents and offer count for checkpointing.
// Quantized stores export their raw int8 records: the stored (QZ, Scale)
// pair is the canonical form, so a save/restore cycle is bit-exact by
// construction (re-quantizing dequantized values would not be).
func (r *Reservoir) State() ([]Item, int) {
	return append([]Item(nil), r.items...), r.seen
}

// SetState restores contents captured by State. The items are copied; seen
// must be at least len(items) (a reservoir can never hold more than it saw),
// and the items' dtype must match the store's (cross-dtype restores error;
// legacy payloads count as fp32).
func (r *Reservoir) SetState(items []Item, seen int) error {
	if len(items) > r.cap {
		return fmt.Errorf("replay: restoring %d items into capacity-%d reservoir", len(items), r.cap)
	}
	if seen < len(items) {
		return fmt.Errorf("replay: reservoir seen %d < %d stored items", seen, len(items))
	}
	if err := checkDtype(items, r.codec != nil, "reservoir"); err != nil {
		return err
	}
	r.items = append(r.items[:0:0], items...)
	r.seen = seen
	return nil
}

// Ring is a fixed-capacity FIFO buffer.
type Ring struct {
	cap   int
	items []Item
	next  int
	codec *Int8Codec
}

// NewRing creates a FIFO buffer with the given capacity.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic(fmt.Sprintf("replay: ring capacity %d must be positive", capacity))
	}
	return &Ring{cap: capacity, items: make([]Item, 0, capacity)}
}

// EnableInt8 switches the ring to quantized storage; it must be called while
// the ring is still empty.
func (r *Ring) EnableInt8() error {
	if len(r.items) > 0 {
		return fmt.Errorf("replay: EnableInt8 on a non-empty ring (%d items)", len(r.items))
	}
	r.codec = NewInt8Codec()
	return nil
}

// Quantized reports whether the ring stores int8 latents.
func (r *Ring) Quantized() bool { return r.codec != nil }

// Push inserts an item, evicting the oldest when full.
func (r *Ring) Push(it Item) {
	ringPushes.Add(1)
	if len(r.items) < r.cap {
		if r.codec != nil {
			it = r.codec.Encode(it, nil)
		}
		r.items = append(r.items, it)
		return
	}
	if r.codec != nil {
		it = r.codec.Encode(it, r.items[r.next].QZ)
	}
	r.items[r.next] = it
	r.next = (r.next + 1) % r.cap
	ringEvicts.Add(1)
}

// Items returns a copy of the current contents in arbitrary order. Like
// Reservoir.Items, this used to alias the live backing slice; a copy keeps
// caller-side mutation from rewriting the FIFO's history. Quantized rings
// return dequantized copies.
func (r *Ring) Items() []Item {
	out := append([]Item(nil), r.items...)
	if r.codec != nil {
		for i := range out {
			out[i] = r.codec.DecodeAlloc(out[i])
		}
	}
	return out
}

// Len returns the current fill.
func (r *Ring) Len() int { return len(r.items) }

// ClassBalanced keeps an equal per-class share of a global capacity. It
// backs Chameleon's long-term store and any class-stratified baseline.
type ClassBalanced struct {
	cap     int
	byClass map[int][]Item
	total   int
	rng     *rand.Rand
	// Scratch for the Into sampling variants (unexported; invisible to
	// Export/SetContents checkpointing).
	classBuf []int
	poolBuf  []Item
	idxBuf   []int
	codec    *Int8Codec
}

// EnableInt8 switches the buffer to quantized storage; it must be called
// while the buffer is still empty.
func (b *ClassBalanced) EnableInt8() error {
	if b.total > 0 {
		return fmt.Errorf("replay: EnableInt8 on a non-empty class-balanced buffer (%d items)", b.total)
	}
	b.codec = NewInt8Codec()
	return nil
}

// Quantized reports whether the buffer stores int8 latents.
func (b *ClassBalanced) Quantized() bool { return b.codec != nil }

// Dequantized decodes one quantized item into the buffer's slot'th scratch
// tensor (identity on fp32 stores and on already-decoded items). Callers
// walking Export/ExportInto or OfClass output of an int8 store use it to
// decode just the records they touch; like any scratch decode, the result is
// valid until the next decode into the same slot.
func (b *ClassBalanced) Dequantized(it Item, slot int) Item {
	if b.codec == nil {
		return it
	}
	return b.codec.Decode(it, slot)
}

// NewClassBalanced creates a class-balanced buffer with global capacity.
func NewClassBalanced(capacity int, rng *rand.Rand) *ClassBalanced {
	if capacity <= 0 {
		panic(fmt.Sprintf("replay: class-balanced capacity %d must be positive", capacity))
	}
	return &ClassBalanced{cap: capacity, byClass: map[int][]Item{}, rng: rng}
}

// Len returns the current fill.
func (b *ClassBalanced) Len() int { return b.total }

// Cap returns the global capacity.
func (b *ClassBalanced) Cap() int { return b.cap }

// Classes returns the class indices currently present, in ascending order.
// The order is part of the determinism contract: anything that iterates the
// buffer must not depend on Go's randomized map iteration, or seeded runs
// stop being repeatable.
func (b *ClassBalanced) Classes() []int {
	return b.classesInto(make([]int, 0, len(b.byClass)))
}

// classesInto is Classes appending into dst. The sort is an insertion sort:
// class counts are small (tens), and unlike the sort package it is guaranteed
// allocation-free, which the Into sampling variants pin in tests.
func (b *ClassBalanced) classesInto(dst []int) []int {
	for c := range b.byClass {
		dst = append(dst, c)
	}
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && dst[j] < dst[j-1]; j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	return dst
}

// OfClass returns a copy of one class's items, in insertion order. It used
// to return the live per-class backing slice — the same aliasing bug
// Reservoir.Items and Ring.Items had: a caller writing through the returned
// slice rewrote stored records behind the buffer's back. Quantized stores
// return the raw int8 records; decode the ones you touch with Dequantized.
func (b *ClassBalanced) OfClass(c int) []Item {
	return append([]Item(nil), b.byClass[c]...)
}

// Insert stores an item of its class, maintaining balance:
//   - while the buffer has free space, the item is appended;
//   - otherwise, if the item's class holds more than its fair share would
//     after insertion, a random same-class item is replaced;
//   - otherwise a random item of the largest class is evicted to make room,
//     shifting capacity toward under-represented classes.
//
// Returns the evicted item's class, or -1 if nothing was evicted.
func (b *ClassBalanced) Insert(it Item) int {
	if b.total < b.cap {
		if b.codec != nil {
			it = b.codec.Encode(it, nil)
		}
		b.byClass[it.Label] = append(b.byClass[it.Label], it)
		b.total++
		balancedFills.Add(1)
		return -1
	}
	own := b.byClass[it.Label]
	largest, largestN := -1, 0
	for c, items := range b.byClass {
		if len(items) > largestN || (len(items) == largestN && c < largest) {
			largest, largestN = c, len(items)
		}
	}
	if len(own) >= largestN {
		// Replace within the item's own class.
		vi := b.rng.Intn(len(own))
		if b.codec != nil {
			it = b.codec.Encode(it, own[vi].QZ)
		}
		own[vi] = it
		balancedHits.Add(1)
		return it.Label
	}
	// Evict from the largest class, then append.
	victims := b.byClass[largest]
	vi := b.rng.Intn(len(victims))
	if b.codec != nil {
		it = b.codec.Encode(it, victims[vi].QZ)
	}
	victims[vi] = victims[len(victims)-1]
	b.byClass[largest] = victims[:len(victims)-1]
	b.byClass[it.Label] = append(b.byClass[it.Label], it)
	balancedEvicts.Add(1)
	return largest
}

// ReplaceRandomOfClass swaps a uniformly random same-class item for it,
// returning false when the class is absent (callers then fall back to
// Insert). This is the paper's long-term replacement primitive.
func (b *ClassBalanced) ReplaceRandomOfClass(it Item) bool {
	own := b.byClass[it.Label]
	if len(own) == 0 {
		return false
	}
	vi := b.rng.Intn(len(own))
	if b.codec != nil {
		it = b.codec.Encode(it, own[vi].QZ)
	}
	own[vi] = it
	balancedHits.Add(1)
	return true
}

// Export copies the contents in canonical order — ascending class, in-class
// insertion order preserved — for checkpointing. Feeding the result to
// SetContents on a fresh buffer reproduces the exact per-class layout, so
// every later seeded eviction draw lands on the same victim. Quantized
// stores export their raw int8 records (the canonical, bit-exact form);
// callers that need fp32 values decode with Dequantized.
func (b *ClassBalanced) Export() []Item {
	out := make([]Item, 0, b.total)
	for _, c := range b.Classes() {
		out = append(out, b.byClass[c]...)
	}
	return out
}

// SetContents replaces the buffer contents with items (grouped by their
// labels, preserving order within each class). Fails when items exceed the
// capacity; the buffer is untouched on error.
func (b *ClassBalanced) SetContents(items []Item) error {
	if len(items) > b.cap {
		return fmt.Errorf("replay: restoring %d items into capacity-%d class-balanced buffer", len(items), b.cap)
	}
	if err := checkDtype(items, b.codec != nil, "class-balanced buffer"); err != nil {
		return err
	}
	byClass := map[int][]Item{}
	for _, it := range items {
		byClass[it.Label] = append(byClass[it.Label], it)
	}
	b.byClass = byClass
	b.total = len(items)
	return nil
}

// Sample returns n items drawn uniformly (without replacement) from the
// whole buffer. The pool is assembled in ascending class order so a seeded
// rng draws the same items on every run (map iteration order is randomized).
func (b *ClassBalanced) Sample(n int) []Item {
	all := make([]Item, 0, b.total)
	for _, c := range b.Classes() {
		all = append(all, b.byClass[c]...)
	}
	out := sampleWithout(all, n, b.rng)
	if b.codec != nil {
		b.codec.decodeInto(out, 0)
	}
	samplesDrawn.Add(int64(len(out)))
	return out
}

// SampleInto is Sample appending the drawn items to dst and returning it,
// with the pool assembly and index shuffle running on reusable internal
// scratch — allocation-free once warm. The pool order and RNG draw sequence
// are identical to Sample's.
func (b *ClassBalanced) SampleInto(dst []Item, n int) []Item {
	b.classBuf = b.classesInto(b.classBuf[:0])
	pool := b.poolBuf[:0]
	for _, c := range b.classBuf {
		pool = append(pool, b.byClass[c]...)
	}
	b.poolBuf = pool
	before := len(dst)
	dst, b.idxBuf = sampleWithoutInto(dst, b.idxBuf, pool, n, b.rng)
	if b.codec != nil {
		b.codec.decodeInto(dst, before)
	}
	samplesDrawn.Add(int64(len(dst) - before))
	return dst
}

// ExportInto is Export appending into dst (same canonical ascending-class
// order), for callers that re-export every few steps and want the copy
// allocation-free.
func (b *ClassBalanced) ExportInto(dst []Item) []Item {
	b.classBuf = b.classesInto(b.classBuf[:0])
	for _, c := range b.classBuf {
		dst = append(dst, b.byClass[c]...)
	}
	return dst
}

// sampleWithout draws min(n, len(pool)) items without replacement via a
// partial Fisher–Yates shuffle of an index view.
func sampleWithout(pool []Item, n int, rng *rand.Rand) []Item {
	if n >= len(pool) {
		out := make([]Item, len(pool))
		copy(out, pool)
		return out
	}
	idx := make([]int, len(pool))
	for i := range idx {
		idx[i] = i
	}
	out := make([]Item, 0, n)
	for i := 0; i < n; i++ {
		j := i + rng.Intn(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
		out = append(out, pool[idx[i]])
	}
	return out
}

// sampleWithoutInto is sampleWithout appending to dst, with the index view on
// caller-provided scratch (returned grown). The branch structure and draw
// sequence mirror sampleWithout exactly: the n >= len(pool) full-copy case
// consumes no RNG draws in either variant.
func sampleWithoutInto(dst []Item, idx []int, pool []Item, n int, rng *rand.Rand) ([]Item, []int) {
	if n >= len(pool) {
		return append(dst, pool...), idx
	}
	idx = idx[:0]
	for i := range pool {
		idx = append(idx, i)
	}
	for i := 0; i < n; i++ {
		j := i + rng.Intn(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
		dst = append(dst, pool[idx[i]])
	}
	return dst, idx
}
