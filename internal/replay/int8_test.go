package replay

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"chameleon/internal/quant"
	"chameleon/internal/race"
	"chameleon/internal/tensor"
)

// zItem builds an item with a random latent of the given dimension.
func zItem(rng *rand.Rand, label, dim int) Item {
	z := tensor.New(dim)
	for i := range z.Data() {
		z.Data()[i] = float32(rng.NormFloat64())
	}
	return Item{Z: z, Label: label}
}

// TestQuantizedReservoirDecodeMatchesReference pins the store's quantize →
// dequantize path against the quant package applied by hand: a drawn item's
// latent must be exactly DequantizeInt8(QuantizeInt8(original)), element for
// element, bit for bit.
func TestQuantizedReservoirDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	orig := zItem(rng, 7, 33)
	want := make([]float32, orig.Z.Len())
	q := make([]int8, orig.Z.Len())
	s := quant.QuantizeInt8(q, orig.Z.Data())
	quant.DequantizeInt8(want, q, s)

	r := NewReservoir(1, rand.New(rand.NewSource(1)))
	if err := r.EnableInt8(); err != nil {
		t.Fatal(err)
	}
	r.Offer(orig)
	got := r.Sample(1)
	if len(got) != 1 || got[0].Z == nil || got[0].Quantized() {
		t.Fatalf("sample did not decode: %+v", got)
	}
	for i, v := range got[0].Z.Data() {
		if math.Float32bits(v) != math.Float32bits(want[i]) {
			t.Fatalf("element %d: decoded %x, reference %x", i, math.Float32bits(v), math.Float32bits(want[i]))
		}
	}
	if got[0].Label != 7 {
		t.Fatalf("label lost: %d", got[0].Label)
	}
}

// TestQuantizedStateGobRoundTripBitExact drives a quantized reservoir past
// capacity, pushes its state through gob (the checkpoint wire format), and
// requires the restored store to be indistinguishable: identical raw (QZ,
// Scale) records and bit-identical decoded latents on an identically seeded
// draw. Exporting the raw int8 records — never re-quantizing decoded values —
// is what makes this exact.
func TestQuantizedStateGobRoundTripBitExact(t *testing.T) {
	src := rand.New(rand.NewSource(11))
	a := NewReservoir(6, rand.New(rand.NewSource(5)))
	if err := a.EnableInt8(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		a.Offer(zItem(src, i%4, 16))
	}
	items, seen := a.State()

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(items); err != nil {
		t.Fatal(err)
	}
	var decoded []Item
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(items, decoded) {
		t.Fatal("gob round trip changed the quantized records")
	}

	mk := func(state []Item) *Reservoir {
		r := NewReservoir(6, rand.New(rand.NewSource(99)))
		if err := r.EnableInt8(); err != nil {
			t.Fatal(err)
		}
		if err := r.SetState(state, seen); err != nil {
			t.Fatal(err)
		}
		return r
	}
	ra, rb := mk(items), mk(decoded)
	sa, sb := ra.Sample(4), rb.Sample(4)
	for i := range sa {
		da, db := sa[i].Z.Data(), sb[i].Z.Data()
		for j := range da {
			if math.Float32bits(da[j]) != math.Float32bits(db[j]) {
				t.Fatalf("draw %d element %d differs after checkpoint round trip", i, j)
			}
		}
	}
}

// TestQuantizedCrossDtypeRestoreErrors pins the dtype tag semantics of the
// checkpoint format: int8 records cannot restore into an fp32 store, fp32
// records cannot restore into an int8 store, and a failed restore leaves the
// target untouched. Legacy payloads (Z set, QZ nil) count as fp32.
func TestQuantizedCrossDtypeRestoreErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	fp32Items := []Item{zItem(rng, 0, 8), zItem(rng, 1, 8)}
	qc := NewInt8Codec()
	int8Items := []Item{qc.Encode(zItem(rng, 0, 8), nil), qc.Encode(zItem(rng, 1, 8), nil)}

	plain := NewReservoir(4, rand.New(rand.NewSource(1)))
	if err := plain.SetState(int8Items, 2); err == nil {
		t.Fatal("int8 items restored into fp32 reservoir")
	}
	if plain.Len() != 0 {
		t.Fatal("failed restore mutated the reservoir")
	}
	if err := plain.SetState(fp32Items, 2); err != nil {
		t.Fatalf("fp32 restore into fp32 reservoir: %v", err)
	}

	quantized := NewReservoir(4, rand.New(rand.NewSource(1)))
	if err := quantized.EnableInt8(); err != nil {
		t.Fatal(err)
	}
	if err := quantized.SetState(fp32Items, 2); err == nil {
		t.Fatal("fp32 items restored into int8 reservoir")
	}
	if err := quantized.SetState(int8Items, 2); err != nil {
		t.Fatalf("int8 restore into int8 reservoir: %v", err)
	}

	cb := NewClassBalanced(4, rand.New(rand.NewSource(1)))
	if err := cb.SetContents(int8Items); err == nil {
		t.Fatal("int8 items restored into fp32 class-balanced buffer")
	}
	cbq := NewClassBalanced(4, rand.New(rand.NewSource(1)))
	if err := cbq.EnableInt8(); err != nil {
		t.Fatal(err)
	}
	if err := cbq.SetContents(fp32Items); err == nil {
		t.Fatal("fp32 items restored into int8 class-balanced buffer")
	}
	// Corrupt shape metadata must be rejected too.
	bad := append([]Item(nil), int8Items...)
	bad[0].ZShape = []int{3}
	if err := cbq.SetContents(bad); err == nil {
		t.Fatal("shape/buffer mismatch accepted")
	}
}

// TestQuantizedClassBalancedLifecycle drives a quantized class-balanced
// buffer through fill, same-class replacement, cross-class eviction, and
// sampling, checking the storage stays int8 at rest and fp32 on draw.
func TestQuantizedClassBalancedLifecycle(t *testing.T) {
	src := rand.New(rand.NewSource(21))
	b := NewClassBalanced(9, rand.New(rand.NewSource(4)))
	if err := b.EnableInt8(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		b.Insert(zItem(src, i%3, 12))
	}
	if b.Len() != 9 {
		t.Fatalf("len %d", b.Len())
	}
	for i, it := range b.Export() {
		if !it.Quantized() || it.Z != nil {
			t.Fatalf("exported item %d not stored quantized", i)
		}
	}
	var scratch []Item
	scratch = b.SampleInto(scratch[:0], 5)
	for i, it := range scratch {
		if it.Quantized() || it.Z == nil {
			t.Fatalf("sampled item %d not decoded", i)
		}
	}
	if b.Dequantized(b.Export()[0], 0).Z == nil {
		t.Fatal("Dequantized did not decode an exported record")
	}
	if !b.ReplaceRandomOfClass(zItem(src, 1, 12)) {
		t.Fatal("ReplaceRandomOfClass failed on a present class")
	}
}

// TestQuantizedEnableInt8RequiresEmpty pins the enable-before-use contract on
// both stores.
func TestQuantizedEnableInt8RequiresEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewReservoir(2, rand.New(rand.NewSource(1)))
	r.Offer(zItem(rng, 0, 4))
	if err := r.EnableInt8(); err == nil {
		t.Fatal("EnableInt8 accepted a non-empty reservoir")
	}
	b := NewClassBalanced(2, rand.New(rand.NewSource(1)))
	b.Insert(zItem(rng, 0, 4))
	if err := b.EnableInt8(); err == nil {
		t.Fatal("EnableInt8 accepted a non-empty class-balanced buffer")
	}
}

// TestOfClassReturnsCopy is the regression pin for the aliasing bug: OfClass
// used to hand out the live per-class backing slice, so writing through the
// returned slice rewrote stored records. Mirrors the PR 7 Items() pins.
func TestOfClassReturnsCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	b := NewClassBalanced(6, rand.New(rand.NewSource(1)))
	for i := 0; i < 6; i++ {
		b.Insert(zItem(rng, i%2, 4))
	}
	before := b.Export()
	got := b.OfClass(0)
	if len(got) == 0 {
		t.Fatal("class 0 missing")
	}
	for i := range got {
		got[i].Label = 999
		got[i].Z = nil
	}
	if !reflect.DeepEqual(before, b.Export()) {
		t.Fatal("mutating OfClass result corrupted the buffer")
	}
}

// TestAllocsQuantizedReservoirSteadyState pins the tentpole's allocation
// guarantee at the store level: once a quantized reservoir is warm (fill
// phase done, decode scratch and index buffers sized), an Offer + SampleInto
// cycle performs zero heap allocations — quantize-on-insert recycles the
// victim's int8 buffer and dequantize-on-draw reuses workspace scratch.
func TestAllocsQuantizedReservoirSteadyState(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation pins are measured without -race instrumentation")
	}
	src := rand.New(rand.NewSource(12))
	r := NewReservoir(20, rand.New(rand.NewSource(9)))
	if err := r.EnableInt8(); err != nil {
		t.Fatal(err)
	}
	incoming := zItem(src, 1, 32)
	for i := 0; i < 60; i++ {
		r.Offer(zItem(src, i%4, 32))
	}
	var scratch []Item
	scratch = r.SampleInto(scratch[:0], 10) // warm decode slots + idxBuf
	got := testing.AllocsPerRun(100, func() {
		r.Offer(incoming)
		scratch = r.SampleInto(scratch[:0], 10)
	})
	if got != 0 {
		t.Fatalf("quantized offer+sample allocates %.1f times/op, want 0", got)
	}
}

// TestAllocsQuantizedClassBalancedSteadyState is the same pin for the
// class-balanced store Chameleon's long-term memory uses.
func TestAllocsQuantizedClassBalancedSteadyState(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation pins are measured without -race instrumentation")
	}
	src := rand.New(rand.NewSource(13))
	b := NewClassBalanced(20, rand.New(rand.NewSource(10)))
	if err := b.EnableInt8(); err != nil {
		t.Fatal(err)
	}
	incoming := zItem(src, 2, 32)
	for i := 0; i < 80; i++ {
		b.Insert(zItem(src, i%4, 32))
	}
	var scratch []Item
	scratch = b.SampleInto(scratch[:0], 10)
	got := testing.AllocsPerRun(100, func() {
		b.Insert(incoming)
		scratch = b.SampleInto(scratch[:0], 10)
	})
	if got != 0 {
		t.Fatalf("quantized insert+sample allocates %.1f times/op, want 0", got)
	}
}
