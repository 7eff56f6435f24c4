package replay

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func item(label int) Item { return Item{Label: label} }

func TestReservoirFillsThenStaysAtCap(t *testing.T) {
	r := NewReservoir(5, rand.New(rand.NewSource(1)))
	for i := 0; i < 100; i++ {
		r.Offer(item(i))
		if r.Len() > 5 {
			t.Fatal("reservoir exceeded capacity")
		}
	}
	if r.Len() != 5 || r.Seen() != 100 || r.Cap() != 5 {
		t.Fatalf("len=%d seen=%d", r.Len(), r.Seen())
	}
}

func TestReservoirIsApproximatelyUniform(t *testing.T) {
	// Offer 0..199 into a 20-slot reservoir many times; each element's
	// inclusion frequency should be ≈ 10%.
	counts := make([]int, 200)
	for trial := 0; trial < 300; trial++ {
		r := NewReservoir(20, rand.New(rand.NewSource(int64(trial))))
		for i := 0; i < 200; i++ {
			r.Offer(item(i))
		}
		for _, it := range r.Items() {
			counts[it.Label]++
		}
	}
	// Expected 30 per element; allow generous tolerance.
	for i, c := range counts {
		if c < 8 || c > 70 {
			t.Fatalf("element %d kept %d/300 times; reservoir not uniform", i, c)
		}
	}
}

func TestReservoirInsertionUniformityStatistical(t *testing.T) {
	// Sharper statistical check than the smoke test above: over many
	// independent trials, each stream element's inclusion count is
	// Binomial(trials, cap/N). Assert every element stays within ±5σ of the
	// mean — a uniform reservoir fails this with probability < 1e-4, while the
	// classic off-by-one bugs (Intn(seen-1), skipping the first element,
	// biasing the boundary slot) push early or late elements far outside.
	const (
		trials   = 400
		n        = 120
		capacity = 30
	)
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		r := NewReservoir(capacity, rand.New(rand.NewSource(int64(1000+trial))))
		for i := 0; i < n; i++ {
			r.Offer(item(i))
		}
		if r.Len() != capacity {
			t.Fatalf("trial %d: fill %d", trial, r.Len())
		}
		for _, it := range r.Items() {
			counts[it.Label]++
		}
	}
	p := float64(capacity) / float64(n)
	mean := trials * p
	sigma := math.Sqrt(trials * p * (1 - p))
	lo, hi := mean-5*sigma, mean+5*sigma
	total := 0
	for i, c := range counts {
		if float64(c) < lo || float64(c) > hi {
			t.Errorf("element %d kept %d/%d times, outside [%.1f, %.1f] (mean %.1f, σ %.1f)",
				i, c, trials, lo, hi, mean, sigma)
		}
		total += c
	}
	if total != trials*capacity {
		t.Fatalf("total inclusions %d != %d", total, trials*capacity)
	}
}

func TestReservoirStateRoundTrip(t *testing.T) {
	r := NewReservoir(8, rand.New(rand.NewSource(21)))
	for i := 0; i < 50; i++ {
		r.Offer(item(i))
	}
	items, seen := r.State()
	if seen != 50 || len(items) != 8 {
		t.Fatalf("state: %d items, seen %d", len(items), seen)
	}
	// State must be a copy: mutating it must not reach the live buffer.
	items[0].Label = -99
	if r.Items()[0].Label == -99 {
		t.Fatal("State aliases the live buffer")
	}
	items[0] = r.Items()[0]

	r2 := NewReservoir(8, rand.New(rand.NewSource(22)))
	if err := r2.SetState(items, seen); err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 8 || r2.Seen() != 50 {
		t.Fatalf("restored: len %d seen %d", r2.Len(), r2.Seen())
	}
	for i, it := range r2.Items() {
		if it.Label != items[i].Label {
			t.Fatalf("restored item %d = %d, want %d", i, it.Label, items[i].Label)
		}
	}

	small := NewReservoir(4, rand.New(rand.NewSource(23)))
	if err := small.SetState(items, seen); err == nil {
		t.Fatal("overfull restore accepted")
	}
	if err := r2.SetState(items, 3); err == nil {
		t.Fatal("seen < len(items) accepted")
	}
}

func TestClassBalancedExportSetContentsRoundTrip(t *testing.T) {
	b := NewClassBalanced(12, rand.New(rand.NewSource(31)))
	for i := 0; i < 100; i++ {
		b.Insert(item(i % 5))
	}
	exported := b.Export()
	if len(exported) != 12 {
		t.Fatalf("export size %d", len(exported))
	}
	for i := 1; i < len(exported); i++ {
		if exported[i].Label < exported[i-1].Label {
			t.Fatal("export not class-ascending")
		}
	}

	b2 := NewClassBalanced(12, rand.New(rand.NewSource(32)))
	if err := b2.SetContents(exported); err != nil {
		t.Fatal(err)
	}
	if b2.Len() != 12 {
		t.Fatalf("restored fill %d", b2.Len())
	}
	again := b2.Export()
	for i := range exported {
		if again[i].Label != exported[i].Label {
			t.Fatalf("round trip changed item %d: %d vs %d", i, again[i].Label, exported[i].Label)
		}
	}

	tiny := NewClassBalanced(3, rand.New(rand.NewSource(33)))
	if err := tiny.SetContents(exported); err == nil {
		t.Fatal("overfull SetContents accepted")
	}
	if tiny.Len() != 0 {
		t.Fatal("failed SetContents mutated the buffer")
	}
}

func TestReservoirSample(t *testing.T) {
	r := NewReservoir(10, rand.New(rand.NewSource(2)))
	for i := 0; i < 10; i++ {
		r.Offer(item(i))
	}
	s := r.Sample(4)
	if len(s) != 4 {
		t.Fatalf("sample size %d", len(s))
	}
	seen := map[int]bool{}
	for _, it := range s {
		if seen[it.Label] {
			t.Fatal("sample with replacement detected")
		}
		seen[it.Label] = true
	}
	if got := r.Sample(99); len(got) != 10 {
		t.Fatalf("oversized sample returned %d", len(got))
	}
}

func TestClassBalancedStaysWithinCap(t *testing.T) {
	b := NewClassBalanced(10, rand.New(rand.NewSource(3)))
	for i := 0; i < 200; i++ {
		b.Insert(item(i % 7))
		if b.Len() > 10 {
			t.Fatal("exceeded capacity")
		}
	}
	if b.Len() != 10 {
		t.Fatalf("len = %d", b.Len())
	}
}

func TestClassBalancedBalancesSkewedStream(t *testing.T) {
	// 90% of insertions are class 0, but the buffer must keep all classes
	// with roughly equal shares.
	rng := rand.New(rand.NewSource(4))
	b := NewClassBalanced(20, rng)
	for i := 0; i < 2000; i++ {
		c := 0
		if rng.Float64() > 0.9 {
			c = 1 + rng.Intn(4)
		}
		b.Insert(item(c))
	}
	for c := 0; c < 5; c++ {
		n := len(b.OfClass(c))
		if n < 2 || n > 8 {
			t.Fatalf("class %d holds %d of 20 slots; balance broken", c, n)
		}
	}
}

func TestClassBalancedQuotaProperty(t *testing.T) {
	// Property: after any insertion sequence over k classes, max and min
	// class shares differ by at most ... the fair share rounding plus
	// transient skew; assert a loose invariant: no class exceeds
	// 2*ceil(cap/k)+1 once every class has been inserted at least cap times.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const cap, k = 12, 4
		b := NewClassBalanced(cap, rng)
		for i := 0; i < cap*k*4; i++ {
			b.Insert(item(rng.Intn(k)))
		}
		fair := int(math.Ceil(float64(cap) / k))
		for c := 0; c < k; c++ {
			if len(b.OfClass(c)) > 2*fair+1 {
				return false
			}
		}
		return b.Len() == cap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReplaceRandomOfClass(t *testing.T) {
	b := NewClassBalanced(4, rand.New(rand.NewSource(5)))
	b.Insert(Item{Label: 1})
	b.Insert(Item{Label: 2})
	replacement := Item{Label: 1, Logits: nil}
	if !b.ReplaceRandomOfClass(replacement) {
		t.Fatal("replace of present class failed")
	}
	if b.ReplaceRandomOfClass(Item{Label: 9}) {
		t.Fatal("replace of absent class should report false")
	}
	if b.Len() != 2 {
		t.Fatalf("replace changed fill: %d", b.Len())
	}
}

func TestClassBalancedSample(t *testing.T) {
	b := NewClassBalanced(9, rand.New(rand.NewSource(6)))
	for i := 0; i < 9; i++ {
		b.Insert(item(i % 3))
	}
	s := b.Sample(5)
	if len(s) != 5 {
		t.Fatalf("sample size %d", len(s))
	}
	if len(b.Sample(100)) != 9 {
		t.Fatal("oversized sample should return everything")
	}
}

func TestConstructorsPanicOnBadCapacity(t *testing.T) {
	for _, f := range []func(){
		func() { NewReservoir(0, rand.New(rand.NewSource(1))) },
		func() { NewClassBalanced(0, rand.New(rand.NewSource(1))) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic for non-positive capacity")
				}
			}()
			f()
		}()
	}
}

// TestItemsReturnCopies is the regression test for the slice-aliasing fix:
// Reservoir.Items used to return the live backing slice, so a
// caller writing through the result rewrote store contents behind the RNG's
// back. Mutating what Items hands out must leave the buffers untouched.
func TestItemsReturnCopies(t *testing.T) {
	res := NewReservoir(4, rand.New(rand.NewSource(41)))
	for i := 0; i < 10; i++ {
		res.Offer(item(i))
	}
	want := res.Items()
	got := res.Items()
	for i := range got {
		got[i].Label = -1
	}
	for i, it := range res.Items() {
		if it.Label != want[i].Label {
			t.Fatalf("reservoir item %d mutated through Items(): label %d, want %d", i, it.Label, want[i].Label)
		}
	}

	// State's copy contract (also exercised by the round-trip test): writes to
	// the returned slice must not reach the live reservoir either.
	st, _ := res.State()
	st[0].Label = -7
	if res.Items()[0].Label == -7 {
		t.Fatal("State aliases the live buffer")
	}
}
