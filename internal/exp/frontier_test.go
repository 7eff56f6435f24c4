package exp

import (
	"bytes"
	"strings"
	"testing"

	"chameleon/internal/cl"
)

// TestQuantizedFrontierSizing pins the equal-bytes arithmetic at paper scale:
// a latent is 8192 scalars, so fp32 stores pay 32768 B/sample and int8 stores
// 8196 B/sample (payload + one fp32 scale). Chameleon's ST samples ride
// inside the same budget, which is what pushes its equal-bytes ratio past 4×
// — the sample-ratio gate every Chameleon row must clear, including the
// budgets 4 and 8 that BenchmarkFrontier runs.
func TestQuantizedFrontierSizing(t *testing.T) {
	cases := []struct {
		spec MethodSpec
		want int
	}{
		// chameleon N=40: (40+10)·32768 B ÷ 8196 B = 199 samples, minus ST 10.
		{MethodSpec{Name: "chameleon", Buffer: 40, ST: 10}, 189},
		// chameleon N=20: 30·32768 ÷ 8196 = 119, minus 10.
		{MethodSpec{Name: "chameleon", Buffer: 20, ST: 10}, 109},
		// chameleon N=8: 18·32768 ÷ 8196 = 71, minus 10 (7.62×).
		{MethodSpec{Name: "chameleon", Buffer: 8, ST: 10}, 61},
		// chameleon N=4: 14·32768 ÷ 8196 = 55, minus 10 (11.25×).
		{MethodSpec{Name: "chameleon", Buffer: 4, ST: 10}, 45},
		// plain latent N=40: 40·32768 ÷ 8196 = 159 (always just short of 4×,
		// because the int8 per-sample scale is pure overhead).
		{MethodSpec{Name: "latent", Buffer: 40}, 159},
	}
	for _, tc := range cases {
		got, err := Int8EquivalentSamples(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec.Label(), err)
		}
		if got != tc.want {
			t.Errorf("%s: int8 samples = %d, want %d", tc.spec.Label(), got, tc.want)
		}
		if ratio := float64(got) / float64(tc.spec.Buffer); tc.spec.Name == "chameleon" && ratio < 4 {
			t.Errorf("%s: int8/fp32 sample ratio = %.2f, want >= 4", tc.spec.Label(), ratio)
		}
	}
	for _, spec := range []MethodSpec{{Name: "er", Buffer: 40}, {Name: "gss", Buffer: 40}} {
		if _, err := Int8EquivalentSamples(spec); err == nil {
			t.Errorf("%s: raw-image method accepted for equal-bytes sizing", spec.Name)
		}
	}
}

// TestQuantizedFrontierIntegration runs the equal-bytes frontier end to end
// on one dataset, one budget, one seed, and checks the exhibit's invariants:
// the chameleon pair clears the 4× sample ratio, both arms actually learned,
// and the render mentions every pair.
func TestQuantizedFrontierIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("frontier integration is slow; run without -short")
	}
	sc := TestScale()
	sc.Seeds = []int64{1}
	set, err := BuildLatentSet("core50", sc, DefaultCacheDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFrontier(map[string]*cl.LatentSet{"core50": set}, sc, []int{20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 2 {
		t.Fatalf("got %d pairs, want 2 (latent, chameleon)", len(res.Pairs))
	}
	for _, p := range res.Pairs {
		if p.Int8Samples <= p.FP32Samples {
			t.Errorf("%s: int8 arm holds %d samples vs fp32 %d — equal bytes must buy capacity",
				p.Method, p.Int8Samples, p.FP32Samples)
		}
		if p.Int8MB > p.FP32MB*1.01 {
			t.Errorf("%s: int8 store charged %.2f MB vs fp32 %.2f MB at equal bytes",
				p.Method, p.Int8MB, p.FP32MB)
		}
		if p.FP32Acc["core50"] <= 0 || p.Int8Acc["core50"] <= 0 {
			t.Errorf("%s: degenerate accuracies %+v / %+v", p.Method, p.FP32Acc, p.Int8Acc)
		}
		if p.Method == "chameleon" && p.SampleRatio < 4 {
			t.Errorf("chameleon sample ratio %.2f < 4", p.SampleRatio)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	out := buf.String()
	for _, want := range []string{"chameleon", "latent", "core50", "equal bytes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
