package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	// The smoke test re-executes this test binary as the server host.
	if len(os.Args) > 1 && os.Args[1] == hostArg {
		os.Exit(hostMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload for about a second, untraced and traced,
// against the bench host on synthetic latents, and checks that each emits
// every metric BENCHMARK.json names, with its unit, and answers exactly as
// the in-process replay does.
func TestSmoke(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("the benchmark reads /proc")
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the bench runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the bench does not run", w.Name)
		}
	}
	in, err := syntheticInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opt := options{
		seed: 1, warmup: 200 * time.Millisecond, window: time.Second, trace: true, out: dir, tmp: dir,
		server: []string{self, hostArg}, host: []string{self, hostArg}, starts: 2,
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := runWorkload(context.Background(), w, in, opt)
			if err != nil {
				t.Fatal(err)
			}
			units := func(ms []metric) map[string]string {
				u := map[string]string{}
				for _, m := range ms {
					u[m.Name] = m.Unit
				}
				return u
			}
			e2e, layer := units(res.EndToEnd), units(res.Metrics)
			for _, m := range spec.EndToEnd {
				if u, ok := e2e[m.Name]; !ok || u != m.Unit {
					t.Errorf("end-to-end metric %s: emitted %v with unit %q, want unit %q", m.Name, ok, u, m.Unit)
				}
			}
			for _, m := range spec.PerLayer {
				if u, ok := layer[m.Name]; !ok || u != m.Unit {
					t.Errorf("per-layer metric %s: emitted %v with unit %q, want unit %q", m.Name, ok, u, m.Unit)
				}
			}
			// A one-second run is too short for the tail percentiles and the
			// fleet's user count; it must still learn and answer correctly.
			for _, why := range res.Invalid {
				if strings.Contains(why, "prediction:") || strings.Contains(why, "stream:") {
					t.Error(why)
				}
			}
			if _, err := os.Stat(dir + "/" + w.name + ".spans.jsonl"); err != nil {
				t.Error(err)
			}
		})
	}
}
