package main

import (
	"context"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// stamp says where and on what a result was measured.
type stamp struct {
	GOOS             string  `json:"goos"`
	GOARCH           string  `json:"goarch"`
	CPUModel         string  `json:"cpu_model"`
	NProc            int     `json:"nproc"`
	BenchGOMAXPROCS  int     `json:"bench_gomaxprocs"`
	ServerGOMAXPROCS int     `json:"server_gomaxprocs"`
	GoVersion        string  `json:"go_version"`
	Commit           string  `json:"commit"`
	Dirty            bool    `json:"dirty"`
	Seed             int64   `json:"seed"`
	WarmupS          float64 `json:"warmup_s"`
	WindowS          float64 `json:"window_s"`
	Inputs           string  `json:"inputs"`
	// Samples counts each request stream: planned and sent predicts and
	// observes, those inside the measured window, the sweep, the server
	// starts behind setup_s.
	Samples map[string]int `json:"samples"`
}

func newStamp(p *plan, ps *pass) stamp {
	s := stamp{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPUModel: cpuModel(),
		NProc: runtime.NumCPU(), BenchGOMAXPROCS: runtime.GOMAXPROCS(0), ServerGOMAXPROCS: ps.serverProcs,
		GoVersion: runtime.Version(), Seed: p.seed, WarmupS: p.warmup.Seconds(), WindowS: p.window.Seconds(),
		Inputs: p.in.source,
	}
	s.Commit, s.Dirty = gitState()
	predicts, observes, samples := windowOutcomes(p, ps)
	sweep := 0
	for _, a := range ps.answers {
		sweep += len(a)
	}
	s.Samples = map[string]int{
		"predicts_planned": len(p.predict), "predicts_sent": len(ps.load.predicts), "predicts_window": len(predicts),
		"observes_planned": len(p.observe), "observes_sent": len(ps.load.observes), "observes_window": len(observes),
		"observe_samples_window": samples, "sweep": sweep, "server_starts": len(ps.setups),
	}
	return s
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitState is the commit the working tree is on and whether tracked files
// differ from it; "unknown" when the working directory is not the top of a
// git checkout (an exported tree, or one nested in another repository).
func gitState() (commit string, dirty bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--show-toplevel", "HEAD").Output()
	wd, wdErr := os.Getwd()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err != nil || wdErr != nil || len(lines) != 2 || lines[0] != wd {
		return "unknown", false
	}
	status, err := exec.CommandContext(ctx, "git", "status", "--porcelain", "--untracked-files=no").Output()
	return lines[1], err != nil || len(status) > 0
}
