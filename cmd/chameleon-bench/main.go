// Command chameleon-bench regenerates every table and figure of the paper's
// evaluation section:
//
//	chameleon-bench -exp table1            # accuracy vs memory (Table I)
//	chameleon-bench -exp table2            # latency/energy on edge devices (Table II)
//	chameleon-bench -exp table3            # FPGA resource utilization (Table III)
//	chameleon-bench -exp fig2              # accuracy vs memory budget (Fig. 2)
//	chameleon-bench -exp all -scale small  # everything at the default scale
//
// Accuracy experiments build (and cache) the synthetic-benchmark + pretrained
// backbone pipeline first; the first run at a scale takes a few minutes,
// subsequent runs reuse the cached latents.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"chameleon/internal/cl"
	"chameleon/internal/cli"
	"chameleon/internal/exp"
	"chameleon/internal/parallel"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("chameleon-bench: ")
	var (
		perf     cli.Perf
		pipeline cli.Pipeline
		ckpt     cli.Checkpoint
	)
	perf.Bind(flag.CommandLine)
	pipeline.Bind(flag.CommandLine, "small")
	ckpt.Bind(flag.CommandLine, "checkpoint directory for crash-safe table1/fig2 grids ('' disables)")
	var (
		expName = flag.String("exp", "all", "experiment: table1|table2|table3|fig2|ablations|tradeoff|perf|all")
		quiet   = flag.Bool("q", false, "suppress progress output")
		jsonOut = flag.Bool("json", false, "emit results as JSON instead of rendered tables")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()
	for _, err := range []error{perf.Validate(), pipeline.Validate(), ckpt.Validate()} {
		if err != nil {
			log.Fatal(err)
		}
	}
	if perf.Precision == cli.PrecisionFP64 {
		log.Fatal("-precision fp64 is supported by chameleon-train only; the benchmark grids run the fast fp32 tier")
	}
	stop, err := perf.Start(log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	defer stop()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				log.Fatalf("memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatalf("memprofile: %v", err)
			}
		}()
	}

	sc, err := pipeline.Scale()
	if err != nil {
		log.Fatal(err)
	}
	progress := func(f string, a ...any) { log.Printf(f, a...) }
	if *quiet {
		progress = func(string, ...any) {}
	}

	needAccuracy := *expName == "table1" || *expName == "fig2" || *expName == "ablations" || *expName == "tradeoff" || *expName == "perf" || *expName == "all"
	var sets map[string]*cl.LatentSet
	if needAccuracy {
		sets = map[string]*cl.LatentSet{}
		for _, ds := range cli.Datasets() {
			set, err := exp.BuildLatentSet(ds, sc, pipeline.CacheDir, progress)
			if err != nil {
				log.Fatalf("build %s pipeline: %v", ds, err)
			}
			sets[ds] = set
		}
	}

	ck, err := ckpt.Grid()
	if err != nil {
		log.Fatal(err)
	}

	switch *expName {
	case "table1":
		runTable1(sets, sc, ck, progress, *jsonOut)
	case "fig2":
		runFig2(sets["core50"], sc, ck, progress, *jsonOut)
	case "table2":
		runTable2(*jsonOut)
	case "table3":
		runTable3(*jsonOut)
	case "ablations":
		runAblations(sets["core50"], sc)
	case "tradeoff":
		runTradeoff(sets["core50"], sc)
	case "perf":
		runPerf(sets, sc, perf.Workers, *jsonOut)
	case "all":
		runTable1(sets, sc, ck, progress, *jsonOut)
		fmt.Println()
		runFig2(sets["core50"], sc, ck, progress, *jsonOut)
		fmt.Println()
		runTable2(*jsonOut)
		fmt.Println()
		runTable3(*jsonOut)
		fmt.Println()
		runAblations(sets["core50"], sc)
		fmt.Println()
		runTradeoff(sets["core50"], sc)
	default:
		log.Fatalf("unknown experiment %q", *expName)
	}
}

// emit renders res as indented JSON when jsonOut is set, else calls render.
func emit(res any, jsonOut bool, render func()) {
	if !jsonOut {
		render()
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		log.Fatalf("json: %v", err)
	}
}

func runTable1(sets map[string]*cl.LatentSet, sc exp.Scale, ck exp.Checkpointing, progress func(string, ...any), jsonOut bool) {
	res, err := exp.RunTable1Checkpointed(sets, sc, ck, progress)
	if err != nil {
		log.Fatalf("table1: %v", err)
	}
	emit(res, jsonOut, func() { res.Render(os.Stdout) })
}

func runFig2(set *cl.LatentSet, sc exp.Scale, ck exp.Checkpointing, progress func(string, ...any), jsonOut bool) {
	res, err := exp.RunFig2Checkpointed(set, sc, ck, progress)
	if err != nil {
		log.Fatalf("fig2: %v", err)
	}
	emit(res, jsonOut, func() { res.Render(os.Stdout) })
}

func runTable2(jsonOut bool) {
	res, err := exp.RunTable2()
	if err != nil {
		log.Fatalf("table2: %v", err)
	}
	emit(res, jsonOut, func() { res.Render(os.Stdout) })
}

func runTable3(jsonOut bool) {
	res := exp.RunTable3()
	emit(res, jsonOut, func() { res.Render(os.Stdout) })
}

// perfResult is the -exp perf report: wall-clock of the Table I pipeline at
// workers=1 vs the configured worker count, and whether the two rendered
// tables came out byte-identical (the determinism contract).
type perfResult struct {
	Scale         string  `json:"scale"`
	Workers       int     `json:"workers"`
	SerialSec     float64 `json:"serial_sec"`
	ParallelSec   float64 `json:"parallel_sec"`
	Speedup       float64 `json:"speedup"`
	Deterministic bool    `json:"deterministic"`
}

// runPerf times the full Table I grid serially and with the worker pool.
// Latent sets are prebuilt, so the measurement isolates the experiment plane
// (concurrent multi-seed runs) plus the parallel kernels beneath it.
func runPerf(sets map[string]*cl.LatentSet, sc exp.Scale, workersFlag int, jsonOut bool) {
	parallel.SetWorkers(workersFlag)
	target := parallel.Workers()
	run := func(w int) (string, time.Duration) {
		parallel.SetWorkers(w)
		start := time.Now()
		res, err := exp.RunTable1(sets, sc, nil)
		if err != nil {
			log.Fatalf("perf: %v", err)
		}
		elapsed := time.Since(start)
		var buf strings.Builder
		res.Render(&buf)
		return buf.String(), elapsed
	}
	serialTab, serialT := run(1)
	parTab, parT := run(target)
	parallel.SetWorkers(workersFlag)
	pr := perfResult{
		Scale:         sc.Name,
		Workers:       target,
		SerialSec:     serialT.Seconds(),
		ParallelSec:   parT.Seconds(),
		Speedup:       serialT.Seconds() / parT.Seconds(),
		Deterministic: serialTab == parTab,
	}
	emit(pr, jsonOut, func() {
		fmt.Printf("Table I pipeline wall-clock (%s scale, prebuilt latents)\n", pr.Scale)
		fmt.Printf("  workers=1    %8.2fs\n", pr.SerialSec)
		fmt.Printf("  workers=%-4d %8.2fs\n", pr.Workers, pr.ParallelSec)
		fmt.Printf("  speedup      %8.2fx\n", pr.Speedup)
		fmt.Printf("  deterministic: %v (rendered tables byte-identical across worker counts)\n", pr.Deterministic)
	})
}

func runTradeoff(set *cl.LatentSet, sc exp.Scale) {
	pts, err := exp.RunTradeoff(set, sc, []int{1, 2, 5, 10, 20})
	if err != nil {
		log.Fatalf("tradeoff: %v", err)
	}
	exp.RenderTradeoff(os.Stdout, pts)
}

func runAblations(set *cl.LatentSet, sc exp.Scale) {
	fmt.Println("Ablations (CORe50, mean ± std over seeds) — DESIGN.md §6")
	emit := func(title string, rows []exp.AblationResult) {
		fmt.Printf("\n%s\n", title)
		for _, r := range rows {
			fmt.Printf("  %-46s %6.2f%% ± %.2f\n", r.Variant, 100*r.MeanAcc, 100*r.StdAcc)
		}
	}
	emit("Dual store vs single unified buffer", exp.RunAblationDualVsSingle(set, sc))
	emit("Short-term insertion policy (Eq. 4)", exp.RunAblationSTPolicy(set, sc))
	emit("Long-term promotion policy (Eq. 6)", exp.RunAblationLTPolicy(set, sc))
	emit("Long-term access period h", exp.RunAblationAccessRate(set, sc, []int{1, 5, 10, 20}))
	emit("Allocation exponent rho (user-centric stream)", exp.RunAblationRho(set, sc, []float64{0, 0.2, 0.6, 1.0}))
}
