// Command chameleon-train runs a single continual-learning method over one
// synthetic benchmark stream and reports its final accuracy, per-class
// accuracy and paper-scale memory overhead:
//
//	chameleon-train -method chameleon -dataset core50 -buffer 100
//	chameleon-train -method er -dataset openloris -buffer 500 -seed 3
//	chameleon-train -method chameleon -user-centric   # personalization stream
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"chameleon/internal/cl"
	"chameleon/internal/cli"
	"chameleon/internal/data"
	"chameleon/internal/exp"
	"chameleon/internal/hw"
	"chameleon/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("chameleon-train: ")
	var cfg cli.RunConfig
	cfg.Bind(flag.CommandLine)
	var (
		userCentric = flag.Bool("user-centric", false, "use a preference-skewed (personalized) stream")
		prefSkew    = flag.Float64("pref-skew", 1.2, "Zipf exponent of the user preference (with -user-centric)")
		classIL     = flag.Bool("class-incremental", false, "stream classes incrementally (Class-IL) instead of domains (Domain-IL)")
	)
	flag.Parse()
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}
	stop, err := cfg.Perf.Start(log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	defer stop()

	sc, err := cfg.Scale()
	if err != nil {
		log.Fatal(err)
	}
	set, err := exp.BuildLatentSet(cfg.Dataset, sc, cfg.CacheDir, func(f string, a ...any) { log.Printf(f, a...) })
	if err != nil {
		log.Fatalf("pipeline: %v", err)
	}

	spec := cfg.Spec()
	meter := &cl.TrafficMeter{}
	meter.Bind(obs.Default())
	var learner cl.Learner
	if cfg.Precision == cli.PrecisionFP64 {
		learner, err = exp.NewRef64Learner(spec, set, sc, cfg.Seed)
	} else {
		learner, err = exp.NewLearnerMetered(spec, set, sc, cfg.Seed, meter)
	}
	if err != nil {
		log.Fatal(err)
	}
	opts := data.StreamOptions{BatchSize: 10}
	if *classIL {
		opts.ClassIncremental = true
	}
	if *userCentric {
		opts.UserCentric = true
		opts.PrefSkew = *prefSkew
		opts.DriftEveryBatches = 0
	}
	stream := set.Stream(cfg.Seed, opts)
	log.Printf("running %s on %s (%d samples, seed %d)...", spec.Label(), cfg.Dataset, stream.Total(), cfg.Seed)
	res, err := cl.RunOnlineCheckpointed(learner, stream, set.Test, cfg.Checkpoint.Plan(meter))
	if err != nil {
		log.Fatalf("run: %v", err)
	}

	fmt.Printf("method:        %s\n", spec.Label())
	fmt.Printf("dataset:       %s (%d train / %d test)\n", cfg.Dataset, set.Dataset.NumTrain(), set.Dataset.NumTest())
	fmt.Printf("Acc_all:       %.2f%%\n", 100*res.AccAll)
	if !math.IsNaN(res.PreferredAcc) {
		fmt.Printf("preferred-acc: %.2f%% (classes %v)\n", 100*res.PreferredAcc, stream.PreferredClasses())
	}
	if mb, err := exp.MemoryMB(spec); err == nil {
		fmt.Printf("memory (paper-scale): %.1f MB\n", mb)
	}
	if meter.OnChipItems()+meter.OffChipItems() > 0 {
		// Convert measured buffer traffic to paper-scale bytes and DRAM/SRAM
		// energy (32 KiB fp32 latents, Horowitz 45nm table).
		const latentBytes = 32 * 1024
		on, off := meter.Bytes(latentBytes)
		energy := float64(on)*hw.Horowitz45nm.SRAMPerByte + float64(off)*hw.Horowitz45nm.DRAMPerByte
		fmt.Printf("replay traffic (measured): %s\n", meter)
		fmt.Printf("  at paper scale: %.1f MB on-chip, %.1f MB off-chip -> %.3f J memory energy\n",
			float64(on)/(1<<20), float64(off)/(1<<20), energy)
	}
	fmt.Printf("per-class accuracy:\n")
	for c, acc := range res.PerClass {
		if !math.IsNaN(acc) {
			fmt.Printf("  class %2d: %5.1f%%\n", c, 100*acc)
		}
	}
}
