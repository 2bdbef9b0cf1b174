// ART walk-through: Section 6.1 of the paper, reproduced end to end.
//
// Profiles the ART reconstruction, prints the per-field latency table
// (Table 5), the per-loop table (Table 6), the affinity graph (Figure 6,
// dot format), the advised split (Figure 7), and the measured speedup.
//
//	go run ./examples/art
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/tables"
	"repro/internal/workloads"
)

func main() {
	// One engine for both steps: the speedup run reuses the profiled ART
	// run the tables are read from.
	eng := tables.NewEngine(tables.Options{Scale: workloads.ScaleTest, SamplePeriod: 3_000, Seed: 1})

	sr, err := eng.AnalyzeART()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("f1_neuron: l_d = %.1f%% of total latency, inferred struct size %d bytes (true: %d)\n\n",
		100*sr.Ld, sr.InferredSize, sr.TrueSize)
	tables.WriteTable5(os.Stdout, sr)
	fmt.Println()
	tables.WriteTable6(os.Stdout, sr)
	fmt.Println()

	fmt.Println("Figure 6 (affinity graph, dot):")
	tables.WriteFigure6(os.Stdout, sr)
	fmt.Println()

	fmt.Println("Figure 7 (advised split):")
	fmt.Print(sr.RenderAdvice())
	fmt.Println()

	// Full pipeline with the optimization applied.
	w, err := workloads.Get("art")
	if err != nil {
		log.Fatal(err)
	}
	r, err := eng.RunBenchmark(w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Speedup after splitting: %.2fx (paper: 1.37x)\n", r.Speedup)
	fmt.Printf("L1/L2/L3 miss reductions: %.1f%% / %.1f%% / %.1f%% (paper: 46.5 / 51.1 / 5.5)\n",
		r.MissReduction("L1"), r.MissReduction("L2"), r.MissReduction("L3"))
}
