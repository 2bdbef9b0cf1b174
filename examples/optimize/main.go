// Measured layout selection: when the paper's one-shot advice is legal
// but not optimal, only an A/B loop over the candidate layouts finds the
// best one.
//
// The mislaid fixture is built for exactly this: a record
//
//	struct mrec { long a; char blob[48]; long b; long c; };
//
// whose co-accessed pair (a,b) scores high affinity, so the advice
// groups {a,b}. That grouping fixes the co-access loop but doubles the
// stride of the dominant loop that streams a alone — the full split is
// strictly better, and only measuring reveals it. internal/optimize
// enumerates the candidates (advice seed, hot/cold bisection, affinity
// ladder, reorder, padding), measures each once on the exact machine,
// and selects the fastest.
//
//	go run ./examples/optimize
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/optimize"
	"repro/internal/workloads"
)

func main() {
	w, err := workloads.Get("mislaid")
	if err != nil {
		log.Fatal(err)
	}
	res, err := optimize.Run(w, optimize.Options{
		Scale:        workloads.ScaleTest,
		SamplePeriod: 2_000,
		Seed:         1,
		Parallel:     4,
	})
	if err != nil {
		log.Fatal(err)
	}
	res.RenderText(os.Stdout)

	advice, selected := res.ExactAdvice, res.ExactSelected
	fmt.Println()
	switch {
	case advice == 0:
		fmt.Println("no advice candidate was enumerated")
	case selected < advice:
		fmt.Printf("measured selection beats the one-shot advice: %d vs %d cycles (%.2fx vs %.2fx over baseline)\n",
			selected, advice,
			float64(res.ExactBaseline)/float64(selected),
			float64(res.ExactBaseline)/float64(advice))
	default:
		fmt.Println("measured selection matches the one-shot advice")
	}
}
