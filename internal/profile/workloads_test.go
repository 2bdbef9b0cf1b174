package profile_test

import (
	"reflect"
	"testing"

	"repro/internal/profile"
	"repro/internal/workloads"
	"repro/structslim"
)

// TestReadDirWorkloads: the profiler's thread profiles written to frame
// files and read back are deep-equal to the originals, streams included,
// on the seven paper workloads, the planted fixtures and quickstart,
// under PEBS and IBS sampling. The streams are not stored; ReadDir
// rebuilds them from the samples and the object table. At period 3000
// every file is one frame; health at period 12 writes 18k to 56k samples
// per thread, several frames per file.
func TestReadDirWorkloads(t *testing.T) {
	type run struct {
		name, workload string
		opt            structslim.Options
	}
	var runs []run
	for _, name := range append(append([]string(nil), workloads.PaperOrder...), "escape", "falseshare", "mislaid", "quickstart") {
		runs = append(runs,
			run{name + "-pebs", name, structslim.Options{SamplePeriod: 3000, Seed: 7}},
			run{name + "-ibs", name, structslim.Options{SamplePeriod: 3000, Seed: 7, IBS: true}})
	}
	runs = append(runs, run{"health-period12", "health", structslim.Options{SamplePeriod: 12, Seed: 7}})
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			w, err := workloads.Get(r.workload)
			if err != nil {
				t.Fatal(err)
			}
			p, phases, err := w.Build(nil, workloads.ScaleTest)
			if err != nil {
				t.Fatal(err)
			}
			res, err := structslim.ProfileRun(p, phases, r.opt)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := profile.WriteDir(dir, res.ThreadProfiles); err != nil {
				t.Fatal(err)
			}
			got, err := profile.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, res.ThreadProfiles) {
				t.Error("thread profiles read back differ from the ones written")
			}
		})
	}
}
