package main

import (
	"sort"
	"time"

	"senkf/internal/costmodel"
	"senkf/internal/figures"
	"senkf/internal/schedule"
)

// workloadDef records one named workload: why it exists, the seed its
// inputs come from by default, and a tiny variant of the same shape that
// the benchmark's own test runs.
type workloadDef struct {
	name  string
	why   string
	seed  uint64
	shape shape
	tiny  shape
}

// defaultSeed is the seed the workloads' inputs come from when --seed is
// not given (the generation seed of the repository's presets).
const defaultSeed = 20190216

var workloads = map[string]workloadDef{
	"real-dense": {
		name: "real-dense",
		why:  "real S-EnKF on a 256x128 mesh, N=24, xi=4, eta=2, dense observations: the local-analysis kernel does almost all the work",
		seed: defaultSeed,
		// 256x128 mesh, N=24, one level, xi=4, eta=2, observations every
		// 3rd point; 8x4 sub-domains, L=4, n_cg=2: 32 compute + 8 I/O ranks.
		shape: realShape{
			NX: 256, NY: 128, Members: 24, Levels: 1, Xi: 4, Eta: 2, ObsStride: 3,
			NSdx: 8, NSdy: 4, L: 4, NCg: 2, ObsVar: 0.01, Spread: 1.5,
		},
		tiny: realShape{
			NX: 32, NY: 16, Members: 8, Levels: 1, Xi: 2, Eta: 1, ObsStride: 3,
			NSdx: 4, NSdy: 2, L: 2, NCg: 2, ObsVar: 0.01, Spread: 1.5,
		},
	},
	"real-levels-observed": {
		name: "real-levels-observed",
		why:  "real S-EnKF-ML, 4 levels of a 512x256 mesh, sparse observations, with monitor, wire and runtime sampler: data movement and observability do the work",
		seed: defaultSeed,
		// 512x256 mesh, 4 level-interleaved levels, N=24, xi=eta=0,
		// observations every 64th point; 4x4 sub-domains, L=4, n_cg=2:
		// 16 compute + 8 I/O ranks. Monitor, wire collector and a runtime
		// sampler every 100 ms ride along, as senkf-run -monitor -wire
		// -runtime-sample attaches them.
		shape: realShape{
			NX: 512, NY: 256, Members: 24, Levels: 4, Xi: 0, Eta: 0, ObsStride: 64,
			NSdx: 4, NSdy: 4, L: 4, NCg: 2, ObsVar: 0.01, Spread: 1.5,
			SampleEvery: 100 * time.Millisecond,
		},
		tiny: realShape{
			NX: 32, NY: 16, Members: 8, Levels: 2, Xi: 0, Eta: 0, ObsStride: 4,
			NSdx: 2, NSdy: 2, L: 2, NCg: 2, ObsVar: 0.01, Spread: 1.5,
			SampleEvery: 100 * time.Millisecond,
		},
	},
	"sim-paper": {
		name: "sim-paper",
		why:  "paper-scale simulated machine, auto-tuned S-EnKF plus P-EnKF at np=12000: simulator, tuner and file-system model, no real engine",
		seed: defaultSeed,
		shape: simShape{
			machine: schedule.DefaultConfig, np: 12000,
			eps: 0.001, tc: costmodel.TuneConstraints{MaxL: 12, MaxNCg: 12},
			speedupMin: 2.5, speedupMax: 3.5,
		},
		tiny: simShape{
			machine: func() schedule.Config { return figures.QuickOptions().Cfg }, np: 180,
			eps: 0.001, tc: costmodel.TuneConstraints{MaxL: 6, MaxNCg: 6},
			speedupMin: 1, speedupMax: 10,
		},
	},
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
