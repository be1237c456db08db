package obs

import (
	"math"
	"testing"

	"senkf/internal/grid"
	"senkf/internal/linalg"
)

// drawCases are observations on and off the grid whose draws are pinned.
var drawCases = []Observation{
	{X: 3, Y: 5, Value: 1.25, Variance: 0.01},
	{X: 0, Y: 0, Value: -2, Variance: 0.5},
	{X: 7, Y: 2, OffsetX: 0.375, OffsetY: 0.8125, Value: 0.5, Variance: 0.04},
	{X: 12, Y: 9, OffsetX: 0.1, Value: 3, Variance: 2},
}

// TestDrawsMatchRecordedBits pins CenteredPerturbations and Perturbed for
// members 0…4 under seed 77 to the IEEE-754 bits the keyed-slice,
// stream-per-member implementation produced.
func TestDrawsMatchRecordedBits(t *testing.T) {
	want := []struct{ centered, perturbed [5]uint64 }{
		{
			[5]uint64{0x3ff373e415e178bc, 0x3ff3cb71043aa5ea, 0x3ff4cb70f6ff3f08, 0x3ff459b0b69da791, 0x3ff39b893846fac1},
			[5]uint64{0x3ff3d16678be9cfb, 0x3ff428f36717ca2a, 0x3ff528f359dc6348, 0x3ff4b733197acbd0, 0x3ff3f90b9b241f01},
		},
		{
			[5]uint64{0xc00343fb031243aa, 0xbffb1dd9b5ad2c30, 0xc00191cf455305bc, 0xbff2f01aff26ec82, 0xc004233b5d30aa40},
			[5]uint64{0xc0046c25f7147d76, 0xbffd6e2f9db19fc8, 0xc002b9fa39553f88, 0xbff54070e72b601a, 0xc0054b665132e40c},
		},
		{
			[5]uint64{0x3fdffdf41c054a17, 0x3fd8d9f731d42c9a, 0x3fdc87162d278e6e, 0x3fe4057bb1e188e6, 0x3fe14b03909df48a},
			[5]uint64{0x3fe3107950c30591, 0x3fdefcf5b754eda5, 0x3fe1550a595427bd, 0x3fe716faf4a1e96c, 0x3fe45c82d35e5510},
		},
		{
			[5]uint64{0x400d040cc094c4e0, 0x40087dee42637da6, 0xbfd5da9cfe16f460, 0x401130c2fc1c8417, 0x40116be95248c9ec},
			[5]uint64{0x400e4eafcef2be9a, 0x4009c89150c17760, 0xbfc70b09164e4d20, 0x4011d614834b80f4, 0x4012113ad977c6c9},
		},
	}
	for i, o := range drawCases {
		cp := CenteredPerturbations(o, 5, 77)
		for k := 0; k < 5; k++ {
			if got := math.Float64bits(cp[k]); got != want[i].centered[k] {
				t.Errorf("case %d member %d: centred bits %#016x, recorded %#016x", i, k, got, want[i].centered[k])
			}
			if got := math.Float64bits(Perturbed(o, k, 77)); got != want[i].perturbed[k] {
				t.Errorf("case %d member %d: perturbed bits %#016x, recorded %#016x", i, k, got, want[i].perturbed[k])
			}
		}
	}
}

// referenceDraw is the draw as first specified: a fresh stream keyed by
// (0x5EED, X, Y, offsets quantized to 2^-20 cells, member).
func referenceDraw(o Observation, member int, seed uint64) float64 {
	const q = 1 << 20
	s := linalg.KeyedStream(seed, 0x5EED, o.X, o.Y, int(math.Round(o.OffsetX*q)), int(math.Round(o.OffsetY*q)), member)
	return s.Norm()
}

// TestDrawsMatchKeyedStreamReference checks every member 0…N−1 of on- and
// off-grid observations against the one-stream-per-draw reference.
func TestDrawsMatchKeyedStreamReference(t *testing.T) {
	const n = 24
	s := linalg.NewStream(5)
	list := append([]Observation(nil), drawCases...)
	for i := 0; i < 40; i++ {
		o := Observation{X: s.Intn(300), Y: s.Intn(200), Value: s.Norm(), Variance: 0.01 + s.Float64()}
		if i%2 == 1 {
			o.OffsetX, o.OffsetY = s.Float64(), s.Float64()
		}
		list = append(list, o)
	}
	for i, o := range list {
		for _, seed := range []uint64{0, 77, 20190216} {
			var ref [n]float64
			var mean float64
			for k := range ref {
				ref[k] = referenceDraw(o, k, seed) * math.Sqrt(o.Variance)
				mean += ref[k]
			}
			mean /= n
			cp := CenteredPerturbations(o, n, seed)
			for k := 0; k < n; k++ {
				if want := o.Value + ref[k]; Perturbed(o, k, seed) != want {
					t.Fatalf("obs %d seed %d member %d: Perturbed differs from the reference", i, seed, k)
				}
				if want := o.Value + (ref[k] - mean); cp[k] != want {
					t.Fatalf("obs %d seed %d member %d: CenteredPerturbations differs from the reference", i, seed, k)
				}
			}
		}
	}
}

// TestObsInBoxMatchesSupportPoints checks the bounding-box test against the
// definition — every support point inside the box — over on-grid and
// off-grid observations and boxes around them.
func TestObsInBoxMatchesSupportPoints(t *testing.T) {
	offsets := []float64{0, 0.25, 0.5, 0.999}
	for _, fx := range offsets {
		for _, fy := range offsets {
			o := Observation{X: 4, Y: 4, OffsetX: fx, OffsetY: fy, Variance: 1}
			for x0 := 2; x0 <= 6; x0++ {
				for x1 := x0; x1 <= 7; x1++ {
					for y0 := 2; y0 <= 6; y0++ {
						for y1 := y0; y1 <= 7; y1++ {
							b := grid.Box{X0: x0, X1: x1, Y0: y0, Y1: y1}
							want := true
							sup, n := o.Support()
							for _, s := range sup[:n] {
								want = want && b.Contains(s.X, s.Y)
							}
							if got := ObsInBox(o, b); got != want {
								t.Fatalf("offsets (%g,%g) box %v: ObsInBox %v, support points say %v", fx, fy, b, got, want)
							}
						}
					}
				}
			}
		}
	}
}

func TestObservationHelpersDoNotAllocate(t *testing.T) {
	o := Observation{X: 7, Y: 2, OffsetX: 0.375, OffsetY: 0.8125, Value: 0.5, Variance: 0.04}
	b := grid.Box{X0: 0, X1: 16, Y0: 0, Y1: 16}
	dst := make([]float64, 24)
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		sup, n := o.Support()
		sink += sup[n-1].W
		if ObsInBox(o, b) {
			sink++
		}
		sink += Perturbed(o, 3, 77)
		CenteredPerturbationsTo(dst, o, 77)
	})
	if allocs != 0 {
		t.Errorf("Support, ObsInBox, Perturbed and CenteredPerturbationsTo made %g allocations, want 0", allocs)
	}
	_ = sink
}
