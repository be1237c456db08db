package obs

import (
	"fmt"
	"math"

	"senkf/internal/grid"
	"senkf/internal/linalg"
)

// Support is one grid point contributing to an observation with the given
// interpolation weight. A selection observation (the paper's default) has a
// single support point of weight 1; an off-grid observation has up to four
// (bilinear interpolation), realising a non-trivial linear observation
// operator H "constructed from limited observational data" (§4.1).
type Support struct {
	X, Y int
	W    float64
}

// Support returns the observation's support points and weights in
// sup[:n]. For an observation at fractional position (X+OffsetX, Y+OffsetY)
// the weights are the bilinear coefficients of the four surrounding grid
// points; corners with zero weight are omitted, so an on-grid observation
// yields exactly one point of weight 1. The fixed-size result keeps the
// call free of heap allocation.
func (o Observation) Support() (sup [4]Support, n int) {
	fx, fy := o.OffsetX, o.OffsetY
	corners := [4]Support{
		{0, 0, (1 - fx) * (1 - fy)},
		{1, 0, fx * (1 - fy)},
		{0, 1, (1 - fx) * fy},
		{1, 1, fx * fy},
	}
	for _, c := range corners {
		if c.W > 0 {
			sup[n] = Support{X: o.X + c.X, Y: o.Y + c.Y, W: c.W}
			n++
		}
	}
	return sup, n
}

// SupportBox returns the bounding box of the observation's support points,
// or the empty Box{} when the support is empty.
func (o Observation) SupportBox() grid.Box {
	sup, n := o.Support()
	if n == 0 {
		return grid.Box{}
	}
	b := grid.Box{X0: sup[0].X, X1: sup[0].X + 1, Y0: sup[0].Y, Y1: sup[0].Y + 1}
	for _, s := range sup[1:n] {
		b.X0, b.X1 = min(b.X0, s.X), max(b.X1, s.X+1)
		b.Y0, b.Y1 = min(b.Y0, s.Y), max(b.Y1, s.Y+1)
	}
	return b
}

// InterpolateField evaluates the observation operator on a full row-major
// field: the bilinear interpolation at the observation's position.
func (o Observation) InterpolateField(m grid.Mesh, field []float64) float64 {
	var v float64
	sup, n := o.Support()
	for _, s := range sup[:n] {
		v += s.W * field[m.Index(s.X, s.Y)]
	}
	return v
}

// perturbSeed folds the key prefix identifying this observation's random
// streams, (0x5EED, X, Y, quantized offsets), into seed; member k's stream
// is keyed one step further by k (see draw). Fractional offsets are
// quantized to 2^-20 grid cells so distinct off-grid observations in the
// same cell get independent streams.
func (o Observation) perturbSeed(seed uint64) uint64 {
	const q = 1 << 20
	return linalg.KeyedSeed(seed, 0x5EED, o.X, o.Y, int(math.Round(o.OffsetX*q)), int(math.Round(o.OffsetY*q)))
}

// draw returns the first standard normal of the stream keyed by member
// under an observation's perturbSeed.
func draw(base uint64, member int) float64 {
	return linalg.NewStream(linalg.KeyedSeed(base, member)).Norm()
}

// RandomOffGridNetwork places count observations at random fractional
// positions, each measuring the bilinear interpolation of the truth plus
// noise of the given variance.
func RandomOffGridNetwork(m grid.Mesh, truth []float64, count int, variance float64, seed uint64) (*Network, error) {
	if count < 0 {
		return nil, fmt.Errorf("obs: negative count %d", count)
	}
	if len(truth) != m.Points() {
		return nil, fmt.Errorf("obs: truth field has %d points, mesh has %d", len(truth), m.Points())
	}
	if variance <= 0 {
		return nil, fmt.Errorf("obs: variance must be positive, got %g", variance)
	}
	if m.NX < 2 || m.NY < 2 {
		return nil, fmt.Errorf("obs: off-grid observations need at least a 2x2 mesh")
	}
	s := linalg.KeyedStream(seed, 0x0B7)
	obsList := make([]Observation, 0, count)
	for i := 0; i < count; i++ {
		o := Observation{
			X:       s.Intn(m.NX - 1),
			Y:       s.Intn(m.NY - 1),
			OffsetX: s.Float64(),
			OffsetY: s.Float64(),
		}
		o.Variance = variance
		o.Value = o.InterpolateField(m, truth) + draw(o.perturbSeed(seed), -1)*sqrt(variance)
		obsList = append(obsList, o)
	}
	return NewNetwork(m, obsList)
}
