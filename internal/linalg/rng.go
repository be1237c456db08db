package linalg

import "math"

// Stream is a small, fast, deterministic pseudo-random stream
// (SplitMix64-based) with a Box–Muller normal generator. Every consumer of
// randomness in the repository derives an independent Stream from a
// composite key, so results are identical regardless of the process layout
// — the property the correctness triangle between the serial reference,
// L-EnKF, P-EnKF and S-EnKF relies on.
type Stream struct {
	state uint64
	// cached second normal variate from Box–Muller
	haveSpare bool
	spare     float64
}

// NewStream seeds a stream. Streams seeded differently are effectively
// independent (SplitMix64 output quality).
func NewStream(seed uint64) *Stream {
	return &Stream{state: seed}
}

// KeyedStream derives a stream from a base seed and a list of integer keys
// (member index, grid point, observation id, ...). The mixing ensures
// distinct keys give uncorrelated streams.
func KeyedStream(seed uint64, keys ...int) *Stream {
	return NewStream(KeyedSeed(seed, keys...))
}

// KeyedSeed is the seed KeyedStream derives from seed and keys. Keys fold in
// one at a time, so KeyedSeed(KeyedSeed(seed, a...), b...) equals
// KeyedSeed(seed, a..., b...): callers drawing many streams that share a key
// prefix fold the prefix once.
func KeyedSeed(seed uint64, keys ...int) uint64 {
	s := seed
	for _, k := range keys {
		s = mix64(s ^ (uint64(k)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03))
	}
	return s
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 returns the next raw 64-bit value.
func (s *Stream) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	return mix64(s.state)
}

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Norm returns a standard normal variate via Box–Muller.
func (s *Stream) Norm() float64 {
	if s.haveSpare {
		s.haveSpare = false
		return s.spare
	}
	var u1 float64
	for {
		u1 = s.Float64()
		if u1 > 0 {
			break
		}
	}
	u2 := s.Float64()
	r := math.Sqrt(-2 * math.Log(u1))
	theta := 2 * math.Pi * u2
	s.spare = r * math.Sin(theta)
	s.haveSpare = true
	return r * math.Cos(theta)
}

// NormVec fills a fresh slice of n standard normal variates.
func (s *Stream) NormVec(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = s.Norm()
	}
	return out
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("linalg: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
