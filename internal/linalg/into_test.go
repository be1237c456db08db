package linalg

import (
	"math"
	"testing"
)

// dirty returns an r × c matrix filled with NaN, so a To form that reads
// what it should overwrite shows.
func dirty(r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = math.NaN()
	}
	return m
}

// sameBits reports whether two matrices hold identical IEEE-754 bits.
func sameBits(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestToFormsMatchAllocatingForms checks AATTo, CholeskyTo and
// CholSolveMatrixTo into dirty caller storage against AAT, Cholesky and a
// column-by-column CholSolve, bit for bit.
func TestToFormsMatchAllocatingForms(t *testing.T) {
	s := NewStream(31)
	for n := 1; n <= 20; n++ {
		v := randomMatrix(s, n, 7)
		gram := dirty(n, n)
		AATTo(gram, v)
		if !sameBits(gram, AAT(v)) {
			t.Fatalf("n=%d: AATTo differs from AAT", n)
		}
		spd := AAT(randomMatrix(s, n, n+3))
		for i := 0; i < n; i++ {
			spd.Data[i*n+i] += 0.5
		}
		want, err := Cholesky(spd)
		if err != nil {
			t.Fatal(err)
		}
		l := dirty(n, n)
		if err := CholeskyTo(l, spd); err != nil {
			t.Fatal(err)
		}
		if !sameBits(l, want) {
			t.Fatalf("n=%d: CholeskyTo differs from Cholesky", n)
		}
		b := randomMatrix(s, n, 5)
		ref := NewMatrix(n, 5)
		col := make([]float64, n)
		for j := 0; j < 5; j++ {
			for i := 0; i < n; i++ {
				col[i] = b.At(i, j)
			}
			x, err := CholSolve(l, col)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				ref.Set(i, j, x[i])
			}
		}
		out := dirty(n, 5)
		if err := CholSolveMatrixTo(out, l, b); err != nil {
			t.Fatal(err)
		}
		if !sameBits(out, ref) {
			t.Fatalf("n=%d: CholSolveMatrixTo differs from column-by-column CholSolve", n)
		}
		if err := CholSolveMatrixTo(b, l, b); err != nil {
			t.Fatal(err)
		}
		if !sameBits(b, ref) {
			t.Fatalf("n=%d: in-place CholSolveMatrixTo differs", n)
		}
	}
}

func TestToFormsRejectShapes(t *testing.T) {
	spd := Identity(3)
	if err := CholeskyTo(NewMatrix(2, 2), spd); err == nil {
		t.Error("CholeskyTo accepted a 2x2 factor for a 3x3 matrix")
	}
	if err := CholSolveMatrixTo(NewMatrix(3, 2), spd, NewMatrix(3, 3)); err == nil {
		t.Error("CholSolveMatrixTo accepted a 3x2 output for a 3x3 right-hand side")
	}
}

func TestCenterToMatchesCenterRows(t *testing.T) {
	s := NewStream(8)
	u := randomMatrix(s, 6, 9)
	want := u.Clone()
	means := CenterRows(want)
	for i := 0; i < u.Rows; i++ {
		dst := make([]float64, u.Cols)
		if m := CenterTo(dst, u.Row(i)); m != means[i] {
			t.Fatalf("row %d: mean %g, CenterRows %g", i, m, means[i])
		}
		for j, v := range dst {
			if v != want.At(i, j) {
				t.Fatalf("row %d col %d: %g, CenterRows %g", i, j, v, want.At(i, j))
			}
		}
	}
}

func TestKeyedSeedFoldsPrefixes(t *testing.T) {
	for _, keys := range [][]int{{}, {1}, {0x5EED, 3, 4, 0, 0, 7}, {-1, 2, -3}} {
		want := KeyedStream(42, keys...).Uint64()
		for cut := 0; cut <= len(keys); cut++ {
			if got := NewStream(KeyedSeed(KeyedSeed(42, keys[:cut]...), keys[cut:]...)).Uint64(); got != want {
				t.Fatalf("keys %v split at %d: %#x, want %#x", keys, cut, got, want)
			}
		}
	}
}
