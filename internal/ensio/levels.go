package ensio

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
	"os"

	"senkf/internal/grid"
)

// Multi-level member files realise the paper's 3-D states: the §5.1
// configuration has 30 vertical levels, giving the Table-1 per-grid-point
// volume h = 30 × 8 = 240 bytes. Values are interleaved by level within
// each grid point — layout [y][x][level] — so a latitude bar carries *all*
// levels of its rows contiguously: one addressing operation still fetches
// the complete 3-D bar, exactly the property the bar-reading co-design
// exploits (the block reading approach keeps paying one seek per row, each
// row now h times larger).
//
// The header's reserved field stores the level count; 0 (files written by
// WriteMember) means 1 level, so single-level files remain valid.

// LevelCount returns the number of vertical levels (≥ 1).
func (h Header) LevelCount() int {
	if h.Levels <= 0 {
		return 1
	}
	return h.Levels
}

// WriteMemberLevels writes a multi-level member: levels[l] is the row-major
// n_y × n_x field of vertical level l. The header's Levels field is set
// from len(levels).
func WriteMemberLevels(path string, h Header, levels [][]float64) error {
	if h.NX <= 0 || h.NY <= 0 {
		return fmt.Errorf("ensio: invalid dimensions %dx%d", h.NX, h.NY)
	}
	if len(levels) == 0 {
		return fmt.Errorf("ensio: no levels")
	}
	for l, f := range levels {
		if len(f) != h.NX*h.NY {
			return fmt.Errorf("ensio: level %d has %d points, header says %d", l, len(f), h.NX*h.NY)
		}
	}
	h.Levels = len(levels)
	// Staged and renamed like WriteMember: a crash mid-write never leaves
	// a torn multi-level member behind a valid path.
	return atomicCreate(path, func(f *os.File) error {
		if _, err := f.Write(putHeader(h, h.Levels, 0)); err != nil {
			return fmt.Errorf("ensio: write header: %w", err)
		}
		crc := crc64.New(crcTable)
		nl := h.Levels
		buf := make([]byte, 8*h.NX*nl)
		for y := 0; y < h.NY; y++ {
			for x := 0; x < h.NX; x++ {
				for l := 0; l < nl; l++ {
					v := levels[l][y*h.NX+x]
					binary.LittleEndian.PutUint64(buf[8*(x*nl+l):], math.Float64bits(v))
				}
			}
			crc.Write(buf)
			if _, err := f.Write(buf); err != nil {
				return fmt.Errorf("ensio: write row %d: %w", y, err)
			}
		}
		var sum [8]byte
		binary.LittleEndian.PutUint64(sum[:], crc.Sum64())
		if _, err := f.WriteAt(sum[:], checksumOffset); err != nil {
			return fmt.Errorf("ensio: write checksum: %w", err)
		}
		return nil
	})
}

// WriteEnsembleLevels writes a multi-level ensemble: members[k][l] is
// member k's level-l field.
func WriteEnsembleLevels(dir string, m grid.Mesh, members [][][]float64) ([]string, error) {
	paths := make([]string, len(members))
	for k, levels := range members {
		p := MemberPath(dir, k)
		if err := WriteMemberLevels(p, Header{NX: m.NX, NY: m.NY, Member: k}, levels); err != nil {
			return nil, fmt.Errorf("ensio: member %d: %w", k, err)
		}
		paths[k] = p
	}
	return paths, nil
}

// deinterleave splits an interleaved [point][level] buffer into per-level
// slices of the given point count.
func deinterleave(data []float64, points, levels int) [][]float64 {
	out := make([][]float64, levels)
	for l := range out {
		out[l] = make([]float64, points)
	}
	for p := 0; p < points; p++ {
		base := p * levels
		for l := 0; l < levels; l++ {
			out[l][p] = data[base+l]
		}
	}
	return out
}

// ReadBarLevels reads the contiguous latitude rows [y0, y1) of every level
// with a single addressing operation, returning one row-major slice per
// level.
func (m *MemberFile) ReadBarLevels(y0, y1 int) ([][]float64, error) {
	if y0 < 0 || y1 > m.Header.NY || y0 >= y1 {
		return nil, fmt.Errorf("ensio: bar rows [%d,%d) out of range [0,%d)", y0, y1, m.Header.NY)
	}
	nl := m.Header.LevelCount()
	if nl == 1 {
		bar, err := m.ReadBar(y0, y1)
		return [][]float64{bar}, err
	}
	points := (y1 - y0) * m.Header.NX
	raw := make([]float64, points*nl)
	if err := m.readContiguous(y0*m.Header.NX*nl, len(raw), raw); err != nil {
		return nil, err
	}
	return deinterleave(raw, points, nl), nil
}

// ReadBlockLevels reads the rectangle b of every level, one addressing
// operation per latitude row (the block-reading penalty, now h times
// heavier per row).
func (m *MemberFile) ReadBlockLevels(b grid.Box) ([][]float64, error) {
	mesh := grid.Mesh{NX: m.Header.NX, NY: m.Header.NY}
	if b.Clamp(mesh) != b || b.Empty() {
		return nil, fmt.Errorf("ensio: block %v out of range for %dx%d", b, mesh.NX, mesh.NY)
	}
	nl := m.Header.LevelCount()
	if nl == 1 {
		data, err := m.ReadBlock(b)
		return [][]float64{data}, err
	}
	if b.Width() == mesh.NX {
		return m.ReadBarLevels(b.Y0, b.Y1)
	}
	out := make([][]float64, nl)
	for l := range out {
		out[l] = make([]float64, b.Points())
	}
	raw := make([]float64, b.Width()*nl)
	for y := b.Y0; y < b.Y1; y++ {
		off := (y*mesh.NX + b.X0) * nl
		if err := m.readContiguous(off, len(raw), raw); err != nil {
			return nil, err
		}
		rowBase := (y - b.Y0) * b.Width()
		for xx := 0; xx < b.Width(); xx++ {
			for l := 0; l < nl; l++ {
				out[l][rowBase+xx] = raw[xx*nl+l]
			}
		}
	}
	return out, nil
}
