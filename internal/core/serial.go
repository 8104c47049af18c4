package core

import (
	"encoding/binary"
	"fmt"

	"gfcube/internal/automaton"
	"gfcube/internal/bitstr"
	"gfcube/internal/graph"
	"gfcube/internal/memview"
)

// Artifact payloads for the two backends. Both are little-endian and
// 8-aligned section by section when the payload itself starts 8-aligned
// (the store guarantees this), so a mapped artifact is usable in place.
//
// Explicit cube (store kind "cube"):
//
//	uint64 d, flen, fbits   identity of Q_d(f)
//	uint64 nverts           |V|
//	uint64 verts[nverts]    sorted packed f-free words
//	graph CSR               see graph.AppendBinary
//
// Implicit backend (store kind "ranker"): exactly the Ranker payload of
// automaton.AppendBinary.
//
// Both Load paths re-verify the decoded structure against a freshly
// built factor automaton, so a load that succeeds answers every CubeView
// query byte-identically to a recomputed backend; anything else fails
// closed into an error and the caller recomputes. Note the payloads are
// keyed by the exact factor, not its canonical class representative:
// rank order is not invariant under the complement/reversal symmetry.

// AppendBinary appends the cube's serialized form — vertex enumeration
// plus CSR graph — to dst and returns the extended slice.
func (c *Cube) AppendBinary(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(c.d))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(c.f.Len()))
	dst = binary.LittleEndian.AppendUint64(dst, c.f.Bits)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(c.verts)))
	for _, v := range c.verts {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return c.g.AppendBinary(dst)
}

// LoadCube reconstructs Q_d(f) from data written by Cube.AppendBinary,
// refusing anything that is not exactly the (d, f) the caller asked for.
// The vertex enumeration is verified against the factor automaton's rank
// tables (every listed word must be f-free with rank equal to its
// position, and the count must match the counting DP), and the graph is
// structurally validated by graph.LoadFrom. The vertex and adjacency
// arenas may alias read-only mapped memory.
func LoadCube(data []byte, d int, f bitstr.Word) (*Cube, error) {
	if err := CheckBuild(d, f); err != nil {
		return nil, err
	}
	if len(data) < 32 {
		return nil, fmt.Errorf("core: cube payload %d bytes, want >= 32", len(data))
	}
	gotD := binary.LittleEndian.Uint64(data)
	gotFlen := binary.LittleEndian.Uint64(data[8:])
	gotFbits := binary.LittleEndian.Uint64(data[16:])
	if gotD != uint64(d) || gotFlen != uint64(f.Len()) || gotFbits != f.Bits {
		return nil, fmt.Errorf("core: cube payload is for d=%d |f|=%d, want Q_%d(%s)", gotD, gotFlen, d, f)
	}
	nverts := binary.LittleEndian.Uint64(data[24:])
	dfa := automaton.New(f)
	rk := dfa.Ranker(d)
	if nverts != rk.TotalU64() {
		return nil, fmt.Errorf("core: cube payload lists %d vertices, counting DP says %d", nverts, rk.TotalU64())
	}
	vertsEnd := uint64(32) + 8*nverts
	if uint64(len(data)) < vertsEnd {
		return nil, fmt.Errorf("core: cube payload truncated in vertex section")
	}
	verts, ok := memview.Uint64(data[32:vertsEnd])
	if !ok {
		return nil, fmt.Errorf("core: misaligned vertex section")
	}
	for i, v := range verts {
		// rank(v) == i proves the list is exactly the increasing f-free
		// enumeration: f-freeness, sortedness and completeness in one probe.
		if r, ok := rk.RankBits(v); !ok || r != uint64(i) {
			return nil, fmt.Errorf("core: vertex %d of cube payload is out of place", i)
		}
	}
	g, err := graph.LoadFrom(data[vertsEnd:])
	if err != nil {
		return nil, err
	}
	if uint64(g.N()) != nverts {
		return nil, fmt.Errorf("core: cube graph has %d vertices, enumeration has %d", g.N(), nverts)
	}
	// The verification ranker doubles as the cube's Rank backend.
	return &Cube{d: d, f: f, dfa: dfa, rk: rk, verts: verts, g: g}, nil
}

// AppendBinary appends the implicit backend's serialized form — its rank
// tables — to dst and returns the extended slice.
func (im *Implicit) AppendBinary(dst []byte) []byte {
	return im.rk.AppendBinary(dst)
}

// LoadImplicit reconstructs the implicit backend for Q_d(f) from data
// written by Implicit.AppendBinary (equivalently, Ranker.AppendBinary).
// The rank tables are verified in full against a freshly built factor
// automaton; see automaton.LoadRanker.
func LoadImplicit(data []byte, d int, f bitstr.Word) (*Implicit, error) {
	if f.Len() == 0 {
		return nil, fmt.Errorf("core: empty forbidden factor")
	}
	if d < 0 || d > bitstr.MaxLen {
		return nil, fmt.Errorf("core: implicit dimension %d out of range [0, %d]", d, bitstr.MaxLen)
	}
	dfa := automaton.New(f)
	rk, err := automaton.LoadRanker(dfa, data)
	if err != nil {
		return nil, err
	}
	if rk.D() != d {
		return nil, fmt.Errorf("core: ranker payload is for d=%d, want %d", rk.D(), d)
	}
	return &Implicit{d: d, f: f, dfa: dfa, rk: rk}, nil
}
