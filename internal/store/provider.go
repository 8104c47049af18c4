package store

import (
	"context"
	"sync/atomic"

	"gfcube/internal/bitstr"
	"gfcube/internal/core"
)

// Provider is the store-backed core.Provider: backends load from disk
// artifacts when present and valid, and are computed — then written
// through best-effort — otherwise. A Provider over a nil *Store
// degenerates to pure compute, so callers can wire it unconditionally.
type Provider struct {
	store    *Store
	computed atomic.Uint64
}

// NewProvider returns a Provider over s (which may be nil).
func NewProvider(s *Store) *Provider {
	return &Provider{store: s}
}

// Store returns the underlying store, nil when compute-only.
func (p *Provider) Store() *Store { return p.store }

// Computed returns how many backends were built from scratch (store
// misses and corruption fallbacks included). A warm start that never
// rebuilds keeps this at zero.
func (p *Provider) Computed() uint64 { return p.computed.Load() }

// Cube resolves the explicit backend for Q_d(f): artifact load if a
// valid one exists, else compute + write-through. Corruption at any
// layer falls back to compute; the error return is reserved for
// cancellation.
func (p *Provider) Cube(ctx context.Context, d int, f bitstr.Word) (*core.Cube, core.Source, error) {
	k := Key{Kind: KindCube, F: f, D: d}
	if p.store != nil && core.CheckBuild(d, f) == nil {
		if payload, err := p.store.Load(k); err == nil {
			c, err := core.LoadCube(payload, d, f)
			if err == nil {
				return c, core.SourceStore, nil
			}
			p.store.NoteCorrupt(k)
		}
		// Any load failure — miss, corruption, I/O — falls through to
		// compute: the store can degrade, answers cannot.
	}
	if err := ctx.Err(); err != nil {
		return nil, core.SourceComputed, err
	}
	c := core.New(d, f)
	p.computed.Add(1)
	if p.store != nil {
		_ = p.store.Save(k, c.AppendBinary(nil))
	}
	return c, core.SourceComputed, nil
}

// Implicit resolves the DFA-rank backend for Q_d(f), same contract as
// Cube.
func (p *Provider) Implicit(ctx context.Context, d int, f bitstr.Word) (*core.Implicit, core.Source, error) {
	k := Key{Kind: KindRanker, F: f, D: d}
	if p.store != nil && d >= 0 && f.Len() > 0 {
		if payload, err := p.store.Load(k); err == nil {
			im, err := core.LoadImplicit(payload, d, f)
			if err == nil {
				return im, core.SourceStore, nil
			}
			p.store.NoteCorrupt(k)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, core.SourceComputed, err
	}
	im := core.NewImplicit(d, f)
	p.computed.Add(1)
	if p.store != nil {
		_ = p.store.Save(k, im.AppendBinary(nil))
	}
	return im, core.SourceComputed, nil
}

var _ core.Provider = (*Provider)(nil)
