package core

import (
	"context"
	"errors"
	"testing"

	"gfcube/internal/bitstr"
)

// recordingProvider serves cubes via Compute and counts how often it is
// consulted; failing lets tests exercise the fallthrough-to-build path.
type recordingProvider struct {
	calls int
	fail  bool
}

func (p *recordingProvider) Cube(ctx context.Context, d int, f bitstr.Word) (*Cube, Source, error) {
	p.calls++
	if p.fail {
		return nil, SourceComputed, errors.New("provider down")
	}
	return Compute{}.Cube(ctx, d, f)
}

func (p *recordingProvider) Implicit(ctx context.Context, d int, f bitstr.Word) (*Implicit, Source, error) {
	return Compute{}.Implicit(ctx, d, f)
}

// TestScratchProviderColumnInterplay pins down the ordering contract of
// Scratch.Cube: the column cache is consulted before the provider (an
// extension step is cheaper than a load), a provider hit re-seeds the
// column via Adopt, and a provider failure falls through to a build.
func TestScratchProviderColumnInterplay(t *testing.T) {
	f := bitstr.MustParse("11")
	p := &recordingProvider{}
	s := &Scratch{Provider: p} // zero Scratch: col is built lazily
	ctx := context.Background()

	sameCube(t, s.Cube(ctx, 6, f), 6, f)
	if p.calls != 1 {
		t.Fatalf("cold cell consulted the provider %d times, want 1", p.calls)
	}
	// d+1 continues the adopted column: the provider must be skipped and
	// the lazily annotated extension must be exact.
	sameCube(t, s.Cube(ctx, 7, f), 7, f)
	if p.calls != 1 {
		t.Fatalf("column cell consulted the provider (%d calls), want the incremental step", p.calls)
	}
	// A dimension jump goes back to the provider.
	sameCube(t, s.Cube(ctx, 3, f), 3, f)
	if p.calls != 2 {
		t.Fatalf("jump cell consulted the provider %d times, want 2", p.calls)
	}
	// Provider failure falls through to a rebuild from Q_0.
	p.fail = true
	sameCube(t, s.Cube(ctx, 9, f), 9, f)
	if p.calls != 3 {
		t.Fatalf("failing provider consulted %d times, want 3", p.calls)
	}
}

// TestScratchCubeEmptyFactorPanics covers the validation guard.
func TestScratchCubeEmptyFactorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for an empty factor")
		}
	}()
	NewScratch().Cube(context.Background(), 3, bitstr.Word{})
}
