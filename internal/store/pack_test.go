package store

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gfcube/internal/bitstr"
	"gfcube/internal/core"
)

// Generate must produce a complete, loadable pack: every grid artifact
// present and valid, manifest inventory exact, verdict sidecar matching
// fresh computation.
func TestPackGenerate(t *testing.T) {
	dir := t.TempDir()
	opts := PackOptions{MinLen: 1, MaxLen: 3, MaxD: 5}
	man, err := Generate(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if man.FormatVersion != FormatVersion || man.MinLen != 1 || man.MaxLen != 3 || man.MaxD != 5 {
		t.Fatalf("manifest %+v", man)
	}
	// Grid: (2 + 4 + 8) words x 5 dims x 2 kinds (all d <= MaxBuildDim here).
	if want := 14 * 5 * 2; man.Artifacts != want {
		t.Errorf("artifacts %d, want %d", man.Artifacts, want)
	}

	got, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got != man {
		t.Errorf("LoadManifest %+v, want %+v", got, man)
	}

	// Every artifact must load through a read-only pack store.
	st, err := Open(Config{PackDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p := NewProvider(st)
	for n := 1; n <= 3; n++ {
		for bits := uint64(0); bits < 1<<uint(n); bits++ {
			f := bitstr.Word{Bits: bits, N: n}
			for d := 1; d <= 5; d++ {
				if _, src, err := p.Implicit(context.Background(), d, f); err != nil || src != core.SourceStore {
					t.Fatalf("ranker %s d=%d: src=%q err=%v", f, d, src, err)
				}
				if _, src, err := p.Cube(context.Background(), d, f); err != nil || src != core.SourceStore {
					t.Fatalf("cube %s d=%d: src=%q err=%v", f, d, src, err)
				}
			}
		}
	}
	if p.Computed() != 0 {
		t.Errorf("%d rebuilds while loading a complete pack", p.Computed())
	}

	verdicts, err := LoadVerdicts(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != man.Verdicts {
		t.Fatalf("%d verdicts, manifest says %d", len(verdicts), man.Verdicts)
	}
	// Spot-check every row against fresh computation.
	for _, v := range verdicts {
		f := bitstr.MustParse(v.Factor)
		bc := core.Count(v.D, f)
		if v.V != bc.V.String() || v.E != bc.E.String() || v.S != bc.S.String() {
			t.Errorf("%s d=%d: counts (%s,%s,%s), want (%s,%s,%s)",
				v.Factor, v.D, v.V, v.E, v.S, bc.V, bc.E, bc.S)
		}
		th := core.Classify(f, v.D)
		if v.Verdict != th.Verdict.String() {
			t.Errorf("%s d=%d: verdict %q, want %q", v.Factor, v.D, v.Verdict, th.Verdict)
		}
	}
}

func TestLoadManifestErrors(t *testing.T) {
	if _, err := LoadManifest(t.TempDir()); err == nil {
		t.Error("missing manifest accepted")
	}
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, ManifestName), []byte("{not json"))
	if _, err := LoadManifest(dir); err == nil {
		t.Error("malformed manifest accepted")
	}
	writeFile(t, filepath.Join(dir, ManifestName), []byte(`{"formatVersion": 99}`))
	if _, err := LoadManifest(dir); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future-version manifest: %v", err)
	}
	if _, err := LoadVerdicts(t.TempDir()); err == nil {
		t.Error("missing verdicts accepted")
	}
	writeFile(t, filepath.Join(dir, VerdictsName), []byte("[{]"))
	if _, err := LoadVerdicts(dir); err == nil {
		t.Error("malformed verdicts accepted")
	}
}

func TestGenerateBadDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(file, PackOptions{MaxLen: 1, MaxD: 1}); err == nil {
		t.Error("pack generation into a file path succeeded")
	}
}
