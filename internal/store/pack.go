package store

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"gfcube/internal/bitstr"
	"gfcube/internal/core"
)

// Warm-start packs: a directory of artifacts covering a full (|f|, d)
// grid — one ranker and (where buildable) one cube artifact per factor
// word and dimension — plus two JSON sidecars: pack.json (the Manifest)
// and verdicts.json (precomputed classification/count/isometry verdicts
// per canonical class cell). cmd/gfc-pack generates the shipped pack
// (`make pack`); gfc-serve -warm-pack mounts one read-only.

// ManifestName and VerdictsName are the sidecar file names inside a
// pack directory.
const (
	ManifestName = "pack.json"
	VerdictsName = "verdicts.json"
)

// PackOptions bounds pack generation. Zero values default to the
// shipped grid: every factor with 1 <= |f| <= 5, dimensions 1..12.
type PackOptions struct {
	MinLen int
	MaxLen int
	MaxD   int
}

func (o PackOptions) withDefaults() PackOptions {
	if o.MinLen <= 0 {
		o.MinLen = 1
	}
	if o.MaxLen <= 0 {
		o.MaxLen = 5
	}
	if o.MaxD <= 0 {
		o.MaxD = 12
	}
	return o
}

// Manifest describes a pack: grid bounds and inventory.
type Manifest struct {
	FormatVersion int `json:"formatVersion"`
	MinLen        int `json:"minLen"`
	MaxLen        int `json:"maxLen"`
	MaxD          int `json:"maxD"`
	Artifacts     int `json:"artifacts"`
	Verdicts      int `json:"verdicts"`
}

// Verdict is one precomputed (canonical class, d) cell of the sidecar:
// exact counts (decimal strings — they overflow int64 quickly), the
// paper's theory classification, and the exact isometric-embeddability
// verdict with its witness. Verdicts are class-invariant (unlike the
// binary artifacts, which are per exact factor), so one row covers every
// complement/reversal variant of the representative.
type Verdict struct {
	Factor      string `json:"factor"` // canonical class representative
	ClassSize   int    `json:"classSize"`
	D           int    `json:"d"`
	V           string `json:"v"`
	E           string `json:"e"`
	S           string `json:"s"`
	Verdict     string `json:"verdict"` // theory classification
	Reason      string `json:"reason"`
	Isometric   bool   `json:"isometric"` // exact check (method quick)
	WitnessU    string `json:"u,omitempty"`
	WitnessV    string `json:"w,omitempty"`
	CubeDist    int32  `json:"cubeDist,omitempty"`
	HammingDist int32  `json:"hammingDist,omitempty"`
}

// Generate writes a complete warm-start pack into dir: artifacts for
// every factor word in the grid (each class member — rank tables are not
// class-invariant) and the verdict sidecar per canonical class. The
// verdict pass resolves its cubes through the just-written artifacts,
// exercising the load path on everything it ships.
func Generate(dir string, opts PackOptions) (Manifest, error) {
	opts = opts.withDefaults()
	st, err := Open(Config{Dir: dir})
	if err != nil {
		return Manifest{}, err
	}
	defer st.Close()
	man := Manifest{
		FormatVersion: FormatVersion,
		MinLen:        opts.MinLen,
		MaxLen:        opts.MaxLen,
		MaxD:          opts.MaxD,
	}
	scratch := core.NewScratch()
	for n := opts.MinLen; n <= opts.MaxLen; n++ {
		for bits := uint64(0); bits < 1<<uint(n); bits++ {
			f := bitstr.Word{Bits: bits, N: n}
			for d := 1; d <= opts.MaxD; d++ {
				if err := saveArtifacts(st, scratch, f, d, &man); err != nil {
					return Manifest{}, err
				}
			}
		}
	}
	// The verdict pass loads every cube it touches from the artifacts
	// written above.
	scratch.Provider = NewProvider(st)
	verdicts := packVerdicts(scratch, core.Classes(opts.MinLen, opts.MaxLen), opts.MaxD)
	man.Verdicts = len(verdicts)
	if err := writeJSONFile(filepath.Join(dir, VerdictsName), verdicts); err != nil {
		return Manifest{}, err
	}
	if err := writeJSONFile(filepath.Join(dir, ManifestName), man); err != nil {
		return Manifest{}, err
	}
	return man, nil
}

// saveArtifacts writes the ranker (and, where buildable, cube) artifact
// for one (factor word, dimension) cell, tallying the manifest.
func saveArtifacts(st *Store, scratch *core.Scratch, f bitstr.Word, d int, man *Manifest) error {
	im := core.NewImplicit(d, f)
	if err := st.Save(Key{Kind: KindRanker, F: f, D: d}, im.AppendBinary(nil)); err != nil {
		return err
	}
	man.Artifacts++
	if d <= core.MaxBuildDim {
		c := scratch.Cube(context.Background(), d, f)
		if err := st.Save(Key{Kind: KindCube, F: f, D: d}, c.AppendBinary(nil)); err != nil {
			return err
		}
		man.Artifacts++
	}
	return nil
}

// packVerdicts computes the sidecar rows in class-major, dimension-minor
// order.
func packVerdicts(scratch *core.Scratch, classes []core.Class, maxD int) []Verdict {
	verdicts := make([]Verdict, 0, len(classes)*maxD)
	for _, cl := range classes {
		for d := 1; d <= maxD; d++ {
			verdicts = append(verdicts, computeVerdict(scratch, cl, d))
		}
	}
	return verdicts
}

// computeVerdict builds one sidecar row from scratch.
func computeVerdict(scratch *core.Scratch, cl core.Class, d int) Verdict {
	bc := core.Count(d, cl.Rep)
	th := core.Classify(cl.Rep, d)
	cell := core.ClassifyCell(context.Background(), scratch, cl, d, core.MethodQuick)
	v := Verdict{
		Factor:    cl.Rep.String(),
		ClassSize: cl.Size,
		D:         d,
		V:         bc.V.String(),
		E:         bc.E.String(),
		S:         bc.S.String(),
		Verdict:   th.Verdict.String(),
		Reason:    th.Reason,
		Isometric: cell.Isometric,
	}
	if w := cell.Witness; w != nil {
		v.WitnessU = w.U.String()
		v.WitnessV = w.V.String()
		v.CubeDist = w.CubeDist
		v.HammingDist = w.HammingDist
	}
	return v
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadManifest reads a pack directory's manifest.
func LoadManifest(dir string) (Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return Manifest{}, fmt.Errorf("store: %w", err)
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return Manifest{}, fmt.Errorf("store: bad pack manifest: %w", err)
	}
	if man.FormatVersion != FormatVersion {
		return Manifest{}, fmt.Errorf("store: pack format version %d, reader supports %d", man.FormatVersion, FormatVersion)
	}
	return man, nil
}

// LoadVerdicts reads a pack directory's verdict sidecar.
func LoadVerdicts(dir string) ([]Verdict, error) {
	data, err := os.ReadFile(filepath.Join(dir, VerdictsName))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []Verdict
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("store: bad verdict sidecar: %w", err)
	}
	return out, nil
}
