// Command gfc-pack builds a warm-start pack: a directory of
// content-addressed backend artifacts (DFA ranker tables, explicit cube
// CSR arenas) plus a JSON sidecar of precomputed verdicts (exact counts,
// paper classification, isometry with witnesses) covering every factor
// with |f| <= -maxflen and every dimension d <= -maxd.
//
// Usage:
//
//	gfc-pack -dir packs/default [-minflen 1] [-maxflen 5] [-maxd 12]
//
// Mount the result read-only on a service instance with
// `gfc-serve -warm-pack DIR`: restarts then serve every packed class by
// mmap-loading artifacts instead of rebuilding, and the verdict sidecar
// preloads the result cache at startup. The artifact format is
// documented in docs/artifact-format.md; every artifact is checksummed
// and re-verified on load, so a damaged pack degrades to recompute,
// never to wrong answers.
package main

import (
	"encoding/json"
	"flag"
	"log"
	"os"

	"gfcube/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gfc-pack: ")
	dir := flag.String("dir", "", "output pack directory (created if missing)")
	minLen := flag.Int("minflen", 1, "smallest factor length packed")
	maxLen := flag.Int("maxflen", 5, "largest factor length packed")
	maxD := flag.Int("maxd", 12, "largest dimension packed")
	flag.Parse()
	if *dir == "" {
		log.Fatal("-dir is required")
	}

	m, err := store.Generate(*dir, store.PackOptions{
		MinLen: *minLen,
		MaxLen: *maxLen,
		MaxD:   *maxD,
	})
	if err != nil {
		log.Fatal(err)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		log.Fatal(err)
	}
}
