package fabric

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// Shard is one leasable unit of grid work: a subset of the spec's cells.
// Primary shards group whole factor classes (every cell of a class lands
// in its class's shard); shards minted by work stealing carry whatever
// tail of a straggler was split off.
type Shard struct {
	ID    string
	Cells []CellRef
	// Stolen marks shards minted by splitting a straggler.
	Stolen bool
}

// classShard maps a canonical class representative to its shard slot in
// [0, n) by rendezvous (highest-random-weight) hashing: for each slot,
// score = SHA-256(slot || class) and the class goes to the best-scoring
// slot. The assignment depends only on (class, n), so for a fixed shard
// count the same class always lands on the same shard — across runs,
// resumes and worker reconfigurations.
func classShard(rep string, n int) int {
	if n <= 1 {
		return 0
	}
	best, bestSlot := "", 0
	for slot := 0; slot < n; slot++ {
		var key [8]byte
		binary.LittleEndian.PutUint64(key[:], uint64(slot))
		sum := sha256.Sum256(append(key[:], rep...))
		score := string(sum[:])
		if slot == 0 || score > best {
			best, bestSlot = score, slot
		}
	}
	return bestSlot
}

// Partition splits cells into at most n class-affine shards. Cells of
// one class are never split across primary shards, shards preserve grid
// order internally, and empty slots are dropped. Shard IDs are stable
// ("s<slot>") so lease names and logs are comparable across runs.
func Partition(cells []CellRef, n int) []*Shard {
	if n < 1 {
		n = 1
	}
	slots := make(map[int][]CellRef)
	for _, c := range cells {
		slot := classShard(c.F, n)
		slots[slot] = append(slots[slot], c)
	}
	ids := make([]int, 0, len(slots))
	for slot := range slots {
		ids = append(ids, slot)
	}
	sort.Ints(ids)
	out := make([]*Shard, 0, len(ids))
	for _, slot := range ids {
		out = append(out, &Shard{ID: fmt.Sprintf("s%d", slot), Cells: slots[slot]})
	}
	return out
}
