package fabric

import (
	"testing"
)

func TestPartitionCoversEveryCellOnce(t *testing.T) {
	sp := testSpec(t)
	cells := sp.Cells()
	for _, n := range []int{1, 2, 3, 7} {
		shards := Partition(cells, n)
		seen := make(map[int]bool)
		for _, sh := range shards {
			if len(sh.Cells) == 0 {
				t.Fatalf("n=%d: empty shard %s", n, sh.ID)
			}
			for _, c := range sh.Cells {
				if seen[c.I] {
					t.Fatalf("n=%d: cell %d in two shards", n, c.I)
				}
				seen[c.I] = true
			}
		}
		if len(seen) != len(cells) {
			t.Fatalf("n=%d: %d cells covered, want %d", n, len(seen), len(cells))
		}
	}
}

func TestPartitionClassAffinity(t *testing.T) {
	sp := testSpec(t)
	cells := sp.Cells()
	shards := Partition(cells, 3)
	classShardOf := make(map[string]string)
	for _, sh := range shards {
		for _, c := range sh.Cells {
			if prev, ok := classShardOf[c.F]; ok && prev != sh.ID {
				t.Fatalf("class %q split across shards %s and %s", c.F, prev, sh.ID)
			}
			classShardOf[c.F] = sh.ID
		}
	}
}

func TestPartitionStableAcrossRuns(t *testing.T) {
	// The same class must land on the same shard slot every time — that
	// is what makes interrupted runs re-dispatch deterministically.
	sp := testSpec(t)
	cells := sp.Cells()
	a := Partition(cells, 4)
	b := Partition(cells, 4)
	if len(a) != len(b) {
		t.Fatalf("partition size changed: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || len(a[i].Cells) != len(b[i].Cells) {
			t.Fatalf("shard %d differs between identical runs", i)
		}
		for j := range a[i].Cells {
			if a[i].Cells[j] != b[i].Cells[j] {
				t.Fatalf("shard %s cell %d differs between identical runs", a[i].ID, j)
			}
		}
	}
}

func TestClassShardInRange(t *testing.T) {
	for _, rep := range []string{"1", "11", "101", "0", "10"} {
		for _, n := range []int{1, 2, 5, 16} {
			if s := classShard(rep, n); s < 0 || s >= n {
				t.Fatalf("classShard(%q, %d) = %d out of range", rep, n, s)
			}
		}
	}
}
