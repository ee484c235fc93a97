package radix

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestInsertGetDelete(t *testing.T) {
	tr := New()
	if prev := tr.Insert(5, "a"); prev != nil {
		t.Fatalf("Insert new returned %v", prev)
	}
	if got := tr.Get(5); got != "a" {
		t.Fatalf("Get = %v", got)
	}
	if prev := tr.Insert(5, "b"); prev != "a" {
		t.Fatalf("Insert replace returned %v", prev)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
	if got := tr.Delete(5); got != "b" {
		t.Fatalf("Delete = %v", got)
	}
	if tr.Len() != 0 || tr.Get(5) != nil {
		t.Fatal("delete did not remove")
	}
}

func TestMissingKeys(t *testing.T) {
	tr := New()
	tr.Insert(100, 1)
	if tr.Get(99) != nil || tr.Get(0) != nil {
		t.Fatal("Get of absent key returned value")
	}
	if tr.Delete(99) != nil {
		t.Fatal("Delete of absent key returned value")
	}
	if tr.Get(-1) != nil || tr.Insert(-1, 1) != nil {
		t.Fatal("negative keys must be rejected")
	}
}

func TestLargeKeysGrowHeight(t *testing.T) {
	tr := New()
	keys := []int64{0, 63, 64, 4095, 4096, 1 << 30, 1 << 45}
	for i, k := range keys {
		tr.Insert(k, i)
	}
	for i, k := range keys {
		if got := tr.Get(k); got != i {
			t.Fatalf("Get(%d) = %v, want %d", k, got, i)
		}
	}
	if tr.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(keys))
	}
}

func TestGrowPreservesExisting(t *testing.T) {
	tr := New()
	tr.Insert(1, "one")
	tr.Insert(1<<40, "big") // forces multiple growth steps
	if tr.Get(1) != "one" {
		t.Fatal("growth lost small key")
	}
	if tr.Get(1<<40) != "big" {
		t.Fatal("big key missing")
	}
}

func TestForEachOrdered(t *testing.T) {
	tr := New()
	keys := []int64{900, 3, 77, 64, 1 << 20, 0}
	for _, k := range keys {
		tr.Insert(k, k)
	}
	var visited []int64
	tr.ForEach(func(k int64, v any) bool {
		visited = append(visited, k)
		return true
	})
	sorted := append([]int64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if len(visited) != len(sorted) {
		t.Fatalf("visited %d keys, want %d", len(visited), len(sorted))
	}
	for i := range sorted {
		if visited[i] != sorted[i] {
			t.Fatalf("order: got %v want %v", visited, sorted)
		}
	}
}

func TestForEachEarlyStop(t *testing.T) {
	tr := New()
	for i := int64(0); i < 100; i++ {
		tr.Insert(i, i)
	}
	n := 0
	tr.ForEach(func(int64, any) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("visited %d, want 10", n)
	}
}

func TestDeletePrunes(t *testing.T) {
	tr := New()
	tr.Insert(1<<30, "x")
	tr.Delete(1 << 30)
	// After pruning, the root should have no children.
	if tr.root.count != 0 {
		t.Fatalf("root count = %d after full delete", tr.root.count)
	}
}

// Property: the tree behaves exactly like a map[int64]any.
func TestPropertyMatchesMap(t *testing.T) {
	prop := func(ops []struct {
		Key uint32
		Del bool
	}) bool {
		tr := New()
		ref := make(map[int64]int)
		for i, op := range ops {
			k := int64(op.Key)
			if op.Del {
				_, inRef := ref[k]
				got := tr.Delete(k)
				if inRef != (got != nil) {
					return false
				}
				delete(ref, k)
			} else {
				tr.Insert(k, i)
				ref[k] = i
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			if tr.Get(k) != v {
				return false
			}
		}
		count := 0
		ok := true
		tr.ForEach(func(k int64, v any) bool {
			count++
			if rv, exists := ref[k]; !exists || rv != v {
				ok = false
				return false
			}
			return true
		})
		return ok && count == len(ref)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Trees drawn from one arena trade nodes and headers among themselves as
// they grow, shrink and are released; each must keep behaving exactly
// like a map[int64]int throughout, and a reused tree must start empty
// and at height zero, whatever its last tenant held.
func TestArenaTreesMatchMaps(t *testing.T) {
	var arena Arena
	const trees = 4
	tr := make([]*Tree, trees)
	ref := make([]map[int64]int, trees)
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 20000; step++ {
		i := rng.Intn(trees)
		if tr[i] == nil {
			tr[i], ref[i] = arena.New(), make(map[int64]int)
			if tr[i].Len() != 0 || tr[i].height != 0 || tr[i].root.count != 0 {
				t.Fatalf("step %d: reused tree is not empty: len %d height %d root count %d",
					step, tr[i].Len(), tr[i].height, tr[i].root.count)
			}
		}
		// Keys cluster in a few leaves and span several heights.
		k := rng.Int63n(64) << (uint(rng.Intn(4)) * 9)
		switch op := rng.Intn(100); {
		case op < 50:
			prev, had := ref[i][k]
			if got := tr[i].Insert(k, step); had != (got != nil) || had && got != prev {
				t.Fatalf("step %d: Insert(%d) returned %v, reference had %v (%v)", step, k, got, prev, had)
			}
			ref[i][k] = step
		case op < 90:
			prev, had := ref[i][k]
			if got := tr[i].Delete(k); had != (got != nil) || had && got != prev {
				t.Fatalf("step %d: Delete(%d) returned %v, reference had %v (%v)", step, k, got, prev, had)
			}
			delete(ref[i], k)
		default:
			arena.Release(tr[i])
			tr[i] = nil
			continue
		}
		if tr[i].Len() != len(ref[i]) {
			t.Fatalf("step %d: Len %d, reference %d", step, tr[i].Len(), len(ref[i]))
		}
		if step%64 == 0 {
			n := 0
			tr[i].ForEach(func(k int64, v any) bool {
				if want, ok := ref[i][k]; !ok || v != want {
					t.Fatalf("step %d: tree holds %d=%v, reference %v (%v)", step, k, v, want, ok)
				}
				n++
				return true
			})
			if n != len(ref[i]) {
				t.Fatalf("step %d: walked %d keys, reference has %d", step, n, len(ref[i]))
			}
		}
	}
	// Free nodes are empty: a stale slot would surface as a phantom key.
	for n := arena.nodes; n != nil; n, _ = n.slots[0].(*node) {
		if n.count != 0 {
			t.Fatalf("free node has count %d", n.count)
		}
		for i, s := range n.slots[1:] {
			if s != nil {
				t.Fatalf("free node keeps slot %d", i+1)
			}
		}
	}
}
