package fsmodel

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAllocatorDisjointExtents(t *testing.T) {
	a := NewAllocator()
	f1 := a.Alloc(10)
	f2 := a.Alloc(5)
	if f1.Inode == f2.Inode {
		t.Fatal("inodes not unique")
	}
	end1 := f1.DiskOffset + f1.Size()
	if f2.DiskOffset < end1 {
		t.Fatalf("extents overlap: f1 ends %d, f2 starts %d", end1, f2.DiskOffset)
	}
	if a.Allocated() != 15*BlockSize {
		t.Fatalf("Allocated = %d, want %d", a.Allocated(), 15*BlockSize)
	}
}

func TestAllocMinimumOneBlock(t *testing.T) {
	a := NewAllocator()
	f := a.Alloc(0)
	if f.Blocks != 1 {
		t.Fatalf("Blocks = %d, want 1", f.Blocks)
	}
}

func TestBlockOffsetSequential(t *testing.T) {
	a := NewAllocator()
	a.Alloc(3) // displace start
	f := a.Alloc(4)
	for b := int64(1); b < f.Blocks; b++ {
		if f.BlockOffset(b) != f.BlockOffset(b-1)+BlockSize {
			t.Fatalf("block %d not contiguous", b)
		}
	}
}

func TestNewFileSetFixedSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewAllocator()
	fs := NewFileSet("web", a, 100, SizeDist{MeanBlocks: 4}, rng)
	if fs.Count() != 100 {
		t.Fatalf("Count = %d", fs.Count())
	}
	if fs.TotalBlocks() != 400 {
		t.Fatalf("TotalBlocks = %d, want 400", fs.TotalBlocks())
	}
	if fs.TotalBytes() != 400*BlockSize {
		t.Fatalf("TotalBytes = %d", fs.TotalBytes())
	}
}

func TestNewFileSetSpreadBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewAllocator()
	fs := NewFileSet("v", a, 500, SizeDist{MeanBlocks: 10, Spread: 5}, rng)
	for i := 0; i < fs.Count(); i++ {
		b := fs.File(i).Blocks
		if b < 5 || b > 15 {
			t.Fatalf("file %d has %d blocks, want [5,15]", i, b)
		}
	}
}

func TestReplaceChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewAllocator()
	fs := NewFileSet("proxy", a, 10, SizeDist{MeanBlocks: 4}, rng)
	before := fs.TotalBlocks()
	old, created := fs.Replace(3, a, SizeDist{MeanBlocks: 8}, rng)
	if old.Inode == created.Inode {
		t.Fatal("replacement reused inode")
	}
	if fs.File(3) != created {
		t.Fatal("fileset slot not updated")
	}
	if fs.TotalBlocks() != before-old.Blocks+created.Blocks {
		t.Fatalf("TotalBlocks not adjusted: %d", fs.TotalBlocks())
	}
}

func TestAppendGrowsFile(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := NewAllocator()
	fs := NewFileSet("log", a, 1, SizeDist{MeanBlocks: 1}, rng)
	fs.Append(0, 5)
	if fs.File(0).Blocks != 6 {
		t.Fatalf("Blocks = %d, want 6", fs.File(0).Blocks)
	}
	if fs.TotalBlocks() != 6 {
		t.Fatalf("TotalBlocks = %d, want 6", fs.TotalBlocks())
	}
}

// Property: inodes are unique and sizes within distribution bounds for any
// construction parameters.
func TestPropertyFileSetInvariants(t *testing.T) {
	prop := func(count uint8, mean, spread uint8) bool {
		rng := rand.New(rand.NewSource(5))
		a := NewAllocator()
		n := int(count%64) + 1
		fs := NewFileSet("p", a, n, SizeDist{MeanBlocks: int64(mean % 32), Spread: int64(spread % 8)}, rng)
		seen := make(map[FileID]bool, n)
		var sum int64
		for i := 0; i < fs.Count(); i++ {
			f := fs.File(i)
			if f.Blocks < 1 || seen[f.Inode] {
				return false
			}
			seen[f.Inode] = true
			sum += f.Blocks
		}
		return sum == fs.TotalBlocks()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
