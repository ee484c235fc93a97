// Package fsmodel models the guest file systems under the simulated page
// cache: file sets (directories of files in the Filebench sense), inode
// numbering, and the mapping from (file, block) to byte extents on the
// backing virtual disk. Sequential file access therefore translates to
// sequential disk access, which the HDD model rewards — the same effect
// that shapes the paper's videoserver and webserver numbers.
package fsmodel

import (
	"fmt"
	"math/rand"
)

// BlockSize is the unit of caching and I/O: one guest OS page.
const BlockSize = 4096

// FileID is an inode number, unique within a VM.
type FileID uint64

// File is one file in a file set: a run of blocks laid out contiguously on
// the backing disk.
type File struct {
	Inode      FileID
	Blocks     int64 // length in BlockSize units
	DiskOffset int64 // byte offset of block 0 on the backing device
}

// Size returns the file length in bytes.
func (f *File) Size() int64 { return f.Blocks * BlockSize }

// BlockOffset returns the disk byte offset of the given file block.
func (f *File) BlockOffset(block int64) int64 {
	return f.DiskOffset + block*BlockSize
}

// Allocator hands out inode numbers and disk extents for one virtual disk.
// It is a simple bump allocator: files never move, deletions leave holes
// (the simulation does not model disk-space reuse; capacity is not a
// constraint in any experiment).
type Allocator struct {
	nextInode FileID
	nextByte  int64
}

// NewAllocator returns an allocator starting at inode 1, disk offset 0.
func NewAllocator() *Allocator {
	return &Allocator{nextInode: 1}
}

// Alloc creates a file of the given number of blocks.
func (a *Allocator) Alloc(blocks int64) *File {
	if blocks < 1 {
		blocks = 1
	}
	f := &File{Inode: a.nextInode, Blocks: blocks, DiskOffset: a.nextByte}
	a.nextInode++
	a.nextByte += blocks * BlockSize
	return f
}

// Allocated reports the total bytes ever allocated on the disk.
func (a *Allocator) Allocated() int64 { return a.nextByte }

// FileSet is a named collection of files, the unit Filebench profiles
// operate over. Files may be replaced in place (delete+create churn).
type FileSet struct {
	Name  string
	files []*File
	total int64 // blocks
}

// SizeDist describes a file-size distribution in blocks.
type SizeDist struct {
	MeanBlocks int64
	// Spread selects a uniform range [Mean-Spread, Mean+Spread]; zero
	// means all files have exactly MeanBlocks.
	Spread int64
}

func (d SizeDist) sample(rng *rand.Rand) int64 {
	if d.Spread <= 0 {
		if d.MeanBlocks < 1 {
			return 1
		}
		return d.MeanBlocks
	}
	lo := d.MeanBlocks - d.Spread
	if lo < 1 {
		lo = 1
	}
	hi := d.MeanBlocks + d.Spread
	return lo + rng.Int63n(hi-lo+1)
}

// NewFileSet allocates count files with sizes drawn from dist.
func NewFileSet(name string, alloc *Allocator, count int, dist SizeDist, rng *rand.Rand) *FileSet {
	fs := &FileSet{Name: name, files: make([]*File, 0, count)}
	for i := 0; i < count; i++ {
		f := alloc.Alloc(dist.sample(rng))
		fs.files = append(fs.files, f)
		fs.total += f.Blocks
	}
	return fs
}

// Count reports the number of files in the set.
func (fs *FileSet) Count() int { return len(fs.files) }

// File returns the i-th file.
func (fs *FileSet) File(i int) *File { return fs.files[i] }

// TotalBlocks reports the aggregate size of the set in blocks.
func (fs *FileSet) TotalBlocks() int64 { return fs.total }

// TotalBytes reports the aggregate size of the set in bytes.
func (fs *FileSet) TotalBytes() int64 { return fs.total * BlockSize }

// Replace models delete+create churn: the i-th file is replaced by a fresh
// file (new inode, new extent) of the given size. It returns the old file
// so the caller can invalidate its cached blocks.
func (fs *FileSet) Replace(i int, alloc *Allocator, dist SizeDist, rng *rand.Rand) (old, created *File) {
	old = fs.files[i]
	created = alloc.Alloc(dist.sample(rng))
	fs.files[i] = created
	fs.total += created.Blocks - old.Blocks
	return old, created
}

// Append grows the i-th file by n blocks (log appends, mail delivery).
func (fs *FileSet) Append(i int, n int64) {
	fs.files[i].Blocks += n
	fs.total += n
}

// String implements fmt.Stringer for debugging.
func (fs *FileSet) String() string {
	return fmt.Sprintf("fileset %s: %d files, %d blocks (%.1f MiB)",
		fs.Name, len(fs.files), fs.total, float64(fs.total*BlockSize)/(1<<20))
}
