package pagecache

import (
	"reflect"
	"testing"
	"time"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cgroup"
	"doubledecker/internal/fsmodel"
)

func TestReadaheadCoalescesDiskRuns(t *testing.T) {
	r := newRig(64*mib, 0)
	g := r.newGroup("c1", 0)
	f := r.newFile(64)
	reads := r.disk.Stats().Reads
	r.cache.Read(0, g, f, 0, 64)
	delta := r.disk.Stats().Reads - reads
	if delta != 1 {
		t.Fatalf("sequential cold read issued %d device reads, want 1 (readahead)", delta)
	}
}

func TestReadaheadStopsAtResidentBlock(t *testing.T) {
	r := newRig(64*mib, 0)
	g := r.newGroup("c1", 0)
	f := r.newFile(64)
	r.cache.Read(0, g, f, 32, 1) // block 32 resident
	reads := r.disk.Stats().Reads
	r.cache.Read(time.Second, g, f, 0, 64)
	delta := r.disk.Stats().Reads - reads
	if delta != 2 {
		t.Fatalf("run should split around the resident block: %d device reads, want 2", delta)
	}
}

func TestDirtyThrottlingBoundsBacklog(t *testing.T) {
	r := newRig(32*mib, 0) // dirty limit = 32 MiB/10 = ~819 pages
	g := r.newGroup("writer", 0)
	f := r.newFile(8192)
	var stalled bool
	for i := int64(0); i < 8192; i += 64 {
		lat := r.cache.Write(0, g, f, i, 64)
		if lat > 5*time.Millisecond {
			stalled = true
		}
	}
	if !stalled {
		t.Fatal("writer never stalled in foreground writeback")
	}
	limit := r.cache.dirtyLimit()
	if got := r.cache.DirtyPages(); got > limit+256 {
		t.Fatalf("dirty backlog %d far above limit %d", got, limit)
	}
}

func TestDirtyThrottlingIsPerGroup(t *testing.T) {
	r := newRig(32*mib, 0)
	hog := r.newGroup("hog", 0)
	meek := r.newGroup("meek", 0)
	big := r.newFile(8192)
	small := r.newFile(4)
	// The hog floods its own dirty list past the threshold.
	for i := int64(0); i < 8192; i += 64 {
		r.cache.Write(0, hog, big, i, 64)
	}
	// The meek writer's tiny write must not pay the hog's debt.
	lat := r.cache.Write(0, meek, small, 0, 4)
	if lat > time.Millisecond {
		t.Fatalf("innocent writer stalled %v behind another group's dirt", lat)
	}
}

func TestFlusherFairAcrossGroups(t *testing.T) {
	r := newRig(64*mib, 0)
	a := r.newGroup("a", 0)
	b := r.newGroup("b", 0)
	fa := r.newFile(512)
	fb := r.newFile(512)
	r.cache.Write(0, a, fa, 0, 512)
	r.cache.Write(0, b, fb, 0, 512)
	// A small flush budget must clean some of BOTH groups.
	r.cache.FlushDirty(0, 256)
	sa := r.cache.Stats(a).DiskWrites
	sb := r.cache.Stats(b).DiskWrites
	if sa == 0 || sb == 0 {
		t.Fatalf("flusher starved a group: a=%d b=%d", sa, sb)
	}
}

func TestAccessHookObservesReads(t *testing.T) {
	r := newRig(64*mib, 0)
	g := r.newGroup("c1", 0)
	f := r.newFile(8)
	var seen []int64
	r.cache.SetAccessHook(func(hg *cgroup.Group, inode uint64, block int64) {
		if hg != g || inode != uint64(f.Inode) {
			t.Fatalf("hook saw wrong identity: %v %d", hg, inode)
		}
		seen = append(seen, block)
	})
	r.cache.Read(0, g, f, 2, 3)
	if len(seen) != 3 || seen[0] != 2 || seen[2] != 4 {
		t.Fatalf("hook observed %v", seen)
	}
	r.cache.SetAccessHook(nil)
	r.cache.Read(0, g, f, 0, 1)
	if len(seen) != 3 {
		t.Fatal("hook fired after removal")
	}
}

func TestResidentProbeDoesNotTouch(t *testing.T) {
	r := newRig(64*mib, 0)
	g := r.newGroup("c1", 0)
	f := r.newFile(4)
	r.cache.Read(0, g, f, 0, 4)
	before := r.cache.Stats(g)
	if !r.cache.Resident(uint64(f.Inode), 0) {
		t.Fatal("block should be resident")
	}
	if r.cache.Resident(uint64(f.Inode), 99) {
		t.Fatal("absent block reported resident")
	}
	if after := r.cache.Stats(g); after != before {
		t.Fatal("Resident probe mutated stats")
	}
}

// recDisk records the block ranges read from the virtual disk.
type recDisk struct {
	blockdev.Device
	runs [][2]int64 // [first block, end block) per device read
}

func (d *recDisk) Read(now time.Duration, offset, size int64) (time.Duration, error) {
	first := offset / fsmodel.BlockSize
	d.runs = append(d.runs, [2]int64{first, first + size/fsmodel.BlockSize})
	return d.Device.Read(now, offset, size)
}

func TestReadMissRunOneLoop(t *testing.T) {
	// One miss loop serves every window, with and without a front: blocks
	// 0..5 are read with block 3 waiting in the second-chance cache. The
	// disk run is split by the hit, never by a window boundary, and blocks
	// enter the page cache in access order on every setting.
	for _, tc := range []struct {
		name   string
		window int // 0 = never set
		front  bool
	}{
		{"unset/front", 0, true},
		{"unset/nofront", 0, false},
		{"window8/front", 8, true},
		{"window8/nofront", 8, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hcache := int64(0)
			if tc.front {
				hcache = 32 * mib
			}
			r := newRig(64*mib, hcache)
			disk := &recDisk{Device: r.disk}
			c := New(r.root, r.front, disk)
			if tc.window != 0 {
				c.SetReadWindow(tc.window)
			}
			g := r.newGroup("c1", 0)
			f := r.newFile(6)
			inode := uint64(f.Inode)
			// The allocator decides where the file starts on the device.
			base := f.BlockOffset(0) / fsmodel.BlockSize
			wantRuns := [][2]int64{{base, base + 6}}
			wantCC := int64(0)
			if tc.front {
				if ok, _ := r.front.Put(0, g, inode, 3); !ok {
					t.Fatal("seeding block 3 in the second-chance cache failed")
				}
				wantRuns = [][2]int64{{base, base + 3}, {base + 4, base + 6}}
				wantCC = 1
			}
			var seen []int64
			c.SetAccessHook(func(_ *cgroup.Group, _ uint64, block int64) { seen = append(seen, block) })

			c.Read(0, g, f, 0, 6)

			if !reflect.DeepEqual(disk.runs, wantRuns) {
				t.Fatalf("disk reads = %v, want %v", disk.runs, wantRuns)
			}
			if st := c.Stats(g); st.Misses != 6 || st.CCHits != wantCC || st.DiskReads != 6-wantCC || st.Hits != 0 {
				t.Fatalf("stats = %+v, want 6 misses, %d second-chance hits", st, wantCC)
			}
			if want := []int64{0, 1, 2, 3, 4, 5}; !reflect.DeepEqual(seen, want) {
				t.Fatalf("access hook order = %v, want %v", seen, want)
			}
			// Access-order insertion: reclaim walks the file front to back.
			for b := int64(0); b < 6; b++ {
				if freed, _ := c.ReclaimFile(time.Second, g, 1); freed != 1 {
					t.Fatalf("reclaim freed %d pages, want 1", freed)
				}
				for q := int64(0); q < 6; q++ {
					if got, want := c.Resident(inode, q), q > b; got != want {
						t.Fatalf("after %d evictions block %d resident=%v, want %v (LRU not in access order)", b+1, q, got, want)
					}
				}
			}
		})
	}
}
