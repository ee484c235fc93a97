package hypercall

import (
	"testing"

	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
)

// FuzzDecodeBatch feeds arbitrary byte streams to the frame decoder the
// way Ring.Drain consumes them: frames decoded from the front until the
// stream is empty or rejected. The decoder must never panic, must make
// strict forward progress, and everything it accepts must re-encode to a
// frame that decodes to the same request — decode is a left inverse of
// encode on its entire accepted domain, not just on canonical output.
func FuzzDecodeBatch(f *testing.F) {
	// Seed corpus from the unit tests: every op's canonical frame, the
	// concatenated all-ops batch, and the pinned garbage cases.
	var batch []byte
	for _, op := range cleancache.OpCodes() {
		frame := EncodeRequest(nil, sampleRequest(op))
		f.Add(frame)
		batch = append(batch, frame...)
	}
	f.Add(batch)
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		rest := data
		for len(rest) > 0 {
			req, n, err := DecodeRequest(rest)
			if err != nil {
				break
			}
			if n <= 0 || n > len(rest) {
				t.Fatalf("decode consumed %d of %d bytes", n, len(rest))
			}
			re := EncodeRequest(nil, req)
			req2, n2, err := DecodeRequest(re)
			if err != nil {
				t.Fatalf("re-encoded frame rejected: %v (req %+v)", err, req)
			}
			if n2 != len(re) {
				t.Fatalf("re-encoded frame consumed %d of %d bytes", n2, len(re))
			}
			if req2 != req {
				t.Fatalf("re-encode round trip:\n got %+v\nwant %+v", req2, req)
			}
			rest = rest[n:]
		}
	})
}

// FuzzCompletionStream feeds arbitrary byte streams to the completion
// decoder the way deliverCompletionsLocked consumes them: never panic,
// strict forward progress, and everything accepted must re-encode to a
// frame that decodes identically.
func FuzzCompletionStream(f *testing.F) {
	var stream []byte
	for _, c := range []Completion{
		{Tag: 0, Ok: false},
		{Tag: 1, Ok: true, Count: 1, At: 1800},
		{Tag: ^uint64(0), Ok: true, Count: -9, At: 1 << 40},
	} {
		frame := EncodeCompletion(nil, c)
		f.Add(frame)
		stream = append(stream, frame...)
	}
	f.Add(stream)
	f.Add([]byte{})
	f.Add([]byte{0xf9})
	f.Fuzz(func(t *testing.T, data []byte) {
		rest := data
		for len(rest) > 0 {
			c, n, err := DecodeCompletion(rest)
			if err != nil {
				break
			}
			if n <= 0 || n > len(rest) {
				t.Fatalf("decode consumed %d of %d bytes", n, len(rest))
			}
			re := EncodeCompletion(nil, c)
			c2, n2, err := DecodeCompletion(re)
			if err != nil {
				t.Fatalf("re-encoded completion rejected: %v (%+v)", err, c)
			}
			if n2 != len(re) || c2 != c {
				t.Fatalf("re-encode round trip:\n got %+v (%d bytes)\nwant %+v (%d bytes)", c2, n2, c, len(re))
			}
			rest = rest[n:]
		}
	})
}

// FuzzRoundTrip drives structured requests through encode→decode and
// demands exact equality and full consumption, for every op code and
// arbitrary field values (including the signed/huge varint corners).
func FuzzRoundTrip(f *testing.F) {
	for _, op := range cleancache.OpCodes() {
		r := sampleRequest(op)
		f.Add(byte(op), int64(r.VM), int64(r.Key.Pool), r.Key.Inode,
			r.Key.Block, r.Name, int64(r.Spec.Store),
			int64(r.Spec.Weight), int64(r.To))
	}
	f.Fuzz(func(t *testing.T, op byte, vm, pool int64, inode uint64,
		block int64, name string, store, weight, to int64) {
		ops := cleancache.OpCodes()
		req := cleancache.Request{Op: ops[int(op)%len(ops)], VM: cleancache.VMID(vm)}
		// Populate exactly the fields this op carries on the wire,
		// mirroring the EncodeRequest field list.
		switch req.Op {
		case cleancache.OpGet, cleancache.OpPut, cleancache.OpFlushPage:
			req.Key = cleancache.Key{Pool: cleancache.PoolID(pool), Inode: inode, Block: block}
		case cleancache.OpFlushInode:
			req.Key = cleancache.Key{Pool: cleancache.PoolID(pool), Inode: inode}
		case cleancache.OpCreateCgroup:
			req.Name = name
			req.Spec = cgroup.HCacheSpec{Store: cgroup.StoreType(store), Weight: int(weight)}
		case cleancache.OpDestroyCgroup, cleancache.OpGetStats:
			req.Key = cleancache.Key{Pool: cleancache.PoolID(pool)}
		case cleancache.OpSetCgWeight:
			req.Key = cleancache.Key{Pool: cleancache.PoolID(pool)}
			req.Spec = cgroup.HCacheSpec{Store: cgroup.StoreType(store), Weight: int(weight)}
		case cleancache.OpMigrateObject:
			req.Key = cleancache.Key{Pool: cleancache.PoolID(pool), Inode: inode}
			req.To = cleancache.PoolID(to)
		case cleancache.OpReadAhead:
			req.Key = cleancache.Key{Pool: cleancache.PoolID(pool), Inode: inode, Block: block}
			req.Count = to
		}
		buf := EncodeRequest(nil, req)
		got, n, err := DecodeRequest(buf)
		if err != nil {
			t.Fatalf("decode: %v (req %+v, frame %x)", err, req, buf)
		}
		if n != len(buf) {
			t.Fatalf("consumed %d of %d bytes (req %+v)", n, len(buf), req)
		}
		if got != req {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, req)
		}
	})
}
