package hypercall

import (
	"testing"

	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
)

// sampleRequest builds a representative request for op, exercising every
// field that op carries on the wire (including signed and large values).
func sampleRequest(op cleancache.OpCode) cleancache.Request {
	req := cleancache.Request{Op: op, VM: 7}
	switch op {
	case cleancache.OpGet, cleancache.OpFlushPage:
		req.Key = cleancache.Key{Pool: 3, Inode: 1 << 40, Block: -12}
	case cleancache.OpPut:
		req.Key = cleancache.Key{Pool: 9, Inode: 42, Block: 1 << 33}
	case cleancache.OpFlushInode:
		req.Key = cleancache.Key{Pool: 5, Inode: 99}
	case cleancache.OpCreateCgroup:
		req.Name = "web-frontend"
		req.Spec = cgroup.HCacheSpec{Store: cgroup.StoreHybrid, Weight: 75}
	case cleancache.OpDestroyCgroup, cleancache.OpGetStats:
		req.Key = cleancache.Key{Pool: 11}
	case cleancache.OpSetCgWeight:
		req.Key = cleancache.Key{Pool: 2}
		req.Spec = cgroup.HCacheSpec{Store: cgroup.StoreSSD, Weight: 30}
	case cleancache.OpMigrateObject:
		req.Key = cleancache.Key{Pool: 4, Inode: 77}
		req.To = 6
	case cleancache.OpReadAhead:
		req.Key = cleancache.Key{Pool: 8, Inode: 1 << 50, Block: 1 << 20}
		req.Count = 64
	}
	return req
}

func TestCodecRoundTripAllOps(t *testing.T) {
	for _, op := range cleancache.OpCodes() {
		want := sampleRequest(op)
		buf := EncodeRequest(nil, want)
		got, n, err := DecodeRequest(buf)
		if err != nil {
			t.Fatalf("%v: decode: %v", op, err)
		}
		if n != len(buf) {
			t.Fatalf("%v: consumed %d of %d bytes", op, n, len(buf))
		}
		if got != want {
			t.Fatalf("%v: round trip\n got %+v\nwant %+v", op, got, want)
		}
	}
}

func TestCodecFrameStream(t *testing.T) {
	// Concatenated frames decode back in order, as Ring.Drain relies on.
	var buf []byte
	var want []cleancache.Request
	for _, op := range cleancache.OpCodes() {
		req := sampleRequest(op)
		buf = EncodeRequest(buf, req)
		want = append(want, req)
	}
	for i := 0; len(buf) > 0; i++ {
		got, n, err := DecodeRequest(buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got != want[i] {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want[i])
		}
		buf = buf[n:]
	}
}

func TestTaggedFrameRoundTrip(t *testing.T) {
	// A mixed stream of plain and tagged frames decodes back in order
	// with tags intact — the shape DrainFrames consumes.
	type wantFrame struct {
		tagged bool
		tag    uint64
		req    cleancache.Request
	}
	var buf []byte
	var want []wantFrame
	for _, op := range cleancache.OpCodes() {
		req := sampleRequest(op)
		buf = EncodeRequest(buf, req)
		want = append(want, wantFrame{req: req})
		if op == cleancache.OpGet {
			for _, tg := range []uint64{0, 1, 1 << 40, ^uint64(0)} {
				buf = EncodeTagged(buf, tg, req)
				want = append(want, wantFrame{tagged: true, tag: tg, req: req})
			}
		}
	}
	for i := 0; len(buf) > 0; i++ {
		f, n, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		w := want[i]
		if f.Tagged != w.tagged || f.Tag != w.tag || f.Req != w.req {
			t.Fatalf("frame %d:\n got %+v\nwant %+v", i, f, w)
		}
		buf = buf[n:]
	}
}

func TestCompletionRoundTrip(t *testing.T) {
	comps := []Completion{
		{Tag: 0, Ok: false, Count: 0, At: 0},
		{Tag: 1, Ok: true, Count: 1, At: 1800},
		{Tag: 1 << 50, Ok: true, Count: -3, At: 1 << 40},
		{Tag: ^uint64(0), Ok: false, Count: 1 << 40, At: 1},
	}
	var buf []byte
	for _, c := range comps {
		buf = EncodeCompletion(buf, c)
	}
	for i := 0; len(buf) > 0; i++ {
		got, n, err := DecodeCompletion(buf)
		if err != nil {
			t.Fatalf("completion %d: %v", i, err)
		}
		if got != comps[i] {
			t.Fatalf("completion %d:\n got %+v\nwant %+v", i, got, comps[i])
		}
		buf = buf[n:]
	}
}

func TestCompletionRejectsGarbage(t *testing.T) {
	if _, _, err := DecodeCompletion(nil); err == nil {
		t.Fatal("empty completion decoded")
	}
	// A request frame is not a completion.
	reqFrame := EncodeRequest(nil, sampleRequest(cleancache.OpGet))
	if _, _, err := DecodeCompletion(reqFrame); err == nil {
		t.Fatal("request frame decoded as completion")
	}
	full := EncodeCompletion(nil, Completion{Tag: 1 << 30, Ok: true, Count: 7, At: 12345})
	for cut := 1; cut < len(full); cut++ {
		if _, _, err := DecodeCompletion(full[:cut]); err == nil {
			t.Fatalf("truncated completion (%d of %d bytes) decoded", cut, len(full))
		}
	}
}

func TestDecodeRequestRejectsFramingMarkers(t *testing.T) {
	// The tagged/completion markers live outside the OpCode range; the
	// plain-request decoder must reject them rather than misparse.
	tagged := EncodeTagged(nil, 9, sampleRequest(cleancache.OpGet))
	if _, _, err := DecodeRequest(tagged); err == nil {
		t.Fatal("tagged frame decoded as plain request")
	}
	comp := EncodeCompletion(nil, Completion{Tag: 9, Ok: true})
	if _, _, err := DecodeRequest(comp); err == nil {
		t.Fatal("completion frame decoded as plain request")
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	if _, _, err := DecodeRequest(nil); err == nil {
		t.Fatal("empty frame decoded")
	}
	if _, _, err := DecodeRequest([]byte{0xff}); err == nil {
		t.Fatal("unknown op code decoded")
	}
	full := EncodeRequest(nil, sampleRequest(cleancache.OpPut))
	for cut := 1; cut < len(full); cut++ {
		if _, _, err := DecodeRequest(full[:cut]); err == nil {
			t.Fatalf("truncated frame (%d of %d bytes) decoded", cut, len(full))
		}
	}
}
