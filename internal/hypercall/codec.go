package hypercall

import (
	"encoding/binary"
	"fmt"
	"time"

	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
)

// Wire layout of one encoded request frame (all integers varint-encoded;
// signed fields zigzag):
//
//	byte 0        op code
//	varint        vm id
//	per-op fields:
//	  GET, PUT, FLUSH_PAGE  pool, inode, block
//	  FLUSH_INODE           pool, inode
//	  CREATE_CGROUP         name-len, name bytes, spec.store, spec.weight
//	  DESTROY_CGROUP        pool
//	  SET_CG_WEIGHT         pool, spec.store, spec.weight
//	  MIGRATE_OBJECT        pool (source), to-pool, inode
//	  GET_STATS             pool
//	  READ_AHEAD            pool, inode, block, count
//
// The page payload of GET/PUT is not part of the frame: in the model the
// page travels via the per-page copy cost; on a real wire it would ride
// in a sidecar buffer indexed by frame position.
//
// Two framing extensions carry the asynchronous get pipeline:
//
//	0xF8  tagged request   marker, varint tag, then a request frame
//	0xF9  completion       marker, varint tag, ok byte, count, ready-at
//
// A tagged request is an in-flight get whose answer arrives out of order
// on the completion path; the tag demultiplexes the completion back to
// its waiter. Both markers sit outside the OpCode value range, so
// DecodeRequest rejects them and plain frame streams are unaffected.

// FNV-1a (64-bit) parameters.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// Checksum is the FNV-1a digest the transport stamps on every crossing.
// The receive side recomputes it over the delivered frames and rejects
// the whole batch on mismatch, turning in-flight corruption into a clean
// retry instead of decoding garbage.
func Checksum(b []byte) uint64 {
	h := fnvOffset
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// appendUint appends a uvarint.
func appendUint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// appendInt appends a zigzag varint.
func appendInt(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// EncodeRequest appends the wire encoding of req to buf and returns the
// extended slice.
func EncodeRequest(buf []byte, req cleancache.Request) []byte {
	buf = append(buf, byte(req.Op))
	buf = appendInt(buf, int64(req.VM))
	switch req.Op {
	case cleancache.OpGet, cleancache.OpPut, cleancache.OpFlushPage:
		buf = appendInt(buf, int64(req.Key.Pool))
		buf = appendUint(buf, req.Key.Inode)
		buf = appendInt(buf, req.Key.Block)
	case cleancache.OpFlushInode:
		buf = appendInt(buf, int64(req.Key.Pool))
		buf = appendUint(buf, req.Key.Inode)
	case cleancache.OpCreateCgroup:
		buf = appendUint(buf, uint64(len(req.Name)))
		buf = append(buf, req.Name...)
		buf = appendUint(buf, uint64(req.Spec.Store))
		buf = appendInt(buf, int64(req.Spec.Weight))
	case cleancache.OpDestroyCgroup, cleancache.OpGetStats:
		buf = appendInt(buf, int64(req.Key.Pool))
	case cleancache.OpSetCgWeight:
		buf = appendInt(buf, int64(req.Key.Pool))
		buf = appendUint(buf, uint64(req.Spec.Store))
		buf = appendInt(buf, int64(req.Spec.Weight))
	case cleancache.OpMigrateObject:
		buf = appendInt(buf, int64(req.Key.Pool))
		buf = appendInt(buf, int64(req.To))
		buf = appendUint(buf, req.Key.Inode)
	case cleancache.OpReadAhead:
		buf = appendInt(buf, int64(req.Key.Pool))
		buf = appendUint(buf, req.Key.Inode)
		buf = appendInt(buf, req.Key.Block)
		buf = appendInt(buf, req.Count)
	}
	return buf
}

// decoder walks one frame.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("hypercall: truncated uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) int() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("hypercall: truncated varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) bytes(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)-d.off) < n {
		d.err = fmt.Errorf("hypercall: truncated payload at offset %d", d.off)
		return nil
	}
	out := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return out
}

// DecodeRequest decodes one frame from the front of b, returning the
// request and the number of bytes consumed.
func DecodeRequest(b []byte) (cleancache.Request, int, error) {
	if len(b) == 0 {
		return cleancache.Request{}, 0, fmt.Errorf("hypercall: empty frame")
	}
	op := cleancache.OpCode(b[0])
	if !op.Valid() {
		return cleancache.Request{}, 0, fmt.Errorf("hypercall: unknown op code %d", b[0])
	}
	d := &decoder{b: b, off: 1}
	req := cleancache.Request{Op: op, VM: cleancache.VMID(d.int())}
	switch op {
	case cleancache.OpGet, cleancache.OpPut, cleancache.OpFlushPage:
		req.Key.Pool = cleancache.PoolID(d.int())
		req.Key.Inode = d.uint()
		req.Key.Block = d.int()
	case cleancache.OpFlushInode:
		req.Key.Pool = cleancache.PoolID(d.int())
		req.Key.Inode = d.uint()
	case cleancache.OpCreateCgroup:
		req.Name = string(d.bytes(d.uint()))
		req.Spec.Store = cgroup.StoreType(d.uint())
		req.Spec.Weight = int(d.int())
	case cleancache.OpDestroyCgroup, cleancache.OpGetStats:
		req.Key.Pool = cleancache.PoolID(d.int())
	case cleancache.OpSetCgWeight:
		req.Key.Pool = cleancache.PoolID(d.int())
		req.Spec.Store = cgroup.StoreType(d.uint())
		req.Spec.Weight = int(d.int())
	case cleancache.OpMigrateObject:
		req.Key.Pool = cleancache.PoolID(d.int())
		req.To = cleancache.PoolID(d.int())
		req.Key.Inode = d.uint()
	case cleancache.OpReadAhead:
		req.Key.Pool = cleancache.PoolID(d.int())
		req.Key.Inode = d.uint()
		req.Key.Block = d.int()
		req.Count = d.int()
	}
	if d.err != nil {
		return cleancache.Request{}, 0, d.err
	}
	return req, d.off, nil
}

// Frame markers for the async get pipeline. Both are above the OpCode
// value range so a tagged or completion frame can never be mistaken for
// a plain request frame (and vice versa).
const (
	markerTagged     byte = 0xF8
	markerCompletion byte = 0xF9
)

// Frame is one decoded ring entry: a plain request, or a tagged request
// whose completion will arrive out of order.
type Frame struct {
	Tagged bool
	Tag    uint64
	Req    cleancache.Request
}

// EncodeTagged appends a tagged request frame — the in-flight half of an
// asynchronous get — and returns the extended slice.
func EncodeTagged(buf []byte, tag uint64, req cleancache.Request) []byte {
	buf = append(buf, markerTagged)
	buf = appendUint(buf, tag)
	return EncodeRequest(buf, req)
}

// DecodeFrame decodes one ring entry from the front of b: either a plain
// request frame or a tagged one. Returns the frame and the bytes
// consumed.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) == 0 {
		return Frame{}, 0, fmt.Errorf("hypercall: empty frame")
	}
	if b[0] != markerTagged {
		req, n, err := DecodeRequest(b)
		return Frame{Req: req}, n, err
	}
	d := &decoder{b: b, off: 1}
	tag := d.uint()
	if d.err != nil {
		return Frame{}, 0, d.err
	}
	req, n, err := DecodeRequest(b[d.off:])
	if err != nil {
		return Frame{}, 0, err
	}
	return Frame{Tagged: true, Tag: tag, Req: req}, d.off + n, nil
}

// Completion is the hypervisor→guest half of an asynchronous get: the
// tag names the waiter, Ok the verdict, Count the blocks a READ_AHEAD
// extracted, and At the virtual time the answer is ready for the guest.
type Completion struct {
	Tag   uint64
	Ok    bool
	Count int64
	At    time.Duration
}

// EncodeCompletion appends the wire encoding of c and returns the
// extended slice.
func EncodeCompletion(buf []byte, c Completion) []byte {
	buf = append(buf, markerCompletion)
	buf = appendUint(buf, c.Tag)
	ok := byte(0)
	if c.Ok {
		ok = 1
	}
	buf = append(buf, ok)
	buf = appendInt(buf, c.Count)
	buf = appendInt(buf, int64(c.At))
	return buf
}

// DecodeCompletion decodes one completion frame from the front of b,
// returning the completion and the bytes consumed.
func DecodeCompletion(b []byte) (Completion, int, error) {
	if len(b) == 0 {
		return Completion{}, 0, fmt.Errorf("hypercall: empty completion")
	}
	if b[0] != markerCompletion {
		return Completion{}, 0, fmt.Errorf("hypercall: not a completion frame (marker %#x)", b[0])
	}
	d := &decoder{b: b, off: 1}
	c := Completion{Tag: d.uint()}
	switch okb := d.bytes(1); {
	case d.err != nil:
	case okb[0] > 1:
		d.err = fmt.Errorf("hypercall: bad completion verdict %d", okb[0])
	default:
		c.Ok = okb[0] == 1
	}
	c.Count = d.int()
	c.At = time.Duration(d.int())
	if d.err != nil {
		return Completion{}, 0, d.err
	}
	return c, d.off, nil
}
