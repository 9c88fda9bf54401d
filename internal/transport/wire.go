package transport

import (
	"bytes"
	"fmt"
	"sync"

	"github.com/collablearn/ciarec/internal/param"
)

// Wire is the serializing backend: every payload is marshalled through
// the param binary codec into a pooled byte buffer and unmarshalled on
// the receiving side, so all parameter traffic exercises the exact
// bytes a multi-process deployment would put on the network.
//
// Wire panics on codec errors: the bytes were produced by the matching
// encoder in the same process, so a failure is a codec bug, not a
// runtime condition. Its transfer methods therefore always return nil
// errors — message loss is injected by the Faulty wrapper or modelled
// by the simulators' LossProb/DropoutProb, never by this backend.
type Wire struct {
	counters
	compressor
	bufs sync.Pool // *bytes.Buffer
}

var _ Transport = (*Wire)(nil)

// NewWire returns a fresh wire transport.
func NewWire() *Wire { return &Wire{} }

// Name implements Transport.
func (t *Wire) Name() string { return "wire" }

// Close implements Transport; the wire backend's pooled buffers need
// no teardown.
func (t *Wire) Close() error { return nil }

func (t *Wire) getBuf() *bytes.Buffer {
	if b, ok := t.bufs.Get().(*bytes.Buffer); ok {
		b.Reset()
		return b
	}
	return new(bytes.Buffer)
}

// encode marshals s into a pooled buffer and returns it with the
// encoded length (delta-coded against ref in compressed mode).
func (t *Wire) encode(s, ref *param.Set) (*bytes.Buffer, int64) {
	buf := t.getBuf()
	return buf, t.encodeSet(buf, s, ref)
}

// decode unmarshals an encoded stream into dst, which must have the
// encoded structure (and the encoder's ref in compressed delta mode).
func (t *Wire) decode(data []byte, dst, ref *param.Set) {
	if _, err := dst.DecodeFromRef(bytes.NewReader(data), ref); err != nil {
		panic(fmt.Sprintf("transport: wire decode: %v", err))
	}
}

// Send implements Transport: marshal, recycle the sender's set, and
// unmarshal into a pool-recycled set of the same structure.
func (t *Wire) Send(round, _ int, payload *param.Set, pool *param.Buffers) (*param.Set, error) {
	ref := t.sendRef(round)
	wire := int64(payload.WireBytes())
	buf, n := t.encode(payload, ref)
	recv := pool.GetShaped(payload)
	if recv == nil {
		// Pool cold (first rounds): clone the payload for its structure;
		// the decode below overwrites every value.
		recv = payload.Clone()
	}
	pool.Put(payload)
	t.decode(buf.Bytes(), recv, ref)
	t.bufs.Put(buf)
	t.messages.Add(1)
	t.bytes.Add(n)
	t.rawBytes.Add(wire)
	return recv, nil
}

// OpenBroadcast implements Transport: encode src once (coded absolute
// — receivers have no reference yet); every Deliver decodes the shared
// bytes into its receiver's set. In compressed mode the source also
// becomes the round's delta reference for uploads until Close.
func (t *Wire) OpenBroadcast(round int, src *param.Set) (Broadcast, error) {
	buf, n := t.encode(src, nil)
	t.setRef(round, src)
	return &wireBroadcast{t: t, buf: buf, n: n, wire: int64(src.WireBytes())}, nil
}

type wireBroadcast struct {
	t    *Wire
	buf  *bytes.Buffer
	n    int64
	wire int64
}

// Deliver decodes the broadcast bytes into dst. Concurrent Delivers
// share the read-only encoded buffer through per-call readers.
func (b *wireBroadcast) Deliver(_ int, dst *param.Set) error {
	b.t.decode(b.buf.Bytes(), dst, nil)
	b.t.bMessages.Add(1)
	b.t.bBytes.Add(b.n)
	b.t.rawBBytes.Add(b.wire)
	return nil
}

func (b *wireBroadcast) Close() {
	b.t.clearRef()
	b.t.bufs.Put(b.buf)
	b.buf = nil
}
