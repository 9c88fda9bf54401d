package transport

import (
	"bytes"
	"sync"

	"github.com/collablearn/ciarec/internal/param"
)

// Inproc is the pointer-passing backend: payloads cross the "network"
// as the same *param.Set the sender built, with wire sizes accounted
// from WireBytes. It preserves the pre-transport simulators'
// behaviour byte-identically and costs nothing per message.
//
// With a Compression level set it stops being a pure pointer pass:
// every transfer runs the same CPQ1 encode→decode round-trip the
// serializing backends apply — point-to-point payloads are quantized
// in place (ownership transfers through Send anyway), broadcasts are
// quantized into a pooled staging copy so the borrowed source is
// never mutated. A compressed simulation therefore computes identical
// values whichever backend carries it — inproc is the cheapest way to
// measure compression's model-quality effect.
type Inproc struct {
	counters
	compressor
	bufs  sync.Pool     // *bytes.Buffer, compressed mode only
	stage param.Buffers // broadcast staging sets, compressed mode only
}

var _ Transport = (*Inproc)(nil)

// NewInproc returns a fresh in-process transport.
func NewInproc() *Inproc { return &Inproc{} }

// Name implements Transport.
func (t *Inproc) Name() string { return "inproc" }

// Close implements Transport; the in-memory backend holds nothing.
func (t *Inproc) Close() error { return nil }

func (t *Inproc) getBuf() *bytes.Buffer {
	if b, ok := t.bufs.Get().(*bytes.Buffer); ok {
		b.Reset()
		return b
	}
	return new(bytes.Buffer)
}

// roundTrip applies the compressed codec's lossy effect: encode src
// against ref, decode the bytes into dst (which may be src itself for
// an in-place quantization). It returns the encoded size — the bytes
// a serializing backend would have moved.
func (t *Inproc) roundTrip(src, dst, ref *param.Set) int64 {
	buf := t.getBuf()
	n := t.encodeSet(buf, src, ref)
	if _, err := dst.DecodeFromRef(bytes.NewReader(buf.Bytes()), ref); err != nil {
		panic("transport: inproc compressed decode: " + err.Error())
	}
	t.bufs.Put(buf)
	return n
}

// Send implements Transport: the receiver observes the sender's set
// (quantized in place first when compression is on). The in-memory
// backend never fails.
func (t *Inproc) Send(round, _ int, payload *param.Set, _ *param.Buffers) (*param.Set, error) {
	wire := int64(payload.WireBytes())
	n := wire
	if t.comp.Enabled() {
		n = t.roundTrip(payload, payload, t.sendRef(round))
	}
	t.messages.Add(1)
	t.bytes.Add(n)
	t.rawBytes.Add(wire)
	return payload, nil
}

// OpenBroadcast implements Transport. In compressed mode the borrowed
// source stays untouched — its quantized image is staged in a pooled
// copy that Deliver fans out, and the original becomes the round's
// delta reference for uploads, exactly mirroring the serializing
// backends (whose server-side model never degrades either).
func (t *Inproc) OpenBroadcast(round int, src *param.Set) (Broadcast, error) {
	wire := int64(src.WireBytes())
	b := &inprocBroadcast{t: t, src: src, wire: wire, n: wire}
	if t.comp.Enabled() {
		stage := t.stage.GetShaped(src)
		if stage == nil {
			stage = src.Clone()
		}
		b.n = t.roundTrip(src, stage, nil)
		b.stage = stage
		t.setRef(round, src)
	}
	return b, nil
}

type inprocBroadcast struct {
	t     *Inproc
	src   *param.Set
	stage *param.Set // quantized image, compressed mode only
	wire  int64      // dense-codec size
	n     int64      // encoded size actually accounted
}

// Deliver copies the source (or its staged quantized image) directly
// into the receiver's set.
func (b *inprocBroadcast) Deliver(_ int, dst *param.Set) error {
	if b.stage != nil {
		dst.CopyFrom(b.stage)
	} else {
		dst.CopyFrom(b.src)
	}
	b.t.bMessages.Add(1)
	b.t.bBytes.Add(b.n)
	b.t.rawBBytes.Add(b.wire)
	return nil
}

func (b *inprocBroadcast) Close() {
	if b.stage != nil {
		b.t.stage.Put(b.stage)
		b.stage = nil
		b.t.clearRef()
	}
	b.src = nil
}
