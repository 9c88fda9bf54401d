package param

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

func TestSerializeRoundTrip(t *testing.T) {
	s := newTestSet(1.5, -2, 0, 4.25, 1e-9, 6e12)
	var buf bytes.Buffer
	wrote, err := s.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if wrote != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", wrote, buf.Len())
	}
	if int(wrote) != s.WireBytes() {
		t.Fatalf("WireBytes %d != actual %d", s.WireBytes(), wrote)
	}
	out := New()
	read, err := out.ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if read != wrote {
		t.Fatalf("read %d bytes, want %d", read, wrote)
	}
	if !Equal(s, out, 0) {
		t.Fatal("round trip changed values")
	}
	// Entry order and shapes preserved.
	if strings.Join(out.Names(), ",") != strings.Join(s.Names(), ",") {
		t.Fatal("entry order lost")
	}
}

func TestSerializeEmptySet(t *testing.T) {
	s := New()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := newTestSet(1, 2) // non-empty receiver gets replaced
	if _, err := out.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatal("deserialized empty set has entries")
	}
}

func TestDeserializeErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty input": {},
		"bad magic":   []byte("XXXX\x00\x00\x00\x00"),
		"truncated":   []byte("CPS1\x02\x00\x00\x00"),
	}
	for name, in := range cases {
		out := New()
		if _, err := out.ReadFrom(bytes.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestDeserializeRejectsNaN(t *testing.T) {
	s := New()
	s.AddVector("v", []float64{1})
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the float into a NaN (all-ones exponent + mantissa bit).
	b := buf.Bytes()
	for i := len(b) - 8; i < len(b); i++ {
		b[i] = 0xFF
	}
	out := New()
	if _, err := out.ReadFrom(bytes.NewReader(b)); err == nil {
		t.Fatal("NaN payload must be rejected")
	}
}

func TestWireBytesMatchesModelScale(t *testing.T) {
	s := New()
	s.Add("m", 10, 4, make([]float64, 40))
	want := 4 + 4 + (4 + 1 + 8 + 8*40)
	if got := s.WireBytes(); got != want {
		t.Fatalf("WireBytes = %d, want %d", got, want)
	}
}

// Every decoder entry point must reassemble values that straddle short
// reads: a network stream hands the codec whatever bytes have arrived.
// Each stream (dense CPS1, and CPQ1 at both widths both absolute and
// delta-coded against a reference that differs from the source) is
// decoded through fragmenting readers on both codec paths and must
// equal the decode from one contiguous reader.
func TestDecodeFragmentedReads(t *testing.T) {
	src := quantTestPayloads(61)
	ref := src.Clone()
	for i := 0; i < ref.Len(); i++ {
		d := ref.At(i).Data
		for j := 0; j < len(d); j += 7 {
			d[j] += 0.5 // sparse delta: most coordinates still match
		}
	}
	smooth := ref.Get("smooth")
	for j := range smooth {
		smooth[j] -= 0.25 // dense delta
	}
	readers := map[string]func(io.Reader) io.Reader{
		"one-byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
		"data-err": iotest.DataErrReader,
	}
	cases := []struct {
		name string
		bits int
		ref  *Set
	}{
		{"dense", 0, nil},
		{"c8", 8, nil},
		{"c16", 16, nil},
		{"c8-delta", 8, ref},
		{"c16-delta", 16, ref},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		var err error
		if c.bits == 0 {
			_, err = src.WriteTo(&buf)
		} else {
			_, err = src.WriteCompressedTo(&buf, Compression{Bits: c.bits}, c.ref)
		}
		if err != nil {
			t.Fatal(err)
		}
		stream := buf.Bytes()
		// Delta-coded streams only decode against their reference.
		decoders := map[string]func(io.Reader) (*Set, int64, error){
			"DecodeFromRef": func(r io.Reader) (*Set, int64, error) {
				dst := src.Clone()
				dst.Scale(0)
				n, err := dst.DecodeFromRef(r, c.ref)
				return dst, n, err
			},
		}
		if c.ref == nil {
			decoders["ReadFrom"] = func(r io.Reader) (*Set, int64, error) {
				dst := New()
				n, err := dst.ReadFrom(r)
				return dst, n, err
			}
			decoders["DecodeFrom"] = func(r io.Reader) (*Set, int64, error) {
				dst := src.Clone()
				dst.Scale(0)
				n, err := dst.DecodeFrom(r)
				return dst, n, err
			}
		}
		for _, portable := range []bool{false, true} {
			run := func(f func()) { f() }
			if portable {
				run = func(f func()) { withPortableCodec(t, f) }
			}
			for dname, decode := range decoders {
				run(func() {
					want, wantN, err := decode(bytes.NewReader(stream))
					if err != nil {
						t.Fatalf("%s %s contiguous: %v", c.name, dname, err)
					}
					for rname, wrap := range readers {
						got, n, err := decode(wrap(bytes.NewReader(stream)))
						if err != nil {
							t.Fatalf("%s %s %s (portable=%v): %v", c.name, dname, rname, portable, err)
						}
						if n != wantN || !Equal(want, got, 0) {
							t.Fatalf("%s %s %s (portable=%v): decode differs from the contiguous one", c.name, dname, rname, portable)
						}
					}
				})
			}
		}
	}
}
