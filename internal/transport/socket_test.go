package transport

import (
	"errors"
	"testing"

	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/transport/rpc"
)

// The socket backends must round-trip values bit-exactly through a
// real kernel socket, never alias the sender's storage, and account
// the RPC exchanges in the new Stats counters.
func TestSocketSendRoundTripsValues(t *testing.T) {
	for _, name := range []string{"socket", "socket-tcp"} {
		t.Run(name, func(t *testing.T) {
			tr, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			var pool param.Buffers
			payload := testSet(1)
			want := payload.Clone()
			got, err := tr.Send(3, 7, payload, &pool)
			if err != nil {
				t.Fatal(err)
			}
			if got == payload {
				t.Fatal("socket Send must not return the sender's set")
			}
			if !param.Equal(want, got, 0) {
				t.Fatal("socket Send changed values")
			}
			st := tr.Stats()
			if st.Messages != 1 || st.Bytes != int64(want.WireBytes()) {
				t.Fatalf("stats = %+v, want 1 message of %d bytes", st, want.WireBytes())
			}
			if st.RoundTrips != 1 {
				t.Fatalf("round-trips = %d, want 1", st.RoundTrips)
			}
			bc, err := tr.OpenBroadcast(4, want)
			if err != nil {
				t.Fatal(err)
			}
			dst := testSet(0)
			if err := bc.Deliver(0, dst); err != nil {
				t.Fatal(err)
			}
			bc.Close()
			if !param.Equal(want, dst, 0) {
				t.Fatal("socket broadcast changed values")
			}
			st = tr.Stats()
			if st.BroadcastMessages != 1 || st.BroadcastBytes != int64(want.WireBytes()) {
				t.Fatalf("broadcast stats = %+v", st)
			}
			// Send + broadcast open + deliver + close = 4 exchanges.
			if st.RoundTrips != 4 {
				t.Fatalf("round-trips = %d, want 4", st.RoundTrips)
			}
		})
	}
}

// Dial must reach an externally managed rpc.Server (the ciaworker
// deployment shape) and reject backends that have no address.
func TestSocketDialExternal(t *testing.T) {
	srv, err := rpc.Serve("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := Dial("socket-tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var pool param.Buffers
	want := testSet(2)
	got, err := tr.Send(0, 0, pool.Clone(want), &pool)
	if err != nil {
		t.Fatal(err)
	}
	if !param.Equal(want, got, 0) {
		t.Fatal("dialed socket Send changed values")
	}
	if _, err := Dial("wire", "nowhere"); err == nil {
		t.Fatal("Dial must reject in-process backends")
	}
	if _, err := Dial("socket-tcp", "127.0.0.1:1"); err == nil {
		t.Fatal("Dial must fail eagerly on an unreachable address")
	}
}

// Closing a socket transport twice must return a typed error, and the
// loopback server must shut down with it (a fresh Dial to its address
// fails).
func TestSocketDoubleClose(t *testing.T) {
	tr, err := New("socket-tcp")
	if err != nil {
		t.Fatal(err)
	}
	addr := tr.(*Socket).srv.Addr()
	if err := tr.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := tr.Close(); !errors.Is(err, rpc.ErrClientClosed) {
		t.Fatalf("second Close = %v, want rpc.ErrClientClosed", err)
	}
	if _, err := Dial("socket-tcp", addr); err == nil {
		t.Fatal("loopback server must be down after Close")
	}
}
