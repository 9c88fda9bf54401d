package transport

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/transport/rpc"
)

// Socket is the multi-process backend: every parameter transfer is a
// framed request/response round-trip over a real socket (Unix-domain
// or TCP) against an internal/transport/rpc server. A point-to-point
// Send uploads the codec bytes and decodes the relay the server
// answers with — the bytes the receiving participant observes; a
// broadcast uploads its source once and downloads it per receiver,
// like a parameter server fanning out the global model.
//
// In loopback mode (transport.New("socket") / "socket-tcp") the Socket
// owns an in-process rpc.Server listening on a real socket, so the
// complete network path — framing, kernel socket buffers, concurrent
// connections — runs inside one process, deterministically. Dialed
// mode (transport.Dial) connects to an external worker (cmd/ciaworker)
// and the same round spans OS processes.
//
// Like Wire, Socket panics on codec failures — the bytes come from the
// matching encoder, so a parse failure is a bug. Network failures are a
// runtime condition, handled by the client's RetryPolicy: a round-trip
// that exhausts its attempts surfaces as a transfer error (wrapping
// rpc.ErrUnavailable) for the simulators to treat as a lost message or
// unreachable participant.
type Socket struct {
	counters
	compressor
	name string
	cl   *rpc.Client
	srv  *rpc.Server // loopback mode only
	dir  string      // loopback unix socket temp dir
	bufs sync.Pool   // *bytes.Buffer
}

var _ Transport = (*Socket)(nil)

// newLoopbackSocket starts an in-process rpc.Server on the given
// network ("unix" on a fresh temp-dir socket path, "tcp" on a
// kernel-assigned loopback port) and connects a Socket to it.
func newLoopbackSocket(network string, policy rpc.RetryPolicy, comp param.Compression) (*Socket, error) {
	var addr, dir string
	switch network {
	case "unix":
		d, err := os.MkdirTemp("", "ciarec-sock-")
		if err != nil {
			return nil, fmt.Errorf("transport: loopback socket dir: %w", err)
		}
		dir = d
		addr = filepath.Join(d, "rpc.sock")
	case "tcp":
		addr = "127.0.0.1:0"
	default:
		return nil, fmt.Errorf("transport: unsupported loopback network %q", network)
	}
	srv, err := rpc.Serve(network, addr)
	if err != nil {
		if dir != "" {
			os.RemoveAll(dir)
		}
		return nil, err
	}
	t, err := dialSocket(network, srv.Addr(), policy, comp)
	if err != nil {
		srv.Close()
		if dir != "" {
			os.RemoveAll(dir)
		}
		return nil, err
	}
	t.srv = srv
	t.dir = dir
	return t, nil
}

// dialSocket connects a Socket to an already-running server.
func dialSocket(network, addr string, policy rpc.RetryPolicy, comp param.Compression) (*Socket, error) {
	cl, err := rpc.DialPolicy(network, addr, policy)
	if err != nil {
		return nil, err
	}
	name := "socket"
	if network == "tcp" {
		name = "socket-tcp"
	}
	t := &Socket{name: name, cl: cl}
	t.comp = comp
	return t, nil
}

// Name implements Transport.
func (t *Socket) Name() string { return t.name }

// Stats implements Transport, adding the RPC exchange counters on top
// of the shared traffic accounting.
func (t *Socket) Stats() Stats {
	st := t.counters.Stats()
	st.RoundTrips = t.cl.RoundTrips()
	st.Reconnects = t.cl.Reconnects()
	st.Retries = t.cl.Retries()
	st.Timeouts = t.cl.Timeouts()
	st.GaveUp = t.cl.GaveUp()
	return st
}

// Close implements Transport: it closes the connection pool and, in
// loopback mode, shuts the in-process server down (unlinking the unix
// socket). A second Close returns rpc.ErrClientClosed.
func (t *Socket) Close() error {
	err := t.cl.Close()
	if t.srv != nil {
		if serr := t.srv.Close(); err == nil {
			err = serr
		}
	}
	if t.dir != "" {
		os.RemoveAll(t.dir)
	}
	return err
}

func (t *Socket) getBuf() *bytes.Buffer {
	if b, ok := t.bufs.Get().(*bytes.Buffer); ok {
		b.Reset()
		return b
	}
	return new(bytes.Buffer)
}

// encode marshals s into a pooled buffer and returns it with the
// encoded length (delta-coded against ref in compressed mode).
func (t *Socket) encode(s, ref *param.Set) (*bytes.Buffer, int64) {
	buf := t.getBuf()
	return buf, t.encodeSet(buf, s, ref)
}

// decodeFrame decodes an RPC response payload into dst, which must
// have the encoded structure (and the encoder's ref in compressed
// delta mode — the server relays the frame bytes untouched, so the
// reference lives only on this, the encoding, side).
func decodeFrame(f *rpc.Frame, dst, ref *param.Set) error {
	var r bytes.Reader
	r.Reset(f.Payload)
	if _, err := dst.DecodeFromRef(&r, ref); err != nil {
		return err
	}
	return nil
}

// Send implements Transport: marshal, round-trip the bytes through the
// RPC server, recycle the sender's set, and unmarshal the relayed
// response into a pool-recycled set of the same structure. On RPC
// failure (the server stayed unreachable through the RetryPolicy) the
// payload has already been recycled, the receive set is returned to
// the pool, and the error surfaces for the simulator to treat as a
// lost message.
func (t *Socket) Send(round, from int, payload *param.Set, pool *param.Buffers) (*param.Set, error) {
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
	err := t.cl.RoundTrip(rpc.MsgSend, uint32(round), uint32(from), buf.Bytes(), func(f *rpc.Frame) error {
		if f.Type != rpc.MsgSendAck {
			return fmt.Errorf("unexpected response type %d to send", f.Type)
		}
		return decodeFrame(f, recv, ref)
	})
	t.bufs.Put(buf)
	if err != nil {
		pool.Put(recv)
		return nil, fmt.Errorf("transport: socket send: %w", err)
	}
	t.messages.Add(1)
	t.bytes.Add(n)
	t.rawBytes.Add(wire)
	return recv, nil
}

// OpenBroadcast implements Transport: upload the encoded source once
// (coded absolute — receivers have no reference yet); every Deliver
// downloads and decodes it. In compressed mode the source also becomes
// the round's delta reference for uploads until Close; the reference
// never crosses the socket, so a server restart or relay cannot
// desynchronize it.
func (t *Socket) OpenBroadcast(round int, src *param.Set) (Broadcast, error) {
	buf, n := t.encode(src, nil)
	var id uint32
	err := t.cl.RoundTrip(rpc.MsgBcastOpen, uint32(round), 0, buf.Bytes(), func(f *rpc.Frame) error {
		if f.Type != rpc.MsgBcastOpened {
			return fmt.Errorf("unexpected response type %d to broadcast open", f.Type)
		}
		id = f.ID
		return nil
	})
	t.bufs.Put(buf)
	if err != nil {
		return nil, fmt.Errorf("transport: socket broadcast open: %w", err)
	}
	t.setRef(round, src)
	return &socketBroadcast{t: t, round: uint32(round), id: id, n: n, wire: int64(src.WireBytes())}, nil
}

type socketBroadcast struct {
	t     *Socket
	round uint32
	id    uint32
	n     int64
	wire  int64
}

// Deliver downloads the stored broadcast payload into dst. Concurrent
// Delivers each ride their own pooled connection. On RPC failure dst
// is unchanged and the error surfaces for the simulator to treat as an
// unreachable receiver.
func (b *socketBroadcast) Deliver(_ int, dst *param.Set) error {
	err := b.t.cl.RoundTrip(rpc.MsgBcastGet, b.round, b.id, nil, func(f *rpc.Frame) error {
		if f.Type != rpc.MsgBcastData {
			return fmt.Errorf("unexpected response type %d to broadcast get", f.Type)
		}
		return decodeFrame(f, dst, nil)
	})
	if err != nil {
		return fmt.Errorf("transport: socket broadcast deliver: %w", err)
	}
	b.t.bMessages.Add(1)
	b.t.bBytes.Add(b.n)
	b.t.rawBBytes.Add(b.wire)
	return nil
}

// Close releases the server-side broadcast storage. A close that fails
// (server unreachable) is tolerated silently: the server's bounded
// broadcast store evicts the orphaned entry on its own.
func (b *socketBroadcast) Close() {
	b.t.clearRef()
	b.t.cl.RoundTrip(rpc.MsgBcastClose, b.round, b.id, nil, func(f *rpc.Frame) error {
		if f.Type != rpc.MsgBcastClosed {
			return fmt.Errorf("unexpected response type %d to broadcast close", f.Type)
		}
		return nil
	})
}
