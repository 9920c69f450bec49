package rpcsim

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/sim"
	"repro/internal/streamsim"
	"repro/internal/xdr"
)

// BenchmarkCallUDP times one 8 KiB WRITE round trip over UDP: the call's
// encode and send, its six fragments' delivery, a bare reply and its
// match in the softirq handler.
func BenchmarkCallUDP(b *testing.B) { benchCall(b, TransportUDP) }

// BenchmarkCallTCP is the same round trip over the stream transport: six
// data segments, their ACKs, record reassembly at each end and the reply
// record.
func BenchmarkCallTCP(b *testing.B) { benchCall(b, TransportTCP) }

func benchCall(b *testing.B, kind TransportKind) {
	s, tr := benchRig(kind)
	defer s.Close()
	args := nfsproto.WriteArgs{File: nfsproto.MakeFileHandle(1, 1), Count: 8192, Data: make([]byte, 8192)}
	encode := func(e *xdr.Encoder) { args.Encode(e) }
	calls := func(p *sim.Proc, n int) {
		for range n {
			if _, err := CallSync(tr, p, nfsproto.ProcWrite, encode, nullReply); err != nil {
				b.Error(err)
			}
		}
	}
	measure := s.NewWaitQueue()
	s.Go("caller", func(p *sim.Proc) {
		calls(p, 10) // warm the stocks and pools
		measure.Wait(p)
		calls(p, b.N)
	})
	s.Run(0)
	b.ReportAllocs()
	b.ResetTimer()
	measure.Signal()
	s.Run(0)
	if st := tr.Stats(); st.Replies != int64(10+b.N) {
		b.Fatalf("%d replies to %d calls", st.Replies, 10+b.N)
	}
}

// benchRig wires a transport of the given kind to a responder that
// answers every call at once with a bare reply header and hands each
// buffer back as the server does, so a round trip costs only the
// transport and the layers below it.
func benchRig(kind TransportKind) (*sim.Sim, *Transport) {
	s := sim.New(1)
	net := netsim.New(s)
	link := netsim.DefaultGigabit()
	net.AddHost("c", link, nil)
	reply := func(xid uint32) []byte {
		e := xdr.AcquireEncoder()
		nfsproto.ReplyHeader{XID: xid}.Encode(e)
		return e.Take()
	}
	if kind == TransportTCP {
		var ep *streamsim.Endpoint
		net.AddHost("srv", link, func(dg netsim.Datagram) { ep.HandleDatagram(dg.Payload) })
		ep = streamsim.NewEndpoint(s, net, streamsim.DefaultConfig(link.MTU), "srv", "c", func(rec []byte) {
			r := reply(xidOf(rec))
			xdr.RecycleBuffer(rec)
			ep.SendRecord(r)
			xdr.RecycleBuffer(r)
		})
	} else {
		net.AddHost("srv", link, func(dg netsim.Datagram) {
			r := reply(xidOf(dg.Payload))
			dg.Owner.Release(dg.Payload)
			if net.Send(netsim.Datagram{From: "srv", To: "c", Payload: r, Owner: xdr.Recycler{}}).Dropped {
				xdr.RecycleBuffer(r)
			}
		})
	}
	cfg := DefaultConfig()
	cfg.Transport = kind
	return s, New(s, net, s.NewCPUPool(1), s.NewMutex("bkl"), cfg, "c", "srv")
}
