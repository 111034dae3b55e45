package hostd

import (
	"testing"

	"bbmig/internal/transport"
	"bbmig/internal/workload"
)

// FuzzAnnounce throws arbitrary bytes at the announce parser, the first
// payload a receiving machine reads from a peer: it must return an error or
// an announce, never panic, and any announce it accepts must survive
// marshal and a second parse as an equal value.
func FuzzAnnounce(f *testing.F) {
	geom := transport.Geometry{BlockSize: 4096, NumBlocks: 100, PageSize: 4096, NumPages: 50}
	for _, a := range []announce{
		{name: "guest-7", srcHost: "machine-A", geom: geom, kind: workload.Diabolic, work: true, streams: 3, compress: -1},
		{name: "g", geom: geom, streams: 1, resume: true, dedup: true, swarm: true, delta: true, compress: 9},
		{geom: transport.Geometry{BlockSize: 512, PageSize: 4096}},
	} {
		data, err := a.marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	gb, _ := geom.MarshalBinary()
	// Hand-built, every flag byte set: name "x", no source host, 4 streams,
	// flate level -1.
	f.Add(append([]byte{1, 0, 0, 0, byte(workload.Web), 1, 4, 0xff, 1, 1, 1, 1, 'x'}, gb...))
	f.Add(make([]byte, announceHeaderLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := unmarshalAnnounce(data)
		if err != nil {
			return
		}
		again, err := a.marshal()
		if err != nil {
			t.Fatalf("accepted announce %+v does not marshal: %v", a, err)
		}
		a2, err := unmarshalAnnounce(again)
		if err != nil {
			t.Fatalf("re-marshalled announce rejected: %v", err)
		}
		if a2 != a {
			t.Fatalf("announce round trip changed the value:\n%+v\n%+v", a, a2)
		}
	})
}
