package transport

import (
	"bytes"
	"testing"
)

// FuzzReadMessage throws arbitrary bytes at the frame decoder every
// connection runs on a peer's stream. It must return an error or one frame
// whose payload is within MaxPayload, never panic, and an accepted frame
// must re-encode to exactly the bytes it was read from.
func FuzzReadMessage(f *testing.F) {
	for _, m := range []Message{
		{Type: MsgHello, Arg: ProtocolVersion, Payload: make([]byte, 32)},
		{Type: MsgBlockData, Arg: 7, Payload: bytes.Repeat([]byte{0xAB}, 64)},
		{Type: MsgDone},
	} {
		frame, err := encode(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{byte(MsgExtent), 1, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}) // length past MaxPayload
	f.Add([]byte{byte(MsgBlockData), 0, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 1})       // short payload
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := readMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		defer PutBuf(m.Payload)
		if len(m.Payload) > MaxPayload {
			t.Fatalf("accepted a %d-byte payload, max %d", len(m.Payload), MaxPayload)
		}
		frame, err := encode(nil, m)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if m.FrameSize() != len(frame) || !bytes.Equal(frame, data[:len(frame)]) {
			t.Fatalf("frame re-encodes to %x, read from %x", frame, data[:m.FrameSize()])
		}
	})
}

// FuzzGeometry throws arbitrary bytes at the HELLO geometry decoder, whose
// numbers size the receiver's disk, memory and bitmaps. An accepted
// geometry must lie within the MaxGeometry bounds and marshal back to the
// same bytes.
func FuzzGeometry(f *testing.F) {
	for _, g := range []Geometry{
		{BlockSize: 4096, NumBlocks: 65536, PageSize: 4096, NumPages: 8192},
		{BlockSize: 512, PageSize: 4096},
		{BlockSize: MaxGeometryUnit, NumBlocks: MaxGeometryBlocks, PageSize: MaxGeometryUnit, NumPages: MaxGeometryPages},
		{BlockSize: 4096, NumBlocks: 1 << 61, PageSize: 4096, NumPages: 16},
	} {
		b, err := g.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Geometry
		if err := g.UnmarshalBinary(data); err != nil {
			return
		}
		if g.BlockSize <= 0 || g.BlockSize > MaxGeometryUnit || g.PageSize <= 0 || g.PageSize > MaxGeometryUnit ||
			g.NumBlocks < 0 || g.NumBlocks > MaxGeometryBlocks || g.NumPages < 0 || g.NumPages > MaxGeometryPages {
			t.Fatalf("accepted out-of-bounds geometry %+v", g)
		}
		again, err := g.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("geometry %+v marshals to %x, read from %x", g, again, data)
		}
	})
}
